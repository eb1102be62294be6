import ast
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, strategies as st

from scipy.linalg import lapack

import trimreg
from trimreg import linalg
from trimreg.classic import fit_ols
from trimreg.errors import RankDeficient, TooFewRows
from trimreg.linalg import RANK_TOL, Dataset, factor_qr, lstsq_qr, pivoted_qr


def normal_equation_oracle(X, y):
    """Naive (X'X)^-1 X'y, independent of the QR path."""
    return np.linalg.solve(X.T @ X, X.T @ y)


def test_identity_line():
    x = np.arange(1.0, 7.0)
    d = Dataset(y=x.copy(), x=x.reshape(-1, 1))
    beta = lstsq_qr(d.design, d.y)
    assert np.allclose(beta, [0.0, 1.0], atol=1e-12)


def test_intercept_only_mean():
    d = Dataset(y=np.full(5, 3.25), x=np.empty((5, 0)))
    beta = lstsq_qr(d.design, d.y)
    assert beta.shape == (1,)
    assert beta[0] == pytest.approx(3.25, abs=1e-14)


def test_matches_normal_equation_oracle(rng):
    x = rng.normal(size=(12, 3))
    y = rng.normal(size=12)
    d = Dataset(y=y, x=x)
    beta = lstsq_qr(d.design, d.y)
    expected = normal_equation_oracle(d.design, y)
    assert np.allclose(beta, expected, rtol=1e-8, atol=1e-10)


def test_active_subset(rng):
    x = rng.normal(size=(30, 2))
    y = rng.normal(size=30)
    d = Dataset(y=y, x=x)
    active = np.array([0, 3, 4, 7, 11, 15, 22, 29])
    beta = lstsq_qr(d.design[active], d.y[active])
    expected = normal_equation_oracle(d.design[active], y[active])
    assert np.allclose(beta, expected, rtol=1e-8)


def test_orthogonality_of_restricted_residuals(rng):
    for _ in range(20):
        n, dcols = rng.integers(6, 25), rng.integers(0, 4)
        x = rng.normal(size=(int(n), int(dcols)))
        y = rng.normal(size=int(n))
        d = Dataset(y=y, x=x)
        active = np.sort(rng.choice(int(n), size=int(n) - 2, replace=False))
        beta = lstsq_qr(d.design[active], d.y[active])
        r = (d.y - d.design @ beta)[active]
        cols = d.design[active]
        scale = np.linalg.norm(y) * np.linalg.norm(cols, axis=0) + 1e-30
        assert np.all(np.abs(cols.T @ r) <= 1e-8 * scale)


def test_deterministic_bitwise(rng):
    x = rng.normal(size=(15, 3))
    y = rng.normal(size=15)
    d = Dataset(y=y, x=x)
    b1 = lstsq_qr(d.design, d.y)
    b2 = lstsq_qr(d.design, d.y)
    assert np.array_equal(b1, b2)


def test_rank_deficient_duplicate_column(rng):
    x1 = rng.normal(size=10)
    d = Dataset(y=rng.normal(size=10), x=np.column_stack([x1, x1]))
    with pytest.raises(RankDeficient):
        lstsq_qr(d.design, d.y)


def test_too_few_rows(rng):
    d = Dataset(y=rng.normal(size=10), x=rng.normal(size=(10, 4)))
    with pytest.raises(TooFewRows):
        lstsq_qr(d.design[:4], d.y[:4])


@pytest.mark.parametrize("make, error", [
    (lambda r: r.normal(size=(10, 3)), None),
    (lambda r: np.empty((4, 0)), None),
    (lambda r: r.normal(size=(2, 3)), TooFewRows),
    (lambda r: np.zeros((6, 2)), RankDeficient),
    (lambda r: np.column_stack([np.ones(8), np.arange(8.0), np.arange(8.0)]), RankDeficient),
    (lambda r: np.column_stack([np.ones(8), 1e-11 * r.normal(size=8)]), RankDeficient),
])
def test_factor_qr_fails_where_lstsq_qr_fails(rng, make, error):
    X = make(rng)
    y = rng.normal(size=X.shape[0])
    if error is None:
        assert factor_qr(X)(y).tobytes() == lstsq_qr(X, y).tobytes()
        return
    with pytest.raises(error):
        factor_qr(X)
    with pytest.raises(error):
        lstsq_qr(X, y)


def test_factor_qr_reuses_one_factorization(rng):
    X = rng.normal(size=(30, 3))
    solve = factor_qr(X)
    for _ in range(5):
        y = rng.normal(size=30)
        assert solve(y).tobytes() == lstsq_qr(X, y).tobytes()


def _scipy_path_solve(X, y):
    """The solve as scipy's wrappers did it: `qr` then `solve_triangular`."""
    Q, R, piv = sla.qr(X, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    if diag[0] == 0.0 or np.min(diag) < RANK_TOL * diag[0]:
        raise RankDeficient("pivot ratio below RANK_TOL")
    beta = np.empty(X.shape[1])
    beta[piv] = sla.solve_triangular(R, Q.T @ y, lower=False)
    return beta


def _designs(r):
    """Designs of widths 1..6 as the estimators build them: full samples,
    row subsets, IRLS-weighted rows, and near-collinear columns."""
    for q in range(1, 7):
        for n in sorted({q, q + 1, 2 * q + 3, 40, 110, 200}):
            X = np.column_stack([np.ones(n), r.normal(size=(n, q - 1))])
            X[:, 1:] *= np.exp(r.uniform(-3.0, 3.0, size=q - 1))
            yield X
            keep = np.sort(r.choice(n, size=max(q, n - n // 5), replace=False))
            yield X[keep]
            yield X * (1.0 / np.maximum(np.abs(r.standard_cauchy(n)), 1e-6))[:, None]
            if q > 1 and n > q:
                near = X.copy()
                near[:, -1] = near[:, 0] + 10.0 ** r.uniform(-13, -6) * r.normal(size=n)
                yield near


def test_factor_qr_bitwise_equals_scipy_path(rng):
    n_rank, n_full = 0, 0
    for X in _designs(rng):
        ys = [rng.normal(size=X.shape[0]) * 10.0 ** rng.uniform(-3, 3) for _ in range(3)]
        try:
            want = [_scipy_path_solve(X, y) for y in ys]
        except RankDeficient:
            n_rank += 1
            with pytest.raises(RankDeficient):
                factor_qr(X)
            continue
        n_full += 1
        solve = factor_qr(X)
        for y, w in zip(ys, want):
            assert solve(y).tobytes() == w.tobytes()
            assert lstsq_qr(X, y).tobytes() == w.tobytes()
    assert n_rank > 0 and n_full > 100


def test_cached_workspace_equals_a_fresh_query(rng):
    shapes = [(3, 3), (5, 2), (40, 3), (120, 4), (200, 7), (1000, 6)]
    for n, q in shapes:
        pivoted_qr(rng.normal(size=(n, q)))
    size = len(linalg._LWORK)
    for n, q in shapes:
        X = np.asfortranarray(rng.normal(size=(n, q)))
        fresh = int(lapack.dgeqp3(X, lwork=-1)[-2][0])
        assert linalg._LWORK[(lapack.dgeqp3, (n, q))] == fresh
        qr, _, tau, _, _ = lapack.dgeqp3(X)
        fresh = int(lapack.dorgqr(qr, tau, lwork=-1)[-2][0])
        assert linalg._LWORK[(lapack.dorgqr, (n, q), (q,))] == fresh
        pivoted_qr(X)
    assert len(linalg._LWORK) == size  # a shape seen once is never queried again


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_factor_qr_rejects_non_finite_input(rng, bad):
    X = rng.normal(size=(12, 3))
    y = rng.normal(size=12)
    X_bad = X.copy()
    X_bad[4, 1] = bad
    with pytest.raises(ValueError):
        factor_qr(X_bad)
    y_bad = y.copy()
    y_bad[7] = bad
    with pytest.raises(ValueError):
        factor_qr(X)(y_bad)
    with pytest.raises(ValueError):
        lstsq_qr(X, y_bad)


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_qr_agrees_with_normal_equations(seed):
    r = np.random.default_rng(seed)
    n = int(r.integers(6, 40))
    x = r.normal(size=(n, 2))
    y = r.normal(size=n)
    d = Dataset(y=y, x=x)
    if np.linalg.cond(d.design) > 1e6:
        return
    beta = lstsq_qr(d.design, d.y)
    expected = normal_equation_oracle(d.design, y)
    assert np.allclose(beta, expected, rtol=1e-8, atol=1e-10)


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(y=np.array([1.0, np.nan]), x=np.ones((2, 1)))
    with pytest.raises(ValueError):
        Dataset(y=np.ones(3), x=np.ones((2, 1)))
    with pytest.raises(ValueError):
        Dataset(y=np.empty(0), x=np.empty((0, 1)))


def test_dataset_owns_its_arrays(rng):
    # edits to the caller's arrays after construction move no fit
    x = rng.normal(size=(20, 2))
    y = x @ np.array([1.0, -1.0]) + rng.normal(size=20)
    d = Dataset(y=y, x=x)
    before = fit_ols(d).beta.copy()
    y[3] += 100.0
    x[5, 0] += 100.0
    assert np.array_equal(fit_ols(d).beta, before)
    assert np.array_equal(d.design[:, 1:], d.x)
    for arr in (d.y, d.x, d.design):
        assert not arr.flags.writeable


# solvers with their own rank rule, outside the one pivoted-QR path
OTHER_SOLVERS = {"inv", "lstsq", "pinv"}


def _other_solver_uses(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in OTHER_SOLVERS:
            yield node.lineno, ast.unparse(node)
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("linalg"):
            for alias in node.names:
                if alias.name in OTHER_SOLVERS:
                    yield node.lineno, f"from {node.module} import {alias.name}"


def test_library_solves_least_squares_only_by_pivoted_qr():
    # every least-squares solve goes through `linalg`'s pivoted QR, so
    # that one rank test decides every fit and every swap score
    seen = ("import numpy as np\nfrom numpy.linalg import pinv\n"
            "np.linalg.inv(a)\nnumpy.linalg.lstsq(a, b)\nnp.linalg.solve(a, b)\n")
    assert [text for _, text in _other_solver_uses(ast.parse(seen))] == [
        "from numpy.linalg import pinv", "np.linalg.inv", "numpy.linalg.lstsq"]
    found = []
    for path in sorted(Path(trimreg.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [f"{path.name}:{line}: {text}" for line, text in _other_solver_uses(tree)]
    assert not found
