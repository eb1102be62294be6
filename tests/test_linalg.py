import numpy as np
import pytest
from hypothesis import given, strategies as st

from trimreg.errors import RankDeficient, TooFewRows
from trimreg.linalg import Dataset, factor_qr, lstsq_qr, residuals, solve_least_squares


def normal_equation_oracle(X, y):
    """Naive (X'X)^-1 X'y, independent of the QR path."""
    return np.linalg.solve(X.T @ X, X.T @ y)


def test_identity_line():
    x = np.arange(1.0, 7.0)
    d = Dataset(y=x.copy(), x=x.reshape(-1, 1))
    beta = solve_least_squares(d, np.arange(6))
    assert np.allclose(beta, [0.0, 1.0], atol=1e-12)


def test_intercept_only_mean():
    d = Dataset(y=np.full(5, 3.25), x=np.empty((5, 0)))
    beta = solve_least_squares(d, np.arange(5))
    assert beta.shape == (1,)
    assert beta[0] == pytest.approx(3.25, abs=1e-14)


def test_matches_normal_equation_oracle(rng):
    x = rng.normal(size=(12, 3))
    y = rng.normal(size=12)
    d = Dataset(y=y, x=x)
    beta = solve_least_squares(d, np.arange(12))
    expected = normal_equation_oracle(d.design, y)
    assert np.allclose(beta, expected, rtol=1e-8, atol=1e-10)


def test_active_subset(rng):
    x = rng.normal(size=(30, 2))
    y = rng.normal(size=30)
    d = Dataset(y=y, x=x)
    active = np.array([0, 3, 4, 7, 11, 15, 22, 29])
    beta = solve_least_squares(d, active)
    expected = normal_equation_oracle(d.design[active], y[active])
    assert np.allclose(beta, expected, rtol=1e-8)


def test_orthogonality_of_restricted_residuals(rng):
    for _ in range(20):
        n, dcols = rng.integers(6, 25), rng.integers(0, 4)
        x = rng.normal(size=(int(n), int(dcols)))
        y = rng.normal(size=int(n))
        d = Dataset(y=y, x=x)
        active = np.sort(rng.choice(int(n), size=int(n) - 2, replace=False))
        beta = solve_least_squares(d, active)
        r = (d.y - d.design @ beta)[active]
        cols = d.design[active]
        scale = np.linalg.norm(y) * np.linalg.norm(cols, axis=0) + 1e-30
        assert np.all(np.abs(cols.T @ r) <= 1e-8 * scale)


def test_residuals_perfect_fit():
    x = np.linspace(0, 1, 9)
    y = 2.0 + 3.0 * x
    d = Dataset(y=y, x=x.reshape(-1, 1))
    r = residuals(d, np.array([2.0, 3.0]))
    assert np.allclose(r, 0.0, atol=1e-14)


def test_residuals_zero_beta():
    y = np.array([1.0, -2.0, 5.0])
    d = Dataset(y=y, x=np.ones((3, 1)))
    assert np.array_equal(residuals(d, np.zeros(2)), y)


def test_residuals_loop_oracle(rng):
    x = rng.normal(size=(8, 2))
    y = rng.normal(size=8)
    beta = rng.normal(size=3)
    d = Dataset(y=y, x=x)
    r = residuals(d, beta)
    for i in range(8):
        assert r[i] == pytest.approx(y[i] - beta[0] - x[i] @ beta[1:], abs=1e-12)


def test_deterministic_bitwise(rng):
    x = rng.normal(size=(15, 3))
    y = rng.normal(size=15)
    d = Dataset(y=y, x=x)
    b1 = solve_least_squares(d, np.arange(15))
    b2 = solve_least_squares(d, np.arange(15))
    assert np.array_equal(b1, b2)


def test_rank_deficient_duplicate_column(rng):
    x1 = rng.normal(size=10)
    d = Dataset(y=rng.normal(size=10), x=np.column_stack([x1, x1]))
    with pytest.raises(RankDeficient):
        solve_least_squares(d, np.arange(10))


def test_too_few_rows(rng):
    d = Dataset(y=rng.normal(size=10), x=rng.normal(size=(10, 4)))
    with pytest.raises(TooFewRows):
        solve_least_squares(d, np.arange(4))


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


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_qr_agrees_with_normal_equations(seed):
    r = np.random.default_rng(seed)
    n = int(r.integers(6, 40))
    x = r.normal(size=(n, 2))
    y = r.normal(size=n)
    d = Dataset(y=y, x=x)
    if np.linalg.cond(d.design) > 1e6:
        return
    beta = solve_least_squares(d, np.arange(n))
    expected = normal_equation_oracle(d.design, y)
    assert np.allclose(beta, expected, rtol=1e-8, atol=1e-10)


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(y=np.array([1.0, np.nan]), x=np.ones((2, 1)))
    with pytest.raises(ValueError):
        Dataset(y=np.ones(3), x=np.ones((2, 1)))
    with pytest.raises(ValueError):
        Dataset(y=np.empty(0), x=np.empty((0, 1)))
    with pytest.raises(ValueError):
        residuals(Dataset(y=np.ones(3), x=np.ones((3, 1))), np.zeros(3))
