import numpy as np
import pytest
from hypothesis import given, strategies as st

from trimreg import l1
from trimreg.classic import BETA_TOL, fit_lad, fit_ols
from trimreg.dgp import DgpConfig, generate
from trimreg.errors import AllFitsFailed, NotConverged
from trimreg.l0 import bic
from trimreg.l1 import (
    SHIFT_MAX_ITER,
    default_psi_grid,
    fit_huber,
    fit_l1,
    select_psi_bic,
    soft_threshold_alpha,
)
from trimreg.linalg import Dataset, factor_qr, lstsq_qr


def test_soft_threshold_branches():
    assert soft_threshold_alpha(np.array([0.5]), 1.0) == pytest.approx([0.0])
    assert soft_threshold_alpha(np.array([3.0]), 1.0) == pytest.approx([2.0])
    assert soft_threshold_alpha(np.array([-3.0]), 1.0) == pytest.approx([-2.0])


def test_soft_threshold_boundary_continuity():
    psi = 0.75
    out = soft_threshold_alpha(np.array([-psi, psi]), psi)
    assert np.array_equal(out, np.zeros(2))


@given(
    st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=30),
    st.floats(1e-6, 1e3),
)
def test_soft_threshold_shrinkage(r, psi):
    r = np.asarray(r)
    out = soft_threshold_alpha(r, psi)
    bound = max(np.max(np.abs(r)) - psi, 0.0)
    assert np.max(np.abs(out)) <= bound + 1e-12 * max(1.0, bound)


@given(st.floats(-100, 100), st.floats(1e-3, 50))
def test_soft_threshold_scalar_branch_algebra(r, psi):
    val = soft_threshold_alpha(np.array([r]), psi)[0]
    if r >= psi:
        assert val == r - psi
    elif r <= -psi:
        assert val == r + psi
    else:
        assert val == 0.0


def test_fit_l1_no_thresholding_for_large_psi(rng):
    x = rng.normal(size=(25, 2))
    y = rng.normal(size=25)
    d = Dataset(y=y, x=x)
    ols = fit_ols(d)
    psi = float(np.max(np.abs(y - d.design @ ols.beta))) * 1.05
    sol = fit_l1(d, psi)
    assert np.count_nonzero(sol.alpha) == 0
    assert np.array_equal(sol.alpha, np.zeros(25))
    assert np.max(np.abs(sol.beta - ols.beta)) <= 1e-8


def test_fit_l1_flags_single_gross_outlier(rng):
    x = rng.normal(size=(40, 2))
    y = 0.5 + x @ np.array([1.0, 1.0]) + 0.5 * rng.normal(size=40)
    y[7] += 25.0
    d = Dataset(y=y, x=x)
    sol = fit_l1(d, psi=3.0)
    assert np.array_equal(np.flatnonzero(sol.alpha != 0.0), [7])


def test_fit_l1_fixed_point_consistency(rng):
    x = rng.normal(size=(30, 2))
    y = 0.5 + x @ np.array([1.0, -1.0]) + rng.standard_t(df=3, size=30)
    d = Dataset(y=y, x=x)
    sol = fit_l1(d, psi=1.2)
    recomputed = soft_threshold_alpha(y - d.design @ sol.beta, sol.psi)
    assert np.array_equal(recomputed, sol.alpha)
    # flagged exactly where the residual magnitude reaches psi
    r = y - d.design @ sol.beta
    assert np.array_equal(sol.alpha != 0.0, np.abs(r) >= sol.psi)


def _l1_refit_each_iteration(data, psi, beta):
    """fit_l1's alternation with a fresh QR of the design per iteration."""
    X, y = data.design, data.y
    alpha = soft_threshold_alpha(y - X @ beta, psi)
    for _ in range(SHIFT_MAX_ITER):
        beta_new = lstsq_qr(X, y - alpha)
        alpha = soft_threshold_alpha(y - X @ beta_new, psi)
        done = np.max(np.abs(beta_new - beta)) < BETA_TOL
        beta = beta_new
        if done:
            return beta, alpha
    raise AssertionError("reference did not converge")


def test_fit_l1_matches_per_iteration_refit():
    d = generate(DgpConfig(dgp=2, N=200, p=0.1, rho=5.0, seed=3, n_test=10)).train
    b0 = fit_lad(d).beta
    for psi in (0.3, 1.0, 4.0):
        sol = fit_l1(d, psi)
        beta, alpha = _l1_refit_each_iteration(d, psi, b0)
        assert sol.beta.tobytes() == beta.tobytes()
        assert sol.alpha.tobytes() == alpha.tobytes()


def test_fit_l1_from_ols_is_huber():
    # one shift alternation: fit_huber is its lane from the OLS start, bit for bit
    d = generate(DgpConfig(dgp=2, N=200, p=0.1, rho=5.0, seed=3, n_test=10)).train
    b0 = fit_ols(d).beta
    for psi in (0.3, 1.0, 4.0):
        [sol] = l1._fit_l1(d, [psi], b0, factor_qr(d.design))
        hub = fit_huber(d, psi)
        assert sol.converged and hub.converged
        assert hub.beta.tobytes() == sol.beta.tobytes()
        assert hub.alpha.tobytes() == sol.alpha.tobytes()
        assert hub.iterations == sol.iterations and hub.psi == psi


def test_exhausted_iteration_cap_is_not_converged(monkeypatch):
    d = generate(DgpConfig(dgp=2, N=200, p=0.1, rho=5.0, seed=3, n_test=10)).train
    monkeypatch.setattr(l1, "SHIFT_MAX_ITER", 2)
    hub = fit_huber(d, 1.0)
    assert not hub.converged and hub.iterations == 2
    with pytest.raises(NotConverged, match="did not converge in 2 iterations"):
        fit_l1(d, 1.0)
    with pytest.raises(AllFitsFailed):
        select_psi_bic(d, fit_lad(d).beta)


def test_select_psi_bic_factors_the_design_once(monkeypatch):
    d = generate(DgpConfig(dgp=2, N=200, p=0.1, rho=5.0, seed=55555, n_test=10)).train
    real = l1.factor_qr
    calls = []

    def counted(X):
        calls.append(X.shape)
        return real(X)

    monkeypatch.setattr(l1, "factor_qr", counted)
    sol = select_psi_bic(d, fit_lad(d).beta, penalty_mult=1.0)
    assert calls == [d.design.shape]
    b0 = fit_lad(d).beta
    fits = [fit_l1(d, float(psi)) for psi in default_psi_grid(d, l1.PSI_GRID_SIZE, b0)]
    assert len(calls) == 1 + len(fits)
    assert list(sol.selection.trace) == [
        (f.psi, f.objective, bic(d, f.beta, f.alpha, 1.0 * np.count_nonzero(f.alpha)),
         np.count_nonzero(f.alpha)) for f in fits
    ]
    want = next(f for f in fits if f.psi == sol.psi)
    assert sol.beta.tobytes() == want.beta.tobytes()
    assert sol.alpha.tobytes() == want.alpha.tobytes()
    assert sol.objective == want.objective


def _per_psi_fits(d, grid):
    fits = []
    for psi in grid:
        try:
            fits.append(fit_l1(d, psi))
        except NotConverged:
            continue
    return fits


def _assert_selection_is_the_per_psi_fits(d, sol, fits, mult):
    assert list(sol.selection.trace) == [
        (f.psi, f.objective, bic(d, f.beta, f.alpha, mult * np.count_nonzero(f.alpha)),
         np.count_nonzero(f.alpha)) for f in fits
    ]
    want = next(f for f in fits if f.psi == sol.psi)
    assert sol.beta.tobytes() == want.beta.tobytes()
    assert sol.alpha.tobytes() == want.alpha.tobytes()
    assert sol.objective == want.objective


@pytest.mark.parametrize("dgp, N", [(1, 100), (2, 200), (3, 120)])
def test_grid_lanes_match_per_psi_fits(dgp, N):
    # the grid's lanes run in lockstep; each carries the bits of its own fit_l1
    for seed in (11, 60221):
        d = generate(DgpConfig(dgp=dgp, N=N, p=0.1, rho=5.0, seed=seed, n_test=10)).train
        grid = default_psi_grid(d, l1.PSI_GRID_SIZE, fit_lad(d).beta).tolist()
        fits = _per_psi_fits(d, grid)
        for mult in (1.0, 2.75):
            _assert_selection_is_the_per_psi_fits(d, select_psi_bic(d, fit_lad(d).beta, penalty_mult=mult), fits, mult)


def test_capped_lanes_are_skipped(monkeypatch):
    d = generate(DgpConfig(dgp=2, N=200, p=0.1, rho=5.0, seed=55555, n_test=10)).train
    b0 = fit_lad(d).beta
    grid = default_psi_grid(d, l1.PSI_GRID_SIZE, b0).tolist()
    steps = [sol.iterations for sol in l1._fit_l1(d, grid, b0, factor_qr(d.design))]
    cap = int(np.median(steps))
    monkeypatch.setattr(l1, "SHIFT_MAX_ITER", cap)
    sols = l1._fit_l1(d, grid, b0, factor_qr(d.design))
    assert [(sol.iterations, sol.converged) for sol in sols] == [
        (min(s, cap), s <= cap) for s in steps]
    fits = _per_psi_fits(d, grid)
    assert 0 < len(fits) < len(grid)
    assert [f.psi for f in fits] == [psi for psi, s in zip(grid, steps) if s <= cap]
    _assert_selection_is_the_per_psi_fits(d, select_psi_bic(d, b0, penalty_mult=1.0), fits, 1.0)


def test_huber_equivalence_random_instances():
    r = np.random.default_rng(77)
    for trial in range(10):
        x = r.normal(size=(30, 2))
        y = 0.5 + x @ np.array([1.0, 1.0]) + r.standard_t(df=3, size=30)
        d = Dataset(y=y, x=x)
        for psi in (0.4, 1.0, 2.5):
            l1 = fit_l1(d, psi)
            hub = fit_huber(d, psi)
            assert abs(l1.objective - hub.objective) <= 1e-6 * (1 + hub.objective)


def test_select_psi_single_point_grid(rng):
    x = rng.normal(size=(20, 1))
    y = rng.normal(size=20)
    d = Dataset(y=y, x=x)
    sol = select_psi_bic(d, fit_lad(d).beta, 1)
    assert sol.psi == default_psi_grid(d, 1, fit_lad(d).beta)[0]
    assert [t[0] for t in sol.selection.trace] == [sol.psi]


def test_select_psi_clean_data_flags_nothing():
    cfg = DgpConfig(dgp=1, N=100, p=0.05, mu_alpha=10, sigma_alpha=10, seed=3,
                    n_test=100)
    clean = generate(cfg).test  # outlier-free split
    sol = select_psi_bic(clean, fit_lad(clean).beta)
    assert np.count_nonzero(sol.alpha) == 0


def test_select_psi_recovers_planted_support():
    r = np.random.default_rng(42)
    x = r.normal(size=(100, 2))
    y = 0.5 + x @ np.array([1.0, 1.0]) + r.normal(size=100)
    y[:5] += 12.0
    d = Dataset(y=y, x=x)
    sol = select_psi_bic(d, fit_lad(d).beta)
    assert np.count_nonzero(sol.alpha) == 5
    assert np.array_equal(np.flatnonzero(sol.alpha != 0.0), np.arange(5))


def test_grid_validation(rng):
    d = Dataset(y=rng.normal(size=10), x=rng.normal(size=(10, 1)))
    for size in (0, -1):
        with pytest.raises(ValueError):
            select_psi_bic(d, fit_lad(d).beta, size)
    with pytest.raises(ValueError):
        fit_l1(d, psi=-1.0)


def test_default_grid_spans_residual_scale(rng):
    x = rng.normal(size=(50, 2))
    y = 0.5 + x @ np.array([1.0, 1.0]) + rng.normal(size=50)
    d = Dataset(y=y, x=x)
    grid = default_psi_grid(d, l1.PSI_GRID_SIZE, fit_lad(d).beta)
    assert len(grid) == 30
    assert grid[0] < 1.0 < grid[-1]
    assert np.all(np.diff(grid) > 0)


def test_default_grid_falls_back_to_the_largest_residual_when_the_mad_is_zero():
    # most rows lie on the line exactly, so the residuals' MAD is 0
    x = np.arange(10.0)
    y = 1.0 + 2.0 * x
    y[[2, 5, 7]] += [5.0, -20.0, 10.0]
    d = Dataset(y=y, x=x[:, None])
    grid = default_psi_grid(d, 5, np.array([1.0, 2.0]))
    assert grid.tolist() == np.geomspace(0.1 * 20.0, 10.0 * 20.0, 5).tolist()
