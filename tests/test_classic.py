import itertools
import warnings

import numpy as np
import pytest
from scipy.optimize import minimize

from trimreg import l1
from trimreg.classic import BETA_TOL, MAX_ITER, fit_lad, fit_ols
from trimreg.dgp import DgpConfig, generate
from trimreg.errors import InvariantViolated
from trimreg.l1 import (
    SHIFT_MAX_ITER,
    _fit_l1,
    default_psi_grid,
    fit_huber,
    fit_l1,
    huber_rho,
    soft_threshold_alpha,
)
from trimreg.linalg import Dataset, factor_qr, lstsq_qr


def test_ols_exact_fit():
    x = np.linspace(-1, 1, 10)
    d = Dataset(y=1.0 + 2.0 * x, x=x.reshape(-1, 1))
    fit = fit_ols(d)
    assert fit.objective == pytest.approx(0.0, abs=1e-20)
    assert np.allclose(fit.beta, [1.0, 2.0], atol=1e-10)


def test_ols_is_full_sample_least_squares(rng):
    x = rng.normal(size=(20, 2))
    y = rng.normal(size=20)
    d = Dataset(y=y, x=x)
    fit = fit_ols(d)
    assert np.array_equal(fit.beta, lstsq_qr(d.design, y))
    expected = np.linalg.solve(d.design.T @ d.design, d.design.T @ y)
    assert np.allclose(fit.beta, expected, rtol=1e-8)


def test_lad_intercept_only_is_median(rng):
    y = rng.normal(size=21)
    d = Dataset(y=y, x=np.empty((21, 0)))
    fit = fit_lad(d)
    median_obj = np.sum(np.abs(y - np.median(y)))
    assert abs(fit.objective - median_obj) <= 1e-10


def test_lad_noiseless_line():
    x = np.linspace(-2, 2, 11)
    d = Dataset(y=2.0 * x, x=x.reshape(-1, 1))
    fit = fit_lad(d)
    assert np.allclose(fit.beta, [0.0, 2.0], atol=1e-7)


def pairwise_interpolation_oracle(x, y):
    """Minimum LAD objective over lines through every pair of points;
    valid for d=1 with intercept since an optimum interpolates two points."""
    best = np.inf
    for i, j in itertools.combinations(range(len(x)), 2):
        if x[i] == x[j]:
            continue
        slope = (y[i] - y[j]) / (x[i] - x[j])
        icept = y[i] - slope * x[i]
        best = min(best, np.sum(np.abs(y - icept - slope * x)))
    return best


def test_lad_against_pairwise_oracle():
    r = np.random.default_rng(123)
    x = r.normal(size=15)
    y = 0.5 + 2.0 * x + r.standard_t(df=3, size=15)
    fit = fit_lad(Dataset(y=y, x=x.reshape(-1, 1)))
    oracle = pairwise_interpolation_oracle(x, y)
    assert fit.objective <= oracle * (1 + 1e-4)
    assert abs(fit.objective - oracle) <= 1e-4 * oracle


def test_huber_reduces_to_ols_for_large_psi(rng):
    x = rng.normal(size=(25, 2))
    y = rng.normal(size=25)
    d = Dataset(y=y, x=x)
    ols = fit_ols(d)
    psi = float(np.max(np.abs(d.y - d.design @ ols.beta))) * 1.01
    hub = fit_huber(d, psi)
    assert np.max(np.abs(hub.beta - ols.beta)) <= 1e-8


def test_huber_two_point_linear_regime():
    # both residuals stay beyond psi for any location between the points,
    # so the loss collapses to psi*|y1 - y2| - psi^2
    d = Dataset(y=np.array([0.0, 10.0]), x=np.empty((2, 0)))
    psi = 0.5
    fit = fit_huber(d, psi)
    assert 0.0 <= fit.beta[0] <= 10.0
    assert fit.objective == pytest.approx(psi * 10.0 - psi**2, abs=1e-10)


def test_huber_against_grid_polish_oracle():
    r = np.random.default_rng(123)
    x = r.normal(size=30)
    y = 0.5 + 1.5 * x + r.standard_t(df=3, size=30)
    d = Dataset(y=y, x=x.reshape(-1, 1))
    psi = 1.345
    X = d.design

    def obj(b):
        return float(huber_rho(y - X @ b, psi).sum())

    b_ols = np.linalg.lstsq(X, y, rcond=None)[0]
    grid_best, grid_arg = np.inf, None
    for b0 in np.linspace(b_ols[0] - 2, b_ols[0] + 2, 41):
        for b1 in np.linspace(b_ols[1] - 2, b_ols[1] + 2, 41):
            v = obj(np.array([b0, b1]))
            if v < grid_best:
                grid_best, grid_arg = v, np.array([b0, b1])
    polished = minimize(
        obj, grid_arg, method="Nelder-Mead",
        options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 5000},
    )
    fit = fit_huber(d, psi)
    assert abs(fit.objective - polished.fun) <= 1e-6 * (1 + polished.fun)


def test_huber_requires_positive_psi(rng):
    d = Dataset(y=rng.normal(size=5), x=rng.normal(size=(5, 1)))
    with pytest.raises(ValueError):
        fit_huber(d, 0.0)


@pytest.mark.parametrize("psi", [0.0, -1.0, np.nan, np.inf])
def test_every_entry_point_rejects_psi_outside_the_open_half_line(rng, psi):
    d = Dataset(y=rng.normal(size=12), x=rng.normal(size=(12, 1)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (
            lambda: soft_threshold_alpha(d.y, psi),
            lambda: fit_huber(d, psi),
            lambda: fit_l1(d, psi),
            lambda: _fit_l1(d, [1.0, psi], fit_ols(d).beta, factor_qr(d.design)),
        ):
            with pytest.raises(ValueError, match="psi"):
                call()


@pytest.mark.parametrize("cap", [SHIFT_MAX_ITER, 2])
def test_shift_alternation_returns_the_state_at_its_beta(rng, monkeypatch, cap):
    # alpha and the objective are what a caller would recompute from beta, bit
    # for bit, whether the loop converged or stopped at its cap
    monkeypatch.setattr(l1, "SHIFT_MAX_ITER", cap)
    x = rng.normal(size=(50, 2))
    y = 1.0 + x @ np.array([1.0, -1.0]) + rng.standard_t(df=2, size=50)
    d = Dataset(y=y, x=x)
    solve = factor_qr(d.design)
    psis = (0.5, 1.345, 3.0)
    for start in (fit_ols(d).beta, fit_lad(d).beta):
        for psi, sol in zip(psis, _fit_l1(d, psis, start, solve), strict=True):
            assert sol.converged == (cap == SHIFT_MAX_ITER)
            assert sol.iterations <= cap and sol.psi == psi
            r = y - d.design @ sol.beta
            assert sol.alpha.tobytes() == soft_threshold_alpha(r, psi).tobytes()
            r_adj = r - sol.alpha
            assert sol.objective == (0.5 * float(r_adj @ r_adj)
                                     + psi * float(np.sum(np.abs(sol.alpha))))
            assert sol.objective == pytest.approx(float(huber_rho(r, psi).sum()), rel=1e-8)


def test_descent_assertions_hold_on_heavy_tailed_data(rng):
    # the per-iteration descent asserts inside the fitting loops fire here

    for _ in range(10):
        x = rng.normal(size=(40, 2))
        y = 1.0 + x @ np.array([1.0, -1.0]) + rng.standard_t(df=2, size=40)
        d = Dataset(y=y, x=x)
        lad = fit_lad(d)
        hub = fit_huber(d, 1.0)
        assert lad.objective >= 0 and hub.objective >= 0
        assert lad.iterations <= MAX_ITER and hub.iterations <= SHIFT_MAX_ITER


def _huber_refit_each_iteration(data, psi):
    """fit_huber's alternation with a fresh QR of the design per iteration."""
    X, y = data.design, data.y
    beta = lstsq_qr(X, y)
    for it in range(1, SHIFT_MAX_ITER + 1):
        alpha = soft_threshold_alpha(y - X @ beta, psi)
        beta_new = lstsq_qr(X, y - alpha)
        done = np.max(np.abs(beta_new - beta)) < BETA_TOL
        beta = beta_new
        if done:
            return beta, it
    raise AssertionError("reference did not converge")


def test_huber_matches_per_iteration_refit(rng):
    x = rng.normal(size=(60, 2))
    y = 1.0 + x @ np.array([1.0, -1.0]) + rng.standard_t(df=2, size=60)
    d = Dataset(y=y, x=x)
    for psi in (0.5, 1.345, 3.0):
        hub = fit_huber(d, psi)
        beta, it = _huber_refit_each_iteration(d, psi)
        assert hub.beta.tobytes() == beta.tobytes()
        assert hub.iterations == it


def test_objectives_match_formulas(rng):
    x = rng.normal(size=(12, 1))
    y = rng.normal(size=12)
    d = Dataset(y=y, x=x)
    lad = fit_lad(d)
    assert lad.objective == pytest.approx(
        float(np.sum(np.abs(y - d.design @ lad.beta))), abs=1e-12
    )
    hub = fit_huber(d, 0.7)
    assert hub.objective == pytest.approx(
        float(huber_rho(y - d.design @ hub.beta, 0.7).sum()), abs=1e-12
    )


def test_huber_rho_from_one_clip_equals_the_branch_formula(rng):
    psis = np.array([0.1, 1.0, 1.345, 7.5])
    edges = np.concatenate([psis, -psis, np.nextafter(psis, 0), np.nextafter(psis, 9)])
    r = np.concatenate([3.0 * rng.standard_t(df=2, size=500), edges, -edges, [0.0, -0.0]])
    for psi in psis:
        a = np.abs(r)
        want = np.where(a <= psi, 0.5 * r * r, psi * a - 0.5 * psi * psi)
        assert huber_rho(r, psi).tobytes() == want.tobytes()
        assert float(huber_rho(r, psi).sum()) == float(np.sum(want))
        assert soft_threshold_alpha(r, psi).tobytes() == (r - np.clip(r, -psi, psi)).tobytes()


def _one_psi_alternation(data, psi, beta, solve):
    """The one-psi loop with the branch form of the Huber loss: the
    reference each lane of `l1._fit_l1` must match bit for bit. Returns beta,
    alpha, the penalized objective, the Huber loss, iterations and convergence."""
    X, y = data.design, data.y

    def shift_and_loss(r):
        a = np.abs(r)
        rho = np.where(a <= psi, 0.5 * r * r, psi * a - 0.5 * psi * psi)
        return r - np.clip(r, -psi, psi), float(np.sum(rho))

    r = y - X @ beta
    alpha, loss = shift_and_loss(r)
    converged, it = False, 0
    for it in range(1, l1.SHIFT_MAX_ITER + 1):
        beta_new = solve(y - alpha)
        r = y - X @ beta_new
        alpha, loss_new = shift_and_loss(r)
        assert loss_new <= loss + 1e-12 * max(1.0, loss)
        loss = loss_new
        converged = bool(np.max(np.abs(beta_new - beta)) < BETA_TOL)
        beta = beta_new
        if converged:
            break
    r_adj = r - alpha
    objective = 0.5 * float(r_adj @ r_adj) + psi * float(np.sum(np.abs(alpha)))
    return beta, alpha, objective, loss, it, converged


def _grid_sample(dgp, seed):
    N = {1: 100, 2: 200, 3: 120}[dgp]
    d = generate(DgpConfig(dgp=dgp, N=N, p=0.1, rho=5.0, seed=seed, n_test=10)).train
    b0 = fit_lad(d).beta
    return d, b0, default_psi_grid(d, 30, b0).tolist()


@pytest.mark.parametrize("dgp", [1, 2, 3])
def test_every_lane_matches_the_one_psi_loop(dgp):
    for seed in (55555, 7, 60221):
        d, b0, grid = _grid_sample(dgp, seed)
        solve = factor_qr(d.design)
        sols = _fit_l1(d, grid, b0, solve)
        assert len(sols) == len(grid)
        for psi, sol in zip(grid, sols):
            beta, alpha, objective, loss, it, converged = _one_psi_alternation(
                d, psi, b0, solve)
            assert sol.beta.tobytes() == beta.tobytes()
            assert sol.alpha.tobytes() == alpha.tobytes()
            assert float(huber_rho(d.y - d.design @ sol.beta, psi).sum()) == loss
            assert (sol.objective, sol.iterations, sol.converged) == (objective, it, converged)


@pytest.mark.parametrize("lanes_per_block", [1, 4])
def test_lane_blocks_move_no_bit(monkeypatch, lanes_per_block):
    d, b0, grid = _grid_sample(2, 55555)
    solve = factor_qr(d.design)
    whole = _fit_l1(d, grid, b0, solve)
    monkeypatch.setattr(l1, "LANE_BLOCK", lanes_per_block * d.n_obs)
    blocked = _fit_l1(d, grid, b0, solve)
    for sol, want in zip(blocked, whole, strict=True):
        assert sol.beta.tobytes() == want.beta.tobytes()
        assert sol.alpha.tobytes() == want.alpha.tobytes()
        assert (sol.psi, sol.objective, sol.iterations, sol.converged) == (
            want.psi, want.objective, want.iterations, want.converged)


def test_a_lane_whose_loss_rises_raises():
    d, b0, grid = _grid_sample(1, 55555)
    solve = factor_qr(d.design)
    _fit_l1(d, grid[:3], b0, solve)

    calls = []

    def bumped(v):
        calls.append(v)
        beta = solve(v)
        if len(calls) == 2:  # the second lane's first step overshoots
            beta += 100.0
        return beta

    with pytest.raises(InvariantViolated, match="Huber"):
        _fit_l1(d, grid[:3], b0, bumped)
