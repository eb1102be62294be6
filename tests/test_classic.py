import itertools

import numpy as np
import pytest
from scipy.optimize import minimize

from trimreg.classic import (
    BETA_TOL,
    MAX_ITER,
    SHIFT_MAX_ITER,
    fit_huber,
    fit_lad,
    fit_ols,
    huber_objective,
    lad_objective,
    soft_threshold_alpha,
)
from trimreg.linalg import Dataset, lstsq_qr


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
        return huber_objective(y - X @ b, psi)

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
        lad_objective(y - d.design @ lad.beta), abs=1e-12
    )
    hub = fit_huber(d, 0.7)
    assert hub.objective == pytest.approx(
        huber_objective(y - d.design @ hub.beta, 0.7), abs=1e-12
    )
