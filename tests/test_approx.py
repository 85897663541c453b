import logging
import re
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.integrate import quad
from scipy.special import gammaln
from scipy.stats import multivariate_normal

import lgocv.approx as approx
from lgocv.approx import GridConfig, build_theta_grid, find_mode, log_evidence
from lgocv.components import FixedEffects, Iid
from lgocv.likelihoods import Gaussian, Poisson
from lgocv.model import HyperSpec, LgmModel

from conftest import iid_identity_model, multilevel_poisson


def gaussian_multilevel(seed=3, hyper=True, intercept_prec=1e-4):
    rng = np.random.default_rng(seed)
    n, k = 40, 5
    cls = np.arange(n) // (n // k)
    y = 1.0 + rng.standard_normal(k)[cls] + 0.1 * rng.standard_normal(n)
    comps = [FixedEffects("intercept", 1, prec=intercept_prec),
             Iid("class", k, log_prec="lp" if hyper else 1.0)]
    A = sp.hstack([
        sp.csr_matrix(np.ones((n, 1))),
        sp.csr_matrix((np.ones(n), (np.arange(n), cls)), shape=(n, k)),
    ], format="csr")
    hypers = [HyperSpec("lp", prior_prec=1e-4)] if hyper else []
    return LgmModel(comps, A, Gaussian(precision=100.0), y, hypers)


def dense_gaussian_posterior(model, theta):
    """Closed-form constrained-free Gaussian posterior (mean, precision)."""
    P = model.prior_precision(theta).toarray()
    A = model.design.toarray()
    tau = model.likelihood._prec(model.hyper_dict(theta.values))
    Q = P + tau * A.T @ A
    mu = np.linalg.solve(Q, tau * A.T @ model.y)
    return mu, Q


def test_gaussian_mode_solves_normal_equations():
    model = gaussian_multilevel(hyper=False)
    theta = model.hyper_point(np.zeros(0))
    ga = find_mode(model, theta)
    mu, Q = dense_gaussian_posterior(model, theta)
    assert np.allclose(ga.mu, mu, rtol=1e-10, atol=1e-12)
    assert ga.n_iter <= 2


def test_gaussian_approx_precision_exact():
    model = gaussian_multilevel(hyper=False)
    theta = model.hyper_point(np.zeros(0))
    ga = find_mode(model, theta)
    _, Q = dense_gaussian_posterior(model, theta)
    # solve against a basis to compare factorized precision with the oracle
    X = ga.solve(np.eye(model.latent_size))
    assert np.allclose(X, np.linalg.inv(Q), rtol=1e-9, atol=1e-12)


def test_poisson_single_obs_analytic_mode():
    model = LgmModel([Iid("mu", 1, log_prec=1.0)], sp.csr_matrix([[1.0]]),
                     Poisson(offset=1.0), [1.0])
    ga = find_mode(model, model.hyper_point(np.zeros(0)))
    assert abs(ga.mu[0]) <= 1e-9            # root of e^mu + mu = 1
    assert ga.c[0] == pytest.approx(1.0, abs=1e-8)
    assert ga.solve(np.ones(1))[0] == pytest.approx(0.5, rel=1e-8)


def test_mode_matches_dense_optimizer():
    from scipy.optimize import minimize
    model = multilevel_poisson()
    theta = model.hyper_point(np.zeros(0))
    ga = find_mode(model, theta)
    P = model.prior_precision(theta).toarray()
    A = model.design.toarray()

    def neg_obj(f):
        g, _, _ = model.loglik_derivatives(theta, A @ f)
        return 0.5 * f @ P @ f - g.sum()

    def neg_grad(f):
        _, g1, _ = model.loglik_derivatives(theta, A @ f)
        return P @ f - A.T @ g1

    def neg_hess(f):
        _, _, g2 = model.loglik_derivatives(theta, A @ f)
        return P + A.T @ (np.diag(-g2)) @ A

    res = minimize(neg_obj, np.zeros(model.latent_size), jac=neg_grad,
                   hess=neg_hess, method="trust-exact",
                   options={"gtol": 1e-10, "maxiter": 500})
    # polish with dense Newton steps: trust-region stalls near the optimum
    x = res.x
    for _ in range(20):
        grad = neg_grad(x)
        if np.max(np.abs(grad)) < 1e-12:
            break
        x = x - np.linalg.solve(neg_hess(x), grad)
    assert np.max(np.abs(A @ ga.mu - A @ x)) <= 1e-8


def test_idempotence_at_converged_mode():
    model = multilevel_poisson()
    theta = model.hyper_point(np.zeros(0))
    ga = find_mode(model, theta)
    again = find_mode(model, theta, init=ga.mu)
    assert again.n_iter <= 1


def test_stationarity_residual():
    model = multilevel_poisson()
    theta = model.hyper_point(np.zeros(0))
    ga = find_mode(model, theta, tol=1e-8)
    _, g1, _ = model.loglik_derivatives(theta, ga.eta_star)
    grad = -(ga.P @ ga.mu) + model.design.T @ g1
    assert np.max(np.abs(grad)) <= 10 * 1e-8 * max(1.0, np.max(np.abs(ga.mu)))


def test_constrained_mode_satisfies_constraints():
    C = np.zeros((1, 6))
    C[0, 1:] = 1.0
    model = gaussian_multilevel(hyper=False)
    model = LgmModel(model.components, model.design, model.likelihood, model.y,
                     extra_constraints=(C, [0.3]))
    ga = find_mode(model, model.hyper_point(np.zeros(0)))
    assert C @ ga.mu == pytest.approx(0.3, abs=1e-9)


def test_log_evidence_gaussian_matches_closed_form():
    # moderate intercept precision keeps the dense oracle well conditioned
    model = gaussian_multilevel(hyper=True, intercept_prec=1.0)
    vals, exact = [], []
    for t in (-0.5, 0.0, 0.8):
        theta = model.hyper_point([t])
        ga = find_mode(model, theta)
        vals.append(log_evidence(model, ga))
        P = model.prior_precision(theta).toarray()
        A = model.design.toarray()
        cov = A @ np.linalg.inv(P) @ A.T + 0.01 * np.eye(model.n_obs)
        exact.append(multivariate_normal.logpdf(model.y, np.zeros(model.n_obs), cov))
    vals, exact = np.array(vals), np.array(exact)
    diffs = (vals - vals[0]) - (exact - exact[0])
    assert np.max(np.abs(diffs)) <= 1e-9


def test_log_evidence_permutation_invariant():
    model = gaussian_multilevel(hyper=False)
    perm = np.random.default_rng(1).permutation(model.n_obs)
    permuted = LgmModel(model.components, model.design[perm], model.likelihood,
                        model.y[perm])
    theta = model.hyper_point(np.zeros(0))
    a = log_evidence(model, find_mode(model, theta))
    b = log_evidence(permuted, find_mode(permuted, theta))
    assert a == pytest.approx(b, rel=1e-10)


def test_log_evidence_poisson_toy_vs_quadrature():
    # informative-count toy keeps the Laplace bias within the tolerance
    y0, E = 100.0, 100.0
    model = LgmModel([Iid("mu", 1, log_prec=1.0)], sp.csr_matrix([[1.0]]),
                     Poisson(offset=E), [y0])
    ga = find_mode(model, model.hyper_point(np.zeros(0)))
    le = log_evidence(model, ga)

    def joint(m):
        return np.exp(-0.5 * m * m) / np.sqrt(2 * np.pi) * np.exp(
            y0 * (np.log(E) + m) - E * np.exp(m) - gammaln(y0 + 1.0))

    truth = np.log(quad(joint, -10, 10, limit=200)[0])
    assert le == pytest.approx(truth, rel=1e-3)
    assert np.exp(le) == pytest.approx(np.exp(truth), rel=1e-3)


def test_grid_zero_dim_degenerate():
    model = iid_identity_model(3)
    grid = build_theta_grid(model)
    assert len(grid) == 1
    assert grid.weights[0] == 1.0


def test_grid_weights_sum_to_one():
    model = gaussian_multilevel(hyper=True)
    grid = build_theta_grid(model)
    assert grid.weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert len(grid) > 1
    assert np.argmax(grid.log_posteriors) == int(np.argmax(grid.weights))


class StubModel:
    """theta_dim hyperparameters and nothing else; pair with _stub_fits."""

    def __init__(self, theta_dim):
        self.theta_dim = theta_dim

    def theta_init(self):
        return np.full(self.theta_dim, 0.3)

    def log_hyper_prior(self, theta):
        return 0.0

    def hyper_point(self, theta):
        from lgocv.model import HyperPoint
        return HyperPoint(np.atleast_1d(theta))


def _stub_fits(monkeypatch, log_post):
    """Replace the mode fit by one Newton iteration that keeps theta."""
    monkeypatch.setattr(approx, "find_mode", lambda model, theta, tol=1e-8, **kw:
                        SimpleNamespace(theta=np.atleast_1d(theta), n_iter=1))
    monkeypatch.setattr(approx, "log_evidence",
                        lambda model, ga: float(log_post(ga.theta)))


def test_grid_symmetric_posterior_symmetric_weights(monkeypatch):
    _stub_fits(monkeypatch, lambda t: -20.0 * t[0] ** 2)
    grid = build_theta_grid(StubModel(1), GridConfig())
    pts = np.array([hp.values[0] for hp in grid.points])
    assert abs(grid.mode.values[0]) <= 1e-6
    assert grid.weights.sum() == pytest.approx(1.0, abs=1e-12)
    for t, w in zip(pts, grid.weights):
        mirror = np.argmin(np.abs(pts + t))
        assert abs(pts[mirror] + t) <= 1e-8
        assert w == pytest.approx(grid.weights[mirror], abs=1e-10)


def test_grid_mixing_matches_fine_quadrature():
    model = gaussian_multilevel(hyper=True)
    grid = build_theta_grid(model, GridConfig(step=0.5, drop_thresh=8.0))
    target = model.offsets["class"]          # first class effect
    mix = sum(w * find_mode(model, hp).mu[target]
              for hp, w in zip(grid.points, grid.weights))

    center = grid.mode.values[0]
    ts = np.linspace(center - 5.0, center + 5.0, 161)
    lps, means = [], []
    for t in ts:
        hp = model.hyper_point([t])
        ga = find_mode(model, hp)
        lps.append(log_evidence(model, ga) + model.log_hyper_prior([t]))
        means.append(ga.mu[target])
    lps = np.array(lps)
    w = np.exp(lps - lps.max())
    w /= w.sum()
    oracle = float(w @ np.array(means))
    assert mix == pytest.approx(oracle, rel=1e-3)


GRID_LINE = re.compile(r"grid: d=(\d+), (\d+) log-posterior evaluations, "
                       r"(\d+) distinct fits, (\d+) Newton iterations, "
                       r"(\d+) points kept, (\d+) dropped, "
                       r"empirical-Bayes fallback (yes|no)$")


def _grid_lines(caplog):
    return [GRID_LINE.match(r.getMessage()) for r in caplog.records
            if r.getMessage().startswith("grid:")]


def test_grid_debug_line_reports_the_search(monkeypatch, caplog):
    model = gaussian_multilevel(hyper=True)
    quiet = build_theta_grid(model)
    fits = []
    find = approx.find_mode

    def counted(*args, **kwargs):
        ga = find(*args, **kwargs)
        fits.append(ga.n_iter)
        return ga

    monkeypatch.setattr(approx, "find_mode", counted)
    with caplog.at_level(logging.DEBUG, logger="lgocv.approx"):
        grid = build_theta_grid(model)
    (line,) = _grid_lines(caplog)
    d, evals, distinct, newton, kept, dropped = map(int, line.groups()[:6])
    assert line.group(7) == "no"
    assert (d, distinct, newton, kept) == (1, len(fits), sum(fits), len(grid))
    assert evals > distinct
    config = GridConfig()
    half = int(np.ceil(np.sqrt(2 * config.drop_thresh) / config.step)) + 1
    assert dropped == 2 * half + 1 - kept and dropped > 0
    # reporting only: the same grid as without the debug line
    assert [hp.values.tolist() for hp in grid.points] == \
        [hp.values.tolist() for hp in quiet.points]
    assert np.array_equal(grid.log_posteriors, quiet.log_posteriors)


def test_grid_debug_line_reports_the_fallback(monkeypatch, caplog):
    with caplog.at_level(logging.DEBUG, logger="lgocv.approx"):
        build_theta_grid(iid_identity_model(3))
        _stub_fits(monkeypatch, lambda t: -np.sum((t - 1.0) ** 2))
        grid = build_theta_grid(StubModel(5))
    zero, five = _grid_lines(caplog)
    assert zero.groups() == ("0", "0", "0", "0", "1", "0", "no")
    assert len(grid) == 1
    d, evals, distinct, newton, kept, dropped = map(int, five.groups()[:6])
    assert (d, kept, dropped, five.group(7)) == (5, 1, 0, "yes")
    assert newton == distinct and evals >= distinct > 0
