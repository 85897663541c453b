import itertools
import logging
import re
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.integrate import quad
from scipy.optimize import minimize
from scipy.special import gammaln
from scipy.stats import multivariate_normal

import lgocv.approx as approx
from lgocv import simulate
from lgocv.approx import build_theta_grid, find_mode, log_evidence
from lgocv.components import Ar1, FixedEffects, Iid
from lgocv.likelihoods import Gaussian, Poisson
from lgocv.model import HyperSpec, LgmModel

from conftest import (ar1_scenario, besag_lattice, iid_identity_model,
                      multilevel_poisson)


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
    ga = find_mode(model, theta)
    _, g1, _ = model.loglik_derivatives(theta, ga.eta_star)
    grad = -(ga.P @ ga.mu) + model.design.T @ g1
    bound = 10 * approx.NEWTON_TOL * max(1.0, np.max(np.abs(ga.mu)))
    assert np.max(np.abs(grad)) <= bound


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
    monkeypatch.setattr(approx, "find_mode", lambda model, theta, **kw:
                        SimpleNamespace(theta=np.atleast_1d(theta), n_iter=1,
                                        n_lu=2, mu=np.zeros(1)))
    monkeypatch.setattr(approx, "log_evidence",
                        lambda model, ga: float(log_post(ga.theta)))


def test_grid_symmetric_posterior_symmetric_weights(monkeypatch):
    _stub_fits(monkeypatch, lambda t: -20.0 * t[0] ** 2)
    grid = build_theta_grid(StubModel(1))
    pts = np.array([hp.values[0] for hp in grid.points])
    assert abs(grid.mode.values[0]) <= 1e-6
    assert grid.weights.sum() == pytest.approx(1.0, abs=1e-12)
    for t, w in zip(pts, grid.weights):
        mirror = np.argmin(np.abs(pts + t))
        assert abs(pts[mirror] + t) <= 1e-8
        assert w == pytest.approx(grid.weights[mirror], abs=1e-10)


def test_grid_mixing_matches_fine_quadrature(monkeypatch):
    model = gaussian_multilevel(hyper=True)
    monkeypatch.setattr(approx, "DROP_THRESH", 8.0)
    grid = build_theta_grid(model, step=0.5)
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
                       r"(\d+) distinct fits \((\d+) warm-started\), "
                       r"(\d+) Newton iterations, (\d+) LU factorizations, "
                       r"(\d+) points kept, (\d+) dropped, "
                       r"empirical-Bayes fallback (yes|no)$")


def _grid_lines(caplog):
    return [GRID_LINE.match(r.getMessage()) for r in caplog.records
            if r.getMessage().startswith("grid:")]


def test_grid_debug_line_reports_the_search(monkeypatch, caplog):
    model = gaussian_multilevel(hyper=True)
    quiet = build_theta_grid(gaussian_multilevel(hyper=True))
    fits = []
    find = approx.find_mode

    def counted(*args, **kwargs):
        ga = find(*args, **kwargs)
        fits.append((ga.n_iter, ga.n_lu, kwargs.get("init") is not None))
        return ga

    monkeypatch.setattr(approx, "find_mode", counted)
    with caplog.at_level(logging.DEBUG, logger="lgocv.approx"):
        grid = build_theta_grid(model)
        build_theta_grid(model)
    first, again = _grid_lines(caplog)
    d, evals, distinct, warm, newton, lu, kept, dropped = \
        map(int, first.groups()[:8])
    assert first.group(9) == "no"
    iters, lus, warms = (sum(col) for col in zip(*fits[:len(fits) // 2]))
    assert (d, distinct, newton, kept) == (1, len(fits) // 2, iters, len(grid))
    assert (warm, lu) == (warms, lus) and warm > 0
    assert again.groups() == first.groups()
    assert evals > distinct
    half = int(np.ceil(np.sqrt(2 * approx.DROP_THRESH) / approx.GRID_STEP)) + 1
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
    assert zero.groups() == ("0", "0", "0", "0", "0", "0", "1", "0", "no")
    assert len(grid) == 1
    d, evals, distinct, warm, newton, lu, kept, dropped = \
        map(int, five.groups()[:8])
    assert (d, kept, dropped, five.group(9)) == (5, 1, 0, "yes")
    assert newton == distinct and evals >= distinct > 0
    assert (warm, lu) == (0, 2 * distinct)


# -- the Newton Hessian on a fixed pattern ------------------------------------

def _reference_hessian(P, A, c):
    """scipy's Q = P + A' diag(c) A with its indices sorted: ``splu`` sorts
    its input in place before it factorizes, so this is what it sees."""
    Q = (P + A.T @ sp.diags(c) @ A).tocsc()
    Q.sort_indices()
    return Q


def _weighted_design_model(seed=4, n=30, p=8):
    """Random sparse design with non-unit weights, 1-3 entries per row."""
    rng = np.random.default_rng(seed)
    rows, cols, vals = [], [], []
    for i in range(n):
        for j in rng.choice(p, size=rng.integers(1, 4), replace=False):
            rows.append(i)
            cols.append(j)
            vals.append(rng.normal() * 10 ** rng.uniform(-2, 2))
    A = sp.csr_matrix((vals, (rows, cols)), shape=(n, p))
    y = rng.poisson(5.0, size=n).astype(float)
    return LgmModel([Iid("u", p, log_prec=0.3)], A, Poisson(offset=1.0), y)


def _ar1_estimated_rho_model(seed=6, n=12):
    """AR(1) with estimated rho, which is 0 exactly at theta_init: there
    P stores zeros off its diagonal."""
    rng = np.random.default_rng(seed)
    y = rng.poisson(3.0, size=n).astype(float)
    return LgmModel([Ar1("u", n, log_prec="lp", rho="r")],
                    sp.identity(n, format="csr"), Poisson(offset=1.0), y,
                    [HyperSpec("lp"), HyperSpec("r")])


HESSIAN_MODELS = {
    "multilevel-binomial": lambda: simulate.scenario_model(
        "multilevel-binomial", simulate.scenario_data("multilevel-binomial", 0)),
    "ar1": lambda: ar1_scenario(),
    "ar1-estimated-rho": _ar1_estimated_rho_model,
    "besag-constrained": lambda: besag_lattice(),
    "besag-lattice-12": lambda: besag_lattice(side=12),
    "weighted-design": _weighted_design_model,
    "weighted-design-20": lambda: _weighted_design_model(n=60, p=20),
}


@pytest.mark.parametrize("name", sorted(HESSIAN_MODELS))
@pytest.mark.parametrize("zeros", [False, True], ids=["positive_c", "zero_c"])
def test_hessian_equals_the_scipy_expression(name, zeros):
    model = HESSIAN_MODELS[name]()
    rng = np.random.default_rng(7)
    n = model.n_obs
    P = model.prior_precision(model.theta_init())
    plan = approx._fit_plan(model)
    p_data = plan.scatter(P)
    for _ in range(3):
        c = rng.gamma(1.0, size=n) * 10 ** rng.uniform(-3, 3, size=n)
        if zeros:
            c[rng.choice(n, size=n // 3, replace=False)] = 0.0
        Q = plan.hessian(c, p_data)
        _assert_scipy_values_on_the_plan_pattern(Q, plan, P, model.design, c)


def _assert_scipy_values_on_the_plan_pattern(Q, plan, P, A, c):
    """Q has the plan's fixed pattern, and without its stored zeros it is
    scipy's expression bit for bit."""
    assert Q.has_sorted_indices
    assert np.array_equal(Q.indptr, plan.indptr)
    assert np.array_equal(Q.indices, plan.indices)
    ref = _reference_hessian(P, A, c)
    Q = Q.copy()
    Q.eliminate_zeros()
    assert np.array_equal(Q.indptr, ref.indptr)
    assert np.array_equal(Q.indices, ref.indices)
    assert np.array_equal(Q.data, ref.data)


def _ar1_weighted_design_model():
    """An AR(1) with estimated rho (0 at theta_init) on a weighted design."""
    base = _weighted_design_model()
    return LgmModel([Ar1("u", base.latent_size, log_prec="lp", rho="r")],
                    base.design, base.likelihood, base.y,
                    [HyperSpec("lp"), HyperSpec("r")])


def test_hessian_stores_zeros_on_the_fixed_pattern():
    """Zeros in P (rho = 0 and two zeroed diagonal entries), a latent no
    curvature reaches and an entry that cancels to zero stay in Q's
    pattern as stored zeros; the other entries are scipy's."""
    model = _ar1_weighted_design_model()
    A, p = model.design, model.latent_size
    c = np.ones(model.n_obs)
    c[A[:, 3].nonzero()[0]] = 0.0      # no curvature reaches latent 3
    Y = _reference_hessian(sp.csc_matrix((p, p)), A, c)       # A' diag(c) A
    j = next(i for i in Y.indices[Y.indptr[5]:Y.indptr[6]] if i in (4, 6))
    P = model.prior_precision(model.theta_init()).tocoo()
    vals = np.where(np.isin(P.row, [2, 3]) & (P.row == P.col), 0.0, P.data)
    vals[(P.row == j) & (P.col == 5)] = -Y[j, 5]
    P = sp.csc_matrix((vals, (P.row, P.col)), shape=(p, p))
    # zero: every off-diagonal entry but (j, 5), and (2, 2), (3, 3)
    assert P.nnz - np.count_nonzero(P.data) == 2 * (p - 1) - 1 + 2
    plan = approx._fit_plan(model)
    Q = plan.hessian(c, plan.scatter(P))
    _assert_scipy_values_on_the_plan_pattern(Q, plan, P, A, c)
    assert Q.nnz == plan.codes.size
    col = slice(Q.indptr[5], Q.indptr[6])
    assert Q.data[col][Q.indices[col] == j] == 0.0              # cancelled
    assert Q.indptr[4] > Q.indptr[3]                            # latent 3 is
    assert not Q.data[Q.indptr[3]:Q.indptr[4]].any()            # all zeros


# -- one column ordering per model --------------------------------------------

def _assert_same_solves(solve, ref_solve, p, rng):
    """Bitwise equal solves, in the same memory layout, for 1-D and 2-D
    right-hand sides of either order."""
    for rhs in (rng.normal(size=p), rng.normal(size=(p, 3)),
                np.asfortranarray(rng.normal(size=(p, 3))), rng.normal(size=(p, 1))):
        x, ref = solve(rhs), ref_solve(rhs)
        assert x.shape == ref.shape and x.tobytes() == ref.tobytes()
        assert (x.flags.c_contiguous, x.flags.f_contiguous) == \
            (ref.flags.c_contiguous, ref.flags.f_contiguous)


@pytest.mark.parametrize("name", sorted(HESSIAN_MODELS))
def test_reused_ordering_factorizes_like_a_fresh_splu(name):
    """The model's first LU orders the columns; every later one reuses that
    ordering, and solves and pivots as a fresh ``splu`` of the same Q."""
    model = HESSIAN_MODELS[name]()
    plan = approx._fit_plan(model)
    rng = np.random.default_rng(11)
    n, p = model.n_obs, model.latent_size
    ordered = []
    for _ in range(12):
        theta = rng.normal(0.5, 1.0, size=model.theta_dim)
        c = rng.gamma(1.0, size=n) * 10 ** rng.uniform(-3, 3, size=n)
        Q = plan.hessian(c, plan.scatter(model.prior_precision(theta)))
        ordered.append(plan.ordering is None)
        solve, pivots = plan.factorize(Q)
        lu = spla.splu(Q)
        assert pivots.tobytes() == lu.U.diagonal().tobytes()
        _assert_same_solves(solve, lu.solve, p, rng)
    assert ordered == [True] + [False] * 11


@pytest.mark.parametrize("name", sorted(HESSIAN_MODELS))
def test_fits_reusing_the_ordering_equal_fresh_ones(name, monkeypatch):
    """Fits over 10 thetas on one model order the columns once, and equal
    fits that order every LU afresh, as each fit did before it had a plan."""
    rng = np.random.default_rng(12)
    model = HESSIAN_MODELS[name]()
    thetas = [rng.normal(0.5, 1.0, size=model.theta_dim) for _ in range(10)]
    specs = []
    splu = approx._splu

    def recorded(Q, permc_spec=None):
        specs.append(permc_spec)
        return splu(Q, permc_spec)

    monkeypatch.setattr(approx, "_splu", recorded)
    reused = [find_mode(model, t) for t in thetas]
    assert specs == [None] + ["NATURAL"] * (sum(ga.n_lu for ga in reused) - 1)

    def colamd_every_lu(plan, Q):
        lu, pivots = splu(Q)
        return lu.solve, pivots

    monkeypatch.setattr(approx._FitPlan, "factorize", colamd_every_lu)
    fresh_model = HESSIAN_MODELS[name]()
    fresh = [find_mode(fresh_model, t) for t in thetas]
    for a, b in zip(reused, fresh):
        assert (a.n_iter, a.n_lu) == (b.n_iter, b.n_lu)
        assert repr(a.log_det_q) == repr(b.log_det_q)
        assert a.mu.tobytes() == b.mu.tobytes()
        _assert_same_solves(a.solve, b.solve, model.latent_size, rng)


def test_lu_of_a_zero_bearing_q_equals_a_fresh_splu():
    """Exact zeros stay stored in Q, so its LU reuses the model's ordering
    and solves and pivots as a fresh ``splu`` of the zero-bearing Q."""
    model = _weighted_design_model(n=60, p=20)
    plan = approx._fit_plan(model)
    p_data = plan.scatter(model.prior_precision(model.theta_init()))
    c = np.ones(model.n_obs)
    plan.factorize(plan.hessian(c, p_data))
    ordering = plan.ordering
    c[model.design[:, 3].nonzero()[0]] = 0.0     # no curvature reaches latent 3
    Q = plan.hessian(c, p_data)
    assert Q.nnz == plan.codes.size > np.count_nonzero(Q.data)
    solve, pivots = plan.factorize(Q)
    lu = spla.splu(Q)
    assert plan.ordering is ordering
    assert pivots.tobytes() == lu.U.diagonal().tobytes()
    _assert_same_solves(solve, lu.solve, model.latent_size, np.random.default_rng(13))


# -- the grid's fits ----------------------------------------------------------

def reference_theta_grid(model):
    """The grid with every point fitted cold: the build before grid points
    were warm-started.  Returns the mode, the points and their log
    posteriors."""
    step, drop = approx.GRID_STEP, approx.DROP_THRESH
    d = model.theta_dim
    cache = {}

    def lp(theta):
        key = tuple(np.round(np.atleast_1d(theta), 12))
        if key not in cache:
            ga = find_mode(model, theta)
            cache[key] = log_evidence(model, ga) + model.log_hyper_prior(theta)
        return cache[key]

    res = minimize(lambda t: -lp(t), model.theta_init(), method="Nelder-Mead",
                   options={"xatol": approx.OPT_TOL, "fatol": 1e-10,
                            "maxiter": approx.MAX_OPT_ITER * d})
    theta_star = np.atleast_1d(res.x)
    lp_star = lp(theta_star)
    h = approx.HESS_STEP * (1.0 + np.abs(theta_star))
    H = np.zeros((d, d))
    for i in range(d):
        ei = np.zeros(d)
        ei[i] = h[i]
        H[i, i] = (lp(theta_star + ei) - 2 * lp_star + lp(theta_star - ei)) / h[i] ** 2
        for j in range(i + 1, d):
            ej = np.zeros(d)
            ej[j] = h[j]
            H[i, j] = H[j, i] = (
                lp(theta_star + ei + ej) - lp(theta_star + ei - ej)
                - lp(theta_star - ei + ej) + lp(theta_star - ei - ej)
            ) / (4 * h[i] * h[j])
    w, V = np.linalg.eigh(-H)
    axes = V / np.sqrt(np.maximum(w, 1e-8))
    half_width = int(np.ceil(np.sqrt(2 * drop) / step)) + 1
    pts, lps = [], []
    for z in itertools.product(range(-half_width, half_width + 1), repeat=d):
        z = np.array(z, dtype=float)
        theta = theta_star + step * (axes @ z)
        val = lp_star if not z.any() else lp(theta)
        if val >= lp_star - drop:
            pts.append(theta)
            lps.append(val)
    return theta_star, np.array(pts), np.array(lps)


def two_hyper_gaussian():
    """gaussian_multilevel with the observation precision estimated too."""
    base = gaussian_multilevel(hyper=True, intercept_prec=1.0)
    return LgmModel(base.components, base.design, Gaussian(precision="lp_obs"),
                    base.y, base.hypers + (HyperSpec("lp_obs", prior_prec=1e-4,
                                                     init=3.0),))


# A moderate intercept precision keeps the Gaussian models well conditioned:
# with the vague one, roundoff alone moves a warm-started mu by ~1e-12.
GRID_MODELS = {
    "gaussian-d1": lambda: gaussian_multilevel(hyper=True, intercept_prec=1.0),
    "binomial-d1": HESSIAN_MODELS["multilevel-binomial"],
    "besag-d1": lambda: besag_lattice(log_prec="lp"),
    "gaussian-d2": two_hyper_gaussian,
}


@pytest.mark.parametrize("name", sorted(GRID_MODELS))
def test_grid_fits_equal_cold_refits(name):
    model = GRID_MODELS[name]()
    grid = build_theta_grid(model)
    mode, pts, lps = reference_theta_grid(model)
    # the search and the Hessian stay cold, so the points do not move
    assert np.array_equal(grid.mode.values, mode)
    assert np.array_equal(np.array([hp.values for hp in grid.points]), pts)
    assert np.allclose(grid.log_posteriors, lps, rtol=1e-12, atol=0)
    assert len(grid.fits) == len(grid) == len(lps) > 1
    for hp, lp, ga in zip(grid.points, grid.log_posteriors, grid.fits):
        cold = find_mode(model, hp)
        assert ga.model is model
        assert np.array_equal(ga.theta.values, hp.values)
        scale = max(1.0, np.abs(cold.mu).max())
        assert np.abs(ga.mu - cold.mu).max() <= 1e-12 * scale
        cold_lp = log_evidence(model, cold) + model.log_hyper_prior(hp.values)
        assert lp == pytest.approx(cold_lp, rel=1e-12, abs=0)
        if np.array_equal(hp.values, grid.mode.values):
            assert np.array_equal(ga.mu, cold.mu)      # the mode's fit is cold


def test_grid_points_start_from_the_neighbour_nearer_the_mode(monkeypatch):
    starts = {}
    find = approx.find_mode

    def recorded(model, theta, init=None, **kwargs):
        starts[tuple(np.atleast_1d(getattr(theta, "values", theta)))] = init
        return find(model, theta, init=init, **kwargs)

    monkeypatch.setattr(approx, "find_mode", recorded)
    grid = build_theta_grid(GRID_MODELS["gaussian-d1"]())
    mode = next(k for k, hp in enumerate(grid.points)
                if np.array_equal(hp.values, grid.mode.values))
    assert 0 < mode < len(grid) - 1
    for k, hp in enumerate(grid.points):
        if k != mode:
            nearer = k - 1 if k > mode else k + 1
            assert starts[tuple(hp.values)] is grid.fits[nearer].mu


def test_fit_grid_approximations_reuses_the_grid_fits(monkeypatch):
    from lgocv.engine import fit_grid_approximations
    model = gaussian_multilevel(hyper=True)
    grid = build_theta_grid(model)
    gas = fit_grid_approximations(model, grid)
    assert all(a is b for a, b in zip(gas, grid.fits))

    another = gaussian_multilevel(hyper=True)
    restored = approx.ThetaGrid(grid.points, grid.log_posteriors, grid.weights,
                                grid.mode)
    for m, g in ((another, grid), (model, restored)):
        refits = fit_grid_approximations(m, g)
        assert len(refits) == len(grid)
        for hp, ga, own in zip(grid.points, refits, grid.fits):
            assert ga.model is m and ga is not own
            assert np.array_equal(ga.mu, find_mode(m, hp).mu)


def test_fit_grid_approximations_edge_grids():
    from lgocv.engine import fit_grid_approximations
    model = iid_identity_model(3)
    grid = build_theta_grid(model)
    assert grid.fits is None
    (ga,) = fit_grid_approximations(model, grid)
    assert ga.model is model

    # five free precisions: the empirical-Bayes fallback keeps the mode's fit
    rng = np.random.default_rng(8)
    n, k = 30, 5
    A = sp.csr_matrix((np.ones(n), (np.arange(n), np.arange(n) % k)), shape=(n, k))
    comps = [Iid(f"u{j}", 1, log_prec=f"lp{j}") for j in range(k)]
    big = LgmModel(comps, A, Gaussian(precision=4.0),
                   rng.standard_normal(k)[np.arange(n) % k]
                   + 0.5 * rng.standard_normal(n),
                   [HyperSpec(f"lp{j}", prior_prec=1.0) for j in range(k)])
    grid = build_theta_grid(big)
    assert len(grid) == 1 and grid.fits[0].model is big
    assert np.array_equal(grid.fits[0].theta.values, grid.mode.values)
    assert fit_grid_approximations(big, grid)[0] is grid.fits[0]
