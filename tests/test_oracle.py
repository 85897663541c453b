import numpy as np
import pytest
import scipy.sparse as sp
from scipy.stats import norm

from lgocv.approx import build_theta_grid, find_mode
from lgocv.components import Ar1
from lgocv.engine import gh_log_predictive
from lgocv.groups import build_groups, CorrelationSource, GroupSpec, singleton_groups
from lgocv.likelihoods import Gaussian
from lgocv.model import LgmModel
from lgocv.oracle import (OracleReport, dense_downdate_oracle, lfocv_curve,
                          map_levels_to_steps, refit_predictive_all)

from conftest import besag_lattice, conjugate_pair, leave_out, multilevel_poisson


def ar1_only(n=40, rho=0.8, tau=1.0, obs_prec=4.0, seed=0):
    rng = np.random.default_rng(seed)
    f = np.empty(n)
    f[0] = rng.standard_normal() / np.sqrt(tau)
    for t in range(1, n):
        f[t] = rho * f[t - 1] + rng.standard_normal() * np.sqrt(
            (1 - rho * rho) / tau)
    y = f + rng.standard_normal(n) / np.sqrt(obs_prec)
    model = LgmModel([Ar1("trend", n, log_prec=tau, rho=rho)],
                     sp.identity(n, format="csr"),
                     Gaussian(precision=obs_prec), y)
    return model, (rho, tau, obs_prec)


def kalman_forecast_logpdf(y, t, k, rho, tau, obs_prec):
    """Exact log p(y_t | y_0 .. y_{t-k}) for the AR(1)-plus-noise model."""
    m, v = 0.0, 1.0 / tau
    q = (1 - rho * rho) / tau
    r = 1.0 / obs_prec
    for s in range(t - k + 1):
        # measurement update with y_s
        kk = v / (v + r)
        m = m + kk * (y[s] - m)
        v = v * (1 - kk)
        # time update
        m, v = rho * m, rho * rho * v + q
    for _ in range(k - 1):
        m, v = rho * m, rho * rho * v + q
    return norm.logpdf(y[t], loc=m, scale=np.sqrt(v + r))


def test_conjugate_refit_closed_form():
    model = conjugate_pair(0.0, 0.0)
    dens = refit_predictive_all(model, singleton_groups([1]), indices=[1])[1]
    assert dens == pytest.approx(norm.pdf(0.0, scale=np.sqrt(1.5)), abs=1e-12)
    assert dens == pytest.approx(0.3257350, abs=1e-6)


def test_refit_matches_engine_downdate_gaussian():
    model, _ = ar1_only(n=15)
    theta = model.hyper_point(np.zeros(0))
    ga = find_mode(model, theta)
    I = [4, 5, 6]
    lgm = leave_out(ga, I)
    sub = model.keep_observations(np.setdiff1d(np.arange(model.n_obs), I))
    ga_sub = find_mode(sub, theta)
    x = ga_sub.constrain(ga_sub.solve(model.design[I].T.toarray()))
    mu_refit = model.design[I] @ ga_sub.mu
    sigma_refit = model.design[I] @ x
    assert np.max(np.abs(lgm.mu - mu_refit)) <= 1e-9
    assert np.max(np.abs(lgm.sigma - sigma_refit)) <= 1e-9


def test_lfocv_matches_kalman_filter():
    model, (rho, tau, obs_prec) = ar1_only(n=30)
    tests = list(range(10, 30))
    for k in (1, 3):
        got = lfocv_curve(model, [k], tests)[k]
        want = np.mean([kalman_forecast_logpdf(model.y, t, k, rho, tau,
                                               obs_prec) for t in tests])
        assert got == pytest.approx(want, abs=1e-6)


def test_lfocv_curve_shares_horizons():
    model, _ = ar1_only(n=20)
    tests = [10, 15]
    curve = lfocv_curve(model, [1, 2, 4], tests)
    for k in (1, 2, 4):
        assert curve[k] == pytest.approx(lfocv_curve(model, [k], tests)[k],
                                         abs=1e-12)
    assert curve[1] > curve[2] > curve[4]


def test_lfocv_argument_errors():
    model, _ = ar1_only(n=10)
    with pytest.raises(ValueError):
        lfocv_curve(model, [0], [5])
    with pytest.raises(ValueError):
        lfocv_curve(model, [6], [5])          # would condition on nothing
    with pytest.raises(IndexError):
        lfocv_curve(model, [1], [10])


def test_map_levels_to_steps_round_trip():
    steps = np.arange(1, 8, dtype=float)
    u = -0.5 - 0.3 * np.log(steps + 1.0)
    got = map_levels_to_steps(steps, u, u[[0, 3, 6]])
    assert np.allclose(got, [1.0, 4.0, 7.0], atol=1e-10)


def test_map_levels_to_steps_interpolates_and_extrapolates():
    steps = np.array([1.0, 2.0, 3.0])
    u = np.array([-1.0, -2.0, -3.0])
    got = map_levels_to_steps(steps, u, [-1.5, -0.5, -3.5])
    assert got[0] == pytest.approx(1.5, abs=1e-8)
    assert got[1] < 1.0                  # better than 1-step: below range
    assert got[2] > 3.0
    assert np.all(np.diff(map_levels_to_steps(steps, u, [-2.9, -1.7, -1.1])) < 0)


def test_map_levels_rejects_non_monotone():
    with pytest.raises(ValueError):
        map_levels_to_steps([1.0, 2.0, 3.0], [-1.0, -0.5, -2.0], [-1.0])


def test_refit_all_matches_per_observation():
    model = multilevel_poisson(seed=6, classes=3, per_class=4)
    ga = find_mode(model, model.hyper_point(np.zeros(0)))
    groups = build_groups(CorrelationSource("posterior"), ga, m=1)
    theta0 = np.zeros((1, 0))
    out = refit_predictive_all(model, groups, indices=[0, 1, 5, 9],
                               thetas=theta0)
    for i in (0, 1, 5, 9):
        single = refit_predictive_all(model, groups, indices=[i],
                                      thetas=theta0)[i]
        assert out[i] == single


def test_oracle_report_verdict_and_csv(tmp_path):
    rep = OracleReport(tolerance=1e-3)
    assert not rep.passed                # no rows, no verdict
    rep.add(0, "mu", 1e-5)
    rep.add(0, "sigma", 0.0)
    assert rep.passed
    rep.add(1, "mu", 0.1)
    assert not rep.passed
    path = tmp_path / "report.csv"
    rep.write_csv(str(path))
    lines = path.read_text().strip().splitlines()
    assert lines == ["case,quantity,error,pass", "0,mu,1e-05,1",
                     "0,sigma,0.0,1", "1,mu,0.1,0"]


def _one_target(model, ga_sub, theta, t):
    """log pi(y_t | the data of ga_sub) by a length-1 solve and quadrature."""
    row = model.design[[t]]
    x = ga_sub.constrain(ga_sub.solve(row.T.toarray()))
    return gh_log_predictive(model, theta, [t], row @ ga_sub.mu, (row @ x)[0])[0]


def test_batched_oracles_match_a_loop_of_length_1_calls():
    """Scoring every target of a refit at once gives, within 1e-14, what
    one solve and one quadrature per target give: a group of three targets
    (and a singleton) over two theta points, and three steps ahead that
    share each horizon."""
    model = besag_lattice(side=4, log_prec="lp")
    shared = np.array([0, 1, 4])
    groups = GroupSpec({0: shared, 1: shared, 4: shared, 7: np.array([7])})
    thetas = np.array([[-0.5], [0.5]])
    got = refit_predictive_all(model, groups, thetas=thetas)
    assert list(got) == [0, 1, 4, 7]
    for i in got:
        sub = model.keep_observations(np.setdiff1d(np.arange(model.n_obs), groups[i]))
        want = 0.0
        for theta in thetas:
            hp = sub.hyper_point(theta)
            want += 0.5 * np.exp(_one_target(model, find_mode(sub, hp), hp, i))
        assert got[i] == pytest.approx(want, rel=1e-14, abs=0.0)

    model, _ = ar1_only(n=30)
    steps, tests = [1, 2, 3], list(range(20, 30))
    curve = lfocv_curve(model, steps, tests)
    theta = model.hyper_point(np.zeros(0))
    for k in steps:
        want = sum(_one_target(model, find_mode(model.keep_observations(
            np.arange(t - k + 1)), theta), theta, t) for t in tests) / len(tests)
        assert curve[k] == pytest.approx(want, rel=1e-14, abs=0.0)
