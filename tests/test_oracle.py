import numpy as np
import pytest
import scipy.sparse as sp
from scipy.stats import norm

from lgocv.approx import build_theta_grid, find_mode
from lgocv.components import Ar1
from lgocv.groups import build_groups, CorrelationSource, singleton_groups
from lgocv.likelihoods import Gaussian
from lgocv.model import LgmModel
from lgocv.oracle import (OracleReport, dense_downdate_oracle, lfocv_curve,
                          map_levels_to_steps, refit_predictive_all)

from conftest import conjugate_pair, leave_out, multilevel_poisson


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
    sub = model.drop_observations(I)
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
    rep.add("a", 1.0, 1.0 + 1e-5)
    rep.add("b", 2.0, 2.0)
    assert rep.passed
    rep.add("c", 1.0, 1.1)
    assert not rep.passed
    path = tmp_path / "report.csv"
    rep.write_csv(str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "case,engine,oracle,abs_error,rel_error,pass"
    assert len(lines) == 4
    assert lines[-1].endswith(",0")

    absolute = OracleReport(tolerance=1e-6, relative=False)
    absolute.add("d", 1e-9, 0.0)        # zero oracle: relative would blow up
    assert absolute.passed
