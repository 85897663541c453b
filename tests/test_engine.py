import copy
import logging

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.stats import norm

from lgocv import engine, simulate
from lgocv.approx import build_theta_grid, find_mode
from lgocv.components import Iid
from lgocv.covariance import eta_covariance
from lgocv.engine import (DowndateError, LeaveGroupMoments, compute_lgocv,
                          compute_loocv, downdate, fit_grid_approximations,
                          gh_log_predictive, predictive_density,
                          theta_correction)
from lgocv.groups import CorrelationSource, build_groups, singleton_groups
from lgocv.likelihoods import Binomial, Exponential, Gaussian, Poisson
from lgocv.model import LgmModel
from lgocv.oracle import dense_downdate_oracle

from conftest import conjugate_pair, iid_identity_model, multilevel_poisson


def fitted(model):
    return find_mode(model, model.hyper_point(np.zeros(0)))


def test_conjugate_pair_single_downdate():
    y1, y2 = 0.7, -0.2
    model = conjugate_pair(y1, y2)
    ga = fitted(model)
    em = eta_covariance(ga, [1])
    assert em.mu[0] == pytest.approx((y1 + y2) / 3.0, abs=1e-12)
    assert em.sigma[0, 0] == pytest.approx(1.0 / 3.0, abs=1e-12)
    lgm = downdate(em, ga)
    # removing y2 leaves f | y1 ~ N(y1/2, 1/2)
    assert lgm.rank_path == "full"
    assert lgm.mu[0] == pytest.approx(y1 / 2.0, abs=1e-12)
    assert lgm.sigma[0, 0] == pytest.approx(0.5, abs=1e-12)


def test_conjugate_pair_group_downdate_recovers_prior():
    model = conjugate_pair(0.7, -0.2)
    ga = fitted(model)
    em = eta_covariance(ga, [0, 1])     # rank-1: both predictors equal f
    lgm = downdate(em, ga)
    assert lgm.rank_path == "eigen"
    assert np.max(np.abs(lgm.mu)) <= 1e-12
    assert np.max(np.abs(lgm.sigma - np.ones((2, 2)))) <= 1e-12


def test_downdate_noop_when_no_curvature():
    # a likelihood with vanishing information: removing it changes nothing
    model = LgmModel([Iid("f", 2, log_prec=1.0)], sp.identity(2, format="csr"),
                     Poisson(offset=1e-300), np.zeros(2))
    ga = fitted(model)
    em = eta_covariance(ga, [0, 1])
    lgm = downdate(em, ga)
    assert np.max(np.abs(lgm.mu - em.mu)) <= 1e-12
    assert np.max(np.abs(lgm.sigma - em.sigma)) <= 1e-12
    assert lgm.log_ratio == pytest.approx(0.0, abs=1e-10)


def test_full_rank_downdate_matches_dense_refit():
    model = multilevel_poisson(seed=5)
    theta = model.hyper_point(np.zeros(0))
    ga = find_mode(model, theta)
    I = np.array([0, 15, 37, 81])       # four distinct classes: full rank
    lgm = downdate(eta_covariance(ga, I), ga)
    assert lgm.rank_path == "full"
    oracle = dense_downdate_oracle(model, theta, I, ga=ga)
    assert np.max(np.abs(lgm.mu - oracle.mu)) <= 1e-8
    assert np.max(np.abs(lgm.sigma - oracle.sigma)) <= 1e-8


def test_eigen_downdate_matches_dense_refit():
    model = multilevel_poisson(seed=5)
    theta = model.hyper_point(np.zeros(0))
    ga = find_mode(model, theta)
    I = np.arange(10)                   # one whole class: rank-deficient
    lgm = downdate(eta_covariance(ga, I), ga)
    assert lgm.rank_path == "eigen"
    oracle = dense_downdate_oracle(model, theta, I, ga=ga)
    assert np.max(np.abs(lgm.mu - oracle.mu)) <= 1e-8
    assert np.max(np.abs(lgm.sigma - oracle.sigma)) <= 1e-8


def test_downdate_never_shrinks_variance():
    model = multilevel_poisson(seed=8)
    ga = fitted(model)
    for I in ([3], [0, 1, 2], np.arange(10, 20)):
        em = eta_covariance(ga, I)
        lgm = downdate(em, ga)
        gap = np.linalg.eigvalsh(lgm.sigma - em.sigma)
        assert gap.min() >= -1e-10


def test_gh_exact_for_gaussian_likelihood():
    tau = 4.0
    model = iid_identity_model(1, obs_prec=tau, y=np.array([1.3]))
    theta = model.hyper_point(np.zeros(0))
    for var in (1e-4, 1e-2, 1.0, 25.0):
        got = gh_log_predictive(model, theta, 0, mean=0.4, var=var)
        want = norm.logpdf(1.3, loc=0.4, scale=np.sqrt(var + 1.0 / tau))
        assert got == pytest.approx(want, abs=1e-12)


def test_gh_rejects_degenerate_variance():
    model = iid_identity_model(1)
    theta = model.hyper_point(np.zeros(0))
    with pytest.raises(DowndateError):
        gh_log_predictive(model, theta, 0, mean=0.0, var=0.0)


def test_conjugate_predictive_closed_form():
    model = conjugate_pair(0.0, 0.0)
    grid = build_theta_grid(model)
    gas = [find_mode(model, hp) for hp in grid.points]
    dens = predictive_density(model, gas, grid, 1, singleton_groups([1]))
    # pi(y2 | y1 = 0) = N(0; 0, 1/2 + 1)
    assert dens == pytest.approx(norm.pdf(0.0, scale=np.sqrt(1.5)), abs=1e-12)


def test_theta_correction_exact_for_gaussian():
    y1, y2 = 0.7, -0.2
    model = conjugate_pair(y1, y2)
    ga = fitted(model)
    em = eta_covariance(ga, [1])
    lgm = downdate(em, ga)
    got = theta_correction(lgm, em, ga)
    # Gaussian likelihood: the Laplace value is the exact leave-out density
    want = norm.logpdf(y2, loc=y1 / 2.0, scale=np.sqrt(0.5 + 1.0))
    assert got == pytest.approx(want, abs=1e-10)


def test_theta_correction_against_monte_carlo():
    model = multilevel_poisson()          # offset 50, informative counts
    theta = model.hyper_point(np.zeros(0))
    ga = find_mode(model, theta)
    I = np.arange(10)                     # a whole class: eigen path
    lgm = downdate(eta_covariance(ga, I), ga)
    laplace = theta_correction(lgm, eta_covariance(ga, I), ga)

    w, V = np.linalg.eigh(lgm.sigma)
    keep = w > 1e-12 * w.max()
    B = V[:, keep] * np.sqrt(w[keep])
    rng = np.random.default_rng(123)
    total = 0
    s1 = s2 = 0.0
    for _ in range(10):
        z = rng.standard_normal((1_000_000, B.shape[1]))
        eta = lgm.mu + z @ B.T
        ll = np.zeros(eta.shape[0])
        for pos, i in enumerate(I):
            ll += model.loglik_obs(theta, int(i), eta[:, pos])
        wts = np.exp(ll)
        s1 += wts.sum()
        s2 += (wts * wts).sum()
        total += wts.size
    mean = s1 / total
    sd = np.sqrt(s2 / total - mean * mean)
    se_log = sd / (mean * np.sqrt(total))
    assert abs(laplace - np.log(mean)) <= 3.0 * se_log


def test_quadrature_order_converged():
    rng = np.random.default_rng(4)
    model = LgmModel([Iid("f", 1, log_prec=1.0)], sp.csr_matrix([[1.0]]),
                     Poisson(offset=2.0), [3.0])
    theta = model.hyper_point(np.zeros(0))
    for mean, var in [(0.3, 2.0), (-1.0, 0.5), (1.5, 4.0)]:
        a = gh_log_predictive(model, theta, 0, mean, var, order=15)
        b = gh_log_predictive(model, theta, 0, mean, var, order=31)
        assert abs(a - b) <= 1e-5


def test_singleton_lgocv_is_loocv_bitwise():
    model = multilevel_poisson(seed=6, classes=3, per_class=4)
    grid = build_theta_grid(model)
    gas = [find_mode(model, hp) for hp in grid.points]
    a = compute_lgocv(model, grid, singleton_groups(range(model.n_obs)), gas=gas)
    b = compute_loocv(model, grid, gas=gas)
    assert np.array_equal(a.density, b.density)
    assert a.utility == b.utility


def test_threaded_run_is_deterministic():
    model = multilevel_poisson(seed=6, classes=3, per_class=4)
    grid = build_theta_grid(model)
    gas = [find_mode(model, hp) for hp in grid.points]
    groups = singleton_groups(range(model.n_obs))
    a = compute_lgocv(model, grid, groups, gas=gas, threads=1)
    b = compute_lgocv(model, grid, groups, gas=gas, threads=3)
    assert np.array_equal(a.density, b.density)
    assert np.array_equal(a.indices, b.indices)


def test_result_csv_round_trips_values(tmp_path):
    model = multilevel_poisson(seed=6, classes=3, per_class=4)
    grid = build_theta_grid(model)
    res = compute_loocv(model, grid, test_indices=[0, 5])
    path = tmp_path / "cv.csv"
    res.write_csv(str(path))
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "index,group_size,density,log_score"
    vals = [float(r.split(",")[2]) for r in rows[1:]]
    assert np.array_equal(np.array(vals), res.density)


# -- batched scoring: shared groups, skips, array quadrature ------------------

@pytest.fixture(scope="module")
def multilevel_fit():
    """Binomial multilevel with an estimated class precision and posterior
    groups at m=1: every observation of a class shares one group."""
    model = simulate.multilevel_model(
        simulate.simulate_multilevel("binomial", 3), "binomial")
    grid = build_theta_grid(model)
    gas = fit_grid_approximations(model, grid)
    ga_mode = gas[int(np.argmax(grid.log_posteriors))]
    groups = build_groups(CorrelationSource("posterior"), ga_mode, m=1)
    test = list(range(0, model.n_obs, 3))
    return model, grid, gas, groups, test


def _one_at_a_time(model, grid, gas, groups, test):
    return np.array([compute_lgocv(model, grid, groups, gas=gas,
                                   test_indices=[i]).density[0] for i in test])


@pytest.mark.parametrize("columns", [None, 25], ids=["one_chunk", "chunked"])
def test_shared_groups_match_one_at_a_time(multilevel_fit, monkeypatch,
                                           columns):
    model, grid, gas, groups, test = multilevel_fit
    assert len(grid) > 1
    assert len({tuple(groups[i]) for i in test}) == 10   # one per class
    want = _one_at_a_time(model, grid, gas, groups, test)

    unions = []

    def counted(ga, I):
        unions.append(len(I))
        return eta_covariance(ga, I)

    monkeypatch.setattr(engine, "eta_covariance", counted)
    if columns is not None:
        monkeypatch.setattr(engine, "RHS_BATCH", columns)
    res = compute_lgocv(model, grid, groups, gas=gas, test_indices=test)
    assert not res.skipped
    assert list(res.indices) == test
    np.testing.assert_allclose(res.density, want, rtol=1e-12, atol=0)
    chunks = 1 if columns is None else 5     # two 10-member classes per run
    assert len(unions) == chunks * len(gas)
    assert max(unions) <= engine.RHS_BATCH


def _per_observation_reason(model, gas, i, I):
    """First failure for one observation, walking the grid in order."""
    pos = int(np.flatnonzero(I == i)[0])
    for ga in gas:
        try:
            em = eta_covariance(ga, I)
            lgm = downdate(em, ga)
            theta_correction(lgm, em, ga)
            gh_log_predictive(model, ga.theta, i, lgm.mu[pos],
                              lgm.sigma[pos, pos])
        except DowndateError as exc:
            return str(exc)
    return None


def _inflated(ga, j, factor):
    bad = copy.copy(ga)
    bad.c = ga.c.copy()
    bad.c[j] *= factor
    return bad


def test_failed_downdate_skips_the_whole_group(multilevel_fit):
    model, grid, gas, groups, test = multilevel_fit
    good = compute_lgocv(model, grid, groups, gas=gas, test_indices=test)
    j = 30
    I = groups[j]
    bad = list(gas)
    bad[1] = _inflated(gas[1], j, 1e4)
    bad[-1] = _inflated(gas[-1], j, 1e6)        # a later, different failure
    res = compute_lgocv(model, grid, groups, gas=bad, test_indices=test)

    sharing = [i for i in test if i in I]
    assert sharing and [i for i, _ in res.skipped] == sharing
    for i, msg in res.skipped:
        assert msg == _per_observation_reason(model, bad, i, groups[i])
        assert msg.startswith("leave-out precision has eigenvalue")
    with pytest.raises(DowndateError) as late:
        downdate(eta_covariance(bad[-1], I), bad[-1])
    assert res.skipped[0][1] != str(late.value)

    kept = np.isin(good.indices, res.indices)
    assert np.array_equal(res.indices, good.indices[kept])
    assert np.array_equal(res.density, good.density[kept])
    assert res.skipped_frac == len(sharing) / len(test)


def test_degenerate_variance_skips_in_the_batch(multilevel_fit, monkeypatch):
    model, grid, gas, groups, test = multilevel_fit
    good = compute_lgocv(model, grid, groups, gas=gas, test_indices=test)
    I = groups[test[0]]

    def zero_variance(em, ga):
        lgm = downdate(em, ga)
        if ga is gas[0] and np.array_equal(em.indices, I):
            return LeaveGroupMoments(lgm.indices, lgm.mu, 0.0 * lgm.sigma,
                                     lgm.rank_path, lgm.log_ratio)
        return lgm

    monkeypatch.setattr(engine, "downdate", zero_variance)
    res = compute_lgocv(model, grid, groups, gas=gas, test_indices=test)
    sharing = [i for i in test if i in I]
    assert res.skipped == [(i, engine.DEGENERATE_VARIANCE) for i in sharing]
    kept = np.isin(good.indices, res.indices)
    assert np.array_equal(res.density, good.density[kept])


def _direct_model(lik, y):
    n = len(y)
    return LgmModel([Iid("f", n, log_prec=0.0)], sp.identity(n, format="csr"),
                    lik, np.asarray(y, dtype=float))


ARRAY_CASES = {
    "gaussian": _direct_model(Gaussian(precision=2.0), [0.3, -1.2, 2.5, 0.0]),
    "gaussian_narrow": _direct_model(Gaussian(precision=1e6),
                                     [0.3, -1.2, 2.5, 0.0]),
    "poisson_offsets": _direct_model(Poisson(offset=np.array([0.5, 2.0, 40.0,
                                                              1e3])),
                                     [0, 3, 51, 980]),
    "binomial": _direct_model(Binomial(n_trials=np.array([1.0, 20.0, 20.0,
                                                          500.0])),
                              [1, 0, 20, 250]),
    "exponential": _direct_model(Exponential(), [0.2, 1.0, 7.5, 30.0]),
}


@pytest.mark.parametrize("name", list(ARRAY_CASES))
def test_array_quadrature_matches_scalar_calls(name):
    model = ARRAY_CASES[name]
    theta = model.hyper_point(np.zeros(0))
    idx = np.array([0, 1, 2, 3, 2, 0])
    mean = np.array([0.1, -0.7, 1.9, 0.4, -2.0, 3.0])
    var = np.array([0.5, 4.0, 1e-3, 9.0, 0.2, 1e-6])
    got = gh_log_predictive(model, theta, idx, mean, var)
    want = [gh_log_predictive(model, theta, int(i), m, v)
            for i, m, v in zip(idx, mean, var)]
    assert isinstance(want[0], float)
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13)


def test_array_quadrature_rejects_degenerate_variance():
    model = ARRAY_CASES["gaussian"]
    theta = model.hyper_point(np.zeros(0))
    with pytest.raises(DowndateError):
        gh_log_predictive(model, theta, [0, 1], [0.0, 0.0], [1.0, 0.0])


def test_debug_line_and_skipped_frac(multilevel_fit, caplog, tmp_path):
    model, grid, gas, groups, test = multilevel_fit
    with caplog.at_level(logging.DEBUG, logger="lgocv.engine"):
        res = compute_lgocv(model, grid, groups, gas=gas, test_indices=test)
    lines = [r.getMessage() for r in caplog.records
             if r.getMessage().startswith("lgocv:")]
    K = len(gas)
    assert lines == [f"lgocv: {K} theta points, {len(test)} test observations, "
                     f"10 distinct groups, {K * 100} RHS columns, downdates "
                     f"full=0 eigen={10 * K}, 0 skipped"]
    path = tmp_path / "summary.txt"
    res.write_summary(str(path))
    assert "skipped_frac = 0.0\n" in path.read_text()


def test_no_test_observations_gives_nan_utility():
    model = multilevel_poisson(seed=6, classes=3, per_class=4)
    grid = build_theta_grid(model)
    res = compute_lgocv(model, grid, singleton_groups([]), test_indices=[])
    assert res.indices.size == 0 and res.density.size == 0
    assert np.isnan(res.utility) and np.isnan(res.skipped_frac)
