import copy
import logging

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import cho_factor, cho_solve
from scipy.stats import norm

from lgocv import engine, simulate
from lgocv.approx import build_theta_grid, find_mode
from lgocv.components import Iid
from lgocv.covariance import EtaMoments, eta_covariance
from lgocv.engine import (DowndateError, LeaveGroupMoments, compute_lgocv,
                          compute_loocv, downdate, fit_grid_approximations,
                          gh_log_predictive, theta_correction)
from lgocv.groups import CorrelationSource, build_groups, singleton_groups
from lgocv.likelihoods import Binomial, Exponential, Gaussian, Poisson
from lgocv.model import LgmModel
from lgocv.oracle import dense_downdate_oracle

from conftest import (ar1_scenario, besag_lattice, conjugate_pair,
                      iid_identity_model, multilevel_poisson)


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
    res = compute_lgocv(model, grid, singleton_groups([1]), gas=gas,
                        test_indices=[1])
    assert res.skipped == []
    # pi(y2 | y1 = 0) = N(0; 0, 1/2 + 1)
    want = norm.pdf(0.0, scale=np.sqrt(1.5))
    assert float(res.density[0]) == pytest.approx(want, abs=1e-12)


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
            fam = model.subset_likelihood(np.full(eta.shape[0], i))
            ll += fam.log_density(np.full(eta.shape[0], model.y[i]), eta[:, pos],
                                  model.hyper_dict(theta.values))
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
    kernel = engine._downdate_stack

    def zero_variance(mu, sigma, cI, bI):
        out = kernel(mu, sigma, cI, bI)
        # the rows holding group I at the first theta point
        hit = (cI == gas[0].c[I]).all(axis=1) & (bI == gas[0].b[I]).all(axis=1)
        out[1][hit] = 0.0
        return out

    monkeypatch.setattr(engine, "_downdate_stack", zero_variance)
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


# -- the stacked z-space kernel ----------------------------------------------

def _log_gauss_dense(x, mean, sigma):
    r = x - mean
    cho = cho_factor(sigma)
    logdet = 2.0 * np.sum(np.log(np.diag(cho[0])))
    return -0.5 * (x.size * np.log(2 * np.pi) + logdet + r @ cho_solve(cho, r))


def _check_leaveout_precision(Qm, scale):
    w = np.linalg.eigvalsh(Qm)
    if w.min() < -engine.NEG_PREC_TOL * scale:
        raise DowndateError(f"leave-out precision has eigenvalue {w.min():.3e} "
                            f"(scale {scale:.3e}); observation skipped")


def reference_downdate(em, ga):
    """The two-branch, one-group downdate the kernel replaced: a precision
    path for full-rank covariances and a z-space path for singular ones."""
    I, mu, sigma = em.indices, em.mu, em.sigma
    cI, bI = ga.c[I], ga.b[I]
    w, V = np.linalg.eigh(sigma)
    w_max = max(w.max(), 0.0)
    if w.min() > engine.RANK_TOL * w_max:
        Q = V @ ((1.0 / w)[:, None] * V.T)
        Qm = Q - np.diag(cI)
        _check_leaveout_precision(Qm, np.linalg.eigvalsh(Q).max())
        cho = cho_factor(Qm)
        sigma_minus = cho_solve(cho, np.eye(len(I)))
        sigma_minus = 0.5 * (sigma_minus + sigma_minus.T)
        mu_minus = cho_solve(cho, Q @ mu - bI)
        log_ratio = (_log_gauss_dense(mu, mu_minus, sigma_minus)
                     - _log_gauss_dense(mu, mu, sigma))
        return LeaveGroupMoments(I, mu_minus, sigma_minus, "full", log_ratio)

    keep = w > engine.RANK_TOL * w_max
    lam = np.sqrt(w[keep])
    Vk = V[:, keep]
    B = Vk * lam
    mu_z = (Vk.T @ mu) / lam
    mu_perp = mu - Vk @ (Vk.T @ mu)
    Qz = np.eye(B.shape[1]) - B.T @ (cI[:, None] * B)
    _check_leaveout_precision(Qz, 1.0)
    cho = cho_factor(Qz)
    sigma_z = cho_solve(cho, np.eye(B.shape[1]))
    sigma_z = 0.5 * (sigma_z + sigma_z.T)
    mu_z_minus = cho_solve(cho, mu_z - B.T @ (bI - cI * mu_perp))
    sigma_minus = B @ sigma_z @ B.T
    log_ratio = (_log_gauss_dense(mu_z, mu_z_minus, sigma_z)
                 - _log_gauss_dense(mu_z, mu_z, np.eye(B.shape[1])))
    return LeaveGroupMoments(I, mu_perp + B @ mu_z_minus,
                             0.5 * (sigma_minus + sigma_minus.T), "eigen",
                             log_ratio)


def _stack(items):
    """Kernel inputs for a list of (ga, I) of one group size."""
    ems = [eta_covariance(ga, I) for ga, I in items]
    return (np.array([em.mu for em in ems]), np.array([em.sigma for em in ems]),
            np.array([ga.c[I] for ga, I in items]),
            np.array([ga.b[I] for ga, I in items]))


def _rank_deficient(ga_ml, size):
    """Multilevel groups of ``size`` members from one class (rank 1) and
    from two classes (rank 2); 10 observations per class."""
    return [(ga_ml, np.arange(10, 10 + size)),
            (ga_ml, np.concatenate([np.arange(20, 20 + size - size // 2),
                                    np.arange(50, 50 + size // 2)]))]


@pytest.mark.parametrize("case", ["multilevel", "ar1", "besag"])
def test_kernel_matches_the_two_branch_reference(multilevel_fit, case):
    model, grid, gas, groups, test = multilevel_fit
    ga_ml = gas[len(gas) // 2]
    if case == "multilevel":
        configs = [(ga_ml, groups, 1)]
        # classes (rank 1) and ten observations from ten classes (full rank)
        extra = [(ga_ml, np.arange(c, 100, 10)) for c in range(3)]
    else:
        other = ar1_scenario() if case == "ar1" else besag_lattice()
        name = "trend" if case == "ar1" else "spatial"
        ga = fitted(other)
        source = CorrelationSource("prior", (name,))
        configs = [(ga, build_groups(source, ga, m=m), m) for m in (1, 2, 3)]
        extra = []
    for ga, spec, m in configs:
        items = [(ga, np.asarray(spec[i])) for i in spec.indices()]
        by_size = {}
        for it in items + extra:
            by_size.setdefault(it[1].size, []).append(it)
        for size, stack in by_size.items():
            if size > 1:
                stack = stack + _rank_deficient(ga_ml, size)
            mu, sigma, log_ratio, full, why = engine._downdate_stack(*_stack(stack))
            assert not why
            refs = [reference_downdate(eta_covariance(g, I), g) for g, I in stack]
            assert list(full) == [r.rank_path == "full" for r in refs]
            if size > 1:
                assert full.any() and not full.all()
            for j, ref in enumerate(refs):
                np.testing.assert_allclose(mu[j], ref.mu, rtol=0, atol=1e-10)
                np.testing.assert_allclose(sigma[j], ref.sigma, rtol=0, atol=1e-10)
                assert abs(log_ratio[j] - ref.log_ratio) <= 1e-10


def test_kernel_isolates_a_failing_group(multilevel_fit):
    model, grid, gas, groups, test = multilevel_fit
    j = 30
    bad = _inflated(gas[1], j, 1e4)
    classes = [np.arange(c, c + 10) for c in range(0, 100, 10)]
    with_bad = engine._downdate_stack(*_stack([(bad, I) for I in classes]))
    without = engine._downdate_stack(
        *_stack([(bad, I) for I in classes if j not in I]))
    with pytest.raises(DowndateError) as single:
        downdate(eta_covariance(bad, classes[3]), bad)
    assert with_bad[4] == {3: str(single.value)}
    assert np.isnan(with_bad[2][3])
    rest = [g for g in range(10) if g != 3]
    for a, b in zip(with_bad[:4], without[:4]):
        assert np.array_equal(a[rest], b)
    assert without[4] == {}


def test_cholesky_failure_falls_back_to_single_groups(multilevel_fit,
                                                      monkeypatch):
    model, grid, gas, groups, test = multilevel_fit
    ga = gas[0]
    mu, sigma, cI, bI = _stack([(ga, np.arange(c, 100, 10)) for c in range(4)])
    # unit covariance, curvature just above one in its first member: the
    # leave-out precision has eigenvalue -1e-9, inside NEG_PREC_TOL, so only
    # the Cholesky factorization can reject it
    mu_b = np.concatenate([mu[:2], np.zeros((1, 10)), mu[2:]])
    sigma_b = np.concatenate([sigma[:2], np.eye(10)[None], sigma[2:]])
    c_row = np.full(10, 0.5)
    c_row[0] = 1.0 + 1e-9
    cI_b = np.concatenate([cI[:2], c_row[None], cI[2:]])
    bI_b = np.concatenate([bI[:2], np.zeros((1, 10)), bI[2:]])

    calls = []
    cholesky = np.linalg.cholesky

    def counted(a):
        calls.append(a.shape)
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    out = engine._downdate_stack(mu_b, sigma_b, cI_b, bI_b)
    assert calls[0] == (5, 10, 10) and calls[1:] == [(10, 10)] * 5
    assert list(out[4]) == [2]
    assert out[4][2].startswith("leave-out precision not positive definite: ")
    assert np.isnan(out[2][2])

    calls.clear()
    clean = engine._downdate_stack(mu, sigma, cI, bI)
    assert calls == [(4, 10, 10)] and clean[4] == {}
    for a, b in zip(out[:4], clean[:4]):
        assert np.array_equal(np.delete(a, 2, axis=0), b)

    em = EtaMoments(np.arange(10), np.zeros(10), np.eye(10))
    one = copy.copy(ga)
    one.c = ga.c.copy()
    one.c[:10] = c_row
    with pytest.raises(DowndateError, match="not positive definite"):
        downdate(em, one)


@pytest.mark.parametrize("columns", [12, None], ids=["chunked", "one_chunk"])
def test_mixed_sizes_match_one_at_a_time(monkeypatch, columns):
    model = ar1_scenario()
    grid = build_theta_grid(model)
    gas = fit_grid_approximations(model, grid)
    groups = build_groups(CorrelationSource("prior", ("trend",)), gas[0], m=3)
    test = list(range(0, 4)) + list(range(40, 60))
    assert len({len(groups[i]) for i in test}) >= 3
    want = _one_at_a_time(model, grid, gas, groups, test)

    stacks, unions = [], []
    kernel = engine._downdate_stack

    def counted_kernel(mu, *args):
        stacks.append(mu.shape)
        return kernel(mu, *args)

    def counted_cov(ga, I):
        unions.append(len(I))
        return eta_covariance(ga, I)

    monkeypatch.setattr(engine, "_downdate_stack", counted_kernel)
    monkeypatch.setattr(engine, "eta_covariance", counted_cov)
    if columns is not None:
        monkeypatch.setattr(engine, "RHS_BATCH", columns)
    res = compute_lgocv(model, grid, groups, gas=gas, test_indices=test)
    assert not res.skipped and list(res.indices) == test
    np.testing.assert_allclose(res.density, want, rtol=1e-12, atol=0)
    assert len(stacks) > len(unions) and max(unions) <= engine.RHS_BATCH
    assert sum(k for k, _ in stacks) == len({tuple(groups[i]) for i in test})
