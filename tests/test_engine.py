import copy
import gc
import logging
from typing import NamedTuple

import mpmath
import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve
from scipy.stats import norm

from lgocv import engine, simulate
from lgocv.approx import build_theta_grid, find_mode
from lgocv.components import Iid
from lgocv.covariance import EtaMoments, eta_covariance
from lgocv.engine import (DowndateError, compute_lgocv, fit_grid_approximations,
                          gh_log_predictive, leave_group_moments)
from lgocv.groups import CorrelationSource, build_groups, singleton_groups
from lgocv.likelihoods import Binomial, Exponential, Gaussian, Poisson
from lgocv.model import LgmModel
from lgocv.oracle import dense_downdate_oracle

from conftest import (ar1_scenario, besag_lattice, conjugate_pair,
                      iid_identity_model, leave_out, multilevel_poisson)


def fitted(model):
    return find_mode(model, model.hyper_point(np.zeros(0)))


def test_conjugate_pair_single_downdate():
    y1, y2 = 0.7, -0.2
    model = conjugate_pair(y1, y2)
    ga = fitted(model)
    em = eta_covariance(ga, [1])
    assert em.mu[0] == pytest.approx((y1 + y2) / 3.0, abs=1e-12)
    assert em.sigma[0, 0] == pytest.approx(1.0 / 3.0, abs=1e-12)
    lgm = leave_out(ga, [1])
    assert reference_downdate(em, ga)[1] == "full"
    # removing y2 leaves f | y1 ~ N(y1/2, 1/2)
    assert lgm.mu[0] == pytest.approx(y1 / 2.0, abs=1e-12)
    assert lgm.sigma[0, 0] == pytest.approx(0.5, abs=1e-12)


def test_conjugate_pair_group_downdate_recovers_prior():
    model = conjugate_pair(0.7, -0.2)
    ga = fitted(model)
    em = eta_covariance(ga, [0, 1])     # rank-1: both predictors equal f
    lgm = leave_out(ga, [0, 1])
    assert reference_downdate(em, ga)[1] == "eigen"
    assert np.max(np.abs(lgm.mu)) <= 1e-12
    assert np.max(np.abs(lgm.sigma - np.ones((2, 2)))) <= 1e-12


def test_downdate_noop_when_no_curvature():
    # a likelihood with vanishing information: removing it changes nothing
    model = LgmModel([Iid("f", 2, log_prec=1.0)], sp.identity(2, format="csr"),
                     Poisson(offset=1e-300), np.zeros(2))
    ga = fitted(model)
    em = eta_covariance(ga, [0, 1])
    lgm = leave_out(ga, [0, 1])
    assert np.max(np.abs(lgm.mu - em.mu)) <= 1e-12
    assert np.max(np.abs(lgm.sigma - em.sigma)) <= 1e-12
    # log_corr = sum(g_I) + log_ratio, with log_ratio ~ 0
    assert lgm.log_corr == pytest.approx(float(ga.g[[0, 1]].sum()), abs=1e-10)


def test_full_rank_downdate_matches_dense_refit():
    model = multilevel_poisson(seed=5)
    theta = model.hyper_point(np.zeros(0))
    ga = find_mode(model, theta)
    I = np.array([0, 15, 37, 81])       # four distinct classes: full rank
    em = eta_covariance(ga, I)
    lgm = leave_out(ga, I)
    assert reference_downdate(em, ga)[1] == "full"
    oracle = dense_downdate_oracle(model, theta, I, ga=ga)
    assert np.max(np.abs(lgm.mu - oracle.mu)) <= 1e-8
    assert np.max(np.abs(lgm.sigma - oracle.sigma)) <= 1e-8


def test_eigen_downdate_matches_dense_refit():
    model = multilevel_poisson(seed=5)
    theta = model.hyper_point(np.zeros(0))
    ga = find_mode(model, theta)
    I = np.arange(10)                   # one whole class: rank-deficient
    em = eta_covariance(ga, I)
    lgm = leave_out(ga, I)
    assert reference_downdate(em, ga)[1] == "eigen"
    oracle = dense_downdate_oracle(model, theta, I, ga=ga)
    assert np.max(np.abs(lgm.mu - oracle.mu)) <= 1e-8
    assert np.max(np.abs(lgm.sigma - oracle.sigma)) <= 1e-8


def test_downdate_never_shrinks_variance():
    model = multilevel_poisson(seed=8)
    ga = fitted(model)
    members = [np.array([3]), np.array([0, 1, 2]), np.arange(10, 20)]
    lg = leave_group_moments(ga, members)
    assert not lg.reasons
    for gs, _, sigma in lg.stacks:
        for g, sigma_g in zip(gs, sigma):
            gap = np.linalg.eigvalsh(sigma_g - eta_covariance(ga, members[g]).sigma)
            assert gap.min() >= -1e-10


def test_gh_exact_for_gaussian_likelihood():
    tau = 4.0
    model = iid_identity_model(1, obs_prec=tau, y=np.array([1.3]))
    theta = model.hyper_point(np.zeros(0))
    for var in (1e-4, 1e-2, 1.0, 25.0):
        got = gh_log_predictive(model, theta, [0], mean=[0.4], var=[var])
        want = norm.logpdf(1.3, loc=0.4, scale=np.sqrt(var + 1.0 / tau))
        assert got[0] == pytest.approx(want, abs=1e-12)


def test_gh_rejects_degenerate_variance():
    model = iid_identity_model(1)
    theta = model.hyper_point(np.zeros(0))
    with pytest.raises(DowndateError):
        gh_log_predictive(model, theta, [0], mean=[0.0], var=[0.0])


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
    got = leave_out(ga, [1]).log_corr
    # Gaussian likelihood: the Laplace value is the exact leave-out density
    want = norm.logpdf(y2, loc=y1 / 2.0, scale=np.sqrt(0.5 + 1.0))
    assert got == pytest.approx(want, abs=1e-10)


def test_theta_correction_against_monte_carlo():
    model = multilevel_poisson()          # offset 50, informative counts
    theta = model.hyper_point(np.zeros(0))
    ga = find_mode(model, theta)
    I = np.arange(10)                     # a whole class: rank 1
    lgm = leave_out(ga, I)
    laplace = lgm.log_corr

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
            fam = model.subset_likelihood(np.full(eta.shape[0], i)).observe(
                np.full(eta.shape[0], model.y[i]))
            ll += fam.log_density(eta[:, pos], model.hyper_dict(theta.values))
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
        a = gh_log_predictive(model, theta, [0], [mean], [var], order=15)
        b = gh_log_predictive(model, theta, [0], [mean], [var], order=31)
        assert abs(a[0] - b[0]) <= 1e-5


def test_singleton_lgocv_is_loocv_bitwise():
    """Built groups that are all singletons (AR(1) prior, m = 1) score as
    LOOCV's ``singleton_groups`` do, bit for bit."""
    model = ar1_scenario()
    grid = build_theta_grid(model)
    gas = fit_grid_approximations(model, grid)
    spec = build_groups(CorrelationSource("prior", ("trend",)), gas[0], m=1)
    assert spec.all_singletons()
    a = compute_lgocv(model, grid, spec, gas=gas)
    b = compute_lgocv(model, grid, singleton_groups(range(model.n_obs)), gas=gas)
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
    res = compute_lgocv(model, grid, singleton_groups([0, 5]))
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
            lgm = leave_out(ga, I)
            gh_log_predictive(model, ga.theta, [i], lgm.mu[[pos]],
                              [lgm.sigma[pos, pos]])
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
        leave_out(bad[-1], I)
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
    """Each entry of a batch equals a call on that entry alone, a length-1
    array (the form that took the place of a scalar call)."""
    model = ARRAY_CASES[name]
    theta = model.hyper_point(np.zeros(0))
    idx = np.array([0, 1, 2, 3, 2, 0])
    mean = np.array([0.1, -0.7, 1.9, 0.4, -2.0, 3.0])
    var = np.array([0.5, 4.0, 1e-3, 9.0, 0.2, 1e-6])
    got = gh_log_predictive(model, theta, idx, mean, var)
    want = np.concatenate([gh_log_predictive(model, theta, idx[[n]], mean[[n]],
                                             var[[n]]) for n in range(idx.size)])
    assert got.shape == want.shape == idx.shape
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13)


def test_array_quadrature_rejects_degenerate_variance():
    model = ARRAY_CASES["gaussian"]
    theta = model.hyper_point(np.zeros(0))
    with pytest.raises(DowndateError):
        gh_log_predictive(model, theta, [0, 1], [0.0, 0.0], [1.0, 0.0])


def test_debug_line_and_skipped_frac(multilevel_fit, caplog, tmp_path):
    """Fresh fits solve every column of the first two runs; the second run
    overlaps the first, so the third reuses every column."""
    model, grid, _, groups, test = multilevel_fit
    gas = [find_mode(model, hp) for hp in grid.points]
    with caplog.at_level(logging.DEBUG, logger="lgocv.engine"):
        for _ in range(3):
            res = compute_lgocv(model, grid, groups, gas=gas, test_indices=test)
    lines = [r.getMessage() for r in caplog.records
             if r.getMessage().startswith("lgocv:")]
    K = len(gas)
    assert lines == [f"lgocv: {K} theta points, {len(test)} test observations, "
                     f"10 distinct groups, RHS columns solved={solved} "
                     f"reused={K * 100 - solved}, downdates={10 * K}, "
                     f"0 skipped" for solved in (K * 100, K * 100, 0)]
    path = tmp_path / "summary.txt"
    res.write_summary(str(path))
    assert "skipped_frac = 0.0\n" in path.read_text()


def test_no_test_observations_gives_nan_utility():
    model = multilevel_poisson(seed=6, classes=3, per_class=4)
    grid = build_theta_grid(model)
    res = compute_lgocv(model, grid, singleton_groups([]), test_indices=[])
    assert res.indices.size == 0 and res.density.size == 0
    assert np.isnan(res.utility) and np.isnan(res.skipped_frac)


def reference_distinct_groups(groups, test):
    """The per-observation numpy loop that ``engine._distinct_groups``
    replaces."""
    keys, members = {}, []
    group_of = np.empty(len(test), dtype=int)
    at = np.empty(len(test), dtype=int)
    for n, i in enumerate(test):
        I = np.asarray(groups[i], dtype=int)
        g = keys.setdefault(tuple(I.tolist()), len(members))
        if g == len(members):
            if np.unique(I).size != I.size:
                raise IndexError("index set contains duplicates")
            members.append(I)
        group_of[n] = g
        at[n] = int(np.flatnonzero(I == i)[0])
    return members, group_of, at


@st.composite
def shared_groups(draw):
    """Test observations 0..n-1, each taking an unsorted member list from a
    shared pool when one contains it and its singleton otherwise; a member
    list may repeat an entry."""
    n = draw(st.integers(1, 12))
    pool = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=1, max_size=5),
                         max_size=4))
    groups = {}
    for i in range(n):
        holding = [g for g in pool if i in g]
        groups[i] = np.array(draw(st.sampled_from(holding)) if holding else [i])
    return groups, np.arange(n)


@settings(max_examples=200, deadline=None)
@given(case=shared_groups())
def test_distinct_groups_match_the_loop_reference(case):
    groups, test = case
    try:
        want = reference_distinct_groups(groups, test)
    except IndexError:
        with pytest.raises(IndexError, match="duplicates"):
            engine._distinct_groups(groups, test)
        return
    members, group_of, at = engine._distinct_groups(groups, test)
    assert len(members) == len(want[0])
    assert all(np.array_equal(a, b) for a, b in zip(members, want[0]))
    assert np.array_equal(group_of, want[1]) and np.array_equal(at, want[2])


def test_distinct_groups_reject_a_group_without_its_observation():
    with pytest.raises(IndexError, match="does not contain"):
        engine._distinct_groups({0: np.array([1, 2])}, np.array([0]))


# -- the stacked kernel ------------------------------------------------------

RANK_TOL = 1e-10          # the reference's relative cutoff for dropped eigenpairs


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


class Reference(NamedTuple):
    indices: np.ndarray
    mu: np.ndarray
    sigma: np.ndarray
    log_ratio: float


def reference_downdate(em, ga):
    """The two-branch, one-group downdate of earlier versions: a precision
    path for full-rank covariances and a z-space path over sigma's nonzero
    eigenpairs for singular ones.  Returns the moments and the branch taken,
    "full" or "eigen"."""
    I, mu, sigma = em.indices, em.mu, em.sigma
    cI, bI = ga.c[I], ga.b[I]
    w, V = np.linalg.eigh(sigma)
    w_max = max(w.max(), 0.0)
    if w.min() > RANK_TOL * w_max:
        Q = V @ ((1.0 / w)[:, None] * V.T)
        Qm = Q - np.diag(cI)
        _check_leaveout_precision(Qm, np.linalg.eigvalsh(Q).max())
        cho = cho_factor(Qm)
        sigma_minus = cho_solve(cho, np.eye(len(I)))
        sigma_minus = 0.5 * (sigma_minus + sigma_minus.T)
        mu_minus = cho_solve(cho, Q @ mu - bI)
        log_ratio = (_log_gauss_dense(mu, mu_minus, sigma_minus)
                     - _log_gauss_dense(mu, mu, sigma))
        return Reference(I, mu_minus, sigma_minus, log_ratio), "full"

    keep = w > RANK_TOL * w_max
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
    return Reference(I, mu_perp + B @ mu_z_minus,
                     0.5 * (sigma_minus + sigma_minus.T), log_ratio), "eigen"


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
            mu, sigma, log_ratio, why = engine._downdate_stack(*_stack(stack))
            assert not why
            refs, branches = zip(*[reference_downdate(eta_covariance(g, I), g)
                                   for g, I in stack])
            if size > 1:
                assert set(branches) == {"full", "eigen"}
            for j, ref in enumerate(refs):
                np.testing.assert_allclose(mu[j], ref.mu, rtol=0, atol=1e-10)
                np.testing.assert_allclose(sigma[j], ref.sigma, rtol=0, atol=1e-10)
                assert abs(log_ratio[j] - ref.log_ratio) <= 1e-10


def mp_downdate(mu, sigma, c, b):
    """Leave-out moments of one group in 40 digits: precision
    sigma^-1 - C and linear term sigma^-1 mu - b, written without sigma^-1
    as sigma_minus = (I - sigma C)^-1 sigma, mu_minus = mu - sigma_minus v
    with v = b - c mu, and log_ratio = 1/2 log det(I - sigma C)
    - 1/2 v' sigma_minus v.  Inputs are taken exactly as floats."""
    with mpmath.workdps(40):
        s = len(mu)
        S = mpmath.matrix(sigma.tolist())
        K = mpmath.eye(s) - mpmath.matrix(
            [[S[i, j] * c[j] for j in range(s)] for i in range(s)])
        S_minus = K ** -1 * S
        v = mpmath.matrix([mpmath.mpf(b[j]) - mpmath.mpf(c[j]) * mu[j]
                           for j in range(s)])
        Sv = S_minus * v
        log_ratio = mpmath.log(mpmath.det(K)) / 2 - (v.T * Sv)[0] / 2
        return (np.array([float(mu[j] - Sv[j]) for j in range(s)]),
                np.array(S_minus.tolist(), dtype=float), float(log_ratio))


@pytest.mark.parametrize("case", ["ar1", "multilevel"])
def test_kernel_matches_a_40_digit_evaluation(case):
    """AR(1) prior groups for m = 1..10 and the rank-1 classes of a Poisson
    multilevel model with large curvatures, against ``mp_downdate``.  The
    Cholesky kernel was seen within 1.6e-12 (mu, sigma) and 2.8e-13
    (log_ratio); the z-space kernel of earlier versions, through sigma's
    eigendecomposition, was up to 5.5e-12 and 1.8e-12 off here."""
    if case == "ar1":
        model = ar1_scenario()
        ga = fitted(model)
        source = CorrelationSource("prior", ("trend",))
        stacks = []
        for m in range(1, 11):
            spec = build_groups(source, ga, m=m, indices=[22, 23, 24])
            stacks.append([(ga, np.asarray(spec[i])) for i in (22, 23, 24)])
            assert {I.size for _, I in stacks[-1]} == {2 * m - 1}
    else:
        ga = fitted(multilevel_poisson())
        stacks = [[(ga, np.arange(c, c + 10)) for c in range(0, 100, 10)]]
    for stack in stacks:
        out = engine._downdate_stack(*_stack(stack))
        assert np.isfinite(out[2]).all()
        for j, (g, I) in enumerate(stack):
            em = eta_covariance(g, I)
            mu, sigma, log_ratio = mp_downdate(em.mu, em.sigma, g.c[I], g.b[I])
            scale = max(np.abs(mu).max(), np.abs(sigma).max(), 1.0)
            assert np.abs(out[0][j] - mu).max() <= 3e-12 * scale
            assert np.abs(out[1][j] - sigma).max() <= 3e-12 * scale
            assert abs(out[2][j] - log_ratio) <= 1e-12 * max(1.0, abs(log_ratio))


@pytest.mark.parametrize("case", ["multilevel", "ar1", "besag"])
def test_scoring_takes_no_eigendecomposition(case, monkeypatch):
    """Every group downdates by a Cholesky alone, whatever its rank: the
    multilevel model's posterior groups are rank-1 classes."""
    if case == "multilevel":
        model, source, m = multilevel_poisson(), CorrelationSource("posterior"), 1
    elif case == "ar1":
        model, source, m = ar1_scenario(), CorrelationSource("prior", ("trend",)), 3
    else:
        model, source, m = besag_lattice(), CorrelationSource("prior", ("spatial",)), 2
    grid = build_theta_grid(model)
    gas = fit_grid_approximations(model, grid)
    spec = build_groups(source, gas[0], m=m)
    engine._gauss_hermite(engine.DEFAULT_GH_ORDER)   # nodes come from eigvalsh once

    def refuse(*args, **kwargs):
        raise AssertionError("eigendecomposition while scoring")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    res = compute_lgocv(model, grid, spec, gas=gas)
    assert not res.skipped and len(res.indices) == model.n_obs
    assert np.isfinite(res.utility)


def test_kernel_isolates_a_failing_group(multilevel_fit):
    model, grid, gas, groups, test = multilevel_fit
    j = 30
    bad = _inflated(gas[1], j, 1e4)
    classes = [np.arange(c, c + 10) for c in range(0, 100, 10)]
    with_bad = engine._downdate_stack(*_stack([(bad, I) for I in classes]))
    without = engine._downdate_stack(
        *_stack([(bad, I) for I in classes if j not in I]))
    with pytest.raises(DowndateError) as single:
        leave_out(bad, classes[3])
    assert with_bad[3] == {3: str(single.value)}
    assert np.isnan(with_bad[2][3])
    rest = [g for g in range(10) if g != 3]
    for a, b in zip(with_bad[:3], without[:3]):
        assert np.array_equal(a[rest], b)
    assert without[3] == {}


@pytest.mark.parametrize("case", ["class", "ar1", "besag"])
def test_one_group_is_the_single_group_downdate_bitwise(multilevel_fit, case):
    """On one group, ``leave_group_moments`` gives the bits of ``downdate``
    and ``theta_correction`` (the entry points the benchmark's oracle check
    and tracer name), members in any order and with constraints; a failing
    group gives the reason ``DowndateError`` carries."""
    model, grid, gas, groups, test = multilevel_fit
    if case == "class":
        ga, I = gas[1], groups[30][::-1]
    else:
        other, name, m = ((ar1_scenario(), "trend", 3) if case == "ar1"
                          else (besag_lattice(), "spatial", 2))
        ga = fitted(other)
        I = build_groups(CorrelationSource("prior", (name,)), ga, m=m,
                         indices=[7])[7]
    lg = leave_group_moments(ga, [I])
    em = eta_covariance(ga, I)
    lgm = engine.downdate(em, ga)
    (gs, mu, sigma), = lg.stacks
    assert list(gs) == [0] and not lg.reasons
    assert mu[0].tobytes() == lgm.mu.tobytes()
    assert sigma[0].tobytes() == lgm.sigma.tobytes()
    assert lg.log_corr[0] == engine.theta_correction(lgm, em, ga)

    if case == "class":
        bad = _inflated(gas[1], 30, 1e4)
        with pytest.raises(DowndateError) as single:
            engine.downdate(eta_covariance(bad, I), bad)
        lg = leave_group_moments(bad, [I])
        assert lg.reasons == {0: str(single.value)} and np.isnan(lg.log_corr[0])


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
    assert list(out[3]) == [2]
    assert out[3][2].startswith("leave-out precision not positive definite: ")
    assert np.isnan(out[2][2])

    calls.clear()
    clean = engine._downdate_stack(mu, sigma, cI, bI)
    assert calls == [(4, 10, 10)] and clean[3] == {}
    for a, b in zip(out[:3], clean[:3]):
        assert np.array_equal(np.delete(a, 2, axis=0), b)

    em = EtaMoments(np.arange(10), np.zeros(10), np.eye(10))
    one = copy.copy(ga)
    one.c = ga.c.copy()
    one.c[:10] = c_row
    monkeypatch.setattr(engine, "eta_covariance", lambda ga, U: em)
    with pytest.raises(DowndateError, match="not positive definite"):
        leave_out(one, np.arange(10))


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


@pytest.mark.parametrize("scenario, source, m", [
    ("multilevel-binomial", CorrelationSource("posterior"), 1),
    ("ar1-forecast", CorrelationSource("prior", ("trend",)), 3),
], ids=["multilevel-posterior", "ar1-prior"])
def test_pipeline_leaves_no_cyclic_garbage(scenario, source, m):
    """Grid, fits, groups and CV free everything by reference counting: a
    cycle would hand its frees to the next collection, wherever that runs."""
    data = simulate.scenario_data(scenario, 0)
    if scenario == "ar1-forecast":
        data = {k: v[:200] for k, v in data.items()}
    gc.collect()
    gc.disable()
    try:
        model = simulate.scenario_model(scenario, data)
        grid = build_theta_grid(model)
        gas = fit_grid_approximations(model, grid)
        ga = gas[int(np.argmax(grid.log_posteriors))]
        test = list(range(model.n_obs))[-40:]
        spec = build_groups(source, ga, m=m, indices=test)
        res = compute_lgocv(model, grid, spec, gas=gas, test_indices=test)
        assert np.isfinite(res.utility)
        del model, grid, gas, ga, spec, res
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_kernel_rejects_each_failing_group_with_its_reason(monkeypatch):
    """One stack of four groups: a positive-definite one, a leave-out
    precision with eigenvalue -1 (below -NEG_PREC_TOL), one with -1e-9 that
    only the Cholesky rejects, and a zero covariance.  Eigenvalues are
    computed only for the groups whose Cholesky failed, and the accepted
    group's outputs are those of a stack of one."""
    mu = np.array([[0.3, -0.2], [0.1, 0.4], [0.0, 0.0], [0.5, 0.5]])
    sigma = np.array([[[1.0, 0.3], [0.3, 0.8]], np.eye(2), np.eye(2), np.zeros((2, 2))])
    cI = np.array([[0.5, 0.2], [2.0, 0.1], [1.0 + 1e-9, 0.1], [0.7, 0.7]])
    bI = np.array([[0.2, 0.1], [0.3, -0.1], [0.0, 0.0], [0.1, 0.2]])
    eig = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: eig.append(a.shape) or eigvalsh(a))

    one = engine._downdate_stack(mu[:1], sigma[:1], cI[:1], bI[:1])
    assert one[3] == {} and eig == []
    out = engine._downdate_stack(mu, sigma, cI, bI)
    assert eig == [(2, 2), (2, 2)]
    assert out[3] == {
        1: "leave-out precision has eigenvalue -1.000e+00 (scale 1.000e+00); "
           "observation skipped",
        2: "leave-out precision not positive definite: Matrix is not positive definite",
        3: "eta_I covariance is identically zero"}
    assert np.isnan(out[2][1:]).all()
    for a, b in zip(out[:3], one[:3]):
        assert np.array_equal(a[:1], b)


@pytest.mark.parametrize("make, name, ms", [
    (lambda: ar1_scenario(200), "trend", range(1, 11)),
    (lambda: besag_lattice(10), "spatial", (1, 2, 3, 5)),
], ids=["ar1", "besag"])
def test_m_sweep_solves_each_member_about_once(make, name, ms):
    """CV over m on one set of fits equals CV on fresh fits per m, and the
    fits solve |U_1| + |U_2| columns plus each later union's new members."""
    model = make()
    grid = build_theta_grid(model)
    gas = fit_grid_approximations(model, grid)
    solved = []
    for ga in gas:
        inner = ga.solve
        ga.solve = lambda rhs, inner=inner: solved.append(rhs.shape[1]) or inner(rhs)
    test = list(range(model.n_obs))[-40:]
    source = CorrelationSource("prior", (name,))
    bound, last = 0, None
    for k, m in enumerate(ms):
        spec = build_groups(source, gas[0], m=m, indices=test)
        U = set(np.concatenate([spec[i] for i in test]).tolist())
        bound += len(U) if k < 2 else len(U - last)
        last = U
        res = compute_lgocv(model, grid, spec, gas=gas, test_indices=test)
        fresh = compute_lgocv(model, grid, spec, test_indices=test,
                              gas=[find_mode(model, hp) for hp in grid.points])
        assert not res.skipped and np.array_equal(res.density, fresh.density)
    assert sum(solved) <= len(gas) * bound
