"""Acceptance gate: one criterion per test, one printed PASS/FAIL line each."""

import numpy as np
import pytest

from lgocv.approx import ThetaGrid, build_theta_grid, find_mode
from lgocv.covariance import eta_covariance
from lgocv.engine import compute_lgocv, gh_log_predictive, leave_group_moments
from lgocv.groups import CorrelationSource, build_groups, singleton_groups
from lgocv.likelihoods import Binomial, Exponential, Gaussian, Poisson
from lgocv.oracle import lfocv_curve, map_levels_to_steps, refit_predictive_all
from lgocv.simulate import scenario_data, scenario_model
from lgocv.verify import run_verification

from conftest import multilevel_poisson

SEED = 20240817


def report(name, ok, detail):
    print(f"\n[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def single_point_grid(model):
    grid = build_theta_grid(model)
    mode = grid.mode
    return ThetaGrid((mode,), np.zeros(1), np.ones(1), mode)


@pytest.fixture(scope="module")
def ar1_setup():
    data = scenario_data("ar1-forecast", seed=SEED)
    model = scenario_model("ar1-forecast", data)
    grid = build_theta_grid(model)
    gas = [find_mode(model, hp) for hp in grid.points]
    return model, grid, gas


def engine_vs_refit(family, fixed_theta):
    data = scenario_data(f"multilevel-{family}", seed=SEED)
    model = scenario_model(f"multilevel-{family}", data)
    grid = single_point_grid(model) if fixed_theta else build_theta_grid(model)
    gas = [find_mode(model, hp) for hp in grid.points]
    ga_mode = gas[int(np.argmax(grid.log_posteriors))]
    groups = build_groups(CorrelationSource("posterior"), ga_mode, m=1)
    result = compute_lgocv(model, grid, groups, gas=gas)
    thetas = np.atleast_2d(grid.mode.values) if fixed_theta else None
    oracle = refit_predictive_all(model, groups, result.indices, thetas=thetas)
    rel = np.array([abs(d - oracle[i]) / abs(oracle[i])
                    for i, d in zip(result.indices, result.density)])
    return result, rel


def test_criterion_1_gaussian_exactness():
    result, rel = engine_vs_refit("gaussian", fixed_theta=True)
    ok = len(result.indices) == 100 and rel.max() <= 1e-8
    report("criterion 1, Gaussian exactness",
           ok, f"n={len(result.indices)}, max rel err {rel.max():.3e}")


def test_criterion_2_non_gaussian_agreement():
    details = []
    ok = True
    for family in ("binomial", "exponential"):
        result, rel = engine_vs_refit(family, fixed_theta=False)
        frac = float(np.mean(rel <= 0.05))
        med = float(np.median(rel))
        ok = ok and len(result.indices) == 100 and frac >= 0.95 and med <= 0.01
        details.append(f"{family}: within5%={frac:.2f}, median={med:.2e}")
    report("criterion 2, non-Gaussian agreement", ok, "; ".join(details))


def test_criterion_3_ar1_window_groups(ar1_setup):
    model, grid, gas = ar1_setup
    ga = gas[0]
    n = model.n_obs
    src = CorrelationSource("prior", ("trend",))
    bad = 0
    for m in range(1, 11):
        spec = build_groups(src, ga, m=m)
        for i in range(n):
            want = np.arange(max(0, i - (m - 1)), min(n - 1, i + (m - 1)) + 1)
            if not np.array_equal(spec[i], want):
                bad += 1
    report("criterion 3, AR(1) contiguous windows",
           bad == 0, f"{bad} mismatches over m=1..10, n={n}")


def test_criterion_4_lfocv_correspondence(ar1_setup):
    model, grid, gas = ar1_setup
    n = model.n_obs
    test = list(range(n - 500, n))
    ks = list(range(1, 11))
    lfocv_u = lfocv_curve(model, ks, test)

    src = CorrelationSource("prior", ("trend",))
    lgocv_u = []
    for m in ks:
        spec = build_groups(src, gas[0], m=m, indices=test)
        res = compute_lgocv(model, grid, spec, gas=gas, test_indices=test)
        lgocv_u.append(res.utility)

    mapped = map_levels_to_steps(ks, [lfocv_u[k] for k in ks], lgocv_u)
    ok = (np.all(np.diff(mapped) > 0)
          and 0.0 < mapped[0] < 1.0
          and 0.7 < mapped[1] < 1.8)
    report("criterion 4, LGOCV-LFOCV correspondence", ok,
           "mapped steps " + ", ".join(f"m={m}->{s:.3f}"
                                       for m, s in zip(ks, mapped)))


def test_criterion_5_downdate_formula_verification():
    rep = run_verification(cases=50, seed=0, tolerance=1e-9)

    import scipy.sparse as sp
    from lgocv.components import Iid
    from lgocv.model import LgmModel
    C = np.array([[1.0, 1.0]])
    hand = LgmModel([Iid("f", 2, log_prec=1.0)], sp.identity(2, format="csr"),
                    Poisson(offset=1e-300), np.zeros(2),
                    extra_constraints=(C, [0.0]))
    ga = find_mode(hand, hand.hyper_point(np.zeros(0)))
    sigma = eta_covariance(ga, [0, 1]).sigma
    hand_err = float(np.max(np.abs(
        sigma - np.array([[0.5, -0.5], [-0.5, 0.5]]))))
    ok = rep.passed and hand_err <= 1e-12
    report("criterion 5, downdate vs dense oracle", ok,
           f"{len(rep.rows)} randomized cases, worst {rep.errors.max():.3e}; "
           f"hand case err {hand_err:.3e}")


def test_criterion_6_property_suite(ar1_setup):
    checks = []

    # likelihood derivatives vs finite differences
    h = 1e-5
    worst_fd = 0.0
    eta = np.linspace(-4.0, 4.0, 33)
    for fam, y in [(Gaussian(precision=2.0), 0.7), (Poisson(offset=1.5), 3.0),
                   (Binomial(n_trials=20.0), 8.0), (Exponential(), 0.9)]:
        yv = np.full_like(eta, y)
        derivatives = fam.observe(yv).derivatives
        g, g1, g2 = derivatives(eta)
        _, g1p, _ = derivatives(eta + h)
        _, g1m, _ = derivatives(eta - h)
        gp, _, _ = derivatives(eta + h)
        gm, _, _ = derivatives(eta - h)
        e1 = np.max(np.abs(g1 - (gp - gm) / (2 * h)) / np.maximum(np.abs(g1), 1.0))
        e2 = np.max(np.abs(g2 - (g1p - g1m) / (2 * h)) / np.maximum(np.abs(g2), 1.0))
        worst_fd = max(worst_fd, float(e1), float(e2))
    checks.append(("derivatives", worst_fd <= 1e-5))

    # theta-grid weights sum to one
    data = scenario_data("multilevel-gaussian", seed=SEED)
    model = scenario_model("multilevel-gaussian", data)
    grid = build_theta_grid(model)
    checks.append(("grid weights", abs(grid.weights.sum() - 1.0) <= 1e-12))

    # quadrature-order doubling stability
    toy = multilevel_poisson(seed=1, classes=2, per_class=3)
    theta = toy.hyper_point(np.zeros(0))
    q_err = max(abs(gh_log_predictive(toy, theta, [i], [2.0], [0.5], order=15)
                    - gh_log_predictive(toy, theta, [i], [2.0], [0.5], order=30))[0]
                for i in range(toy.n_obs))
    checks.append(("quadrature doubling", q_err <= 1e-6))

    # removing information never shrinks the covariance
    big = multilevel_poisson(seed=4)
    ga = find_mode(big, big.hyper_point(np.zeros(0)))
    members = [np.array([7]), np.array([0, 25, 50]), np.arange(30, 40)]
    lg = leave_group_moments(ga, members)
    psd_ok = not lg.reasons
    for gs, _, sigma in lg.stacks:
        for g, sigma_g in zip(gs, sigma):
            em = eta_covariance(ga, members[g])
            gap = np.linalg.eigvalsh(sigma_g - em.sigma)
            psd_ok = psd_ok and gap.min() >= -1e-10
    checks.append(("information monotonicity", psd_ok))

    # built groups that are all singletons score bitwise as LOOCV
    ar1, grid1, gas1 = ar1_setup
    test = list(range(ar1.n_obs - 100, ar1.n_obs))
    spec = build_groups(CorrelationSource("prior", ("trend",)), gas1[0], m=1,
                        indices=test)
    a = compute_lgocv(ar1, grid1, spec, gas=gas1)
    b = compute_lgocv(ar1, grid1, singleton_groups(test), gas=gas1)
    checks.append(("singleton == loocv",
                   spec.all_singletons()
                   and np.array_equal(a.density, b.density)
                   and a.utility == b.utility))

    ok = all(flag for _, flag in checks)
    report("criterion 6, property suite", ok,
           "; ".join(f"{name}={'ok' if flag else 'FAIL'}"
                     for name, flag in checks))
