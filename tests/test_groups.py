import gc
import logging
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import lgocv.covariance
import lgocv.groups
from lgocv.approx import Kriging, find_mode
from lgocv.covariance import eta_covariance
from lgocv.components import Ar1, Besag, FixedEffects, Iid, Rw1, Rw2
from lgocv.groups import (CorrelationSource, GroupingError, build_groups,
                          group_from_row, level_set_partition, read_groups,
                          singleton_groups, write_groups)
from lgocv.likelihoods import Gaussian, Poisson
from lgocv.model import LgmModel

from conftest import (ar1_scenario, besag_lattice, iid_identity_model,
                      multilevel_poisson)

POSTERIOR = CorrelationSource("posterior")


def fitted(model):
    return find_mode(model, model.hyper_point(np.zeros(0)))


def ar1_model(n=30, rho=0.9, intercept=True, extra_constraints=None):
    comps = []
    blocks = []
    if intercept:
        comps.append(FixedEffects("intercept", 1, prec=1.0))
        blocks.append(sp.csr_matrix(np.ones((n, 1))))
    comps.append(Ar1("trend", n, log_prec=1.0, rho=rho))
    blocks.append(sp.identity(n, format="csr"))
    A = sp.hstack(blocks, format="csr")
    y = np.sin(np.linspace(0, 3, n))
    return LgmModel(comps, A, Gaussian(precision=5.0), y,
                    extra_constraints=extra_constraints)


def test_intercept_only_groups_everything():
    n = 8
    model = LgmModel([FixedEffects("b", 1, prec=1.0)],
                     sp.csr_matrix(np.ones((n, 1))), Gaussian(), np.zeros(n))
    spec = build_groups(POSTERIOR, fitted(model), m=1)
    for i in range(n):
        assert np.array_equal(spec[i], np.arange(n))


def test_pure_iid_posterior_gives_singletons():
    model = iid_identity_model(6, y=np.arange(6.0))
    spec = build_groups(POSTERIOR, fitted(model), m=1)
    assert spec.all_singletons()
    for i in range(6):
        assert spec[i][0] == i


def test_prior_subset_row_is_exact_ar1_correlation():
    rho = 0.9
    model = ar1_model(n=25, rho=rho)
    src = CorrelationSource("prior", ("trend",))
    ga = fitted(model)
    r = lgocv.groups._engine_for(src, ga).rows([12])[0]
    expected = rho ** np.abs(np.arange(25) - 12)
    assert np.max(np.abs(r - expected)) <= 1e-10


def test_prior_subset_gives_contiguous_windows():
    model = ar1_model(n=20, rho=0.8)
    src = CorrelationSource("prior", ("trend",))
    ga = fitted(model)
    for m in (1, 2, 3, 5):
        spec = build_groups(src, ga, m=m)
        for i in range(20):
            lo, hi = max(0, i - (m - 1)), min(19, i + (m - 1))
            assert np.array_equal(spec[i], np.arange(lo, hi + 1))


def test_groups_grow_monotonically_in_m():
    model = multilevel_poisson(seed=7, classes=4, per_class=5)
    ga = fitted(model)
    prev = None
    for m in (1, 2, 3):
        spec = build_groups(POSTERIOR, ga, m=m)
        if prev is not None:
            for i in spec.indices():
                assert set(prev[i]) <= set(spec[i])
        prev = spec


def test_every_group_contains_its_own_index():
    model = multilevel_poisson(seed=11, classes=3, per_class=4)
    spec = build_groups(POSTERIOR, fitted(model), m=2)
    for i in spec.indices():
        assert i in spec[i]


def test_multilevel_m1_recovers_classes():
    model = multilevel_poisson(seed=5, classes=5, per_class=6)
    spec = build_groups(POSTERIOR, fitted(model), m=1)
    for i in range(model.n_obs):
        cls = i // 6
        assert np.array_equal(spec[i], np.arange(6 * cls, 6 * cls + 6))


def test_permutation_equivariance():
    model = multilevel_poisson(seed=3, classes=4, per_class=5)
    perm = np.random.default_rng(1).permutation(model.n_obs)
    permuted = LgmModel(model.components, model.design[perm], model.likelihood,
                        model.y[perm])
    spec = build_groups(POSTERIOR, fitted(model), m=1)
    spec_p = build_groups(POSTERIOR, fitted(permuted), m=1)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(perm.size)
    for i in range(model.n_obs):
        assert np.array_equal(np.sort(inv[spec[i]]), spec_p[inv[i]])


def test_level_set_partition_examples():
    r = np.array([1.0, 0.5, 0.5 + 1e-12, 0.1])
    order, ends = level_set_partition(r, tie_tol=1e-8)
    assert ends == [1, 3, 4]
    assert np.array_equal(group_from_row(r, 2, 1e-8), [0, 1, 2])
    assert np.array_equal(group_from_row(r, 99, 1e-8), [0, 1, 2, 3])


@settings(max_examples=80, deadline=None)
@given(r=hnp.arrays(float, st.integers(1, 12),
                    elements=st.floats(0.0, 1.0)),
       m=st.integers(1, 5))
def test_level_set_properties(r, m):
    order, ends = level_set_partition(r, tie_tol=1e-8)
    assert sorted(order.tolist()) == list(range(r.size))
    assert ends[-1] == r.size
    assert all(a < b for a, b in zip(ends, ends[1:]))
    vals = r[order]
    assert np.all(np.diff(vals) <= 0)
    g_m = group_from_row(r, m, 1e-8)
    g_next = group_from_row(r, m + 1, 1e-8)
    assert set(g_m.tolist()) <= set(g_next.tolist())


def reference_partition(r, tie_tol):
    """The element-by-element level-set walk the vectorized one replaces."""
    order = np.argsort(-r, kind="stable")
    vals = r[order]
    ends = []
    k = 0
    n = vals.size
    while k < n:
        ref = vals[k]
        k += 1
        while k < n and ref - vals[k] <= tie_tol * max(ref, 1e-300):
            k += 1
        ends.append(k)
    return order, ends


@st.composite
def near_tie_rows(draw, lengths=st.integers(1, 25)):
    """Rows of values from a small set, exact duplicates, and chains of
    values 0.5-2 tie tolerances apart (relative), so that ties straddle
    the boundary from both sides."""
    tie_tol = draw(st.sampled_from([1e-8, 1e-3, 0.05]))
    bases = draw(st.lists(st.sampled_from([1.0, 0.9, 0.5, 0.3, 1e-3, 1e-200, 0.0]),
                          min_size=1, max_size=4))
    vals = []
    for _ in range(draw(lengths)):
        v = draw(st.sampled_from(bases + vals))
        frac = draw(st.one_of(st.just(0.0), st.floats(0.5, 2.0)))
        vals.append(v * (1.0 - frac * tie_tol))
    return np.array(vals), tie_tol


def assert_walk_matches_reference(r, tie_tol, m):
    ref_order, ref_ends = reference_partition(r, tie_tol)
    order, ends = level_set_partition(r, tie_tol)
    assert np.array_equal(order, ref_order)
    assert ends == ref_ends
    order, ends = level_set_partition(r, tie_tol, m)
    assert np.array_equal(order, ref_order)
    assert ends == ref_ends[:m]
    end = ref_ends[min(m, len(ref_ends)) - 1]
    assert np.array_equal(group_from_row(r, m, tie_tol), np.sort(ref_order[:end]))


@settings(max_examples=300, deadline=None)
@given(row=near_tie_rows(), m=st.integers(1, 6))
def test_level_sets_equal_reference_walk(row, m):
    assert_walk_matches_reference(*row, m)


def run_across_head(start, length, n=100):
    """A row whose sorted values 0..start-1 are distinct, then ``length``
    tied values, then distinct ones: the tie run crosses the walk's head
    when start < 64 < start + length."""
    vals = np.linspace(1.0, 0.5, n)
    vals[start:start + length] = vals[start]
    return vals[np.random.default_rng(start).permutation(n)], 1e-8


@settings(max_examples=150, deadline=None)
@given(row=near_tie_rows(lengths=st.integers(65, 200)), m=st.integers(1, 80))
@example(row=run_across_head(60, 10), m=70)
@example(row=run_across_head(0, 100), m=1)
@example(row=run_across_head(63, 2), m=80)
@example(row=run_across_head(64, 30), m=66)
def test_long_rows_equal_reference_walk(row, m):
    """Rows longer than the walk's head, with tie runs that cross it."""
    assert_walk_matches_reference(*row, m)


def walk_model(walk, extra_constraints=None):
    """Intercept plus the random walk ``walk``, one observation per step."""
    n = walk.size
    A = sp.hstack([sp.csr_matrix(np.ones((n, 1))), sp.identity(n, format="csr")],
                  format="csr")
    return LgmModel([FixedEffects("intercept", 1, prec=1.0), walk], A,
                    Gaussian(precision=5.0), np.cos(np.linspace(0, 4, n)),
                    extra_constraints=extra_constraints)


def rw1_model(n=14):
    """Intercept plus RW1: its prior subset is intrinsic."""
    return walk_model(Rw1("walk", n, log_prec=1.0))


def after_intercept(values):
    """One constraint row on a latent vector whose first entry is the
    intercept and whose rest is ``values``."""
    return np.concatenate([[0.0], values])[None, :]


@pytest.mark.parametrize("model, source", [
    (multilevel_poisson(seed=4, classes=4, per_class=5), POSTERIOR),
    (ar1_model(n=20, rho=0.8), CorrelationSource("prior", ("trend",))),
    (rw1_model(), CorrelationSource("prior", ("walk",))),
], ids=["posterior", "sparse-prior", "intrinsic-prior"])
def test_blocked_rows_match_single_rows(model, source, monkeypatch, caplog):
    monkeypatch.setattr(lgocv.groups, "RHS_BATCH", 3)
    ga = fitted(model)
    test = np.random.default_rng(0).permutation(model.n_obs)[:11]
    for m in (1, 3):
        with caplog.at_level(logging.DEBUG, logger="lgocv.groups"):
            spec = build_groups(source, ga, m=m, indices=test)
        assert list(spec.groups) == [int(i) for i in test]
        for i in test:
            row = lgocv.groups._engine_for(source, ga).rows([i])[0]
            expected = group_from_row(row, m, 1e-8)
            assert np.array_equal(spec[i], expected)
    assert "11 rows in 4 RHS blocks" in caplog.text


def test_rows_keep_only_the_last_block(monkeypatch):
    """A repeated block is served without a solve; any other block, or the
    same array changed in place, is solved afresh."""
    source = CorrelationSource("prior", ("trend",))
    model = ar1_model(n=20, rho=0.8)
    engine = lgocv.groups._engine_for(source, fitted(model))
    solves = []
    solve = engine._solve
    monkeypatch.setattr(engine, "_solve", lambda rhs: solves.append(1) or solve(rhs))
    idx = np.array([3, 5, 7])
    first = engine.rows(idx)
    assert engine.rows([3, 5, 7]) is first and len(solves) == 1
    with pytest.raises(ValueError):
        first[0, 0] = 0.5
    idx[2] = 8
    moved = engine.rows(idx)
    assert len(solves) == 2 and moved is not first
    fresh = lgocv.groups._engine_for(source, fitted(model))
    assert np.array_equal(moved, fresh.rows([3, 5, 8]))
    assert np.array_equal(first, fresh.rows([3, 5, 7]))
    assert np.array_equal(engine.rows([3, 5, 7]), first) and len(solves) == 3


@pytest.mark.parametrize("make, source, ms", [
    (lambda: ar1_scenario(200), CorrelationSource("prior", ("trend",)), range(1, 11)),
    (lambda: besag_lattice(10), CorrelationSource("prior", ("spatial",)), (1, 2, 3, 5)),
], ids=["ar1", "besag"])
def test_m_sweep_on_one_engine_equals_fresh_fits(make, source, ms):
    shared = fitted(make())
    test = np.arange(shared.model.n_obs)[-40:]
    for m in ms:
        spec = build_groups(source, shared, m=m, indices=test)
        fresh = build_groups(source, fitted(make()), m=m, indices=test)
        assert list(spec.groups) == list(fresh.groups)
        for i in test:
            assert np.array_equal(spec[i], fresh[i])


@pytest.mark.parametrize("model, source", [
    (multilevel_poisson(seed=4, classes=4, per_class=5), POSTERIOR),
    (besag_lattice(4), POSTERIOR),
    (besag_lattice(4), CorrelationSource("prior", ("spatial",))),
], ids=["posterior", "constrained-posterior", "prior"])
def test_cached_engine_does_not_keep_its_fit_alive(model, source):
    ga = fitted(model)
    gc.disable()
    try:
        build_groups(source, ga, m=1)
        ref = weakref.ref(ga)
        del ga
        assert ref() is None
    finally:
        gc.enable()


def reference_prior_correlation(source, ga):
    """All |corr| rows of the selected prior from a dense pinv of its
    precision, kriged one constraint row at a time: the dense engine that
    the bordered sparse solve replaces."""
    model = ga.model
    cols = np.concatenate([model.offsets[c.name] + np.arange(c.size)
                           for c in model.components
                           if source.subset is None or c.name in source.subset])
    P = model.prior_precision(ga.theta)[cols][:, cols].toarray()
    sigma = np.linalg.pinv(P, hermitian=True)
    outside = np.setdiff1d(np.arange(model.latent_size), cols)
    for c in (model.constraints[0] if model.constraints is not None else []):
        if np.any(c[outside]):
            continue
        sc = sigma @ c[cols]
        denom = c[cols] @ sc
        if denom > 1e-12 * max(np.abs(sigma).max(), 1.0):
            sigma -= np.outer(sc, sc) / denom
    A = model.design[:, cols].toarray()
    cov = A @ sigma @ A.T
    sd = np.sqrt(np.diag(cov))
    r = np.minimum(np.abs(cov) / np.outer(sd, sd), 1.0)
    np.fill_diagonal(r, 1.0)
    return r


def two_block_besag(reps=1):
    """Intercept plus a Besag field on a 5 x 5 and a 4 x 4 lattice side by
    side (two connected blocks), ``reps`` Poisson counts per region."""
    lattices = [besag_lattice(side).components[1].adjacency for side in (5, 4)]
    adj = list(lattices[0]) + [{j + 25 for j in a} for a in lattices[1]]
    n = len(adj) * reps
    rng = np.random.default_rng(3)
    region = np.tile(np.arange(len(adj)), reps)
    A = sp.hstack([sp.csr_matrix(np.ones((n, 1))),
                   sp.csr_matrix((np.ones(n), (np.arange(n), region)))], format="csr")
    offset = rng.uniform(5.0, 20.0, size=n)
    return LgmModel([FixedEffects("intercept", 1, prec=1e-4),
                     Besag("spatial", adj, log_prec=0.5)],
                    A, Poisson(offset=offset), rng.poisson(offset).astype(float))


EQUIVALENCE_MODELS = {
    "lattice5": (lambda: besag_lattice(5), "spatial"),
    "lattice10": (lambda: besag_lattice(10), "spatial"),
    "lattice20": (lambda: besag_lattice(20), "spatial"),
    "two-blocks": (lambda: two_block_besag(), "spatial"),
    "two-blocks-replicated": (lambda: two_block_besag(reps=2), "spatial"),
    "rw1-14": (lambda: rw1_model(14), "walk"),
    "rw1-50": (lambda: rw1_model(50), "walk"),
    "rw1-cyclic-14": (lambda: walk_model(Rw1("walk", 14, cyclic=True)), "walk"),
    "rw1-cyclic-50": (lambda: walk_model(Rw1("walk", 50, cyclic=True)), "walk"),
    "rw2-14": (lambda: walk_model(Rw2("walk", 14)), "walk"),
    "rw2-50": (lambda: walk_model(Rw2("walk", 50)), "walk"),
    "rw2-trend-row-14": (lambda: walk_model(
        Rw2("walk", 14), (after_intercept(np.arange(14.0)), [0.0])), "walk"),
    "ar1-sum-row": (lambda: ar1_model(
        n=20, rho=0.8, extra_constraints=(after_intercept(np.ones(20)), [0.0])), "trend"),
}


def assert_matches_reference(source, ga):
    ref = reference_prior_correlation(source, ga)
    engine = lgocv.groups._engine_for(source, ga)
    rows = np.array([engine.rows([i])[0] for i in range(ga.model.n_obs)])
    assert np.max(np.abs(rows - ref)) <= 1e-10
    for m in (1, 2, 3, 5):
        spec = build_groups(source, ga, m=m)
        for i in range(ga.model.n_obs):
            assert np.array_equal(spec[i], group_from_row(ref[i], m, 1e-8))
    return rows


@pytest.mark.parametrize("subset", ["component", None])
@pytest.mark.parametrize("name", list(EQUIVALENCE_MODELS))
def test_prior_groups_match_pinv_reference(name, subset):
    make, component = EQUIVALENCE_MODELS[name]
    source = CorrelationSource("prior", (component,) if subset else None)
    assert_matches_reference(source, fitted(make()))


def test_null_space_constraint_rows_are_skipped():
    """RW2's trend row lies in the null space the border already removes,
    so it leaves the rows bitwise as they are without it."""
    source = CorrelationSource("prior", ("walk",))
    plain = fitted(walk_model(Rw2("walk", 50)))
    trend = fitted(walk_model(Rw2("walk", 50),
                              (after_intercept(np.arange(50.0)), [0.0])))
    assert trend.model.constraints[0].shape[0] == 2
    for i in (0, 17, 49):
        assert np.array_equal(lgocv.groups._engine_for(source, trend).rows([i]),
                              lgocv.groups._engine_for(source, plain).rows([i]))


def test_proper_prior_with_constraint_keeps_its_sparse_path():
    """AR(1) plus a sum row: no border, and the row is kriged exactly as by
    a plain LU of the prior precision, given the same selected variances."""
    model = ar1_model(n=20, rho=0.8,
                      extra_constraints=(after_intercept(np.ones(20)), [0.0]))
    source = CorrelationSource("prior", ("trend",))
    ga = fitted(model)
    cols = np.arange(1, 21)
    lu = spla.splu(model.prior_precision(ga.theta)[cols][:, cols].tocsc())
    C = model.constraints[0][:, cols]
    kriging = Kriging(C, lu.solve(C.T))
    plain = lgocv.groups._SparseCorrEngine(
        model.design[:, cols], lu.solve, kriging,
        lgocv.groups._prior_variances(lu, lu.U.diagonal(), model.design[:, cols],
                                      kriging))
    idx = np.arange(model.n_obs)
    engine = lgocv.groups._engine_for(source, ga)
    assert engine.variances == plain.variances == "selected"
    rows = engine.rows(idx)
    assert np.array_equal(rows, plain.rows(idx))
    assert not np.array_equal(
        rows, lgocv.groups._SparseCorrEngine(model.design[:, cols], lu.solve,
                                             lambda x: x).rows(idx))


def iid_subset_model(n=30):
    """Intercept plus an iid effect observed twice per level."""
    A = sp.hstack([sp.csr_matrix(np.ones((2 * n, 1))),
                   sp.vstack([sp.identity(n), sp.identity(n)])], format="csr")
    return LgmModel([FixedEffects("intercept", 1, prec=1.0), Iid("u", n, log_prec=0.5)],
                    A, Gaussian(precision=5.0), np.cos(np.arange(2.0 * n)))


def ar1_neighbour_means(n=40):
    """AR(1) seen through the mean of two neighbouring steps, so that each
    row reads an off-diagonal entry of the prior covariance."""
    A = sp.diags([np.full(n, 0.5), np.full(n - 1, 0.5)], [0, 1], format="csr")
    return LgmModel([Ar1("trend", n, log_prec=1.0, rho=0.8)], A,
                    Gaussian(precision=5.0), np.sin(np.linspace(0, 3, n)))


SELECTED_CASES = {
    "ar1-20": (lambda: ar1_scenario(20), "trend"),
    "ar1-200": (lambda: ar1_scenario(200), "trend"),
    "ar1-2000": (lambda: ar1_scenario(2000), "trend"),
    "ar1-sum-row": (lambda: ar1_model(n=30, extra_constraints=(
        after_intercept(np.ones(30)), [0.0])), "trend"),
    "ar1-two-rows": (lambda: ar1_model(n=30, extra_constraints=(
        np.vstack([after_intercept(np.ones(30)), after_intercept(np.arange(30.0) - 14.5)]),
        [0.0, 0.0])), "trend"),
    "iid": (iid_subset_model, "u"),
    "ar1-neighbour-means": (ar1_neighbour_means, "trend"),
}


@pytest.mark.parametrize("case", SELECTED_CASES)
def test_selected_variances_match_the_solved_loop(case):
    """The selected inversion of the prior LU gives the marginal variances
    that solving every unit column gives, to roundoff."""
    make, component = SELECTED_CASES[case]
    engine = lgocv.groups._make_engine(CorrelationSource("prior", (component,)),
                                       fitted(make()))
    solved = lgocv.groups._SparseCorrEngine(engine.A, engine._solve, engine._constrain)
    assert (engine.variances, solved.variances) == ("selected", "solved")
    var, ref = engine.sd ** 2, solved.sd ** 2
    assert np.max(np.abs(var - ref) / ref) <= 1e-12


def test_selected_groups_equal_the_solved_loop():
    """ar1_scenario(2000): every observation's groups for m = 1..10 are the
    same through the selected variances as through the solved ones."""
    source = CorrelationSource("prior", ("trend",))
    selected, solved = fitted(ar1_scenario(2000)), fitted(ar1_scenario(2000))
    engine = lgocv.groups._engine_for(source, selected)
    solved.__dict__["_corr_engines"] = {source: lgocv.groups._SparseCorrEngine(
        engine.A, engine._solve, engine._constrain)}
    for test in np.array_split(np.arange(2000), 5):     # one kept block each
        for m in range(1, 11):
            spec = build_groups(source, selected, m=m, indices=test)
            ref = build_groups(source, solved, m=m, indices=test)
            assert list(spec.groups) == list(ref.groups)
            for i in test:
                assert np.array_equal(spec[i], ref[i])


def test_pinned_ar1_fails_loudly_on_the_selected_path(monkeypatch):
    """A constraint row that fixes one AR(1) step leaves that predictor a
    roundoff variance, which the selected path must not pass either."""
    model = ar1_model(n=30, extra_constraints=(after_intercept(np.eye(30)[0]), [0.0]))
    served = []
    selected = lgocv.groups._selected_variances
    monkeypatch.setattr(lgocv.groups, "_selected_variances",
                        lambda *args: served.append(selected(*args)) or served[-1])
    with pytest.raises(GroupingError, match="zero marginal predictor variance"):
        build_groups(CorrelationSource("prior", ("trend",)), fitted(model), m=1)
    assert len(served) == 1 and served[0] is not None


@pytest.mark.parametrize("make, source, how", [
    (lambda: ar1_model(n=20), CorrelationSource("prior", ("trend",)), "selected"),
    (lambda: ar1_model(n=20), CorrelationSource("prior", None), "solved"),
    (lambda: besag_lattice(6), CorrelationSource("prior", ("spatial",)), "solved"),
    (lambda: multilevel_poisson(seed=4, classes=4, per_class=5), POSTERIOR, "solved"),
], ids=["ar1-subset", "intercept-pairs", "besag", "posterior"])
def test_debug_record_names_the_variance_path(make, source, how, caplog):
    """Selected inversion serves a proper prior subset whose factor holds
    every pair; an intercept paired with the trend (outside the block
    diagonal factor), a bordered Besag K and the posterior are solved."""
    with caplog.at_level(logging.DEBUG, logger="lgocv.groups"):
        build_groups(source, fitted(make()), m=1)
    assert f"variances={how}" in caplog.text


def isolated_node_besag():
    """Intercept plus Besag on the path 0-1-3 with node 2 isolated."""
    adj = [{1}, {0, 3}, set(), {1}]
    A = sp.hstack([sp.csr_matrix(np.ones((4, 1))), sp.identity(4, format="csr")],
                  format="csr")
    return LgmModel([FixedEffects("intercept", 1, prec=1e-4),
                     Besag("spatial", adj, log_prec=0.5)],
                    A, Poisson(offset=np.full(4, 10.0)), np.array([8.0, 12.0, 9.0, 11.0]))


@pytest.mark.parametrize("model, component", [
    (isolated_node_besag(), "spatial"),
    (walk_model(Rw1("walk", 14), (after_intercept(np.eye(14)[0]), [0.0])), "walk"),
    (walk_model(Rw1("walk", 50), (after_intercept(np.eye(50)[0]), [0.0])), "walk"),
    (walk_model(Rw1("walk", 200), (after_intercept(np.eye(200)[0]), [0.0])), "walk"),
], ids=["besag-isolated-node", "rw1-pinned-14", "rw1-pinned-50", "rw1-pinned-200"])
def test_degenerate_prior_variance_fails_loudly(model, component):
    """A predictor the prior subset fixes exactly has no correlations; the
    roundoff left after kriging must not pass for a variance."""
    with pytest.raises(GroupingError, match="zero marginal predictor variance"):
        build_groups(CorrelationSource("prior", (component,)), fitted(model), m=1)
    build_groups(CorrelationSource("prior", None), fitted(model), m=1)


def test_intrinsic_prior_groups_form_no_dense_covariance(monkeypatch):
    monkeypatch.setattr(lgocv.groups, "RHS_BATCH", 32)
    model = besag_lattice(40)
    ga = fitted(model)
    p = 40 * 40
    tracemalloc.start()
    try:
        spec = build_groups(CorrelationSource("prior", ("spatial",)), ga, m=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(spec.groups) == p
    assert peak < p * p * 8


def test_prior_solves_keep_no_latent_by_obs_block():
    """eta_covariance of 300 observations and the prior engine's set-up on a
    p = 2001 AR(1) stay below one p x 300 block of floats."""
    model = ar1_scenario(2000)
    ga = fitted(model)
    p = model.latent_size
    assert p == 2001
    block = p * 300 * 8
    tracemalloc.start()
    try:
        eta_covariance(ga, np.arange(model.n_obs)[-300:])
        _, cov_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        lgocv.groups._make_engine(CorrelationSource("prior", ("trend",)), ga)
        _, engine_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cov_peak < block
    assert engine_peak < block


SLAB_CASES = {
    "ar1-sum-row": (lambda: ar1_model(n=30, extra_constraints=(
        after_intercept(np.ones(30)), [0.0])), CorrelationSource("prior", ("trend",))),
    "besag-constrained": (lambda: besag_lattice(6), CorrelationSource("prior", ("spatial",))),
    "rw2": (lambda: walk_model(Rw2("walk", 25)), CorrelationSource("prior", ("walk",))),
    "ar1-two-rows": (lambda: ar1_model(n=30, extra_constraints=(
        np.vstack([after_intercept(np.ones(30)), after_intercept(np.arange(30.0) - 14.5)]),
        [0.0, 0.0])), CorrelationSource("prior", ("trend",))),
    "rw2-trend-row": (lambda: walk_model(Rw2("walk", 25), (
        after_intercept(np.arange(25.0)), [0.0])), POSTERIOR),
    "multilevel-posterior": (lambda: multilevel_poisson(seed=4, classes=6, per_class=5),
                             POSTERIOR),
}


@pytest.mark.parametrize("case", SLAB_CASES)
def test_slabs_match_one_slab_bitwise(case, monkeypatch):
    """Solves in slabs of 1, 3 and 7 columns give the same bits as one
    slab: eta_covariance, the engine's sd and rows, and the groups."""
    make, source = SLAB_CASES[case]
    ga = fitted(make())
    n, p = ga.model.n_obs, ga.model.latent_size
    obs = np.random.default_rng(1).permutation(n)[:17]
    p_engine = lgocv.groups._make_engine(source, ga).A.shape[1]

    def run(width):
        if width is not None:
            monkeypatch.setattr(lgocv.covariance, "SLAB_MIN", 1)
            monkeypatch.setattr(lgocv.covariance, "SLAB_BYTES", 8 * p * width)
            assert lgocv.covariance.slab_width(p) == width
        ga.__dict__.pop("_eta_columns", None)     # solve, not reuse, at width
        em = eta_covariance(ga, obs)
        if width is not None:
            monkeypatch.setattr(lgocv.covariance, "SLAB_BYTES", 8 * p_engine * width)
            assert lgocv.covariance.slab_width(p_engine) == width
        ga.__dict__.pop("_corr_engines", None)
        engine = lgocv.groups._engine_for(source, ga)
        rows = engine.rows(obs)
        spec = build_groups(source, ga, m=2)
        return em, engine.sd, rows, spec

    em, sd, rows, spec = run(None)
    assert lgocv.covariance.slab_width(max(p, p_engine)) >= n
    for width in (1, 3, 7):
        em_w, sd_w, rows_w, spec_w = run(width)
        assert np.array_equal(em_w.mu, em.mu)
        assert np.array_equal(em_w.sigma, em.sigma)
        assert np.array_equal(sd_w, sd)
        assert np.array_equal(rows_w, rows)
        assert list(spec_w.groups) == list(spec.groups)
        for i in spec.groups:
            assert np.array_equal(spec_w[i], spec[i])


@pytest.mark.parametrize("width", [None, 1, 3, 7])
@pytest.mark.parametrize("case", SLAB_CASES)
def test_warm_columns_equal_a_cold_solve(case, width, monkeypatch):
    """eta_covariance on a fit that kept columns from earlier overlapping
    calls is bitwise what a fresh fit gives: the same set unsorted, a
    subset, a superset spanning several kept slabs, a disjoint set, and
    sets reusing columns kept from partly used slabs."""
    make = SLAB_CASES[case][0]
    warm = fitted(make())
    p = warm.model.latent_size
    if width is not None:
        monkeypatch.setattr(lgocv.covariance, "SLAB_MIN", 1)
        monkeypatch.setattr(lgocv.covariance, "SLAB_BYTES", 8 * p * width)
    perm = np.random.default_rng(3).permutation(warm.model.n_obs)
    calls = [(perm[:10], 10), (perm[9::-1], 10), (perm[2:7], 0), (perm[:16], 11),
             (perm[16:21], 5), (perm[14:25], 11), (perm[16:20], 0), (perm[15:21], 2)]
    for I, solved in calls:
        em = eta_covariance(warm, I)
        cold = eta_covariance(fitted(make()), I)
        assert em.solved == solved and cold.solved == I.size
        assert np.array_equal(em.mu, cold.mu)
        assert np.array_equal(em.sigma, cold.sigma)


def kept_bytes(ga):
    return sum(X.nbytes for _, X in ga.__dict__["_eta_columns"][1])


def test_kept_columns_are_members_of_the_last_call(monkeypatch):
    model = ar1_scenario(200)
    p = model.latent_size
    ga = fitted(model)
    eta_covariance(ga, np.arange(150, 200))
    assert kept_bytes(ga) == 0                   # a single call keeps none
    eta_covariance(ga, np.arange(100, 150))
    assert kept_bytes(ga) == 0                   # nor do disjoint calls

    monkeypatch.setattr(lgocv.covariance, "SLAB_MIN", 1)
    monkeypatch.setattr(lgocv.covariance, "SLAB_BYTES", 8 * p * 5)
    rng = np.random.default_rng(7)
    pool = np.arange(60, 100)
    I = pool[:30]
    eta_covariance(ga, I)
    for _ in range(12):                          # members come and go
        I = rng.choice(pool, size=30, replace=False)
        eta_covariance(ga, I)
        members, slabs = ga.__dict__["_eta_columns"]
        assert members == frozenset(I.tolist())
        assert all(M.size == X.shape[1] and np.isin(M, I).all() for M, X in slabs)
        assert 0 < kept_bytes(ga) <= 8 * p * I.size


def test_group_io_round_trip(tmp_path):
    model = multilevel_poisson(seed=2, classes=3, per_class=4)
    spec = build_groups(POSTERIOR, fitted(model), m=1)
    path = tmp_path / "groups.txt"
    write_groups(str(path), spec)
    back = read_groups(str(path), model.n_obs)
    assert back.indices() == spec.indices()
    for i in spec.indices():
        assert np.array_equal(back[i], spec[i])


def test_read_groups_errors(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("not a group line\n")
    with pytest.raises(GroupingError):
        read_groups(str(path), 5)
    path.write_text("1: 2 3\n")      # group missing its own index
    with pytest.raises(GroupingError):
        read_groups(str(path), 5)
    path.write_text("9: 9\n")        # out of range
    with pytest.raises(GroupingError):
        read_groups(str(path), 5)
    path.write_text("# only a comment\n")
    with pytest.raises(GroupingError):
        read_groups(str(path), 5)


def test_singleton_groups_flag():
    spec = singleton_groups(range(4))
    assert spec.all_singletons()
    assert np.array_equal(spec[2], [2])


def test_invalid_arguments():
    model = iid_identity_model(4)
    ga = fitted(model)
    with pytest.raises(GroupingError):
        build_groups(POSTERIOR, ga, m=0)
    with pytest.raises(GroupingError):
        CorrelationSource("bogus")
    with pytest.raises(GroupingError, match="unknown components"):
        build_groups(CorrelationSource("prior", ("nope",)), ga, m=1)
    for i in (99, 4, -1):
        with pytest.raises(IndexError):
            build_groups(POSTERIOR, ga, m=1, indices=[i])


def test_tie_tolerance_must_be_finite_and_nonnegative():
    """Below 0 (or nan) an observation's own |corr| of 1 can leave its first
    level set; inf puts every observation in every group."""
    ga = fitted(ar1_model())
    for bad in (-1.0, np.nan, np.inf):
        with pytest.raises(GroupingError, match="tie tolerance"):
            build_groups(POSTERIOR, ga, m=1, tie_tol=bad)
    spec = build_groups(POSTERIOR, ga, m=1, tie_tol=0.0)
    assert all(i in spec[i] for i in spec.indices())


def test_quad_sums_each_row_as_the_broadcasting_product():
    """``_quad`` sums each row's products in stored order, as scipy's
    ``AJ.multiply(X.T).sum(axis=1)`` does: the variances are bitwise equal
    for rows of 0 to 40 entries and columns of either memory order."""
    rng = np.random.default_rng(41)
    for trial in range(40):
        k, p = rng.integers(1, 40), rng.integers(2, 50)
        AJ = sp.random(k, p, density=rng.uniform(0.02, 0.9), random_state=rng,
                       format="csr")
        AJ.data = rng.normal(size=AJ.nnz) * 10 ** rng.uniform(-3, 3, size=AJ.nnz)
        X = rng.normal(size=(p, k)) * 10 ** rng.uniform(-3, 3, size=(p, k))
        X = np.asfortranarray(X) if trial % 2 else X
        want = np.asarray(AJ.multiply(X.T).sum(axis=1)).ravel()
        assert lgocv.covariance._quad(AJ, X).tobytes() == want.tobytes()
