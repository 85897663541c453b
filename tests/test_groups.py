import logging

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import lgocv.groups
from lgocv.approx import find_mode
from lgocv.components import Ar1, FixedEffects, Iid, Rw1
from lgocv.groups import (CorrelationSource, GroupingError, build_groups,
                          correlation_row, group_from_row,
                          level_set_partition, read_groups, singleton_groups,
                          write_groups)
from lgocv.likelihoods import Gaussian
from lgocv.model import LgmModel

from conftest import iid_identity_model, multilevel_poisson

POSTERIOR = CorrelationSource("posterior")


def fitted(model):
    return find_mode(model, model.hyper_point(np.zeros(0)))


def ar1_model(n=30, rho=0.9, intercept=True):
    comps = []
    blocks = []
    if intercept:
        comps.append(FixedEffects("intercept", 1, prec=1.0))
        blocks.append(sp.csr_matrix(np.ones((n, 1))))
    comps.append(Ar1("trend", n, log_prec=1.0, rho=rho))
    blocks.append(sp.identity(n, format="csr"))
    A = sp.hstack(blocks, format="csr")
    y = np.sin(np.linspace(0, 3, n))
    return LgmModel(comps, A, Gaussian(precision=5.0), y)


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
    r = correlation_row(src, ga, 12)
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
def near_tie_rows(draw):
    """Rows of values from a small set, exact duplicates, and chains of
    values 0.5-2 tie tolerances apart (relative), so that ties straddle
    the boundary from both sides."""
    tie_tol = draw(st.sampled_from([1e-8, 1e-3, 0.05]))
    bases = draw(st.lists(st.sampled_from([1.0, 0.9, 0.5, 0.3, 1e-3, 1e-200, 0.0]),
                          min_size=1, max_size=4))
    vals = []
    for _ in range(draw(st.integers(1, 25))):
        v = draw(st.sampled_from(bases + vals))
        frac = draw(st.one_of(st.just(0.0), st.floats(0.5, 2.0)))
        vals.append(v * (1.0 - frac * tie_tol))
    return np.array(vals), tie_tol


@settings(max_examples=300, deadline=None)
@given(row=near_tie_rows(), m=st.integers(1, 6))
def test_level_sets_equal_reference_walk(row, m):
    r, tie_tol = row
    ref_order, ref_ends = reference_partition(r, tie_tol)
    order, ends = level_set_partition(r, tie_tol)
    assert np.array_equal(order, ref_order)
    assert ends == ref_ends
    order, ends = level_set_partition(r, tie_tol, m)
    assert np.array_equal(order, ref_order)
    assert ends == ref_ends[:m]
    end = ref_ends[min(m, len(ref_ends)) - 1]
    assert np.array_equal(group_from_row(r, m, tie_tol), np.sort(ref_order[:end]))


def rw1_model(n=14):
    """Intercept plus RW1: its prior subset goes through the dense engine."""
    comps = [FixedEffects("intercept", 1, prec=1.0), Rw1("walk", n, log_prec=1.0)]
    A = sp.hstack([sp.csr_matrix(np.ones((n, 1))), sp.identity(n, format="csr")],
                  format="csr")
    return LgmModel(comps, A, Gaussian(precision=5.0), np.cos(np.linspace(0, 4, n)))


@pytest.mark.parametrize("model, source", [
    (multilevel_poisson(seed=4, classes=4, per_class=5), POSTERIOR),
    (ar1_model(n=20, rho=0.8), CorrelationSource("prior", ("trend",))),
    (rw1_model(), CorrelationSource("prior", ("walk",))),
], ids=["posterior", "sparse-prior", "dense-prior"])
def test_blocked_rows_match_single_rows(model, source, monkeypatch, caplog):
    monkeypatch.setattr(lgocv.groups, "RHS_BATCH", 3)
    ga = fitted(model)
    test = np.random.default_rng(0).permutation(model.n_obs)[:11]
    for m in (1, 3):
        with caplog.at_level(logging.DEBUG, logger="lgocv.groups"):
            spec = build_groups(source, ga, m=m, indices=test)
        assert list(spec.groups) == [int(i) for i in test]
        for i in test:
            expected = group_from_row(correlation_row(source, ga, i), m, 1e-8)
            assert np.array_equal(spec[i], expected)
    assert "11 rows in 4 RHS blocks" in caplog.text


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
    with pytest.raises(GroupingError):
        build_groups(CorrelationSource("prior", ("nope",)), ga, m=1)
    with pytest.raises(IndexError):
        correlation_row(POSTERIOR, ga, 99)
