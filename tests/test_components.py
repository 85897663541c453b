import numpy as np
import pytest
import scipy.sparse as sp

from lgocv.components import (Ar1, Besag, ComponentError, FixedEffects, Iid,
                              Rw1, Rw2, read_graph, _connected_blocks)


def dense(P):
    return np.asarray(P.todense())


def test_iid_unit_precision_identity():
    P = Iid("u", 3, log_prec=1.0).precision({})
    assert np.array_equal(dense(P), np.eye(3))


def test_iid_hyper_linked_precision():
    P = Iid("u", 2, log_prec="lp").precision({"lp": np.log(4.0)})
    assert np.allclose(dense(P), 4.0 * np.eye(2))


def test_ar1_rho_zero_decouples():
    P = Ar1("u", 4, log_prec=2.5, rho=0.0).precision({})
    assert np.allclose(dense(P), 2.5 * np.eye(4))


def test_rw1_size3_tridiagonal():
    P = Rw1("u", 3, log_prec=1.0).precision({})
    expected = np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
    assert np.array_equal(dense(P), expected)


def test_ar1_logdet_matches_dense():
    c = Ar1("u", 7, log_prec=1.3, rho=0.6)
    sign, ld = np.linalg.slogdet(dense(c.precision({})))
    assert sign > 0
    assert c.log_det({}) == pytest.approx(ld, rel=1e-12)


def test_intrinsic_null_space():
    adj = [{1}, {0, 2}, {1}, {4}, {3}]
    for c in (Rw1("u", 6), Rw1("u", 5, cyclic=True), Rw2("u", 6),
              Besag("sp", adj)):
        R = dense(c._structure)
        N = c.null_basis()
        assert N.shape == (c.size, c.null_dim)
        assert not np.any(R @ N)
        assert np.linalg.matrix_rank(R) == c.size - c.null_dim
        assert np.linalg.matrix_rank(N) == c.null_dim
    assert [c.null_dim for c in (Rw1("u", 6), Rw1("u", 5, cyclic=True),
                                 Rw2("u", 6), Besag("sp", adj))] == [1, 1, 2, 2]


def test_intrinsic_logdet_matches_pseudo_det():
    for c in (Rw1("u", 5, log_prec=2.0), Rw2("u", 6, log_prec=0.5)):
        w = np.linalg.eigvalsh(dense(c.precision({})))
        w = w[w > 1e-9]
        assert c.log_det({}) == pytest.approx(np.sum(np.log(w)), rel=1e-9)


def test_rw1_constraint_rows():
    rows = Rw1("u", 4).constraint_rows()
    assert len(rows) == 1
    assert np.array_equal(rows[0], np.ones(4))


def test_besag_two_blocks(tmp_path):
    gpath = tmp_path / "g.txt"
    gpath.write_text("0 1\n1 2\n3 4\n")
    adj = read_graph(str(gpath))
    c = Besag("sp", tuple(adj), log_prec=1.0)
    assert c.size == 5
    assert c.null_dim == 2
    P = dense(c.precision({}))
    assert P[0, 0] == 1.0 and P[1, 1] == 2.0 and P[0, 1] == -1.0
    rows = c.constraint_rows()
    assert len(rows) == 2
    for r in rows:
        assert np.allclose(P @ r, 0.0, atol=1e-12)


def test_besag_logdet_per_block(tmp_path):
    gpath = tmp_path / "g.txt"
    gpath.write_text("0 1\n1 2\n2 0\n3 4\n")
    c = Besag("sp", tuple(read_graph(str(gpath))), log_prec=np.exp(1.0))
    w = np.linalg.eigvalsh(dense(c.precision({})))
    w = w[w > 1e-9]
    assert c.log_det({}) == pytest.approx(np.sum(np.log(w)), rel=1e-9)


def test_graph_parse_errors(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("0 0\n")
    with pytest.raises(ComponentError):
        read_graph(str(bad))
    bad.write_text("1 2 3\n")
    with pytest.raises(ComponentError):
        read_graph(str(bad))


def test_connected_blocks():
    adj = [set() for _ in range(4)]
    adj[0].add(1)
    adj[1].add(0)
    blocks = _connected_blocks(adj)
    assert blocks == [[0, 1], [2], [3]]


def test_nonpositive_precision_rejected():
    with pytest.raises(ComponentError):
        Iid("u", 2, log_prec=0.0).precision({})
    with pytest.raises(ComponentError):
        Ar1("u", 2, log_prec=1.0, rho=1.0).precision({})


def test_fixed_effects_vague_prior():
    c = FixedEffects("beta", 3)
    assert np.allclose(dense(c.precision({})), 1e-4 * np.eye(3))
    assert c.log_det({}) == pytest.approx(3 * np.log(1e-4))
