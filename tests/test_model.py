import numpy as np
import pytest
import scipy.sparse as sp

from lgocv.components import FixedEffects, Iid, Rw1
from lgocv.likelihoods import (Binomial, Exponential, Gaussian, LikelihoodError,
                               Poisson)
from lgocv.model import HyperSpec, LgmModel, ModelError

from conftest import iid_identity_model


def test_block_diagonal_assembly_matches_dense_oracle():
    comps = [FixedEffects("b", 2, prec=0.5), Iid("u", 3, log_prec=2.0),
             Rw1("w", 4, log_prec=1.5)]
    n = 6
    A = sp.csr_matrix(np.ones((n, 9)))
    model = LgmModel(comps, A, Gaussian(), np.zeros(n))
    theta = model.hyper_point(np.zeros(0))
    P = model.prior_precision(theta).toarray()
    expected = np.zeros((9, 9))
    pos = 0
    for c in comps:
        blk = c.precision({}).toarray()
        expected[pos:pos + c.size, pos:pos + c.size] = blk
        pos += c.size
    assert np.array_equal(P, expected)


def test_pattern_independent_of_theta():
    model = LgmModel([Iid("u", 3, log_prec="lp")], sp.identity(3, format="csr"),
                     Gaussian(), np.zeros(3),
                     hypers=[HyperSpec("lp")])
    p1 = model.prior_precision(model.hyper_point([0.0]))
    p2 = model.prior_precision(model.hyper_point([3.0]))
    assert np.array_equal(p1.indices, p2.indices)
    assert np.array_equal(p1.indptr, p2.indptr)


def test_loglik_derivatives_dispatch():
    model = iid_identity_model(3, obs_prec=4.0, y=np.array([1.0, 0.0, -1.0]))
    theta = model.hyper_point(np.zeros(0))
    g, g1, g2 = model.loglik_derivatives(theta, np.zeros(3))
    assert np.allclose(g1, 4.0 * model.y)
    assert np.allclose(g2, -4.0)


def test_every_row_needs_nonzero():
    A = sp.csr_matrix(np.array([[1.0], [0.0]]))
    with pytest.raises(ModelError):
        LgmModel([Iid("u", 1, log_prec=1.0)], A, Gaussian(), np.zeros(2))


def test_missing_hyperspec_rejected():
    with pytest.raises(ModelError):
        LgmModel([Iid("u", 2, log_prec="lp")], sp.identity(2, format="csr"),
                 Gaussian(), np.zeros(2))


def test_dependent_constraints_rejected():
    C = np.array([[1.0, 1.0], [2.0, 2.0]])
    with pytest.raises(ModelError):
        LgmModel([Iid("u", 2, log_prec=1.0)], sp.identity(2, format="csr"),
                 Gaussian(), np.zeros(2), extra_constraints=(C, np.zeros(2)))


def test_auto_constraints_for_intrinsic():
    model = LgmModel([Rw1("w", 4, log_prec=1.0)], sp.identity(4, format="csr"),
                     Gaussian(), np.zeros(4))
    C, e = model.constraints
    assert C.shape == (1, 4)
    assert np.array_equal(C[0], np.ones(4))
    assert model.has_intrinsic
    assert model.prior_rank() == 3


def test_hyper_dict_mixes_fixed_and_free():
    model = LgmModel([Iid("u", 2, log_prec="a"), Iid("v", 2, log_prec="b")],
                     sp.csr_matrix(np.eye(4)), Gaussian(), np.zeros(4),
                     hypers=[HyperSpec("a", fixed=1.5), HyperSpec("b", init=0.2)])
    assert model.theta_dim == 1
    d = model.hyper_dict([0.7])
    assert d == {"a": 1.5, "b": 0.7}
    assert np.array_equal(model.theta_init(), [0.2])


def test_log_hyper_prior_gaussian():
    model = LgmModel([Iid("u", 2, log_prec="a")], sp.csr_matrix(np.eye(2)[:2]),
                     Gaussian(), np.zeros(2),
                     hypers=[HyperSpec("a", prior_mean=1.0, prior_prec=2.0)])
    lp0 = model.log_hyper_prior([1.0])
    lp1 = model.log_hyper_prior([2.0])
    assert lp0 - lp1 == pytest.approx(0.5 * 2.0 * 1.0 ** 2)


def test_drop_observations_keeps_extra_constraints():
    C = np.zeros((1, 3))
    C[0, :] = [1.0, -1.0, 0.0]
    model = LgmModel([Iid("u", 3, log_prec=1.0)], sp.identity(3, format="csr"),
                     Gaussian(), np.zeros(3), extra_constraints=(C, [0.5]))
    sub = model.drop_observations([1])
    assert sub.n_obs == 2
    assert np.array_equal(sub.constraints[0], C)
    assert sub.constraints[1][0] == 0.5


def test_subset_likelihood_slices_parameters():
    model = LgmModel([Iid("u", 3, log_prec=1.0)], sp.identity(3, format="csr"),
                     Poisson(offset=np.array([1.0, 2.0, 3.0])),
                     np.array([0.0, 1.0, 2.0]))
    sub = model.keep_observations([2, 0])
    assert np.array_equal(np.asarray(sub.likelihood.offset), [3.0, 1.0])
    assert np.array_equal(sub.y, [2.0, 0.0])


def test_loglik_obs_matches_vector_form():
    # one observation's likelihood, repeated across predictor values
    eta = np.linspace(-1, 1, 5)
    model = iid_identity_model(3, obs_prec=2.0, y=np.array([0.5, -0.5, 1.0]))
    hyper = model.hyper_dict(model.hyper_point(np.zeros(0)).values)
    y1 = np.full(5, model.y[1])
    per_obs = model.subset_likelihood(np.full(5, 1)).log_density(y1, eta, hyper)
    assert np.array_equal(per_obs, model.likelihood.log_density(y1, eta, hyper))
    model = LgmModel([Iid("u", 3, log_prec=1.0)], sp.identity(3, format="csr"),
                     Poisson(offset=np.array([1.0, 2.0, 3.0])),
                     np.array([0.0, 1.0, 2.0]))
    y1 = np.full(5, model.y[1])
    per_obs = model.subset_likelihood(np.full(5, 1)).log_density(y1, eta, {})
    assert np.array_equal(per_obs, Poisson(offset=2.0).log_density(y1, eta, {}))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("family", [Gaussian(), Poisson(), Binomial(n_trials=3.0),
                                    Exponential()], ids=lambda f: f.kind)
def test_non_finite_responses_rejected(family, bad):
    with pytest.raises(LikelihoodError, match="responses must be finite"):
        LgmModel([Iid("u", 2, log_prec=1.0)], sp.identity(2, format="csr"),
                 family, np.array([1.0, bad]))
