import numpy as np
import pytest
import scipy.sparse as sp

from lgocv.approx import find_mode
from lgocv.covariance import eta_covariance
from lgocv.components import FixedEffects, Iid
from lgocv.likelihoods import Gaussian, Poisson
from lgocv.model import LgmModel

from conftest import iid_identity_model, multilevel_poisson


def zero_curvature_pair(constraint=None, e=0.0):
    """Two iid effects with a likelihood carrying no information: Q = I."""
    extra = (np.array([constraint]), [e]) if constraint is not None else None
    # Poisson with y = 0 and a vanishing offset leaves zero curvature at 0
    model = LgmModel([Iid("f", 2, log_prec=1.0)], sp.identity(2, format="csr"),
                     Poisson(offset=1e-300), np.zeros(2),
                     extra_constraints=extra)
    return find_mode(model, model.hyper_point(np.zeros(0)))


def test_identity_map_returns_latent_mean():
    model = iid_identity_model(4, y=np.array([1.0, -1.0, 2.0, 0.0]))
    ga = find_mode(model, model.hyper_point(np.zeros(0)))
    em = eta_covariance(ga, np.arange(4))
    assert np.array_equal(em.mu, model.design @ ga.mu)


def test_unconstrained_mean_without_constraints():
    model = iid_identity_model(3, y=np.array([1.0, 2.0, 3.0]))
    ga = find_mode(model, model.hyper_point(np.zeros(0)))
    assert np.allclose(eta_covariance(ga, [0, 2]).mu,
                       (model.design @ ga.mu_unc)[[0, 2]])


def test_constrained_iid_pair_mean_sums_to_zero():
    ga = zero_curvature_pair(constraint=[1.0, 1.0], e=0.0)
    # symmetric data: likelihood carries no pull, constrained mean on C
    mu = eta_covariance(ga, [0, 1]).mu
    assert abs(mu.sum()) <= 1e-12


def test_iid_unit_conjugacy_half_identity():
    model = iid_identity_model(5, obs_prec=1.0, prior_prec=1.0)
    ga = find_mode(model, model.hyper_point(np.zeros(0)))
    em = eta_covariance(ga, [1, 3, 4])
    assert np.allclose(em.sigma, 0.5 * np.eye(3), atol=1e-12)


def test_hand_constraint_case_exact():
    ga = zero_curvature_pair(constraint=[1.0, 1.0], e=0.0)
    em = eta_covariance(ga, [0, 1])
    expected = np.array([[0.5, -0.5], [-0.5, 0.5]])
    assert np.max(np.abs(em.sigma - expected)) <= 1e-12


def test_random_sparse_model_matches_dense_oracle(rng):
    model = multilevel_poisson(seed=9)
    theta = model.hyper_point(np.zeros(0))
    ga = find_mode(model, theta)
    I = rng.choice(model.n_obs, size=4, replace=False)
    em = eta_covariance(ga, I)

    A = model.design.toarray()
    Q = ga.P.toarray() + A.T @ np.diag(ga.c) @ A
    sigma_f = np.linalg.inv(Q)
    oracle = A[I] @ sigma_f @ A[I].T
    assert np.max(np.abs(em.sigma - oracle)) <= 1e-9


def test_constrained_direction_has_zero_variance():
    # a predictor row equal to the constraint row must have zero variance
    C = np.array([[1.0, 1.0, 0.0]])
    A = sp.csr_matrix(np.vstack([np.eye(3), C]))
    model = LgmModel([Iid("f", 3, log_prec=1.0)], A,
                     Gaussian(precision=1.0), np.zeros(4),
                     extra_constraints=(C, [0.0]))
    ga = find_mode(model, model.hyper_point(np.zeros(0)))
    em = eta_covariance(ga, [3])
    assert abs(em.sigma[0, 0]) <= 1e-10


def test_symmetry_under_both_solve_orders():
    model = multilevel_poisson(seed=2)
    ga = find_mode(model, model.hyper_point(np.zeros(0)))
    a = eta_covariance(ga, [3, 17, 42]).sigma
    b = eta_covariance(ga, [42, 17, 3]).sigma
    assert np.max(np.abs(a - b[::-1, ::-1])) <= 1e-12
    assert np.max(np.abs(a - a.T)) <= 1e-12


def test_index_validation():
    model = iid_identity_model(3)
    ga = find_mode(model, model.hyper_point(np.zeros(0)))
    with pytest.raises(IndexError):
        eta_covariance(ga, [])
    with pytest.raises(IndexError):
        eta_covariance(ga, [0, 0])
    with pytest.raises(IndexError):
        eta_covariance(ga, [5])
