import numpy as np
import pytest
import scipy.sparse as sp

from lgocv.components import (Ar1, Besag, FixedEffects, Iid, Rw1, Rw2,
                              _resolve_log_prec, _resolve_rho)
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


# rho = 0 exactly, generic values, tau underflowing to 0, and both
PRIOR_THETAS = {"rho_zero": [0.0, 0.0, 0.0, 0.0, 0.0],
                "generic": [0.3, -1.2, 0.8, 2.0, -0.4],
                "tau_zero": [-800.0, -800.0, 0.5, -800.0, -800.0],
                "both": [-800.0, -800.0, 0.0, -800.0, -800.0]}


def _assert_same_bytes(*pairs):
    for a, b in pairs:
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_pattern_independent_of_theta():
    """P keeps the components' patterns at every theta, exact zeros stored."""
    model = every_kind_model()
    ref = sp.block_diag([c._pattern for c in model.components], format="csc")
    _assert_same_bytes((model.prior_pattern.indptr, ref.indptr),
                       (model.prior_pattern.indices, ref.indices))
    for theta in PRIOR_THETAS.values():
        P = model.prior_precision(theta)
        _assert_same_bytes((P.indptr, ref.indptr), (P.indices, ref.indices))
    P = model.prior_precision(PRIOR_THETAS["both"])
    assert np.count_nonzero(P.data) < P.nnz


def _scipy_block(c, hyper):
    """A component's precision block as scipy builds it from its formula."""
    if c.kind == "fixed":
        return sp.identity(c.size, format="csc") * c.prec
    tau = _resolve_log_prec(c.log_prec, hyper)
    if c.kind == "iid":
        return sp.identity(c.size, format="csc") * tau
    if c.kind != "ar1":
        return c._structure * tau
    rho, s = _resolve_rho(c.rho, hyper), c.size
    if s == 1:
        return sp.csc_matrix(np.array([[tau]]))
    main = np.full(s, 1.0 + rho * rho)
    main[0] = main[-1] = 1.0
    off = np.full(s - 1, -rho)
    return sp.diags([off, main, off], [-1, 0, 1], format="csc") * (tau / (1.0 - rho * rho))


def every_kind_model():
    """One block of every component kind, AR(1) with rho both estimated
    and fixed at 0, and a Besag graph of two connected blocks."""
    comps = [FixedEffects("b", 2, prec=0.5), Iid("u", 3, log_prec="a"),
             Ar1("r", 5, log_prec="b", rho="r"), Ar1("z", 4, log_prec=0.5, rho=0.0),
             Ar1("one", 1, log_prec="b"), Rw1("w", 4, log_prec="c"),
             Rw1("cyc", 5, log_prec="c", cyclic=True), Rw2("t", 6, log_prec="d"),
             Besag("s", [{1}, {0, 2}, {1}, {4}, {3}], log_prec="d")]
    p = sum(c.size for c in comps)
    return LgmModel(comps, sp.identity(p, format="csr"), Gaussian(), np.zeros(p),
                    [HyperSpec(h) for h in "abrcd"])


@pytest.mark.parametrize("theta", PRIOR_THETAS.values(), ids=PRIOR_THETAS.keys())
def test_prior_precision_is_the_block_diag_byte_for_byte(theta):
    """P holds the model's fixed pattern; without its stored zeros, it is
    scipy's block_diag of the formulas and of the components' blocks."""
    model = every_kind_model()
    hyper = model.hyper_dict(theta)
    P = model.prior_precision(theta)
    _assert_same_bytes((P.indptr, model.prior_pattern.indptr),
                       (P.indices, model.prior_pattern.indices))
    blocks = [c.precision(hyper) for c in model.components]
    _assert_same_bytes((P.data, sp.block_diag(blocks, format="csc").data))
    nonzero = P.copy()
    nonzero.eliminate_zeros()
    for blocks in ([_scipy_block(c, hyper) for c in model.components], blocks):
        ref = sp.block_diag(blocks, format="csc")
        ref.eliminate_zeros()
        _assert_same_bytes((nonzero.indptr, ref.indptr),
                           (nonzero.indices, ref.indices), (nonzero.data, ref.data))
    off = model.offsets["r"]           # AR(1) with estimated rho, size 5
    assert P.indptr[off + 5] - P.indptr[off] == 13


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


def test_a_model_without_observations_is_rejected():
    model = iid_identity_model(3)
    with pytest.raises(ModelError, match="at least one observation"):
        model.keep_observations([])
    with pytest.raises(ModelError, match="at least one observation"):
        model.drop_observations([0, 1, 2])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_design_entries_rejected(bad):
    A = sp.csr_matrix(np.array([[1.0, 0.5], [1.0, bad]]))
    with pytest.raises(ModelError, match="design entries must be finite"):
        LgmModel([FixedEffects("b", 2)], A, Gaussian(), np.zeros(2))


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
