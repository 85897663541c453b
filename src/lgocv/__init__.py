"""Leave-group-out cross-validation for latent Gaussian models.

Fits latent Gaussian models by Gaussian (Laplace-style) approximation,
builds per-observation groups automatically from predictor correlations,
and evaluates each leave-group-out predictive density without refitting.
"""

from .likelihoods import Gaussian, Poisson, Binomial, Exponential
from .components import FixedEffects, Iid, Ar1, Rw1, Rw2, Besag, read_graph
from .model import LgmModel, HyperSpec, HyperPoint
from .approx import (find_mode, log_evidence, build_theta_grid,
                     GaussianApprox, ThetaGrid, ModeFindingError,
                     FactorizationError)
from .covariance import EtaMoments, eta_covariance
from .groups import (CorrelationSource, GroupSpec, build_groups,
                     singleton_groups, read_groups, write_groups)
from .engine import (LgocvResult, downdate, leave_group_moments,
                     compute_lgocv, fit_grid_approximations, DowndateError)
from .oracle import (OracleReport, refit_predictive_all,
                     dense_downdate_oracle, lfocv_curve, map_levels_to_steps)

__version__ = "0.1.0"
