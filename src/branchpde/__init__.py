"""Monte Carlo solver for nonlocal semilinear parabolic PDEs via marked
branching trees driven by subordinated Brownian motion."""

from .bernstein import (BetaRatio, LaplaceExponent, LogCorrected, Relativistic,
                        ScaledStable, Stable, StableWithDrift, SumOfStables,
                        check_integrability_cd, integrability_table,
                        neg_moment_numeric, neg_moment_stable)
from .engine import (EstimatorResult, Grid, TreeBudget, estimate,
                     estimate_gradient_all, sample_subordinated_increment)
from .errors import (AccuracyError, AdmissibilityError, BranchPdeError,
                     BudgetExceededError, ConfigError,
                     DegenerateDerivativeError, DimensionError,
                     DivergenceError, DomainError, EvaluationError,
                     NotLipschitzError, ParseError, UnknownIdentifierError,
                     UnknownModelError)
from .existence import (HorizonReport, abs_gaussian_moment,
                        build_horizon_report, check_theorem2, horizon_bound_a,
                        horizon_bound_b)
from .expressions import eval_expression, parse_expression, to_source
from .model import (BranchingLaw, LifetimeDensity, PdeModel,
                    PolynomialNonlinearity, TerminalCondition, builtin_model,
                    uniform_branching)
from .sampling import (RngStream, sample_lifetime, sample_offspring,
                       sample_stable_subordinator)
from .specfun import gamma_fn, hyp2f1, phi_bump, psi_getoor, upper_reg_gamma

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
