"""Exception hierarchy shared across the solver."""


class BranchPdeError(Exception):
    """Base class for all library errors."""


class DomainError(BranchPdeError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class AccuracyError(BranchPdeError):
    """A series or table failed to reach its tolerance; the message says
    by how much."""


class DivergenceError(BranchPdeError):
    """An integral required to be finite diverges on the sampled grid."""


class ParseError(BranchPdeError, ValueError):
    """Syntax error in an expression, at character ``offset``."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnknownIdentifierError(ParseError):
    """Identifier not in the expression grammar."""


class DimensionError(BranchPdeError, ValueError):
    """Coordinate index exceeds the declared spatial dimension."""


class EvaluationError(BranchPdeError, ArithmeticError):
    """Runtime failure while evaluating an expression (e.g. division by zero)."""


class UnknownModelError(BranchPdeError, KeyError):
    """Benchmark model name not in the catalog."""


class AdmissibilityError(BranchPdeError, ValueError):
    """Parameters outside the range a formula or model admits."""


class NotLipschitzError(AdmissibilityError):
    """Operation requires a Lipschitz terminal condition but it is flagged otherwise."""


class BudgetExceededError(BranchPdeError):
    """A tree outgrew its budget; the whole estimate aborts to stay unbiased."""

    def __init__(self, message, completed_trees=0):
        super().__init__(message)
        self.completed_trees = completed_trees


class ProductOverflowError(BranchPdeError):
    """A tree's product of factors is not finite: it overflowed, or a factor
    is NaN."""


class DegenerateDerivativeError(BranchPdeError, ValueError):
    """Derivative estimate requested at t == T, where the weight is 0/0."""


class ConfigError(BranchPdeError, ValueError):
    """Invalid run configuration."""
