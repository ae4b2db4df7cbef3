"""Exception taxonomy and default budgets shared by all modules.

Each class maps to a distinct CLI exit code (see cli.py).  The default
budgets and the normalization tags live here too, so that the CLI can
build its parser without importing the layers that enforce them.
"""

HALF_EDGE_BUDGET = 16  # catalog: half-edges per profile
MU_ASSIGNMENT_BUDGET = 4 ** 10  # sprinkle: beta**e unit assignments
ORACLE_DEGREE_BUDGET = 8  # oracle: truncation degree of the eigenvalue side

TAGS = ("master", "rescaled", "hermitian", "gse-penner", "invariant")


class StructuralError(ValueError):
    """Malformed combinatorial input (pairing not an involution, bad rotation, ...)."""


class UsageError(ValueError):
    """Invalid parameter combination (mixed truncations, wrong beta for a tag, ...)."""


class BudgetError(RuntimeError):
    """A configured resource budget (half-edges, assignments, degree) was exceeded."""


class VerificationError(RuntimeError):
    """An exact cross-check failed.  Carries the offending location and both values."""

    def __init__(self, message: str, payload=None):
        super().__init__(message)
        self.payload = payload
