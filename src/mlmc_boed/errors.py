"""Error taxonomy shared across the package.

Each class names the ``category`` under which the command line reports it.
"""


class ContractViolationError(ValueError):
    """An argument violates a documented precondition (e.g. dimension mismatch,
    or a value outside the mathematical domain)."""

    category = "contract"


class NumericalDomainError(ArithmeticError):
    """A computation left the representable domain (overflow, non-finite result)."""

    category = "numerical"


class ConfigurationError(ValueError):
    """A run configuration is invalid (detected before any computation starts)."""

    category = "configuration"
