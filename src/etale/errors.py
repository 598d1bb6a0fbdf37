"""Shared exception types."""
import math


class ModelError(ValueError):
    """Invalid model data: bad tables, non-bijective actions, malformed words."""


class NonComposableError(ModelError):
    """Attempt to compose groupoid elements whose source and range units differ."""


class BudgetError(RuntimeError):
    """An enumeration or convolution grew past its configured budget."""

    def __init__(self, message, *, required=None, budget=None):
        super().__init__(message)
        self.required = required
        self.budget = budget


def count_text(n: int) -> str:
    """``n`` in digits up to 30 digits, else as a power of ten, so that a
    budget message prints at any size (``str`` refuses over 4,300 digits)."""
    return str(n) if n < 10 ** 30 else f"about 10^{math.log10(n):.2f}"


def charge(what: str, required: int, unit: str, budget) -> None:
    """Refuse ``required`` units of work past ``budget`` (None allows any
    count) before any is done: the one place a BudgetError is built from a
    work estimate, as ``{what} needs {required} {unit}, budget is {budget}``."""
    if budget is not None and required > budget:
        raise BudgetError(f"{what} needs {count_text(required)} {unit}, budget is {budget}",
                          required=required, budget=budget)


class KernelDomainError(ValueError):
    """Kernel evaluated outside its stated domain (table kernels only)."""


class KernelPositivityError(ValueError):
    """Kernel failed a positive-semidefiniteness requirement."""


class GrowthHypothesisError(ValueError):
    """Fiber growth is subexponential or unstable; threshold analysis undefined."""


class PreconditionError(ValueError):
    """Input violates a stated support/size precondition of a check."""
