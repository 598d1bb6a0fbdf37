"""Shared exception types.  A ``Refusal`` or ``BudgetError`` is an input
refused on purpose (CLI exit 2); any other exception is a fault."""
import math

DEFAULT_ENUMERATION_BUDGET = 5_000_000


class Refusal(ValueError):
    """An input refused on purpose: the base of every refusal type here but
    ``BudgetError``, a RuntimeError."""


class ModelError(Refusal):
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


def charge(what: str, required: int | None, unit: str, budget, log10: float | None = None) -> None:
    """Refuse ``required`` units of work past ``budget`` (None: the default,
    ``math.inf``: no bound) before any is done: the one place a BudgetError
    is built from a work estimate, as ``{what} needs {required} {unit},
    budget is {budget}``.  A count too large to form is passed as ``log10``,
    its base-10 logarithm, with ``required`` None, and printed as ``about 10^{log10}``."""
    budget = DEFAULT_ENUMERATION_BUDGET if budget is None else budget
    if required <= budget if log10 is None else log10 <= math.log10(max(budget, 1)):
        return
    text = count_text(required) if log10 is None else f"about 10^{log10:.2f}"
    raise BudgetError(f"{what} needs {text} {unit}, budget is {budget}",
                      required=required, budget=budget)


class KernelDomainError(Refusal):
    """Kernel evaluated outside its stated domain (table kernels only)."""


class KernelPositivityError(Refusal):
    """Kernel failed a positive-semidefiniteness requirement."""


class GrowthHypothesisError(Refusal):
    """Fiber growth is subexponential or unstable; threshold analysis undefined."""


class PreconditionError(Refusal):
    """Input violates a stated precondition: a parameter out of its range, a
    support or size requirement, or values that leave the float range."""
