"""Exception hierarchy shared by all caplearn modules."""


class CaplearnError(Exception):
    """Base class for every error raised by this package."""


class DomainError(CaplearnError, ValueError):
    """An argument violates an operation's contract.

    Raised for off-scale values, dimension mismatches, out-of-range q,
    and similar caller mistakes.  Never raised for data that is merely
    unlearnable: learning functions report those conditions in their
    result instead.
    """


class FormatError(CaplearnError, ValueError):
    """A file or serialized payload cannot be parsed into a valid object."""


class BudgetError(CaplearnError, RuntimeError):
    """A brute-force search would exceed its enumeration budget.

    Raised when a search over len(levels) ** exponent candidates, or a grid
    of 1 / step levels, would exceed ``budget``.  ``estimate`` is a number above
    ``budget``: the count itself, or a lower bound of it once the exponent
    passes the budget's bit length.
    """

    def __init__(self, message: str, estimate: int, budget: int):
        super().__init__(message)
        self.estimate = estimate
        self.budget = budget
