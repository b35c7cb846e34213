"""Structured errors shared across the package.

Budget errors are hard failures by design: exact modules never truncate
silently, and orbit code never degrades precision silently.
"""


class RecurlabError(Exception):
    """Base class for structured package errors."""


class ArcBudgetExceeded(RecurlabError):
    def __init__(self, needed: int, budget: int):
        self.needed = needed
        self.budget = budget
        super().__init__(
            f"operation needs {needed} arcs, exceeding the configured budget {budget}; "
            f"raise it explicitly to proceed (exact --budget-arcs, ear --budget-arcs)"
        )


class BranchBudgetExceeded(RecurlabError):
    def __init__(self, needed: int, budget: int):
        self.needed = needed
        self.budget = budget
        super().__init__(
            f"branch composition needs {needed} branches, exceeding the budget {budget}; "
            f"here exact --budget-arcs caps branches, not arcs: raise it to proceed"
        )


class NonExpandingSystemError(RecurlabError):
    pass


class PrecisionBudgetError(RecurlabError):
    def __init__(self, needed_bits: int, available_bits: int):
        self.needed_bits = needed_bits
        self.available_bits = available_bits
        super().__init__(
            f"orbit needs {needed_bits} fractional bits to stay accurate "
            f"(have {available_bits}); the bits follow the horizon, so shorten it "
            f"(rio --N, ear --M-horizon, orbit --checkpoints)"
        )


class RootOfUnityError(RecurlabError):
    def __init__(self, order: int):
        self.order = order
        super().__init__(f"matrix has an eigenvalue that is a root of unity (order {order})")


class EigenvalueLocationError(RecurlabError):
    pass


class ConfigError(RecurlabError):
    """Raised with the full list of validation problems, not just the first."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))
