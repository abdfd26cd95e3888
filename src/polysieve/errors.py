"""Shared exception types."""


class BudgetError(RuntimeError):
    """An enumeration or memory budget was exceeded.

    Carries the estimated work so callers can report how far over budget
    the request was.
    """

    def __init__(self, what: str, required, budget):
        super().__init__(f"{what}: requires {required}, budget is {budget}")
        self.what = what
        self.required = required
        self.budget = budget
