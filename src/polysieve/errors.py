"""The refusal rule of every work cap: each cap is checked by one
charge(what, required, cap) call, which refuses with BudgetError when the
estimate required is above the cap's value."""


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


def charge(what: str, required, cap) -> None:
    """Refuse with BudgetError(what, required, cap) when required > cap."""
    if required > cap:
        raise BudgetError(what, required, cap)
