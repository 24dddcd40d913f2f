"""The budgets shared by the CLI, the verifier and the search.

The default caps and the refusal they raise live here, apart from the
layers, so that the CLI builds its parser and checks a request's size
before any layer runs. ``verifier`` and ``search`` import these names
and keep them importable from themselves.
"""

DEFAULT_MAX_VIOLATIONS = 16
DEFAULT_PAIR_BUDGET = 4_000_000
DEFAULT_NODE_BUDGET = 10_000_000


class BudgetExceeded(ValueError):
    """A request over one of its budgets, refused before any work starts."""

    def __init__(self, what: str, needed: int, unit: str, budget: int):
        self.needed = needed
        self.budget = budget
        super().__init__(f"{what} needs {needed} {unit}, budget is {budget}")


def _check_size(what: str, count: int, unit: str, budget: int) -> None:
    if count > budget:
        raise BudgetExceeded(what, count, unit, budget)
