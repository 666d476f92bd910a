"""Exception hierarchy shared by all c2lab modules.

Every error carries a stable machine-readable ``code`` so the CLI can emit it
in JSON reports and map it to an exit status.
"""


class C2LabError(Exception):
    code = "Error"


class NotConnected(C2LabError):
    code = "NotConnected"


class SelfLoopContraction(C2LabError):
    code = "SelfLoopContraction"


class NotPlanar(C2LabError):
    code = "NotPlanar"


class NotSpanningTree(C2LabError):
    code = "NotSpanningTree"


class InvalidRange(C2LabError):
    code = "InvalidRange"


class UnknownFamily(C2LabError):
    code = "UnknownFamily"


class BadParameter(C2LabError):
    code = "BadParameter"


class BadIndices(C2LabError):
    code = "BadIndices"


class IndexOverlap(BadIndices):
    code = "IndexOverlap"


class NotATriangle(BadIndices):
    code = "NotATriangle"


class UnsupportedQ(C2LabError):
    code = "UnsupportedQ"


class BudgetExceeded(C2LabError):
    code = "BudgetExceeded"


# The most points or index pairs an enumeration may visit unless the caller
# sets its own budget.
DEFAULT_BUDGET = 10**8


def check_budget(size: int, budget: int | None, what: str):
    """Raise BudgetExceeded when an enumeration of ``size`` points or pairs,
    described by ``what``, passes ``budget`` (None: DEFAULT_BUDGET)."""
    budget = DEFAULT_BUDGET if budget is None else budget
    if size > budget:
        raise BudgetExceeded(f"{what} exceeds the budget {budget}")


class PreconditionUnmet(C2LabError):
    code = "PreconditionUnmet"


class DivisibilityViolated(C2LabError):
    """A divisibility guaranteed by a theorem failed.

    This is surfaced loudly: at a supported q it would be refutation data,
    not a bug in the caller.
    """

    code = "DivisibilityViolated"
