"""Exception types shared across the verification core."""

from __future__ import annotations


class HavError(Exception):
    """Base class for all library errors."""


class UnknownVariable(HavError):
    pass


class UnknownAction(HavError):
    pass


class UnknownProposition(HavError):
    pass


class WrongClass(HavError):
    """Operation applied to an automaton outside its supported class."""


class NotInitialized(HavError):
    pass


class FlowConflict(HavError):
    """Shared variable with disagreeing rates across network components."""

    def __init__(self, variable: str, detail: str = ""):
        self.variable = variable
        super().__init__(f"conflicting flow for shared variable {variable!r}" +
                         (f": {detail}" if detail else ""))


class InvariantViolated(HavError):
    pass


class NonConstantFlow(HavError):
    pass


class GuardFailed(HavError):
    pass


class TargetInvariantFailed(HavError):
    pass


class NegativeClock(HavError):
    pass


class DiagonalUnsupported(HavError):
    """Region abstraction rejects difference constraints (unsound above K)."""


class EntryValueAmbiguous(HavError):
    """A mode is reachable with two different last-reset constants for a variable."""


class BudgetExceeded(HavError):
    pass


class SimulationError(HavError):
    """Wraps a successor-step error with the failing script index."""

    def __init__(self, step: int, cause: HavError):
        self.step = step
        self.cause = cause
        super().__init__(f"step {step}: {cause}")
