"""Exception types shared across the package."""


class AutomatonError(Exception):
    """Base class for errors raised by this package."""


class InvalidWordError(AutomatonError):
    """A word uses a letter outside the alphabet of its level."""


class NotInvertibleError(AutomatonError):
    """An operation needed a permutational labeling and found none."""

    def __init__(self, level: int, state: int):
        self.level = level
        self.state = state
        super().__init__(
            f"labeling at level {level}, state {state} is not a permutation"
        )


class NotMealyError(AutomatonError):
    """An operation is defined only for level-independent transducers."""


class ScheduleMismatchError(AutomatonError):
    """Two alphabet schedules disagree where they must agree."""


class UnboundedScheduleError(AutomatonError):
    """An operation requires a bounded alphabet schedule."""


class NotTwoStateError(AutomatonError):
    """Classification applies to two-state transducers only."""


class NotBinaryError(AutomatonError):
    """Classification applies to all-binary alphabet schedules only."""


class NotBiReversibleError(AutomatonError):
    """The operation requires a bi-reversible transducer."""


class UndecidableRepresentationError(AutomatonError):
    """The transducer representation does not support an exact decision."""


class BudgetExceededError(AutomatonError):
    """A search exceeded its depth or state budget."""

    def __init__(self, kind: str, limit: int):
        self.kind = kind
        self.limit = limit
        super().__init__(f"search budget exceeded: {kind} limit {limit}")


class OrderCapExceededError(AutomatonError):
    """A group's order is larger than the configured cap."""

    def __init__(self, cap: int, reached: int):
        self.cap = cap
        self.reached = reached
        super().__init__(f"group order {reached} exceeds cap {cap}")


class NonCoprimeModuliError(AutomatonError):
    """Simultaneous congruences need pairwise coprime moduli."""


class SteeringError(AutomatonError):
    """Steering preconditions failed for the requested target."""


class VerificationFailedError(AutomatonError):
    """An internally computed certificate failed its own check."""
