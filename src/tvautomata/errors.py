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
    """An operation applies to two-state transducers only: the
    classification, `letter_partition`, `labeling_twist`,
    `ratio_power_image`, `torsion_exponent_bound` and `steer_to_word`."""


class NotBinaryError(AutomatonError):
    """Classification applies to all-binary alphabet schedules only."""


class NotBiReversibleError(AutomatonError):
    """The operation requires a bi-reversible transducer."""


class UndecidableRepresentationError(AutomatonError):
    """The transducer representation does not support an exact decision."""


class BudgetExceededError(AutomatonError):
    """A search exceeded its state budget; one that reaches its depth
    budget instead ends "unknown"."""

    def __init__(self, kind: str, limit: int):
        self.kind = kind
        self.limit = limit
        super().__init__(f"search budget exceeded: {kind} limit {limit}")


class OrbitTooLargeError(AutomatonError):
    """An orbit grew past a budget of `engine.orbit_at_level`, on its
    words or on the letters they hold; `what` names the budget that was
    passed."""

    def __init__(self, level: int, limit: int, what: str = "words"):
        self.level = level
        self.limit = limit
        self.what = what
        super().__init__(f"orbit at level {level} has more than {limit} {what}")


class RelationScanTooLargeError(AutomatonError):
    """A relation scan would check more words, or more factors in its
    words, than the budgets of `engine.relation_search` allow; `what`
    names the budget that was passed."""

    def __init__(self, max_len: int, limit: int, what: str = "reduced words"):
        self.max_len = max_len
        self.limit = limit
        self.what = what
        super().__init__(
            f"relation scan up to length {max_len} has more than {limit} {what}"
        )


class OrderCapExceededError(AutomatonError):
    """A group's order is larger than the configured cap: at least
    `reached`, the bound past the cap at which the closure stopped."""

    def __init__(self, cap: int, reached: int):
        self.cap = cap
        self.reached = reached
        super().__init__(f"group order at least {reached} exceeds cap {cap}")


class NonCoprimeModuliError(AutomatonError):
    """Simultaneous congruences need pairwise coprime moduli."""


class SteeringError(AutomatonError):
    """Steering preconditions failed for the requested target."""


class VerificationFailedError(AutomatonError):
    """An internally computed certificate failed its own check."""
