"""Exception types shared across the package."""


class MalformedSpaceError(ValueError):
    """A distance table is incomplete, references unknown elements, or uses
    labels outside its scale."""


class MalformedBoxError(ValueError):
    """A box is not a product of nonempty per-component subsets of the
    operator's domain."""


class SizeLimitError(ValueError):
    """An exhaustive operation was asked to run beyond desk scale."""


class PreconditionError(ValueError):
    """A documented precondition of an operation does not hold.

    Carries an optional ``witness`` with the evidence (e.g. the
    contraction-classification counterexample that disqualifies an
    operator).
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class ScheduleRejectedError(ValueError):
    """Schedule sampling parameters cannot yield an admissible schedule."""


class PreferenceCycleError(ValueError):
    """A declared strict preference collapses into a tie through the
    reflexive-transitive closure.

    ``cycle`` lists the paths along the offending derivation, first and
    last entries equal.
    """

    def __init__(self, message, cycle=()):
        super().__init__(message)
        self.cycle = tuple(cycle)


class SemanticsError(RuntimeError):
    """Two independent evaluation routes disagreed; indicates a bug, not
    bad input."""
