"""Exception vocabulary shared by every module."""


class SpaceError(Exception):
    """Base class for all library errors."""


class NotT0(SpaceError):
    """Two points have identical open neighborhoods."""

    def __init__(self, pair, message=None):
        self.pair = tuple(pair)
        super().__init__(message or f"points {self.pair[0]!r} and {self.pair[1]!r} are topologically indistinguishable")


class CycleDetected(SpaceError):
    """The reflexive-transitive closure of the covers violates antisymmetry."""

    def __init__(self, pair, message=None):
        self.pair = tuple(pair)
        super().__init__(message or f"cycle through {self.pair[0]!r} and {self.pair[1]!r}")


class LimitExceeded(SpaceError):
    """An enumeration request is above the configured point limit."""


class PowerspaceTooLarge(SpaceError):
    """A construction would exceed the configured point cap."""


class NotContinuous(SpaceError):
    """A map expected to be continuous is not."""


class ShapeMismatch(SpaceError):
    """A modal generator does not apply to the given constructed space."""


class NotEmbedding(SpaceError):
    """A map expected to be a topological embedding is not."""


class PresentationMismatch(SpaceError):
    """A presentation does not carve out the expected subspace."""


class PreconditionViolated(SpaceError):
    """An operation was called outside its stated preconditions."""


class NoUniquePoint(SpaceError):
    """A stabilized open is not the minimal neighborhood of a unique point."""


class EmptySpace(SpaceError):
    """The operation needs a non-empty space."""


class ParseError(SpaceError):
    """Bad expression or input file."""
