"""Exception types shared across the engine."""


class EngineError(Exception):
    """Base class for all engine-specific failures."""


class ParseError(EngineError):
    """Malformed text input (slope, ring element, tree or witness JSON)."""


class OrderViolation(EngineError):
    """A slope pair was not strictly increasing where it had to be."""


class NonTermination(EngineError):
    """An iteration guard tripped; indicates an implementation bug."""


class InvalidSlope(EngineError):
    """A slope argument violates an operation's hypothesis."""


class IndexOutOfRange(EngineError, IndexError):
    """A node or line index does not exist on the surface."""


class ModelMismatch(EngineError):
    """Ring elements from different models were mixed."""


class PrecisionExhausted(EngineError):
    """A series-model answer is not determined at the tracked precision."""


class DegreeCapExceeded(EngineError):
    """A Groebner run exceeded the configured S-pair budget."""


class RootUnavailable(EngineError):
    """The rationals lack a required n-th root."""


class DivisionImpossible(EngineError):
    """Exact division was requested but the quotient is not in the ring."""


class LiftRequired(EngineError):
    """A section does not lift to the blown-up surface."""


class UnsupportedSupport(EngineError):
    """A blowup tree shape outside the supported normalization class."""


class PreconditionViolated(EngineError):
    """An operation's stated precondition does not hold."""


class AnswerTooLarge(EngineError):
    """An answer holds an integer too long to print so that it reads back."""


class ConsistencyFailure(EngineError):
    """Pairwise verdicts violated transitivity; internal soundness alarm."""
