"""Exception types shared across the library, and how a batch carries them."""


class ErestabError(Exception):
    """Base class for all library-specific errors."""


class DomainError(ErestabError, ValueError):
    """An input lies outside the mathematical domain of an operation."""


class ConvergenceError(ErestabError, RuntimeError):
    """An iterative solver failed to reach its tolerance."""

    def __init__(self, message, residual=None):
        if residual is not None:
            message = f"{message} (last residual {residual:.3e})"
        super().__init__(message)
        self.residual = residual


class DegenerateSolutionError(ConvergenceError):
    """A solver converged, but to a solution outside the sought class."""


class ExistenceError(ConvergenceError):
    """No sign change was found while bracketing a root."""


class SingularityError(ErestabError, ValueError):
    """Evaluation hit a singular denominator (coincident bodies)."""


class InvariantViolation(ErestabError, RuntimeError):
    """A mathematical identity that must hold at a solution failed numerically."""


class CurveExtractionError(ErestabError, RuntimeError):
    """A stability curve could not be extracted from index data."""


def caught(fn, *args, **kwargs):
    """``fn(*args, **kwargs)``, or the ErestabError it raised without its
    traceback: that refers to the frames of the failed call, and a batch
    keeping it would keep them alive until the garbage collector runs."""
    try:
        return fn(*args, **kwargs)
    except ErestabError as exc:
        return exc.with_traceback(None)


def unwrap(outcome):
    """Raise ``outcome`` if it is an ErestabError, else return it."""
    if isinstance(outcome, ErestabError):
        raise outcome
    return outcome
