"""Exception hierarchy for the :mod:`repro` package.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause while
still discriminating finer-grained failure classes.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "FitnessError",
    "DegenerateFitnessError",
    "SelectionError",
    "UnknownMethodError",
    "TeamTimeoutError",
    "RNGError",
    "ServiceError",
    "ServiceOverloadedError",
    "DeadlineExceededError",
    "ServiceDrainingError",
    "UnknownWheelError",
    "ProtocolError",
    "PRAMError",
    "MemoryAccessError",
    "ReadConflictError",
    "WriteConflictError",
    "CommonWriteViolation",
    "ProgramError",
    "DeadlockError",
    "ACOError",
    "InvalidTourError",
    "InvalidColoringError",
]


class ReproError(Exception):
    """Base class for every exception raised by :mod:`repro`."""


class FitnessError(ReproError, ValueError):
    """A fitness vector violates the algorithm's preconditions.

    Raised for negative entries, NaN/inf entries, or empty vectors.
    """


class DegenerateFitnessError(FitnessError):
    """Every fitness value is zero, so no selection probability exists."""


class SelectionError(ReproError):
    """A selection method failed to produce an index."""


class UnknownMethodError(SelectionError, KeyError):
    """A selection-method name was not found in the registry."""


class TeamTimeoutError(ReproError, TimeoutError):
    """A parallel team run expired with workers still alive.

    Raised instead of silently returning ``None`` placeholders for the
    unfinished ranks; the message names the stuck ranks so a hung race
    is reproducible.
    """


class RNGError(ReproError):
    """A pseudo-random number generator was misused or mis-seeded."""


class ServiceError(ReproError):
    """Base class for selection-service errors."""


class ServiceOverloadedError(ServiceError):
    """The service shed a request instead of queueing it.

    Raised (and mapped to an ``overloaded`` protocol response) when the
    admission-controlled queue is at its bound; the request was never
    enqueued, so retrying later is always safe.
    """


class DeadlineExceededError(ServiceOverloadedError):
    """A queued request's deadline expired before its batch was served."""


class ServiceDrainingError(ServiceError):
    """The service is draining: in-flight work completes, new work is refused.

    Raised (and mapped to a ``draining`` protocol response) between the
    shutdown signal and process exit.  Every request accepted *before*
    the drain began still completes normally; requests arriving after it
    get this typed refusal instead of a dropped connection, so clients
    can fail over without ambiguity about in-flight state.
    """


class UnknownWheelError(ServiceError, KeyError):
    """A wheel id was never minted here, or forgotten past the recipe bound.

    LRU eviction never raises this: the registry rebuilds an evicted
    wheel from its recipe.  Content-addressed ids are stable, so after a
    wheel is forgotten the client can re-register the same fitness
    vector (and replay its updates) and get the same ids.
    """


class ProtocolError(ServiceError, ValueError):
    """A service request line is malformed or semantically invalid."""


class PRAMError(ReproError):
    """Base class for PRAM simulator errors."""


class MemoryAccessError(PRAMError):
    """An out-of-range or otherwise illegal shared-memory access."""


class ReadConflictError(PRAMError):
    """Two processors read the same cell in one step under EREW."""


class WriteConflictError(PRAMError):
    """Two processors wrote the same cell in one step under EREW/CREW."""


class CommonWriteViolation(PRAMError):
    """CRCW-COMMON processors wrote *different* values to one cell."""


class ProgramError(PRAMError):
    """A processor program yielded an unknown request object."""


class DeadlockError(PRAMError):
    """No processor can make progress (e.g. mismatched barriers)."""


class ACOError(ReproError):
    """Base class for ant-colony application errors."""


class InvalidTourError(ACOError, ValueError):
    """A tour is not a permutation of the instance's cities."""


class InvalidColoringError(ACOError, ValueError):
    """A color assignment references unknown vertices or colors."""
