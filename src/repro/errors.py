"""Exception hierarchy for the ``repro`` package.

Every error raised by this library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still letting programming errors (``TypeError`` etc.) propagate unchanged.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ConfigurationError(ReproError):
    """An invalid parameter or inconsistent configuration was supplied."""


class SimulationError(ReproError):
    """The discrete-event simulator reached an inconsistent state."""


class DeadlockError(SimulationError):
    """No runnable thread remains but blocked threads still exist."""


class ProtocolError(SimulationError):
    """A concurrency protocol invariant was violated inside the simulator.

    Raised, for example, when a mutex is released by a thread that does not
    own it, or when a CoTS bucket is drained by a non-owner.
    """


class AuditError(ProtocolError):
    """A schedcheck audit found a structural or semantic violation.

    Raised by :mod:`repro.schedcheck.auditor` when an invariant
    (monotonicity, count conservation, error bounds, differential
    equivalence) does not hold for a simulated scheme's structures.
    Subclasses :class:`ProtocolError` because the structural audits are
    the promoted ``check_invariants`` checks — callers that caught
    ``ProtocolError`` before keep working.
    """


class BackendError(ReproError):
    """A real-parallelism backend (process pool) failed or was misused.

    Base class for the :mod:`repro.mp` failure modes so callers can catch
    every backend problem — crash, timeout, use-after-close — with one
    ``except`` clause.
    """


class WorkerCrashError(BackendError):
    """A backend worker process raised or died unexpectedly.

    Carries the worker index and, when known, the exit code or the
    remote traceback summary, so the failure is attributable without
    digging through child-process stderr.
    """

    def __init__(
        self,
        worker: int,
        detail: str = "",
        exitcode: "int | None" = None,
    ) -> None:
        self.worker = worker
        self.detail = detail
        self.exitcode = exitcode
        message = f"worker {worker} crashed"
        if exitcode is not None:
            message += f" (exit code {exitcode})"
        if detail:
            message += f": {detail}"
        super().__init__(message)


class WorkerTimeoutError(BackendError):
    """A backend worker did not respond within the configured timeout.

    Raised on both paths: dispatch (a worker stopped draining its task
    queue) and query (a snapshot reply never arrived).  The pool is
    closed — workers terminated and joined — before this propagates, so
    a timeout never leaves a hung pool behind.
    """

    def __init__(self, worker: int, timeout: float, where: str) -> None:
        self.worker = worker
        self.timeout = timeout
        self.where = where
        super().__init__(
            f"worker {worker} unresponsive after {timeout:g}s during {where}"
        )


class ListenError(ReproError):
    """A server could not listen on its address: the port is taken, or
    the host does not resolve or is not local.  The message names the
    address and the reason; the ``OSError`` is its ``__cause__``."""


class QueryError(ReproError):
    """A stream query was malformed or cannot be answered."""


class StreamError(ReproError):
    """A workload/stream generator was misconfigured or exhausted."""


class MergeError(ReproError):
    """Merging of per-thread summaries failed (Independent Structures)."""
