"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures without catching unrelated bugs.
"""

from __future__ import annotations

from typing import Any, Dict, Optional


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class GraphError(ReproError):
    """Invalid graph structure or graph construction failure."""


class GraphFormatError(GraphError):
    """A graph file or serialized payload could not be parsed."""


class PartitionError(ReproError):
    """Invalid partition request or inconsistent partition assignment."""


class KernelError(ReproError):
    """Misconfigured or misbehaving analytics kernel."""


class CapabilityError(ReproError):
    """An operation was offloaded to a device that cannot execute it."""


class ConfigError(ReproError):
    """Invalid system/architecture configuration."""


class SimulationError(ReproError):
    """Internal inconsistency detected while simulating an execution.

    Carries a structured ``context`` dict so callers (and crash reports)
    can see *where* the simulation went wrong without parsing the message:
    the iteration number, the architecture name, and any extra key/value
    pairs the raise site considered useful.
    """

    def __init__(
        self,
        message: str,
        *,
        iteration: Optional[int] = None,
        architecture: Optional[str] = None,
        **extra: Any,
    ) -> None:
        super().__init__(message)
        self.context: Dict[str, Any] = dict(extra)
        if iteration is not None:
            self.context["iteration"] = int(iteration)
        if architecture is not None:
            self.context["architecture"] = architecture

    def __str__(self) -> str:
        base = super().__str__()
        if not self.context:
            return base
        detail = ", ".join(f"{k}={v!r}" for k, v in sorted(self.context.items()))
        return f"{base} [{detail}]"


class CacheError(ReproError):
    """Invalid artifact-cache request (bad key, kind, or configuration).

    Note that *storage* failures (corrupt entries, unwritable directories)
    are deliberately **not** raised as errors by the cache — they degrade to
    regeneration so a broken cache can never break an experiment.
    """


class ExperimentError(ReproError):
    """An experiment harness was invoked with invalid parameters."""


class JournalError(ExperimentError):
    """A sweep write-ahead journal is unusable for the requested operation.

    Raised when a journal file is missing/empty on ``--resume``, is not a
    sweep journal at all, or pins a different task list than the sweep
    being resumed (the header's content-addressed ``sweep`` digest does
    not match).  *Torn tails* — a partial final record left by a crash —
    are **not** errors: recovery silently discards them.
    """


class SchedulerError(ExperimentError):
    """A sweep scheduler could not be constructed or could not start.

    Raised for misconfiguration of the distributed sweep path — a remote
    scheduler without a shared token or artifact cache, an unparseable
    bind address, or no worker connecting within the startup wait.  Task
    failures are *not* scheduler errors; they go through the normal
    retry/quarantine/keep-going machinery.
    """


class WorkerAuthError(SchedulerError):
    """A sweep worker failed the coordinator's token handshake.

    Raised worker-side when the coordinator rejects the ``hello`` (bad or
    missing shared token, protocol version mismatch).  The coordinator
    never raises for a bad worker — it just drops the connection.
    """


class SweepInterrupted(ExperimentError):
    """A sweep shut down gracefully on SIGINT/SIGTERM.

    By the time this is raised the journal (when one is active) has been
    flushed and closed and every worker the sweep forked has been killed
    and reaped — restarting with ``--resume`` continues from the last
    completed task.
    """


class ServeError(ReproError):
    """Base class for analytics-serving-daemon errors (:mod:`repro.serve`).

    Every serving failure is *typed and fast*: the daemon's admission
    control rejects work it cannot take with one of the subclasses below
    instead of queueing unboundedly or hanging the client.
    """


class Overloaded(ServeError):
    """The daemon shed this request under load.

    Raised (and mapped to HTTP 503) when the admission queue is at its
    configured depth.  ``retry_after_s`` is the server's backoff hint,
    surfaced to HTTP clients as a ``Retry-After`` header.
    """

    def __init__(self, message: str, *, retry_after_s: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after_s = float(retry_after_s)


class QuotaExceeded(ServeError):
    """A tenant exceeded its per-tenant quota or rate limit.

    Raised (and mapped to HTTP 429) when a tenant has too many requests
    in flight or its token bucket is empty.  Carries the ``tenant`` so
    multi-tenant clients can tell whose budget ran out.
    """

    def __init__(self, message: str, *, tenant: str = "default") -> None:
        super().__init__(message)
        self.tenant = tenant


class ServerClosed(ServeError):
    """The daemon is draining or stopped and rejects new requests.

    In-flight requests are still completed during a graceful drain; only
    *new* admissions see this error (mapped to HTTP 503).
    """


class MetricError(ReproError):
    """An undeclared metric name was written.

    Raised when a counter name is not registered in the central
    :data:`repro.obs.metrics.METRICS` registry (typically a typo — the
    message suggests the closest declared name).
    """


class FaultError(ReproError):
    """Invalid fault specification, schedule, or injection request."""


class RecoveryError(FaultError):
    """A modeled recovery action could not be carried out.

    Raised e.g. when a memory-node crash leaves no survivor to re-replicate
    the failed shard onto, or a checkpoint policy is misconfigured.
    """
