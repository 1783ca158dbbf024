"""The observability context threaded through drivers and the runtime.

:class:`Observability` bundles the three instruments — span tracer,
metrics registry, resource sampler — behind one object with a single
``enabled`` switch.  Disabled (the default for drivers constructed
without one), every entry point is a no-op, so the instrumented hot
paths pay one attribute check and nothing else.

Drivers open ``run``/``stage`` spans explicitly; the **event bridge**
(:meth:`Observability.observe_runtime`) subscribes to a runtime's
:class:`~repro.mapreduce.events.EventLog` and derives the inner levels
of the hierarchy from the lifecycle stream:

- ``job_start``/``job_finish``   → a ``job`` span under the open stage,
- ``phase_start``/``phase_finish`` → a ``phase`` span under the job
  (plus a memory sample at phase end),
- ``task_finish``/``task_failed`` → complete ``task`` spans under the
  phase (timed from the event's own duration),
- ``task_retry``                 → the ``mr.task_retries`` counter,
- ``job_skipped``                → a zero-cost ``job`` span marked
  ``skipped`` plus the ``mr.jobs_skipped`` counter (checkpoint resume),
- ``task_timeout`` / ``fault_injected`` → the ``mr.task_timeouts`` /
  ``mr.faults_injected`` counters (fault-tolerance machinery at work).

Every job runs its map and reduce phases on either side of one
barrier, so at most one phase span is open at a time.  The job's
``framework.shuffle_bytes`` counter is mirrored into the
``mr.shuffle_bytes`` metric at job finish.

The bridge registers via ``EventLog.subscribe`` and must be released
with :meth:`detach` (or the ``finally`` of :meth:`run`) so sinks do not
leak across chained jobs.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Iterator

from repro.mapreduce.events import Event, EventKind, EventLog
from repro.obs.metrics import MetricsRegistry
from repro.obs.resources import ResourceSampler
from repro.obs.spans import Span, SpanTracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mapreduce.runtime import MapReduceRuntime


class _EventBridge:
    """Turns one runtime's event stream into job/phase/task spans."""

    def __init__(self, obs: "Observability", log: EventLog) -> None:
        self.obs = obs
        # Event ``time_s`` values are relative to the log's origin;
        # both clocks are ``perf_counter``, so one offset aligns them.
        self.offset = log.origin - obs.tracer.origin
        self.job_span: Span | None = None
        self.phase_span: Span | None = None

    def __call__(self, event: Event) -> None:
        obs, tracer = self.obs, self.obs.tracer
        kind = event.kind
        if kind == EventKind.JOB_START:
            self.job_span = tracer.begin(event.job, "job")
        elif kind == EventKind.JOB_FINISH:
            if self.job_span is not None:
                tracer.end(self.job_span, duration_s=event.duration_s)
                self.job_span = None
            obs.metrics.count("mr.jobs")
            shuffle_bytes = event.counter("framework", "shuffle_bytes")
            if shuffle_bytes:
                obs.metrics.count("mr.shuffle_bytes", shuffle_bytes)
            obs.resources.sample(event.job, event.time_s + self.offset)
        elif kind == EventKind.PHASE_START:
            self.phase_span = tracer.begin(
                f"{event.job}/{event.phase}", "phase", phase=event.phase
            )
        elif kind == EventKind.PHASE_FINISH:
            if self.phase_span is not None:
                tracer.end(self.phase_span, duration_s=event.duration_s)
                self.phase_span = None
            obs.resources.sample(
                f"{event.job}/{event.phase}", event.time_s + self.offset
            )
        elif kind == EventKind.TASK_FINISH:
            duration = event.duration_s or 0.0
            tracer.add_complete(
                f"{event.job}/{event.phase}/task{event.task_id}",
                "task",
                start_s=event.time_s + self.offset - duration,
                duration_s=duration,
                parent=self.phase_span,
                task_id=event.task_id,
                attempt=event.attempt,
            )
            obs.metrics.observe("mr.task_duration_s", duration)
        elif kind == EventKind.TASK_RETRY:
            obs.metrics.count("mr.task_retries")
        elif kind == EventKind.JOB_SKIPPED:
            tracer.add_complete(
                event.job,
                "job",
                start_s=event.time_s + self.offset,
                duration_s=0.0,
                skipped=True,
                saved_wall_s=event.duration_s,
            )
            obs.metrics.count("mr.jobs_skipped")
        elif kind == EventKind.TASK_TIMEOUT:
            obs.metrics.count("mr.task_timeouts")
        elif kind == EventKind.FAULT_INJECTED:
            obs.metrics.count("mr.faults_injected")
        elif kind == EventKind.TASK_FAILED:
            tracer.add_complete(
                f"{event.job}/{event.phase}/task{event.task_id}",
                "task",
                start_s=event.time_s + self.offset,
                duration_s=0.0,
                parent=self.phase_span,
                task_id=event.task_id,
                attempt=event.attempt,
                error=event.error,
            )
            obs.metrics.count("mr.task_failures")


class Observability:
    """Span tracer + metrics registry + resource sampler, one switch.

    Parameters
    ----------
    enabled:
        ``False`` turns every entry point into a no-op (the drivers'
        default — observability off must cost nothing measurable).
    trace_allocations:
        Additionally track ``tracemalloc`` peaks per sample.  Real
        overhead; only enable when hunting allocation hot spots.
    """

    def __init__(
        self, enabled: bool = True, trace_allocations: bool = False
    ) -> None:
        self.enabled = enabled
        self.tracer = SpanTracer()
        self.metrics = MetricsRegistry()
        self.resources = ResourceSampler(trace_allocations=trace_allocations)
        self._bridges: list[tuple[EventLog, _EventBridge]] = []
        self._trace_allocations = trace_allocations
        #: ``None`` for the classic process-wide context; set on scopes
        #: minted by :meth:`for_run` (one per submitted chain).
        self.run_id: str | None = None
        #: Optional live :class:`~repro.obs.telemetry.TelemetryHub` —
        #: attached by the service plane so drivers can feed points
        #: into the continuously-sampled series; shared (not scoped)
        #: across :meth:`for_run` scopes, because telemetry is a
        #: service-lifetime plane, not a per-run artifact.
        self.telemetry: Any = None

    def for_run(self, run_id: str) -> "Observability":
        """A per-run scope: own tracer/sampler, metrics chained to ours.

        Each concurrent chain writes spans and metrics into its own
        scope, so two chains in one process produce disjoint reports
        (the satellite leak fix) — while counters still roll up to this
        parent registry for the aggregate service view.  Idempotent:
        calling on an already-scoped (or disabled) context returns
        ``self``, so a service-provided scope passes through drivers
        unchanged.
        """
        if not self.enabled or self.run_id is not None:
            return self
        scope = Observability(
            enabled=True, trace_allocations=self._trace_allocations
        )
        scope.metrics = MetricsRegistry(parent=self.metrics)
        scope.run_id = run_id
        scope.tracer.default_attrs["run_id"] = run_id
        scope.telemetry = self.telemetry
        return scope

    # -- driver-facing span helpers -------------------------------------

    @contextmanager
    def run(self, name: str, **attrs: Any) -> Iterator[Span | None]:
        """Open the root ``run`` span (detaches bridges on exit)."""
        if not self.enabled:
            yield None
            return
        if self.run_id is not None:
            attrs.setdefault("run_id", self.run_id)
        self.resources.start()
        try:
            with self.tracer.span(name, "run", **attrs) as span:
                yield span
        finally:
            self.detach()
            self.resources.sample("run_end", self.tracer.now())
            self.resources.stop()

    @contextmanager
    def stage(self, name: str, **attrs: Any) -> Iterator[Span | None]:
        """Open a pipeline ``stage`` span under the current span."""
        if not self.enabled:
            yield None
            return
        with self.tracer.span(name, "stage", **attrs) as span:
            yield span

    # -- metrics convenience (no-ops when disabled) ---------------------

    def count(self, name: str, amount: float = 1) -> None:
        if self.enabled:
            self.metrics.count(name, amount)

    def gauge(self, name: str, value: float) -> None:
        if self.enabled:
            self.metrics.gauge(name, value)

    def record(self, name: str, value: float) -> None:
        if self.enabled:
            self.metrics.record(name, value)

    def observe(self, name: str, value: float) -> None:
        if self.enabled:
            self.metrics.observe(name, value)

    # -- runtime bridging -----------------------------------------------

    def observe_runtime(self, runtime: "MapReduceRuntime") -> None:
        """Derive job/phase/task spans from ``runtime``'s event stream."""
        self.observe_events(runtime.events)

    def observe_events(self, log: EventLog) -> None:
        if not self.enabled:
            return
        bridge = _EventBridge(self, log)
        log.subscribe(bridge)
        self._bridges.append((log, bridge))

    def detach(self) -> None:
        """Unsubscribe every event bridge (idempotent)."""
        for log, bridge in self._bridges:
            log.unsubscribe(bridge)
        self._bridges.clear()


#: Shared disabled context: the default for un-instrumented driver runs.
NULL_OBS = Observability(enabled=False)
