"""Structured runtime events: the observability spine of the runtime.

Every job execution emits a stream of :class:`Event` records — job,
phase and task lifecycle transitions with wall-clock timings and
counter snapshots.  The stream is the single source of truth for

- :meth:`repro.mapreduce.chain.JobChain.report` (per-step task counts,
  executor names and phase wall times),
- :func:`repro.mapreduce.costmodel.calibrate_from_events` (fitting the
  cluster cost model's per-record constants to measured tasks), and
- the ``repro cluster ... --trace`` CLI flag (a human-readable task
  trace mirroring the paper's per-job accounting).

Events are plain frozen dataclasses; :class:`EventLog` assigns a
monotone sequence number and a timestamp relative to the log's creation
so traces are reproducible to read (no absolute wall-clock noise).
"""

from __future__ import annotations

import json
import logging
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Iterable, Iterator, Mapping

logger = logging.getLogger(__name__)


class EventKind:
    """Well-known event kinds, in lifecycle order."""

    JOB_START = "job_start"
    JOB_FINISH = "job_finish"
    #: A chained job restored from a checkpoint instead of re-executed.
    JOB_SKIPPED = "job_skipped"
    PHASE_START = "phase_start"
    PHASE_FINISH = "phase_finish"
    TASK_START = "task_start"
    TASK_FINISH = "task_finish"
    TASK_RETRY = "task_retry"
    TASK_FAILED = "task_failed"
    #: An attempt exceeded ``task_timeout_s`` and was abandoned.
    TASK_TIMEOUT = "task_timeout"
    #: A speculative duplicate of a straggler attempt was dispatched.
    TASK_SPECULATED = "task_speculated"
    #: The chaos layer scheduled a fault for a task attempt.
    FAULT_INJECTED = "fault_injected"


@dataclass(frozen=True)
class Event:
    """One lifecycle transition of a job, phase or task attempt.

    ``counters`` is a nested ``{group: {counter: value}}`` snapshot —
    per-attempt counters on ``task_finish``, cumulative job counters on
    ``phase_finish``/``job_finish``.
    """

    kind: str
    job: str
    seq: int
    time_s: float
    phase: str | None = None
    task_id: int | None = None
    attempt: int | None = None
    duration_s: float | None = None
    counters: Mapping[str, Mapping[str, int]] | None = None
    error: str | None = None
    #: The owning chain/run of the emitting log (service plane); events
    #: from the classic one-log-per-runtime layout carry ``None``.
    run_id: str | None = None

    def counter(self, group: str, name: str) -> int:
        if not self.counters:
            return 0
        return int(self.counters.get(group, {}).get(name, 0))

    def as_dict(self) -> dict[str, Any]:
        """JSON-serialisable view (drops ``None`` fields)."""
        record = asdict(self)
        return {k: v for k, v in record.items() if v is not None}


@dataclass
class EventLog:
    """Append-only event stream with optional live subscribers.

    One log outlives the jobs it records: the runtime keeps a single
    log across every job it executes, so a failed job's retry and
    failure events remain observable even though no
    :class:`~repro.mapreduce.runtime.JobResult` is produced.
    """

    events: list[Event] = field(default_factory=list)
    _subscribers: list[Callable[[Event], None]] = field(default_factory=list)
    _origin: float = field(default_factory=time.perf_counter)
    #: Stamped onto every emitted event, so streams from concurrent
    #: chains stay attributable after any downstream merge.
    run_id: str | None = None

    def emit(
        self,
        kind: str,
        job: str,
        *,
        phase: str | None = None,
        task_id: int | None = None,
        attempt: int | None = None,
        duration_s: float | None = None,
        counters: Mapping[str, Mapping[str, int]] | None = None,
        error: str | None = None,
    ) -> Event:
        event = Event(
            kind=kind,
            job=job,
            seq=len(self.events),
            time_s=time.perf_counter() - self._origin,
            phase=phase,
            task_id=task_id,
            attempt=attempt,
            duration_s=duration_s,
            counters=counters,
            error=error,
            run_id=self.run_id,
        )
        self.events.append(event)
        for subscriber in list(self._subscribers):
            try:
                subscriber(event)
            except Exception:  # noqa: BLE001 - sinks must not abort the job
                logger.exception(
                    "event subscriber %r raised on %s; continuing",
                    subscriber,
                    event.kind,
                )
        return event

    @property
    def origin(self) -> float:
        """``time.perf_counter()`` value event ``time_s`` fields are
        relative to (lets external tracers align their clocks)."""
        return self._origin

    def subscribe(self, callback: Callable[[Event], None]) -> None:
        """Register a live sink (e.g. a streaming trace printer).

        A raising subscriber is isolated: its exception is logged and
        the job continues — sinks observe the runtime, they must never
        abort it.
        """
        self._subscribers.append(callback)

    def unsubscribe(self, callback: Callable[[Event], None]) -> None:
        """Remove a previously registered sink (no-op when absent), so
        short-lived sinks do not leak across chained jobs."""
        try:
            self._subscribers.remove(callback)
        except ValueError:
            pass

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    # -- queries --------------------------------------------------------

    def select(
        self,
        kind: str | None = None,
        job: str | None = None,
        phase: str | None = None,
    ) -> list[Event]:
        return [
            e
            for e in self.events
            if (kind is None or e.kind == kind)
            and (job is None or e.job == job)
            and (phase is None or e.phase == phase)
        ]

    def phase_seconds(self, job: str, phase: str) -> float:
        """Total wall time of every ``phase`` run of ``job``."""
        return sum(
            e.duration_s or 0.0
            for e in self.select(EventKind.PHASE_FINISH, job, phase)
        )

    def task_attempts(self, job: str | None = None, phase: str | None = None) -> int:
        """Number of task attempts (every ``task_start``, retries included)."""
        return len(self.select(EventKind.TASK_START, job, phase))


#: Compact labels for the well-known framework counters in traces.
_COUNTER_LABELS = {
    "map_input_records": "map_in",
    "map_output_records": "map_out",
    "shuffle_records": "shuffle",
    "shuffle_bytes": "shuffle_b",
    "reduce_input_groups": "reduce_groups",
    "reduce_output_records": "reduce_out",
    "task_retries": "retries",
}


def _flatten_counters(
    counters: Mapping[str, Mapping[str, int]] | None,
) -> dict[tuple[str, str], int]:
    if not counters:
        return {}
    return {
        (group, name): int(value)
        for group, values in counters.items()
        for name, value in values.items()
    }


def _format_counter_deltas(
    current: dict[tuple[str, str], int],
    baseline: dict[tuple[str, str], int],
) -> list[str]:
    """Render non-zero counter deltas vs ``baseline`` as ``name=delta``."""
    parts = []
    for (group, name), value in sorted(current.items()):
        delta = value - baseline.get((group, name), 0)
        if delta == 0:
            continue
        label = _COUNTER_LABELS.get(name, name)
        if group != "framework":
            label = f"{group}.{label}"
        parts.append(f"{label}={delta}")
    return parts


def format_trace(events: Iterable[Event]) -> str:
    """Render an event stream as an aligned, human-readable trace.

    Counter snapshots are rendered as per-event *deltas* (e.g.
    ``shuffle=1234``): task events carry per-attempt counters already,
    while the cumulative ``phase_finish``/``job_finish`` snapshots are
    differenced against the previous cumulative snapshot of the same
    job — matching the paper's per-job accounting.
    """
    lines = []
    cumulative: dict[str, dict[tuple[str, str], int]] = {}
    for e in events:
        where = e.phase or "-"
        detail = []
        if e.task_id is not None:
            detail.append(f"task={e.task_id}")
        if e.attempt is not None:
            detail.append(f"attempt={e.attempt}")
        if e.duration_s is not None:
            detail.append(f"{e.duration_s * 1e3:.1f}ms")
        if e.error is not None:
            detail.append(f"error={e.error}")
        if e.counters:
            flat = _flatten_counters(e.counters)
            if e.kind in (EventKind.PHASE_FINISH, EventKind.JOB_FINISH):
                baseline = cumulative.get(e.job, {})
                detail.extend(_format_counter_deltas(flat, baseline))
                cumulative[e.job] = flat
            else:
                detail.extend(_format_counter_deltas(flat, {}))
        if e.kind == EventKind.JOB_START:
            cumulative.pop(e.job, None)
        lines.append(
            f"[{e.time_s:9.4f}s] {e.kind:<12} {e.job:<30} {where:<7} "
            + " ".join(detail)
        )
    return "\n".join(lines)


def events_to_jsonl(events: Iterable[Event]) -> str:
    """Serialise an event stream as JSON lines (machine trace output)."""
    return "\n".join(json.dumps(e.as_dict(), default=repr) for e in events)
