"""Hadoop-style counters for record and shuffle-volume accounting.

Counters are the runtime's observability surface: every job reports how
many records its mappers read and emitted, how many pairs crossed the
shuffle, and how many output records the reducers produced.  The cluster
cost model (:mod:`repro.mapreduce.costmodel`) consumes these numbers to
project paper-scale runtimes.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterator


class CounterGroup:
    """A named group of monotonically increasing integer counters."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._values: dict[str, int] = defaultdict(int)

    def increment(self, counter: str, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter increments must be >= 0, got {amount}")
        self._values[counter] += amount

    def value(self, counter: str) -> int:
        return self._values.get(counter, 0)

    def items(self) -> Iterator[tuple[str, int]]:
        return iter(sorted(self._values.items()))

    def merge(self, other: "CounterGroup") -> None:
        for counter, amount in other._values.items():
            self._values[counter] += amount

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in self.items())
        return f"CounterGroup({self.name}: {inner})"


class Counters:
    """All counter groups of one job (or of a whole driver run)."""

    # Well-known counter names, mirroring Hadoop's task counters.
    MAP_INPUT_RECORDS = "map_input_records"
    MAP_OUTPUT_RECORDS = "map_output_records"
    COMBINE_OUTPUT_RECORDS = "combine_output_records"
    SHUFFLE_RECORDS = "shuffle_records"
    #: Estimated shuffle payload volume (columnar blocks by ``nbytes``,
    #: tuple buckets by a per-pair pickled-size estimate).
    SHUFFLE_BYTES = "shuffle_bytes"
    REDUCE_INPUT_GROUPS = "reduce_input_groups"
    REDUCE_OUTPUT_RECORDS = "reduce_output_records"
    #: Compressed bytes written to shuffle spill segments (map tasks
    #: whose columnar payload crossed ``JobConf.memory_budget_bytes``).
    SPILLED_BYTES = "spilled_bytes"
    #: Spill segment files written by over-budget map tasks.
    SPILL_SEGMENTS = "spill_segments"
    TASK_RETRIES = "task_retries"
    FRAMEWORK = "framework"
    #: Service-plane accounting (the scheduler's fair-share slot pool
    #: mirrors per-tenant grants here so run reports can audit shares).
    SLOTS_GRANTED = "slots_granted"
    SLOT_WAIT_MS = "slot_wait_ms"
    SERVICE = "service"

    def __init__(self) -> None:
        self._groups: dict[str, CounterGroup] = {}

    def group(self, name: str) -> CounterGroup:
        if name not in self._groups:
            self._groups[name] = CounterGroup(name)
        return self._groups[name]

    def increment(self, group: str, counter: str, amount: int = 1) -> None:
        self.group(group).increment(counter, amount)

    def value(self, group: str, counter: str) -> int:
        if group not in self._groups:
            return 0
        return self._groups[group].value(counter)

    def merge(self, other: "Counters") -> None:
        for name, group in other._groups.items():
            self.group(name).merge(group)

    def groups(self) -> Iterator[CounterGroup]:
        return iter(self._groups.values())

    def framework_value(self, counter: str) -> int:
        return self.value(self.FRAMEWORK, counter)

    def snapshot(self) -> dict[str, dict[str, int]]:
        """Immutable ``{group: {counter: value}}`` view for event records."""
        return {
            group.name: dict(group.items()) for group in self._groups.values()
        }

    @classmethod
    def from_snapshot(cls, snapshot: dict[str, dict[str, int]]) -> "Counters":
        """Rebuild counters from a :meth:`snapshot` (checkpoint restore)."""
        counters = cls()
        for group, values in (snapshot or {}).items():
            for name, value in values.items():
                counters.increment(group, name, int(value))
        return counters

    def __repr__(self) -> str:
        return f"Counters({list(self._groups)})"
