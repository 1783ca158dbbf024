"""Reducer purity under re-execution: partial-sum aggregation must
never mutate its input values.

The runtime may hand the *same* cached shuffle value objects to more
than one reduce attempt (a task retry after a failed attempt).  A
reducer that accumulates in place — e.g.
``values[0] += partial`` — would make the second attempt see partials
already contaminated by the first, silently corrupting histograms,
support counts and covariance sums.  These tests pin the fix: all sum
reducers route through :func:`repro.mr.aggregate.sum_partials`, which
allocates a fresh output array.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.mapreduce.job import Context
from repro.mr.aggregate import sum_partials
from repro.mr.attribute_jobs import ClusterHistogramReducer
from repro.mr.em_jobs import MomentSumsReducer
from repro.mr.histogram import HistogramSumReducer
from repro.mr.support import SupportSumReducer


def _context():
    from repro.mapreduce.cache import DistributedCache
    from repro.mapreduce.counters import Counters

    return Context(DistributedCache(), Counters(), task_id=0)


def test_sum_partials_matches_numpy_sum():
    values = [np.arange(6.0).reshape(2, 3) * k for k in range(4)]
    assert np.array_equal(sum_partials(values), np.sum(values, axis=0))


def test_sum_partials_leaves_inputs_untouched():
    values = [np.ones((3, 3)), np.full((3, 3), 2.0)]
    originals = [v.copy() for v in values]
    total = sum_partials(values)
    for value, original in zip(values, originals):
        assert np.array_equal(value, original)
    assert total is not values[0]
    assert np.array_equal(total, np.full((3, 3), 3.0))


def test_sum_partials_single_value_returns_fresh_array():
    value = np.arange(4.0)
    total = sum_partials([value])
    assert total is not value
    total += 100
    assert np.array_equal(value, np.arange(4.0))


@pytest.mark.parametrize(
    "reducer_cls",
    [HistogramSumReducer, SupportSumReducer, MomentSumsReducer],
)
def test_sum_reducers_are_pure_under_reexecution(reducer_cls):
    """Reducing the same cached values twice yields identical output
    and leaves the value objects byte-identical — the contract retried
    reduce attempts rely on."""
    values = [np.arange(12.0).reshape(3, 4) * k for k in (1.0, 2.0, 5.0)]
    originals = [v.copy() for v in values]

    first = _context()
    reducer_cls().reduce("k", values, first)
    second = _context()
    reducer_cls().reduce("k", values, second)

    (key1, total1), = first.drain()
    (key2, total2), = second.drain()
    assert key1 == key2 == "k"
    assert np.array_equal(total1, total2)
    for value, original in zip(values, originals):
        assert np.array_equal(value, original)


def test_cluster_histogram_reducer_is_pure_under_reexecution():
    """The attribute-inspection reducer sums ``(counts, mins, maxs)``
    partials and takes their extremes into fresh arrays, twice over the
    same cached values."""
    values = [
        (np.arange(12).reshape(3, 4) * k, np.full(3, 0.5 - 0.1 * k), np.full(3, k))
        for k in (1, 2, 5)
    ]
    originals = [tuple(part.copy() for part in value) for value in values]

    outputs = []
    for _ in range(2):
        context = _context()
        ClusterHistogramReducer().reduce("k", values, context)
        (key, total), = context.drain()
        assert key == "k"
        outputs.append(total)
    for counts, mins, maxs in outputs:
        assert np.array_equal(counts, np.arange(12).reshape(3, 4) * 8)
        assert np.array_equal(mins, np.full(3, 0.0))
        assert np.array_equal(maxs, np.full(3, 5))
    for value, original in zip(values, originals):
        for part, before in zip(value, original):
            assert np.array_equal(part, before)
