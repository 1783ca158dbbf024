"""Tests for the consolidated report harness and the Light membership job."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.types import ClusterCore, IntervalTable
from repro.experiments import report
from repro.experiments.configs import ExperimentScale
from repro.mapreduce import JobChain, MapReduceRuntime
from repro.mapreduce.types import split_records
from repro.mr.light_jobs import run_light_membership_job
from repro.mr.support import build_interval_index


class TestReport:
    def test_section_selection(self):
        text = report.run(sections=("figure1", "figure2"))
        assert "figure1" in text
        assert "figure2" in text
        assert "figure6" not in text

    def test_unknown_section_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            report.run(sections=("nope",))

    def test_report_header_names_scale(self):
        scale = ExperimentScale(name="unit-test", sizes=(400,), dims=8)
        text = report.run(scale=scale, sections=("figure1",))
        assert "unit-test" in text
        assert "Figure 1" in text


def _light_membership(chain, splits, signatures, n):
    """The Light membership job, fed an index packed by the level-1
    proving job over the signatures' intervals."""
    table = IntervalTable(iv for sig in signatures for iv in sig)
    _, index = build_interval_index(chain, splits, table)
    return run_light_membership_job(chain, index, signatures, n)


class TestLightMembershipJob:
    def test_matches_driver_side_masks(self, tiny_dataset):
        data = tiny_dataset.data
        n = len(data)
        cores = []
        for cluster in tiny_dataset.hidden_clusters:
            sig = cluster.signature
            cores.append(
                ClusterCore(
                    signature=sig,
                    support=sig.support(data),
                    expected_support=sig.expected_support(n),
                )
            )
        signatures = [c.signature for c in cores]
        chain = JobChain(MapReduceRuntime())
        splits = split_records(data, 5)
        exclusive, assignment = _light_membership(chain, splits, signatures, n)

        masks = np.stack([s.support_mask(data) for s in signatures], axis=1)
        cover = masks.sum(axis=1)
        expected_exclusive = np.where(cover == 1, np.argmax(masks, axis=1), -1)
        expected_assignment = np.where(cover > 0, np.argmax(masks, axis=1), -1)
        assert np.array_equal(exclusive, expected_exclusive)
        assert np.array_equal(assignment, expected_assignment)

    def test_uncovered_points_are_minus_one(self, tiny_dataset):
        from repro.core.types import Interval, Signature

        chain = JobChain(MapReduceRuntime())
        splits = split_records(tiny_dataset.data, 3)
        # A signature covering nothing.
        empty_sig = Signature([Interval(0, 0.999999, 1.0)])
        exclusive, assignment = _light_membership(
            chain, splits, [empty_sig], len(tiny_dataset.data)
        )
        assert (assignment == -1).sum() > 0
