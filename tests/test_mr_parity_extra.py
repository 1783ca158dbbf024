"""Additional serial/MR parity tests: inspection and MVB jobs."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.attribute_inspection import inspect_attributes
from repro.core.em import GaussianMixture
from repro.core.outliers import mvb_estimate
from repro.mapreduce import JobChain, MapReduceRuntime
from repro.mapreduce.types import split_records
from repro.mr.inspection import mr_attribute_inspection
from repro.mr.outlier_jobs import run_mvb_jobs


def _cluster_scenario(rng, n=900, d=6):
    """One dense cluster on attributes 0/1, rest uniform."""
    data = rng.uniform(size=(n, d))
    members = np.zeros(n, dtype=bool)
    members[:400] = True
    data[members, 0] = rng.normal(0.3, 0.02, 400).clip(0, 1)
    data[members, 1] = rng.normal(0.7, 0.02, 400).clip(0, 1)
    return data, members


class TestInspectionParity:
    def test_mr_inspection_matches_serial(self, rng):
        data, members = _cluster_scenario(rng)
        membership = np.where(members, 0, -1).astype(np.int64)

        serial = inspect_attributes(
            data,
            members,
            known_attributes=frozenset({0}),
            prove=True,
        )

        chain = JobChain(MapReduceRuntime())
        splits = split_records(data, 4)
        mr_attrs = mr_attribute_inspection(
            chain,
            splits,
            membership,
            known_attributes={0: frozenset({0})},
            sizes={0: int(members.sum())},
            prove=True,
        )
        assert mr_attrs[0] == serial.attributes

    def test_mr_inspection_without_proving(self, rng):
        data, members = _cluster_scenario(rng)
        membership = np.where(members, 0, -1).astype(np.int64)
        serial = inspect_attributes(
            data, members, known_attributes=frozenset(), prove=False
        )
        chain = JobChain(MapReduceRuntime())
        splits = split_records(data, 3)
        mr_attrs = mr_attribute_inspection(
            chain,
            splits,
            membership,
            known_attributes={0: frozenset()},
            sizes={0: int(members.sum())},
            prove=False,
        )
        assert mr_attrs[0] == serial.attributes

    def test_empty_cluster_keeps_known_attributes(self, rng):
        data, _ = _cluster_scenario(rng)
        membership = np.full(len(data), -1, dtype=np.int64)
        chain = JobChain(MapReduceRuntime())
        splits = split_records(data, 2)
        mr_attrs = mr_attribute_inspection(
            chain,
            splits,
            membership,
            known_attributes={0: frozenset({2})},
            sizes={0: 0},
        )
        assert mr_attrs[0] == frozenset({2})


class TestMVBJobParity:
    def test_single_split_matches_serial_mvb(self, rng):
        """With one split, the median-of-split-medians equals the exact
        median, so the MR MVB moments must match the serial estimate."""
        data, members = _cluster_scenario(rng)
        attrs = (0, 1)
        sub = data[:, list(attrs)]

        # A mixture that assigns the dense cluster to component 0.
        mixture = GaussianMixture(
            means=np.array([[0.3, 0.7], [0.5, 0.5]]),
            covariances=np.stack([np.eye(2) * 0.01, np.eye(2) * 0.2]),
            weights=np.array([0.5, 0.5]),
            attributes=attrs,
        )
        assignment = mixture.assign(sub)

        chain = JobChain(MapReduceRuntime())
        splits = split_records(data, 1)
        means, covs, counts = run_mvb_jobs(chain, splits, mixture)

        serial = mvb_estimate(sub[assignment == 0])
        assert means[0] == pytest.approx(serial.mean, abs=1e-9)
        # The 1e-9 ridge is applied before vs after the consistency
        # factor in the two paths; allow that epsilon.
        assert covs[0] == pytest.approx(serial.covariance, rel=1e-5, abs=1e-8)
        assert counts[0] == serial.n_inside

    def test_multi_split_close_to_serial(self, rng):
        data, members = _cluster_scenario(rng, n=1_200)
        attrs = (0, 1)
        sub = data[:, list(attrs)]
        mixture = GaussianMixture(
            means=np.array([[0.3, 0.7], [0.5, 0.5]]),
            covariances=np.stack([np.eye(2) * 0.01, np.eye(2) * 0.2]),
            weights=np.array([0.5, 0.5]),
            attributes=attrs,
        )
        assignment = mixture.assign(sub)
        chain = JobChain(MapReduceRuntime())
        splits = split_records(data, 6)
        means, _, _ = run_mvb_jobs(chain, splits, mixture)
        serial = mvb_estimate(sub[assignment == 0])
        # Median-of-split-medians approximates the exact centre.
        assert means[0] == pytest.approx(serial.mean, abs=0.02)
