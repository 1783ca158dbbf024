"""Serving-path tests: scorer oracle parity, registry, service wiring.

The batched ``FittedModel.assign`` must be element-wise *bitwise*
identical to the scalar :func:`repro.serving.reference_assign` oracle —
including NaN/±inf rows and finite values outside [0, 1] (the batch
RSSC clamp territory).  The registry must round-trip models with stable
fingerprints, fail loudly (typed errors, no unpickling) on truncated or
tampered bundles, and survive concurrent saves.  ``serve_assign`` must
run batches through the fair-share pool and feed the ``repro_assign_*``
telemetry families.
"""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.em import GaussianMixture
from repro.core.types import ClusterCore, Interval, Signature
from repro.mapreduce import ClusterService
from repro.core.p3c_plus import P3CPlusConfig
from repro.mr import P3CPlusMR, P3CPlusMRConfig, P3CPlusMRLight
from repro.obs import parse_openmetrics
from repro.obs.telemetry import render_openmetrics
from repro.serving import (
    SCHEMA_VERSION,
    FittedModel,
    ModelCorruptError,
    ModelNotFoundError,
    ModelRegistry,
    reference_assign,
)

D = 6


def _random_cores(rng: np.random.Generator, num_cores: int) -> list[ClusterCore]:
    cores = []
    for _ in range(num_cores):
        num_attrs = int(rng.integers(1, 4))
        attrs = rng.choice(D, size=num_attrs, replace=False)
        intervals = []
        for attr in attrs:
            lower = float(rng.uniform(0.0, 0.8))
            width = float(rng.uniform(0.05, 0.3))
            intervals.append(
                Interval(int(attr), lower, min(1.0, lower + width))
            )
        cores.append(
            ClusterCore(
                signature=Signature(intervals),
                support=int(rng.integers(10, 200)),
                expected_support=float(rng.uniform(1.0, 20.0)),
            )
        )
    return cores


def _random_spd(rng: np.random.Generator, m: int) -> np.ndarray:
    a = rng.normal(size=(m, m))
    return 0.01 * (a @ a.T) + 1e-3 * np.eye(m)


def _random_model(rng: np.random.Generator, full: bool) -> FittedModel:
    cores = _random_cores(rng, int(rng.integers(1, 5)))
    mixture = od_means = od_covs = od_counts = None
    if full:
        k = len(cores)
        m = int(rng.integers(1, D + 1))
        attrs = tuple(
            int(a) for a in np.sort(rng.choice(D, size=m, replace=False))
        )
        mixture = GaussianMixture(
            means=rng.uniform(0.2, 0.8, size=(k, m)),
            covariances=np.stack([_random_spd(rng, m) for _ in range(k)]),
            weights=rng.dirichlet(np.ones(k)),
            attributes=attrs,
        )
        od_means = mixture.means + rng.normal(scale=0.01, size=(k, m))
        od_covs = np.stack([_random_spd(rng, m) for _ in range(k)])
        od_counts = rng.integers(2, 500, size=k).astype(float)
    return FittedModel(
        algorithm="mr" if full else "mr-light",
        cores=cores,
        mixture=mixture,
        od_means=od_means,
        od_covariances=od_covs,
        od_counts=od_counts,
        outlier_alpha=0.001,
        num_bins=20,
        n_points=500,
        n_dims=D,
    )


def _random_batch(rng: np.random.Generator) -> np.ndarray:
    n = int(rng.integers(0, 60))
    # Out-of-[0,1] finite values are deliberate: the light path must
    # clamp exactly as the batch RSSC does.
    batch = rng.uniform(-0.4, 1.4, size=(n, D))
    for bad in (np.nan, np.inf, -np.inf):
        hits = rng.random(size=batch.shape) < 0.03
        batch[hits] = bad
    return batch


def _assert_bitwise_equal(batch_result, scalar_result) -> None:
    assert batch_result.cluster_ids.dtype == np.int64
    assert batch_result.outlier_mask.dtype == np.bool_
    assert np.array_equal(batch_result.cluster_ids, scalar_result.cluster_ids)
    assert np.array_equal(batch_result.outlier_mask, scalar_result.outlier_mask)
    assert np.array_equal(
        batch_result.scores, scalar_result.scores, equal_nan=True
    )


class TestScorerOracle:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_light_batch_matches_scalar_reference(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        model = _random_model(rng, full=False)
        batch = _random_batch(rng)
        _assert_bitwise_equal(model.assign(batch), reference_assign(model, batch))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_full_batch_matches_scalar_reference(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        model = _random_model(rng, full=True)
        batch = _random_batch(rng)
        _assert_bitwise_equal(model.assign(batch), reference_assign(model, batch))

    def test_nonfinite_rows_are_unassigned(self, rng) -> None:
        model = _random_model(rng, full=True)
        batch = np.full((3, D), 0.5)
        batch[0, model.relevant_attributes[0]] = np.nan
        batch[1, model.relevant_attributes[-1]] = -np.inf
        result = model.assign(batch)
        assert result.cluster_ids[0] == -1 and result.outlier_mask[0]
        assert result.cluster_ids[1] == -1 and result.outlier_mask[1]
        assert np.isnan(result.scores[0]) and np.isnan(result.scores[1])
        assert np.isfinite(result.scores[2])

    def test_nonfinite_on_irrelevant_attribute_is_ignored(self, rng) -> None:
        model = _random_model(rng, full=True)
        while len(model.relevant_attributes) == D:
            model = _random_model(rng, full=True)
        irrelevant = sorted(set(range(D)) - set(model.relevant_attributes))
        batch = np.full((1, D), 0.5)
        batch[0, irrelevant[0]] = np.nan
        result = model.assign(batch)
        assert np.isfinite(result.scores[0])

    def test_empty_batch(self, rng) -> None:
        model = _random_model(rng, full=False)
        result = model.assign(np.empty((0, D)))
        assert result.cluster_ids.shape == (0,)
        assert result.outlier_mask.shape == (0,)
        assert result.scores.shape == (0,)

    def test_shape_mismatch_raises(self, rng) -> None:
        model = _random_model(rng, full=False)
        with pytest.raises(ValueError, match="incompatible"):
            model.assign(np.zeros((4, D + 1)))

    def test_full_assignment_matches_mixture_argmax(self, rng) -> None:
        """Pre-verdict component choice is GaussianMixture.assign's: the
        scorer picks components through the mixture itself, so the fit's
        MVB membership and the served labels cannot drift apart."""
        model = _random_model(rng, full=True)
        batch = np.clip(rng.uniform(0, 1, size=(200, D)), 0, 1)
        result = model.assign(batch)
        expected = model.mixture.assign(model.mixture.project(batch))
        chosen = result.cluster_ids[result.cluster_ids >= 0]
        assert np.array_equal(chosen, expected[result.cluster_ids >= 0])

    def test_indefinite_outlier_covariance_scores_nonnegative(self, rng) -> None:
        """An MVB covariance that is indefinite by rounding (as a registry
        ``arrays.npz`` may carry) goes through the Cholesky ridge: the
        squared distances stay non-negative, batch and scalar alike."""
        mixture = GaussianMixture(
            means=np.array([[0.3, 0.3], [0.7, 0.7]]),
            covariances=np.stack([0.01 * np.eye(2)] * 2),
            weights=np.array([0.5, 0.5]),
            attributes=(0, 1),
        )
        indefinite = 0.01 * np.array([[1.0, 1.0 + 1e-12], [1.0 + 1e-12, 1.0]])
        model = FittedModel(
            algorithm="mr",
            cores=_random_cores(rng, 2),
            mixture=mixture,
            od_means=mixture.means,
            od_covariances=np.stack([indefinite] * 2),
            od_counts=np.array([400.0, 400.0]),
            outlier_alpha=0.001,
            num_bins=20,
            n_points=800,
            n_dims=D,
        )
        batch = rng.uniform(0.0, 1.0, size=(300, D))
        result = model.assign(batch)
        assert (result.scores >= 0).all()
        _assert_bitwise_equal(result, reference_assign(model, batch))


class TestRegistry:
    def test_round_trip_is_bitwise_stable(self, tmp_path, rng) -> None:
        for full in (False, True):
            model = _random_model(rng, full=full)
            registry = ModelRegistry(tmp_path / ("full" if full else "light"))
            model_id = registry.save(model, tags=("latest",))
            loaded = registry.load("latest")
            assert loaded.fingerprint() == model.fingerprint()
            assert model_id.endswith(model.fingerprint())
            batch = _random_batch(rng)
            _assert_bitwise_equal(loaded.assign(batch), model.assign(batch))

    def test_save_is_idempotent(self, tmp_path, rng) -> None:
        model = _random_model(rng, full=True)
        registry = ModelRegistry(tmp_path)
        assert registry.save(model) == registry.save(model)
        assert len(registry.list_models()) == 1

    def test_tags_point_at_models(self, tmp_path, rng) -> None:
        registry = ModelRegistry(tmp_path)
        first = registry.save(_random_model(rng, full=False), tags=("latest",))
        second = registry.save(_random_model(rng, full=True), tags=("latest", "prod"))
        assert registry.tags() == {"latest": second, "prod": second}
        assert registry.resolve("latest") == second
        assert registry.resolve(first) == first
        with pytest.raises(ModelNotFoundError):
            registry.tag("no-such-model", "broken")

    def test_missing_model_raises_not_found(self, tmp_path) -> None:
        registry = ModelRegistry(tmp_path)
        with pytest.raises(ModelNotFoundError):
            registry.load("nope")
        with pytest.raises(ModelNotFoundError):
            registry.resolve("nope")

    def test_truncated_arrays_raise_corrupt(self, tmp_path, rng) -> None:
        registry = ModelRegistry(tmp_path)
        model_id = registry.save(_random_model(rng, full=True))
        npz = registry.models_dir / model_id / "arrays.npz"
        npz.write_bytes(npz.read_bytes()[: npz.stat().st_size // 2])
        with pytest.raises(ModelCorruptError):
            registry.load(model_id)

    def test_missing_metadata_raises_corrupt(self, tmp_path, rng) -> None:
        registry = ModelRegistry(tmp_path)
        model_id = registry.save(_random_model(rng, full=False))
        (registry.models_dir / model_id / "model.json").unlink()
        with pytest.raises(ModelCorruptError):
            registry.load(model_id)

    def test_tampered_parameters_fail_fingerprint_check(self, tmp_path, rng) -> None:
        registry = ModelRegistry(tmp_path)
        model_id = registry.save(_random_model(rng, full=False))
        meta_path = registry.models_dir / model_id / "model.json"
        meta = json.loads(meta_path.read_text())
        meta["cores"][0]["support"] += 1
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(ModelCorruptError, match="fingerprint"):
            registry.load(model_id)

    def test_wrong_schema_raises_corrupt(self, tmp_path, rng) -> None:
        registry = ModelRegistry(tmp_path)
        model_id = registry.save(_random_model(rng, full=False))
        meta_path = registry.models_dir / model_id / "model.json"
        meta = json.loads(meta_path.read_text())
        assert meta["schema"] == SCHEMA_VERSION
        meta["schema"] = "repro.serving/fitted-model/v999"
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(ModelCorruptError, match="schema"):
            registry.load(model_id)

    def test_concurrent_saves_do_not_clobber(self, tmp_path, rng) -> None:
        model = _random_model(rng, full=True)
        registry = ModelRegistry(tmp_path)
        ids: list[str] = []
        errors: list[BaseException] = []

        def save() -> None:
            try:
                ids.append(ModelRegistry(tmp_path).save(model, tags=("latest",)))
            except BaseException as exc:  # noqa: BLE001 - collected
                errors.append(exc)

        threads = [threading.Thread(target=save) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(set(ids)) == 1
        loaded = registry.load("latest")
        assert loaded.fingerprint() == model.fingerprint()


class TestDriverRegistration:
    def test_light_fit_registers_model(self, tmp_path, tiny_dataset) -> None:
        driver = P3CPlusMRLight(
            mr_config=P3CPlusMRConfig(
                num_splits=4, model_registry=str(tmp_path)
            )
        )
        result = driver.fit(tiny_dataset.data)
        assert driver.model_id is not None
        assert driver.fitted_model is not None
        registry = ModelRegistry(tmp_path)
        loaded = registry.load("latest")
        assert loaded.fingerprint() == driver.fitted_model.fingerprint()
        # The serve-time assignment over the training data reproduces
        # the fit's own outlier verdict.
        assigned = loaded.assign(tiny_dataset.data)
        assert set(np.where(assigned.outlier_mask)[0]) == set(
            int(i) for i in result.outliers
        )

    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
    @pytest.mark.parametrize(
        "outlier_method, coreset_size",
        [("mvb", None), ("naive", None), ("mvb", 200)],
        ids=["mvb", "naive", "coreset"],
    )
    def test_full_fit_labels_equal_serving_assign(
        self, tiny_dataset, executor, outlier_method, coreset_size
    ) -> None:
        """The full driver's OD job is the serving scorer, so assigning
        the training data reproduces the fit's label on every row."""
        driver = P3CPlusMR(
            P3CPlusConfig(outlier_method=outlier_method),
            P3CPlusMRConfig(
                num_splits=4,
                executor=executor,
                max_workers=2,
                coreset_size=coreset_size,
            ),
        )
        result = driver.fit(tiny_dataset.data)
        model = driver.fitted_model
        assert result.clusters
        fit_labels = np.full(len(tiny_dataset.data), -1, dtype=np.int64)
        for cluster in result.clusters:
            fit_labels[cluster.members] = model.cores.index(cluster.core)
        served = model.assign(tiny_dataset.data).cluster_ids
        assert np.array_equal(served, fit_labels)


class TestServeAssign:
    def test_serve_assign_end_to_end(self, tmp_path, rng) -> None:
        model = _random_model(rng, full=True)
        registry = ModelRegistry(tmp_path)
        registry.save(model, tags=("latest",))
        batch = _random_batch(rng)
        expected = model.assign(batch)
        with ClusterService(slots=2, registry=str(tmp_path)) as service:
            handle = service.serve_assign("latest", batch, tenant="alice")
            result = handle.result(timeout=30)
            snapshot = service.telemetry_snapshot()
        assert np.array_equal(result["cluster_ids"], expected.cluster_ids)
        assert np.array_equal(result["outlier_mask"], expected.outlier_mask)
        assert np.array_equal(result["scores"], expected.scores, equal_nan=True)
        assert result["n_points"] == len(batch)
        serving = snapshot["serving"]
        assert serving["models_loaded"] == 1
        alice = serving["tenants"]["alice"]
        assert alice["requests_total"] == 1
        assert alice["points_total"] == len(batch)
        assert alice["outliers_total"] == int(expected.outlier_mask.sum())
        assert alice["latency_histogram"]["count"] == 1

    def test_serve_assign_without_registry_fails(self, rng) -> None:
        with ClusterService(slots=1) as service:
            handle = service.serve_assign("latest", np.zeros((2, D)))
            with pytest.raises(RuntimeError, match="no model registry"):
                handle.result(timeout=30)

    def test_serve_assign_inline_model(self, rng) -> None:
        model = _random_model(rng, full=False)
        batch = _random_batch(rng)
        with ClusterService(slots=1) as service:
            handle = service.serve_assign(model, batch, tenant="bob")
            result = handle.result(timeout=30)
        assert result["model_id"] == "inline"
        _assert_bitwise_equal(model.assign(batch), reference_assign(model, batch))
        assert np.array_equal(result["cluster_ids"], model.assign(batch).cluster_ids)

    def test_assign_metrics_render_as_openmetrics(self, tmp_path, rng) -> None:
        model = _random_model(rng, full=False)
        registry = ModelRegistry(tmp_path)
        registry.save(model, tags=("latest",))
        with ClusterService(slots=1, registry=registry) as service:
            service.serve_assign("latest", _random_batch(rng), tenant="alice")
            service.drain(timeout=30)
            sample = service.telemetry_snapshot()
        text = render_openmetrics(sample)
        families = parse_openmetrics(text)
        assert families["repro_assign_requests"]["type"] == "counter"
        tenants = {
            sample[1].get("tenant")
            for sample in families["repro_assign_requests"]["samples"]
        }
        assert "alice" in tenants
        assert families["repro_assign_latency_seconds"]["type"] == "histogram"
        assert families["repro_assign_models_loaded"]["samples"]
