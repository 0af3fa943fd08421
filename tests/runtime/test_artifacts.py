"""Durable plan artifacts: round-trip parity, validation, fallback.

The contract under test (ISSUE 6): an artifact-loaded plan is
bit-identical to a freshly compiled one at float64 and within the
documented tolerance contract at float32; corrupted, truncated and stale
artifacts are rejected — never served — and every rejection falls back to
a clean recompile.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import DyHSL, DyHSLConfig
from repro.runtime import (
    ArtifactError,
    ArtifactStore,
    CompiledModel,
    trace_hash,
    weights_fingerprint,
)
from repro.runtime.artifacts import _decode, _encode
from repro.tensor import is_grad_enabled
from repro.tensor import seed as seed_everything

NUM_NODES = 9


@pytest.fixture(scope="module")
def adjacency() -> np.ndarray:
    rng = np.random.default_rng(21)
    dense = (rng.random((NUM_NODES, NUM_NODES)) < 0.45).astype(float)
    np.fill_diagonal(dense, 0.0)
    return dense


@pytest.fixture()
def model(adjacency) -> DyHSL:
    seed_everything(7)
    config = DyHSLConfig(
        num_nodes=NUM_NODES,
        hidden_dim=8,
        prior_layers=1,
        num_hyperedges=4,
        window_sizes=(1, 3, 12),
        mhce_layers=1,
    )
    return DyHSL(config, adjacency).eval()


@pytest.fixture()
def windows() -> np.ndarray:
    """Three windows: served as a 2-row and a 1-row plan piece."""
    return np.random.default_rng(22).normal(size=(3, 12, NUM_NODES, 1))


@pytest.fixture()
def store(tmp_path) -> ArtifactStore:
    return ArtifactStore(tmp_path / "artifacts")


def _fresh_store(store: ArtifactStore) -> ArtifactStore:
    """A new store over the same directory — simulates a fresh process
    (no in-memory memo, everything must come off disk)."""
    return ArtifactStore(store.root)


# ----------------------------------------------------------------------
# Round-trip parity
# ----------------------------------------------------------------------
class TestRoundTripParity:
    def test_float64_load_is_bit_identical_to_compile(self, model, windows, store):
        compiled = CompiledModel(model, artifact_dir=store)
        reference = compiled(windows)
        assert compiled.cache_info().compiles == 2
        assert compiled.cache_info().artifact_saves == 2

        warm = CompiledModel(model, artifact_dir=_fresh_store(store))
        produced = warm(windows)
        info = warm.cache_info()
        assert info.compiles == 0
        assert info.artifact_loads == 2
        assert info.artifact_rejects == 0
        assert np.array_equal(produced, reference)

    def test_float32_load_matches_compile_and_tolerance_contract(self, model, windows, store):
        compiled = CompiledModel(model, precision="float32", artifact_dir=store)
        reference = compiled(windows)

        warm = CompiledModel(model, precision="float32", artifact_dir=_fresh_store(store))
        produced = warm(windows)
        assert warm.cache_info().compiles == 0
        assert warm.cache_info().artifact_loads == 2
        # Load-vs-recompile replays the identical steps on identical
        # constants, so even the reduced-precision plans agree bit for bit;
        # the documented float32 contract (vs the float64 plan) is looser.
        assert np.array_equal(produced, reference)
        exact = CompiledModel(model)(windows)
        np.testing.assert_allclose(produced, exact, rtol=1e-4, atol=1e-4)

    def test_bucketed_shapes_round_trip(self, model, windows, store):
        compiled = CompiledModel(model, artifact_dir=store)
        # 3 runs as 2 + 1 and 5 as 4 + 1: three plans.
        ragged = [windows, np.concatenate([windows, windows[:2]], axis=0)]
        references = [compiled(batch) for batch in ragged]
        assert compiled.cache_info().compiles == 3

        warm = CompiledModel(model, artifact_dir=_fresh_store(store))
        produced = [warm(batch) for batch in ragged]
        assert warm.cache_info().compiles == 0
        assert warm.cache_info().artifact_loads == 3
        for fresh, loaded in zip(references, produced):
            assert np.array_equal(fresh, loaded)

    def test_loaded_plan_replays_fresh_batches(self, model, windows, store):
        CompiledModel(model, artifact_dir=store)(windows)
        warm = CompiledModel(model, artifact_dir=_fresh_store(store))
        baseline = CompiledModel(model)
        shifted = windows * 1.31 + 0.47
        assert np.array_equal(warm(shifted), baseline(shifted))

    def test_save_artifacts_explicit_path(self, model, windows, tmp_path):
        compiled = CompiledModel(model)
        compiled(windows)
        written = compiled.save_artifacts(tmp_path / "out")
        assert len(written) == 2
        assert all(path.name.endswith(".plan.npz") for path in written)
        warm = CompiledModel(model, artifact_dir=tmp_path / "out")
        assert np.array_equal(warm(windows), compiled(windows))
        assert warm.cache_info().compiles == 0

    def test_save_artifacts_without_store_raises(self, model):
        with pytest.raises(ValueError, match="no artifact store"):
            CompiledModel(model).save_artifacts()


# ----------------------------------------------------------------------
# Validation and fallback
# ----------------------------------------------------------------------
class TestValidationAndFallback:
    def _piece_artifacts(self, store: ArtifactStore):
        """The two artifacts of the 3-window batch: its 2-row and 1-row pieces."""
        keys = store.keys()
        assert len(keys) == 2
        return [store.path_for(key) for key in keys]

    def test_corrupted_artifact_rejected_with_recompile(self, model, windows, store):
        reference = CompiledModel(model, artifact_dir=store)(windows)
        for path in self._piece_artifacts(store):
            blob = bytearray(path.read_bytes())
            blob[len(blob) // 2] ^= 0xFF
            path.write_bytes(bytes(blob))

        warm = CompiledModel(model, artifact_dir=_fresh_store(store))
        produced = warm(windows)
        info = warm.cache_info()
        assert info.artifact_rejects == 2
        assert info.artifact_loads == 0
        assert info.compiles == 2
        assert np.array_equal(produced, reference)

    def test_truncated_artifact_rejected_with_recompile(self, model, windows, store):
        reference = CompiledModel(model, artifact_dir=store)(windows)
        for path in self._piece_artifacts(store):
            blob = path.read_bytes()
            path.write_bytes(blob[: len(blob) // 3])

        warm = CompiledModel(model, artifact_dir=_fresh_store(store))
        produced = warm(windows)
        assert warm.cache_info().artifact_rejects == 2
        assert warm.cache_info().compiles == 2
        assert np.array_equal(produced, reference)

    def test_stale_weights_never_served(self, model, windows, store):
        compiled = CompiledModel(model, artifact_dir=store)
        compiled(windows)
        # Mutate a parameter: the artifact on disk now describes old weights.
        parameter = next(iter(model.parameters()))
        parameter.data += 0.25
        compiled.recompile()

        warm = CompiledModel(model, artifact_dir=_fresh_store(store))
        produced = warm(windows)
        info = warm.cache_info()
        # The stale artifact has a different trace hash, so it is a MISS
        # (not even opened), and the fresh compiles match autograd.
        assert info.compiles == 2
        assert info.artifact_loads == 0
        assert np.array_equal(produced, CompiledModel(model)(windows))

    def test_renamed_artifact_fails_trace_hash_echo(self, model, windows, store):
        compiled = CompiledModel(model, artifact_dir=store)
        compiled(windows)
        path = self._piece_artifacts(store)[0]
        wrong_key = "0" * 64
        path.rename(store.path_for(wrong_key))

        fresh = _fresh_store(store)
        with pytest.raises(ArtifactError, match="declares trace hash"):
            fresh.load(wrong_key)
        assert fresh.stats().rejects == 1

    def test_wrong_format_version_rejected(self, model, windows, store, monkeypatch):
        import repro.runtime.artifacts as artifacts_module

        reference = CompiledModel(model, artifact_dir=store)(windows)
        key = store.keys()[0]
        spec, values, _ = _fresh_store(store).load(key)
        constants = {slot: values[slot] for slot in spec.const_slots}
        # Rewrite the artifact under its current key the way the previous
        # layout version wrote it: a stale file a new build must not bind.
        with monkeypatch.context() as patch:
            patch.setattr(
                artifacts_module,
                "ARTIFACT_FORMAT_VERSION",
                artifacts_module.ARTIFACT_FORMAT_VERSION - 1,
            )
            _fresh_store(store).save(key, spec, constants)
        with pytest.raises(ArtifactError, match="format"):
            _fresh_store(store).load(key)

        warm = CompiledModel(model, artifact_dir=_fresh_store(store))
        produced = warm(windows)
        info = warm.cache_info()
        # Only the rewritten piece is rejected; the other piece still binds.
        assert info.artifact_rejects == 1
        assert info.artifact_loads == 1 and info.compiles == 1
        assert np.array_equal(produced, reference)

    def test_format_4_store_is_rejected_and_recompiled(self, model, windows, store, monkeypatch):
        """A store written before byte-offset layouts (format 4: storage ids
        into exact-size ``storage_sizes``) is rejected, counted and
        recompiled; it is never bound."""
        import json

        import repro.runtime.artifacts as artifacts_module

        assert artifacts_module.ARTIFACT_FORMAT_VERSION == 5
        reference = CompiledModel(model, artifact_dir=store)(windows)
        spec_to_payload = artifacts_module._spec_to_payload

        def format_4(spec):
            blob, arrays = spec_to_payload(spec)
            document = json.loads(blob)
            offsets = sorted({step["storage"] for step in document["steps"]} - {None})
            del document["workspace_nbytes"]
            document["storage_sizes"] = [64] * len(offsets)
            for step in document["steps"]:
                if step["storage"] is not None:
                    step["storage"] = offsets.index(step["storage"])
            return json.dumps(document, sort_keys=True).encode("utf-8"), arrays

        for key in store.keys():
            spec, values, _ = _fresh_store(store).load(key)
            constants = {slot: values[slot] for slot in spec.const_slots}
            with monkeypatch.context() as patch:
                patch.setattr(artifacts_module, "ARTIFACT_FORMAT_VERSION", 4)
                patch.setattr(artifacts_module, "_spec_to_payload", format_4)
                _fresh_store(store).save(key, spec, constants)

        warm = CompiledModel(model, artifact_dir=_fresh_store(store))
        produced = warm(windows)
        info = warm.cache_info()
        assert info.artifact_rejects == 2
        assert info.artifact_loads == 0 and info.compiles == 2
        assert np.array_equal(produced, reference)

    def test_parity_spot_check_rejects_tampered_constants(self, model, windows, store):
        compiled = CompiledModel(model, artifact_dir=store)
        reference = compiled(windows)
        key = store.keys()[0]
        # Rebuild the artifact with one constant poisoned, keeping the
        # checksum consistent — only the parity spot check can catch this.
        spec, values, _ = _fresh_store(store).load(key)
        constants = {slot: values[slot] for slot in spec.const_slots}
        victim = max(constants, key=lambda slot: constants[slot].size)
        constants[victim] = constants[victim] + 1.0
        poisoned = _fresh_store(store)
        poisoned.save(key, spec, constants)

        warm = CompiledModel(model, artifact_dir=_fresh_store(store))
        produced = warm(windows)
        info = warm.cache_info()
        assert info.artifact_rejects == 1
        assert info.compiles == 1
        assert np.array_equal(produced, reference)

    def test_parity_spot_check_builds_no_graph(self, model, windows, store):
        """The check's autograd forward runs under ``no_grad`` even when
        the caller has gradients enabled (a serving thread's default)."""
        CompiledModel(model, artifact_dir=store)(windows[:1])
        modes = []
        forward = model.forward
        model.forward = lambda x: modes.append(is_grad_enabled()) or forward(x)
        assert is_grad_enabled()
        warm = CompiledModel(model, artifact_dir=_fresh_store(store))
        warm(windows[:1])
        assert warm.cache_info().artifact_loads == 1
        assert modes == [False]

    def test_missing_artifact_is_a_miss_not_a_reject(self, model, windows, store):
        compiled = CompiledModel(model, artifact_dir=store)
        compiled(windows)
        info = compiled.cache_info()
        assert info.artifact_rejects == 0
        assert store.stats().misses == 2  # the pre-compile probe of each piece


# ----------------------------------------------------------------------
# Store mechanics
# ----------------------------------------------------------------------
class TestArtifactStore:
    def test_memo_shared_across_models(self, model, windows, store):
        first = CompiledModel(model, artifact_dir=store)
        first(windows)
        second = CompiledModel(model, artifact_dir=store)
        produced = second(windows)
        # The second model never touched the disk: the store's memo
        # (populated by the first model's write-through) served the spec.
        assert second.cache_info().artifact_loads == 2
        assert store.stats().memo_hits == 2
        assert np.array_equal(produced, first(windows))

    def test_readonly_store_never_writes(self, model, windows, tmp_path):
        readonly = ArtifactStore(tmp_path / "ro", readonly=True)
        compiled = CompiledModel(model, artifact_dir=readonly)
        compiled(windows)
        assert not (tmp_path / "ro").exists() or not readonly.keys()
        # The memo still primes sibling workers sharing the object.
        sibling = CompiledModel(model, artifact_dir=readonly)
        sibling(windows)
        assert sibling.cache_info().artifact_loads == 2

    def test_contains_and_keys(self, model, windows, store):
        compiled = CompiledModel(model, artifact_dir=store)
        compiled(windows)
        keys = store.keys()
        assert len(keys) == 2
        assert keys[0] in store
        assert "f" * 64 not in store

    def test_weights_fingerprint_tracks_content(self, model):
        before = weights_fingerprint(model)
        assert before == weights_fingerprint(model)
        parameter = next(iter(model.parameters()))
        parameter.data += 1.0
        assert weights_fingerprint(model) != before

    def test_trace_hash_varies_by_every_key_component(self, model):
        reference = trace_hash(model, (3, 12, NUM_NODES, 1), np.float64)
        assert trace_hash(model, (3, 12, NUM_NODES, 1), np.float64) == reference
        variants = [
            trace_hash(model, (4, 12, NUM_NODES, 1), np.float64),
            trace_hash(model, (3, 12, NUM_NODES, 1), np.float32),
            trace_hash(model, (3, 12, NUM_NODES, 1), np.float64, weights="0" * 64),
        ]
        assert len({reference, *variants}) == len(variants) + 1


# ----------------------------------------------------------------------
# Kwargs encoding
# ----------------------------------------------------------------------
class TestKwargsEncoding:
    def test_scalars_tuples_slices_round_trip(self):
        arrays = {}
        value = {
            "axis": (0, 2),
            "shape": [1, None, 3],
            "index": (slice(1, None, 2), Ellipsis, 4),
            "flag": True,
            "scale": np.float32(1.5),
            "count": np.int64(7),
        }
        decoded = _decode(_encode(value, arrays), arrays)
        assert decoded["axis"] == (0, 2)
        assert decoded["shape"] == [1, None, 3]
        assert decoded["index"] == (slice(1, None, 2), Ellipsis, 4)
        assert decoded["flag"] is True
        assert isinstance(decoded["scale"], np.float32) and decoded["scale"] == np.float32(1.5)
        assert isinstance(decoded["count"], np.int64) and decoded["count"] == 7
        assert not arrays

    def test_ndarray_and_sparse_round_trip(self):
        from repro.graph.sparse import SparseMatrix

        rng = np.random.default_rng(5)
        mask = rng.random((4, 5)) < 0.5
        dense = rng.random((6, 6)) * (rng.random((6, 6)) < 0.4)
        arrays = {}
        encoded = _encode({"condition": mask, "matrix": SparseMatrix(dense)}, arrays)
        decoded = _decode(encoded, arrays)
        assert np.array_equal(decoded["condition"], mask)
        assert np.array_equal(decoded["matrix"].to_dense(), SparseMatrix(dense).to_dense())
        assert len(arrays) == 4  # mask + CSR data/indices/indptr

    def test_unsupported_type_raises(self):
        with pytest.raises(ArtifactError, match="not serialisable"):
            _encode({"bad": object()}, {})
