"""Tests for the online serving subsystem (:mod:`repro.serving`)."""

import io
import json
import sys
import threading
import time

import numpy as np
import pytest

from repro.serving import (
    EmbeddingStore,
    FaultAnalysisService,
    MetricsRegistry,
    MicroBatcher,
    PersistentProvider,
    ServiceConfig,
    ServingError,
)
from repro.index import VectorIndex
from repro.netserve import handle_request, serve_loop
from repro.serving.metrics import Histogram
from repro.service import RandomProvider


class CountingProvider(RandomProvider):
    """Call-count probe: records every forward pass the encoder performs."""

    def __init__(self, dim=8, seed=0, delay_s=0.0):
        super().__init__(dim=dim, seed=seed)
        self.calls = 0
        self.batches: list[list[str]] = []
        self.delay_s = delay_s
        self._count_lock = threading.Lock()

    def encode_names(self, names):
        with self._count_lock:
            self.calls += 1
            self.batches.append(list(names))
        if self.delay_s:
            time.sleep(self.delay_s)
        return super().encode_names(names)


class FailingProvider(RandomProvider):
    """Raises for the first ``failures`` calls, then succeeds."""

    label = "Failing"

    def __init__(self, dim=8, failures=10**9):
        super().__init__(dim=dim, seed=0)
        self.failures = failures
        self.calls = 0

    def encode_names(self, names):
        self.calls += 1
        if self.calls <= self.failures:
            raise RuntimeError("primary encoder down")
        return super().encode_names(names)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
class TestMetrics:
    def test_counter_and_gauge(self):
        registry = MetricsRegistry()
        registry.counter("requests").inc()
        registry.counter("requests").inc(4)
        registry.gauge("depth").set(7)
        snap = registry.snapshot()
        assert snap["counters"]["requests"] == 5
        assert snap["gauges"]["depth"] == 7.0
        with pytest.raises(ValueError):
            registry.counter("requests").inc(-1)

    def test_gauge_add_moves_both_directions(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("hung_threads")
        gauge.add(3)
        gauge.add(-2)
        assert registry.snapshot()["gauges"]["hung_threads"] == 1.0
        gauge.add(-5)   # gauges, unlike counters, may go negative
        assert registry.snapshot()["gauges"]["hung_threads"] == -4.0

    def test_percentile_math(self):
        histogram = Histogram("latency")
        for value in range(1, 101):
            histogram.observe(float(value))
        # numpy.percentile linear-interpolation convention.
        assert histogram.percentile(50) == pytest.approx(50.5)
        assert histogram.percentile(95) == pytest.approx(95.05)
        assert histogram.percentile(99) == pytest.approx(99.01)
        assert histogram.percentile(0) == 1.0
        assert histogram.percentile(100) == 100.0
        assert histogram.mean == pytest.approx(50.5)

    def test_percentiles_match_numpy_on_random_data(self):
        rng = np.random.default_rng(3)
        values = rng.exponential(size=257)
        histogram = Histogram("latency")
        for value in values:
            histogram.observe(value)
        for q in (50, 95, 99):
            assert histogram.percentile(q) == pytest.approx(
                np.percentile(values, q))

    def test_window_ages_out_old_samples(self):
        histogram = Histogram("latency", window=4)
        for value in (100.0, 100.0, 100.0, 100.0, 1.0, 1.0, 1.0, 1.0):
            histogram.observe(value)
        assert histogram.percentile(50) == 1.0   # window holds only 1.0s
        assert histogram.count == 8              # lifetime count preserved

    def test_empty_histogram(self):
        histogram = Histogram("latency")
        assert histogram.percentile(95) == 0.0
        assert histogram.mean == 0.0

    def test_timer_and_render(self):
        registry = MetricsRegistry()
        with registry.time("op"):
            pass
        text = registry.render()
        assert "histogram op" in text and "p95" in text

    def test_events_bounded_and_sunk(self):
        lines = []
        registry = MetricsRegistry(event_capacity=3, sink=lines.append)
        for i in range(5):
            registry.emit("tick", i=i)
        assert len(registry.events) == 3
        assert registry.events[-1]["i"] == 4
        assert len(lines) == 5
        assert json.loads(lines[0])["kind"] == "tick"


# ----------------------------------------------------------------------
# Cached provider: PersistentProvider over a memory-only store
# ----------------------------------------------------------------------
class TestCachedProvider:
    @pytest.mark.timeout(30)
    def test_concurrent_encodes_are_consistent(self):
        inner = CountingProvider(dim=4)
        store = EmbeddingStore(None)
        provider = PersistentProvider(inner, store)
        errors = []

        def worker():
            try:
                for _ in range(20):
                    out = provider.encode_names(["x", "y", "x"])
                    assert np.allclose(out[0], out[2])
            except Exception as error:  # pragma: no cover
                errors.append(error)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)     # force interleavings
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        # Concurrent cold misses may duplicate work (last-write-wins, so a
        # hung encode can never block an independent caller), but once the
        # cache settles every further iteration is a pure hit: the call
        # count is bounded by the number of racing threads, not 8 * 20.
        assert 1 <= inner.calls <= 8
        assert len(store) == 2
        settled = provider.encode_names(["x", "y"])
        assert np.array_equal(provider.encode_names(["x", "y"]), settled)


# ----------------------------------------------------------------------
# Memory-only store: the bounded cache behind a service without store_dir
# ----------------------------------------------------------------------
class TestMemoryOnlyStore:
    def test_no_log_file_and_compact_reports_lru(self, tmp_path,
                                                 monkeypatch):
        monkeypatch.chdir(tmp_path)
        store = EmbeddingStore(None, lru_capacity=2)
        store.put_many({f"n{i}": np.full(2, float(i)) for i in range(3)})
        assert list(tmp_path.iterdir()) == []
        assert store.path is None and store.directory is None
        assert store.get("n0") is None                 # evicted, no disk
        assert np.allclose(store.get("n2"), 2.0)
        assert store.compact() == 2
        assert store.stats()["disk_entries"] == 0

    def test_service_cache_stats_read_from_store(self):
        with FaultAnalysisService(RandomProvider(dim=4, seed=0),
                                  config=_fast_config()) as service:
            service.embed(["a", "b"])
            service.embed(["a", "b"])
            stats = service.stats()
        assert stats["cache"] == {"hits": 2, "misses": 2, "hit_rate": 0.5}
        assert stats["store"]["memory_entries"] == 2

    def test_service_without_store_dir_is_bounded(self):
        with FaultAnalysisService(
                RandomProvider(dim=4, seed=0),
                config=ServiceConfig(lru_capacity=8, max_wait_ms=1)
        ) as service:
            first = service.embed(["name-0"])
            for i in range(500):
                service.embed([f"name-{i}"])
            assert service.store.stats()["memory_entries"] <= 8
            assert "name-0" not in service.store            # evicted
            again = service.embed(["name-0"])
            assert again.dtype == first.dtype == np.float64
            assert np.array_equal(again, first)

    def test_service_without_store_dir_leaves_index_untouched(
            self, tmp_path):
        provider = RandomProvider(dim=4, seed=0)
        index = VectorIndex(tmp_path / "idx", fingerprint="unversioned")
        index.build({"a": provider.encode_names(["a"])[0]})
        generation = index.stats()["generation"]
        with FaultAnalysisService(provider, config=_fast_config(),
                                  index=index):
            assert index.stats()["generation"] == generation
        empty = VectorIndex(tmp_path / "empty", fingerprint="unversioned")
        generation = empty.stats()["generation"]
        with FaultAnalysisService(provider, config=_fast_config(),
                                  index=empty):
            assert empty.stats()["generation"] == generation


# ----------------------------------------------------------------------
# Micro-batcher
# ----------------------------------------------------------------------
class TestMicroBatcher:
    def test_flush_on_size(self):
        provider = CountingProvider(dim=4)
        # Deadline far away: only the size trigger can flush.
        with MicroBatcher(provider, max_batch_size=4,
                          max_wait_ms=60_000) as batcher:
            names = ["n0", "n1", "n2", "n3"]
            out = batcher.encode(names)
            assert out.shape == (4, 4)
            assert provider.calls == 1
            assert sorted(provider.batches[0]) == names

    def test_flush_on_timeout(self):
        provider = CountingProvider(dim=4)
        with MicroBatcher(provider, max_batch_size=1000,
                          max_wait_ms=20) as batcher:
            start = time.monotonic()
            out = batcher.encode(["solo"])
            elapsed = time.monotonic() - start
            assert out.shape == (1, 4)
            assert provider.calls == 1
        assert elapsed < 5.0  # deadline fired; did not wait for batch fill

    def test_concurrent_singles_coalesce(self):
        """≥4 concurrent single-name requests land in ≤2 provider batches."""
        provider = CountingProvider(dim=4, delay_s=0.05)
        results = {}
        barrier = threading.Barrier(4)
        with MicroBatcher(provider, max_batch_size=16,
                          max_wait_ms=100) as batcher:

            def worker(name):
                barrier.wait()
                results[name] = batcher.encode([name])

            threads = [threading.Thread(target=worker, args=(f"name-{i}",))
                       for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert len(results) == 4
        assert provider.calls <= 2
        assert sum(len(b) for b in provider.batches) == 4

    def test_cross_request_dedup(self):
        """Concurrent requests for one name share a single encode."""
        provider = CountingProvider(dim=4, delay_s=0.05)
        outputs = []
        barrier = threading.Barrier(6)
        with MicroBatcher(provider, max_batch_size=16,
                          max_wait_ms=100) as batcher:

            def worker():
                barrier.wait()
                outputs.append(batcher.encode(["shared name"]))

            threads = [threading.Thread(target=worker) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        total_encoded = sum(len(batch) for batch in provider.batches)
        assert total_encoded == 1          # the name crossed the wire once
        assert len(outputs) == 6
        for out in outputs[1:]:
            assert np.allclose(out, outputs[0])

    def test_duplicate_names_within_one_request(self):
        provider = CountingProvider(dim=4)
        with MicroBatcher(provider, max_batch_size=2,
                          max_wait_ms=10) as batcher:
            out = batcher.encode(["a", "a", "b"])
            assert out.shape == (3, 4)
            assert np.allclose(out[0], out[1])

    def test_provider_error_propagates(self):
        with MicroBatcher(FailingProvider(dim=4), max_batch_size=2,
                          max_wait_ms=5) as batcher:
            with pytest.raises(RuntimeError, match="primary encoder down"):
                batcher.encode(["a", "b"])
            # The worker survives a failed flush.
            with pytest.raises(RuntimeError):
                batcher.encode(["c"])

    def test_close_rejects_new_work(self):
        batcher = MicroBatcher(CountingProvider(dim=4), max_wait_ms=5)
        batcher.close()
        with pytest.raises(RuntimeError):
            batcher.encode(["late"])

    def test_empty_request(self):
        with MicroBatcher(CountingProvider(dim=4)) as batcher:
            assert batcher.encode([]).shape == (0, 4)


# ----------------------------------------------------------------------
# Persistent embedding store
# ----------------------------------------------------------------------
class TestEmbeddingStore:
    def test_roundtrip_and_counters(self, tmp_path):
        store = EmbeddingStore(tmp_path, fingerprint="f1", label="P",
                               mode="name")
        assert store.get("a") is None
        store.put_many({"a": np.arange(3.0)})
        assert np.allclose(store.get("a"), [0, 1, 2])
        stats = store.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert "a" in store and len(store) == 1

    def test_survives_process_restart(self, tmp_path):
        first = EmbeddingStore(tmp_path, fingerprint="f1")
        first.put_many({"a": np.ones(4), "b": np.zeros(4)})
        # A fresh instance (new process) reads the same log.
        second = EmbeddingStore(tmp_path, fingerprint="f1")
        assert np.allclose(second.get("a"), 1.0)
        assert second.stats()["disk_entries"] == 2

    def test_fingerprint_change_invalidates(self, tmp_path):
        old = EmbeddingStore(tmp_path, fingerprint="ckpt-v1")
        old.put_many({"a": np.ones(4)})
        fresh = EmbeddingStore(tmp_path, fingerprint="ckpt-v2")
        assert fresh.get("a") is None          # old vectors invisible
        fresh.put_many({"a": np.full(4, 2.0)})
        assert np.allclose(fresh.get("a"), 2.0)
        # The old namespace still answers under its own fingerprint.
        assert np.allclose(EmbeddingStore(tmp_path,
                                          fingerprint="ckpt-v1").get("a"), 1.0)

    def test_newest_record_wins(self, tmp_path):
        store = EmbeddingStore(tmp_path, fingerprint="f1")
        store.put_many({"a": np.zeros(2)})
        store.put_many({"a": np.ones(2)})
        reloaded = EmbeddingStore(tmp_path, fingerprint="f1")
        assert np.allclose(reloaded.get("a"), 1.0)

    def test_compact_drops_stale_namespaces(self, tmp_path):
        EmbeddingStore(tmp_path, fingerprint="old").put_many(
            {f"n{i}": np.ones(2) for i in range(5)})
        live = EmbeddingStore(tmp_path, fingerprint="new")
        live.put_many({"keep": np.zeros(2)})
        assert live.compact() == 1
        # Only the live record remains in the log.
        lines = (tmp_path / "embeddings.jsonl").read_text().splitlines()
        assert len(lines) == 1
        assert np.allclose(live.get("keep"), 0.0)

    def test_lru_eviction_falls_back_to_disk(self, tmp_path):
        store = EmbeddingStore(tmp_path, fingerprint="f1", lru_capacity=2)
        store.put_many({f"n{i}": np.full(2, float(i)) for i in range(5)})
        assert store.stats()["memory_entries"] == 2
        assert np.allclose(store.get("n0"), 0.0)   # served from disk tier
        assert store.stats()["memory_entries"] == 2

    def test_torn_trailing_line_is_skipped(self, tmp_path):
        store = EmbeddingStore(tmp_path, fingerprint="f1")
        store.put_many({"a": np.ones(2)})
        with open(tmp_path / "embeddings.jsonl", "ab") as handle:
            handle.write(b'{"v": "f1", "p": "provider", "m": "na')  # torn
        survivor = EmbeddingStore(tmp_path, fingerprint="f1")
        assert np.allclose(survivor.get("a"), 1.0)
        survivor.put_many({"b": np.zeros(2)})
        assert np.allclose(EmbeddingStore(tmp_path,
                                          fingerprint="f1").get("b"), 0.0)


class TestPersistentProvider:
    def test_warm_store_zero_forward_passes(self, tmp_path):
        """Acceptance: 200 warm names → zero provider forward passes."""
        names = [f"alarm {i}" for i in range(200)]
        cold_inner = CountingProvider(dim=8)
        cold = PersistentProvider(
            cold_inner, EmbeddingStore(tmp_path, fingerprint="f1"))
        first = cold.encode_names(names)
        assert cold_inner.calls == 1

        # Fresh provider + fresh store instance = a new process.
        warm_inner = CountingProvider(dim=8)
        warm = PersistentProvider(
            warm_inner, EmbeddingStore(tmp_path, fingerprint="f1"))
        second = warm.encode_names(names)
        assert warm_inner.calls == 0               # zero forward passes
        assert np.allclose(first, second)
        assert warm.stats()["hits"] == 200

    def test_refingerprinted_store_reencodes(self, tmp_path):
        names = ["a", "b"]
        PersistentProvider(CountingProvider(dim=4),
                           EmbeddingStore(tmp_path, fingerprint="v1")
                           ).encode_names(names)
        retrained = CountingProvider(dim=4, seed=9)
        provider = PersistentProvider(
            retrained, EmbeddingStore(tmp_path, fingerprint="v2"))
        provider.encode_names(names)
        assert retrained.calls == 1                # invalidation re-encodes


class TestStoreRegressions:
    """Regression pins for the three store bugfixes in this PR."""

    def test_get_many_opens_the_log_once(self, tmp_path, monkeypatch):
        store = EmbeddingStore(tmp_path, fingerprint="f1", lru_capacity=1)
        names = [f"n{i}" for i in range(60)]
        store.put_many({n: np.full(3, float(i))
                        for i, n in enumerate(names)})
        assert store.stats()["memory_entries"] == 1  # 59 are disk-only

        opens = []
        real_open = open

        def counting_open(file, *args, **kwargs):
            if str(file) == str(store.path):
                opens.append(file)
            return real_open(file, *args, **kwargs)

        import builtins
        monkeypatch.setattr(builtins, "open", counting_open)
        found = store.get_many(names)
        assert len(found) == 60
        assert len(opens) == 1                     # one handle per batch
        for i, name in enumerate(names):
            assert np.allclose(found[name], float(i))

    def test_wrong_shape_provider_is_refused_and_not_persisted(
            self, tmp_path):
        from repro.serving import ProviderShapeError

        class ShortProvider(RandomProvider):
            def encode_names(self, names):
                return super().encode_names(names)[:-1]   # drops a row

        store = EmbeddingStore(tmp_path, fingerprint="f1")
        provider = PersistentProvider(ShortProvider(dim=4), store)
        with pytest.raises(ProviderShapeError):
            provider.encode_names(["a", "b", "c"])
        # Nothing half-zipped reached the store.
        assert len(store) == 0

    def test_compact_repersists_lru_only_names(self, tmp_path):
        store = EmbeddingStore(tmp_path, fingerprint="f1", lru_capacity=2)
        store.put_many({"a": np.zeros(2)})
        store.put_many({"b": np.ones(2)})
        store.put_many({"c": np.full(2, 2.0)})     # LRU now holds b, c
        # Tear c's trailing disk record; its only good copy is the LRU.
        raw = (tmp_path / "embeddings.jsonl").read_bytes()
        torn = raw[:raw.rstrip(b"\n").rfind(b"\n") + 1] + b'{"v": "f1'
        (tmp_path / "embeddings.jsonl").write_bytes(torn)

        assert store.compact() == 3
        reloaded = EmbeddingStore(tmp_path, fingerprint="f1")
        assert np.allclose(reloaded.get("a"), 0.0)  # streamed from disk
        assert np.allclose(reloaded.get("c"), 2.0)  # re-persisted from LRU
        lines = (tmp_path / "embeddings.jsonl").read_text().splitlines()
        assert len(lines) == 3

    def test_failed_compact_leaves_original_log(self, tmp_path,
                                                monkeypatch):
        store = EmbeddingStore(tmp_path, fingerprint="f1", lru_capacity=2)
        store.put_many({f"n{i}": np.full(2, float(i)) for i in range(5)})
        before = (tmp_path / "embeddings.jsonl").read_bytes()

        def boom(handle, offset):
            raise RuntimeError("disk died mid-compaction")

        monkeypatch.setattr(EmbeddingStore, "_decode_at",
                            staticmethod(boom))
        with pytest.raises(RuntimeError):
            store.compact()
        monkeypatch.undo()
        # temp+fsync+rename: the aborted rewrite never replaced the log.
        assert (tmp_path / "embeddings.jsonl").read_bytes() == before
        reloaded = EmbeddingStore(tmp_path, fingerprint="f1")
        assert np.allclose(reloaded.get("n0"), 0.0)

    def test_len_and_stats_count_tier_union(self, tmp_path):
        store = EmbeddingStore(tmp_path, fingerprint="f1", lru_capacity=2)
        store.put_many({f"n{i}": np.full(2, float(i)) for i in range(5)})
        stats = store.stats()
        # n3/n4 live in BOTH tiers; the union must not double-count them.
        assert stats["memory_entries"] == 2
        assert stats["disk_entries"] == 5
        assert stats["entries"] == 5
        assert len(store) == 5
        assert store.names() == sorted(f"n{i}" for i in range(5))


# ----------------------------------------------------------------------
# Façade: timeout / retry / fallback / stats
# ----------------------------------------------------------------------
def _fast_config(**overrides):
    defaults = dict(max_batch_size=8, max_wait_ms=2, timeout_s=5.0,
                    max_retries=1, backoff_s=0.001)
    defaults.update(overrides)
    return ServiceConfig(**defaults)


class TestFaultAnalysisService:
    def test_embed_batches_and_counts(self):
        with FaultAnalysisService(CountingProvider(dim=8),
                                  config=_fast_config()) as service:
            out = service.embed(["a", "b"])
            assert out.shape == (2, 8)
            service.embed(["a"])
            stats = service.stats()
            assert stats["requests"] == 2
            assert stats["cache"]["hits"] == 1
            assert stats["latency"]["count"] == 2
            assert stats["latency"]["p95"] >= stats["latency"]["p50"] >= 0.0

    def test_retry_then_success(self):
        provider = FailingProvider(dim=8, failures=1)
        with FaultAnalysisService(provider,
                                  config=_fast_config()) as service:
            out = service.embed(["a"])
            assert out.shape == (1, 8)
            assert provider.calls == 2
            assert service.metrics.counter("serving.retries").value == 1

    def test_fallback_after_exhausted_retries(self):
        fallback = CountingProvider(dim=8, seed=1)
        fallback.label = "Random"  # same label, different instance
        with FaultAnalysisService(FailingProvider(dim=8),
                                  fallback=fallback,
                                  config=_fast_config()) as service:
            out = service.embed(["a", "b"])
            assert out.shape == (2, 8)
            assert fallback.calls == 1
            assert service.metrics.counter("serving.fallbacks").value == 1
            kinds = [e["kind"] for e in service.metrics.events]
            assert "fallback" in kinds and "error" in kinds

    def test_raises_without_fallback(self):
        with FaultAnalysisService(FailingProvider(dim=8),
                                  config=_fast_config()) as service:
            with pytest.raises(ServingError):
                service.embed(["a"])

    def test_timeout_degrades_to_fallback(self):
        slow = CountingProvider(dim=8, delay_s=0.5)
        fallback = CountingProvider(dim=8, seed=1)
        config = _fast_config(timeout_s=0.05, max_retries=0)
        with FaultAnalysisService(slow, fallback=fallback,
                                  config=config) as service:
            out = service.embed(["a"])
            assert out.shape == (1, 8)
            assert fallback.calls == 1
            assert service.metrics.counter("serving.timeouts").value == 1

    def test_fallback_dim_mismatch_rejected(self):
        with pytest.raises(ValueError):
            FaultAnalysisService(RandomProvider(dim=8, seed=0),
                                 fallback=RandomProvider(dim=4, seed=0))

    def test_persistent_store_integration(self, tmp_path):
        names = [f"n{i}" for i in range(20)]
        with FaultAnalysisService(CountingProvider(dim=8),
                                  config=_fast_config(),
                                  store_dir=tmp_path,
                                  fingerprint="f1") as service:
            service.embed(names)
        inner = CountingProvider(dim=8)
        with FaultAnalysisService(inner, config=_fast_config(),
                                  store_dir=tmp_path,
                                  fingerprint="f1") as service:
            service.embed(names)
            assert inner.calls == 0
            assert service.stats()["store"]["disk_entries"] == 20


# ----------------------------------------------------------------------
# Task façade + JSON-lines server over a tiny world
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def tiny_service():
    from repro.kg import build_tele_kg  # noqa: F401 — world sanity import
    from repro.tasks.eap import EapAdapter, build_eap_dataset
    from repro.tasks.fct import FctAdapter, build_fct_dataset
    from repro.tasks.rca import RcaAdapter, build_rca_dataset
    from repro.world import TelecomWorld

    world = TelecomWorld.generate(seed=11, alarms_per_theme=2,
                                  kpis_per_theme=2, topology_nodes=6)
    episodes = world.simulate_episodes(30)
    rca = RcaAdapter(build_rca_dataset(world, episodes), epochs=2)
    eap = EapAdapter(build_eap_dataset(world, episodes), epochs=2)
    fct = FctAdapter(build_fct_dataset(world, episodes), epochs=3)
    service = FaultAnalysisService(
        RandomProvider(dim=16, seed=0), config=_fast_config(),
        rca=rca, eap=eap, fct=fct)
    yield service, world, rca, eap, fct
    service.close()

class TestFaultAnalysisFacade:
    def test_rank_root_causes(self, tiny_service):
        service, world, rca, _, _ = tiny_service
        state = rca.dataset.states[0]
        ranking = service.rank_root_causes(state)
        assert sorted(n for n, _ in ranking) == sorted(state.node_names)
        scores = [score for _, score in ranking]
        assert scores == sorted(scores, reverse=True)
        top2 = service.rank_root_causes(state, top_k=2)
        assert top2 == ranking[:2]

    def test_propagate_alarms(self, tiny_service):
        service, _, _, eap, _ = tiny_service
        pairs = eap.dataset.pairs[:3]
        verdicts = service.propagate_alarms(pairs)
        assert len(verdicts) == 3
        for verdict in verdicts:
            assert 0.0 <= verdict["confidence"] <= 1.0
            assert isinstance(verdict["triggers"], bool)

    def test_classify_fault(self, tiny_service):
        service, _, _, _, fct = tiny_service
        alarm = fct.dataset.entity_names[0]
        hops = service.classify_fault(alarm, top_k=3)
        assert 1 <= len(hops) <= 3
        scores = [h["score"] for h in hops]
        assert scores == sorted(scores, reverse=True)
        assert all(h["alarm"] != alarm for h in hops)
        with pytest.raises(ServingError):
            service.classify_fault("no such alarm")

    def test_adapters_fit_once(self, tiny_service):
        service, _, rca, _, _ = tiny_service
        assert rca.fitted
        before = service.metrics.histogram("serving.fit.rca").count
        service.rank_root_causes(rca.dataset.states[0])
        assert service.metrics.histogram("serving.fit.rca").count == before

    def test_state_for_inference(self, tiny_service):
        from repro.tasks.rca import state_for_inference
        service, _, rca, _, _ = tiny_service
        labelled = rca.dataset.states[0]
        state = state_for_inference(labelled.node_names, labelled.adjacency,
                                    labelled.features)
        ranking = service.rank_root_causes(state)
        assert len(ranking) == labelled.num_nodes


class TestServerLoop:
    def test_serve_loop_roundtrip(self):
        with FaultAnalysisService(RandomProvider(dim=4, seed=0),
                                  config=_fast_config()) as service:
            requests = "\n".join([
                json.dumps({"op": "ping"}),
                json.dumps({"op": "embed", "names": ["a", "b"]}),
                "",                                   # blank lines skipped
                json.dumps({"op": "embed", "names": ["a"]}),
                json.dumps({"op": "stats"}),
                "not json",
                json.dumps({"op": "embed", "names": []}),
            ])
            output = io.StringIO()
            served = serve_loop(service, io.StringIO(requests), output)
            responses = [json.loads(line)
                         for line in output.getvalue().splitlines()]
        assert served == 6
        assert responses[0] == {"ok": True, "op": "ping"}
        assert len(responses[1]["embeddings"]) == 2
        # Same name, same vector across requests (cache coherent).
        assert responses[2]["embeddings"][0] == responses[1]["embeddings"][0]
        stats = responses[3]
        assert stats["requests"] == 2 and stats["cache"]["hits"] == 1
        assert stats["latency"]["count"] == 2
        assert not responses[4]["ok"] and not responses[5]["ok"]

    def test_handle_request_rejects_bad_shapes(self):
        with FaultAnalysisService(RandomProvider(dim=4, seed=0),
                                  config=_fast_config()) as service:
            for bad in ({"op": "embed", "names": "a"},
                        {"op": "embed", "names": [1]},
                        {"op": "classify_fault"},
                        {"op": "nope"}, {}):
                with pytest.raises(ValueError):
                    handle_request(service, bad)

    def test_rca_op_matches_facade(self, tiny_service):
        service, _, rca, _, _ = tiny_service
        state = rca.dataset.states[0]
        request = {"op": "rca",
                   "nodes": list(state.node_names),
                   "adjacency": state.adjacency.tolist(),
                   "features": state.features.tolist()}
        response = handle_request(service, request)
        assert response["ok"] and response["op"] == "rca"
        ranking = response["ranking"]
        assert sorted(r["node"] for r in ranking) == sorted(state.node_names)
        scores = [r["score"] for r in ranking]
        assert scores == sorted(scores, reverse=True)
        top2 = handle_request(service, {**request, "top_k": 2})["ranking"]
        assert top2 == ranking[:2]

    def test_eap_op_matches_facade(self, tiny_service):
        service, _, _, eap, _ = tiny_service
        pairs = eap.dataset.pairs[:3]
        request = {"op": "eap", "pairs": [
            {"name_i": p.name_i, "name_j": p.name_j,
             "node_i": p.node_i, "node_j": p.node_j,
             "time_i": p.time_i, "time_j": p.time_j}
            for p in pairs]}
        response = handle_request(service, request)
        assert response["ok"] and response["op"] == "eap"
        assert len(response["verdicts"]) == 3
        for verdict in response["verdicts"]:
            assert isinstance(verdict["triggers"], bool)
            assert 0.0 <= verdict["confidence"] <= 1.0
        # JSON round-trip safe (the server writes one line per response).
        json.loads(json.dumps(response))

    def test_rca_eap_ops_reject_bad_shapes(self, tiny_service):
        service, _, rca, _, _ = tiny_service
        state = rca.dataset.states[0]
        nodes = list(state.node_names)
        good_adj = state.adjacency.tolist()
        good_feat = state.features.tolist()
        bad_requests = [
            {"op": "rca"},                                  # nothing at all
            {"op": "rca", "nodes": "a"},                    # not a list
            {"op": "rca", "nodes": nodes, "adjacency": "x",
             "features": good_feat},                        # non-numeric
            {"op": "rca", "nodes": nodes, "adjacency": [[0.0]],
             "features": good_feat},                        # wrong shape
            {"op": "rca", "nodes": nodes, "adjacency": good_adj,
             "features": [[0.0]]},                          # wrong rows
            {"op": "eap"},                                  # nothing at all
            {"op": "eap", "pairs": []},                     # empty
            {"op": "eap", "pairs": [{"name_i": "a"}]},      # missing fields
            {"op": "eap", "pairs": [
                {"name_i": "a", "name_j": "b", "node_i": "n",
                 "node_j": "m", "time_i": "soon", "time_j": 1.0}]},
        ]
        for bad in bad_requests:
            with pytest.raises(ValueError):
                handle_request(service, bad)


class TestServeCli:
    def test_serve_stats_reports_metrics(self, capsys, monkeypatch):
        from repro.cli import main

        requests = "\n".join([
            json.dumps({"op": "ping"}),
            json.dumps({"op": "embed", "names": ["link failure", "storm"]}),
            json.dumps({"op": "embed", "names": ["link failure"]}),
            json.dumps({"op": "stats"}),
        ]) + "\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(requests))
        code = main(["serve", "--dim", "8", "--max-wait-ms", "2", "--stats"])
        captured = capsys.readouterr()
        assert code == 0
        responses = [json.loads(line)
                     for line in captured.out.strip().splitlines()]
        assert all(r["ok"] for r in responses)
        # Acceptance: request count, cache hit rate, p50/p95 latency.
        assert "requests: 2" in captured.err
        assert "cache hit rate:" in captured.err
        assert "p50" in captured.err and "p95" in captured.err
        assert "== serving stats ==" in captured.err

    def test_serve_with_store_and_fallback_flags(self, capsys, monkeypatch,
                                                 tmp_path):
        from repro.cli import main

        line = json.dumps({"op": "embed", "names": ["alarm"]}) + "\n"
        for _ in range(2):  # second run warms from the persisted store
            monkeypatch.setattr("sys.stdin", io.StringIO(line))
            assert main(["serve", "--dim", "4", "--store", str(tmp_path),
                         "--fallback", "--max-wait-ms", "2"]) == 0
        out_lines = capsys.readouterr().out.strip().splitlines()
        first, second = (json.loads(l) for l in out_lines)
        assert first["embeddings"] == second["embeddings"]
        assert (tmp_path / "embeddings.jsonl").exists()
