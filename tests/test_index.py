"""Tests for the sharded mmap ANN retrieval tier (:mod:`repro.index`).

Covers the index itself (build/query determinism, recall against the
brute-force oracle, incremental add/flush with shadowing, crash-safe
generation swaps including a real ``SIGKILL`` mid-build), the
:class:`IndexedEmbeddingProvider` glue onto the serving store, the
``python -m repro index`` CLI, and the retrieval-candidate hooks the
task serve adapters expose.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.index import (
    DEFAULT_NUM_SHARDS,
    FingerprintMismatch,
    IndexedEmbeddingProvider,
    VectorIndex,
    coarse_cluster,
    default_nlist,
    exact_topk,
    index_main,
    shard_for_name,
    synthetic_queries,
    synthetic_world,
)
from repro.index.ivf import DEFAULT_ITERATIONS, _seed_centroids
from repro.serving import EmbeddingStore, PersistentProvider
from repro.service import RandomProvider


def _world(count=2000, dim=16, seed=0):
    names, vectors = synthetic_world(count, dim, seed=seed)
    return names, vectors, dict(zip(names, vectors))


def _unit(vector):
    vector = np.asarray(vector, dtype=np.float32)
    return vector / np.linalg.norm(vector)


def _recall(index, vectors, names, queries, k=10):
    oracle = exact_topk(vectors, names, queries, k)
    answers = index.query(queries, k=k)
    overlap = sum(sum(1 for n, _ in want if n in {m for m, _ in got})
                  for got, want in zip(answers, oracle))
    return overlap / (len(queries) * k)


def _per_cell_lloyd(vectors, nlist, seed, iterations=DEFAULT_ITERATIONS):
    """Oracle: the Lloyd loop as one masked gather + mean per cell.

    Returns ``(centroids, assignments, emptied)``; ``emptied`` says
    whether any iteration left a cell empty (the oracle then keeps the
    stale centroid, so comparisons only hold when it is False).
    """
    rng = np.random.default_rng(seed)
    centroids = _seed_centroids(vectors, nlist, rng)
    emptied = False
    for _ in range(iterations):
        assignments = np.argmax(vectors @ centroids.T, axis=1)
        for cell in range(nlist):
            members = vectors[assignments == cell]
            if len(members):
                centroids[cell] = members.mean(axis=0)
            else:
                emptied = True
        norms = np.linalg.norm(centroids, axis=1, keepdims=True)
        centroids = (centroids / np.maximum(norms, 1e-12)).astype(np.float32)
    return centroids, np.argmax(vectors @ centroids.T, axis=1), emptied


# ----------------------------------------------------------------------
# Clustering / sharding primitives
# ----------------------------------------------------------------------
class TestPrimitives:
    def test_shard_for_name_is_stable_and_in_range(self):
        routed = {shard_for_name(f"entity-{i}", 8) for i in range(200)}
        assert routed <= set(range(8))
        assert len(routed) > 1           # actually spreads
        # process-stable contract: a pinned value, not hash()
        assert shard_for_name("alarm: link down", 4) == \
            shard_for_name("alarm: link down", 4)

    def test_coarse_cluster_deterministic_and_covering(self):
        _, vectors, _ = _world(300, 8)
        c1, a1 = coarse_cluster(vectors, 16, seed=3)
        c2, a2 = coarse_cluster(vectors, 16, seed=3)
        np.testing.assert_array_equal(a1, a2)
        np.testing.assert_allclose(c1, c2)
        assert a1.shape == (300,)
        assert set(np.unique(a1)) <= set(range(16))

    def test_vectorised_lloyd_matches_per_cell_oracle(self):
        _, vectors, _ = _world(1500, 16)
        want_c, want_a, emptied = _per_cell_lloyd(vectors, 24, seed=5)
        assert not emptied
        got_c, got_a = coarse_cluster(vectors, 24, seed=5)
        np.testing.assert_array_equal(got_a, want_a)
        np.testing.assert_allclose(got_c, want_c, atol=1e-6)

    def test_empty_cells_reseed_onto_distinct_rows(self):
        # Rows live in the positive orthant; the last four warm-start
        # centroids point into the negative one, so the first assignment
        # leaves all four empty at once.
        rng = np.random.default_rng(0)
        vectors = np.abs(rng.standard_normal((200, 8))).astype(np.float32)
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
        dead = -np.abs(rng.standard_normal((4, 8)))
        init = np.concatenate([vectors[:4], dead])
        centroids, assignments = coarse_cluster(vectors, 8, init=init,
                                                iterations=1)
        reseeded = centroids[4:]
        # each reseeded centroid sits on its own row ...
        rows = [int(np.argmax(vectors @ c)) for c in reseeded]
        assert len(set(rows)) == 4
        np.testing.assert_allclose(reseeded, vectors[rows], atol=1e-6)
        # ... so every cell ends populated
        assert set(np.unique(assignments)) == set(range(8))
        centroids, assignments = coarse_cluster(vectors, 8, init=init)
        assert set(np.unique(assignments)) == set(range(8))

    def test_warm_start_keeps_committed_cells_and_seeds_extras(self):
        _, vectors, _ = _world(1200, 16)
        committed, before = coarse_cluster(vectors[:1000], 16, seed=1)
        c1, a1 = coarse_cluster(vectors, 20, seed=1, init=committed)
        c2, a2 = coarse_cluster(vectors, 20, seed=1, init=committed)
        assert c1.shape == (20, 16)
        np.testing.assert_array_equal(a1, a2)
        np.testing.assert_array_equal(c1, c2)
        # Restarting from a converged layout is close to a fixed point.
        _, again = coarse_cluster(vectors[:1000], 16, seed=1, init=committed)
        assert (again == before).mean() > 0.95

    def test_default_nlist_monotone_and_capped(self):
        assert default_nlist(1) == 1
        assert default_nlist(100) <= default_nlist(10_000)
        assert default_nlist(10**9) == 1024


# ----------------------------------------------------------------------
# Build / query
# ----------------------------------------------------------------------
class TestVectorIndex:
    def test_build_query_roundtrip_and_recall(self, tmp_path):
        names, vectors, mapping = _world()
        index = VectorIndex(tmp_path, fingerprint="fp")
        assert index.build(mapping) == len(names)
        queries = synthetic_queries(vectors, 50, seed=1)
        oracle = exact_topk(vectors, names, queries, 10)
        answers = index.query(queries, k=10)
        overlap = sum(
            sum(1 for n, _ in want if n in {m for m, _ in got})
            for got, want in zip(answers, oracle))
        assert overlap / (50 * 10) >= 0.95
        # scores are cosine: sorted descending, within [-1, 1]
        for hits in answers:
            scores = [s for _, s in hits]
            assert scores == sorted(scores, reverse=True)
            assert all(-1.001 <= s <= 1.001 for s in scores)

    def test_query_results_deterministic_across_rebuilds(self, tmp_path):
        names, vectors, mapping = _world(800, 8)
        queries = synthetic_queries(vectors, 20, seed=2)
        runs = []
        for sub in ("a", "b"):
            index = VectorIndex(tmp_path / sub, fingerprint="fp")
            index.build(mapping)
            runs.append(index.query(queries, k=5))
        assert runs[0] == runs[1]

    def test_full_probe_matches_exact_scan(self, tmp_path):
        names, vectors, mapping = _world(500, 8)
        index = VectorIndex(tmp_path, fingerprint="fp", nprobe=10_000)
        index.build(mapping)
        queries = synthetic_queries(vectors, 25, seed=4)
        oracle = exact_topk(vectors, names, queries, 5)
        for got, want in zip(index.query(queries, k=5), oracle):
            assert [n for n, _ in got] == [n for n, _ in want]

    def test_single_vector_query_shape(self, tmp_path):
        names, vectors, mapping = _world(100, 8)
        index = VectorIndex(tmp_path, fingerprint="fp")
        index.build(mapping)
        [hits] = index.query(vectors[0], k=3)
        assert hits[0][0] == names[0]

    def test_reopen_serves_persisted_generation(self, tmp_path):
        names, vectors, mapping = _world(200, 8)
        VectorIndex(tmp_path, fingerprint="fp").build(mapping)
        reopened = VectorIndex(tmp_path, fingerprint="fp")
        assert len(reopened) == 200
        assert names[7] in reopened
        [hits] = reopened.query(vectors[7], k=1)
        assert hits[0][0] == names[7]

    def test_fingerprint_mismatch_refused(self, tmp_path):
        _, _, mapping = _world(50, 8)
        VectorIndex(tmp_path, fingerprint="ckpt-a").build(mapping)
        with pytest.raises(FingerprintMismatch):
            VectorIndex(tmp_path, fingerprint="ckpt-b")

    def test_dim_and_validation_errors(self, tmp_path):
        index = VectorIndex(tmp_path, fingerprint="fp")
        index.build({"a": np.ones(8), "b": -np.ones(8)})
        with pytest.raises(ValueError):
            index.query(np.ones(9), k=1)
        with pytest.raises(ValueError):
            index.query(np.ones(8), k=0)
        with pytest.raises(ValueError):
            VectorIndex(tmp_path / "x", num_shards=0)
        with pytest.raises(ValueError):
            VectorIndex(tmp_path / "y", nprobe=0)

    def test_empty_index_answers_empty(self, tmp_path):
        index = VectorIndex(tmp_path, fingerprint="fp")
        assert index.query(np.ones(4), k=3) == [[]]
        assert len(index) == 0
        assert index.get("nope") is None


class TestAddFlush:
    def test_pending_answers_immediately_and_shadows(self, tmp_path):
        names, vectors, mapping = _world(300, 8)
        index = VectorIndex(tmp_path, fingerprint="fp")
        index.build(mapping)
        # a brand-new name is queryable before any flush
        fresh = vectors[0] + 0.01
        index.add({"fresh-entity": fresh})
        [hits] = index.query(fresh, k=2)
        assert hits[0][0] == "fresh-entity"
        # a same-name add shadows the shard row it replaces: the buffered
        # (negated) vector answers, the old shard row never does
        index.add({names[5]: -vectors[5]})
        [hits] = index.query(-vectors[5], k=1)
        assert hits[0][0] == names[5]
        assert hits[0][1] == pytest.approx(1.0, abs=1e-5)
        [hits] = index.query(vectors[5], k=10)
        assert names[5] not in {n for n, _ in hits}

    def test_flush_persists_and_only_rewrites_affected_shards(
            self, tmp_path):
        names, vectors, mapping = _world(300, 8)
        index = VectorIndex(tmp_path, fingerprint="fp")
        index.build(mapping)
        before = {s.stem for s in index._shards if s is not None}
        index.add({"added-one": vectors[0] + 0.02})
        assert index.flush() == 1
        after = {s.stem for s in index._shards if s is not None}
        touched = shard_for_name("added-one", index.num_shards)
        changed = before.symmetric_difference(after)
        # exactly one shard got a new generation file
        assert len(changed & after) == 1
        assert any(stem.endswith(f"-{touched:04d}") for stem in changed)
        reopened = VectorIndex(tmp_path, fingerprint="fp")
        assert "added-one" in reopened
        assert reopened.flush() == 0

    def test_same_history_gives_byte_identical_files(self, tmp_path):
        names, vectors, mapping = _world(1200, 8)
        base = dict(zip(names[:1000], vectors[:1000]))
        grown = dict(zip(names[1000:], vectors[1000:]))
        grown[names[3]] = -vectors[3]                   # a replacement
        for sub in ("a", "b"):
            index = VectorIndex(tmp_path / sub, fingerprint="fp")
            index.build(base)
            index.add(grown)
            assert index.flush() == len(grown)
        files_a = sorted(p.name for p in (tmp_path / "a").iterdir())
        files_b = sorted(p.name for p in (tmp_path / "b").iterdir())
        assert files_a == files_b and "manifest.json" in files_a
        for name in files_a:
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes(), name

    def test_fold_recall_close_to_build_recall(self, tmp_path):
        # 512 clusters: dense enough that neither layout reaches recall 1.
        names, vectors = synthetic_world(3000, 16, seed=0, clusters=512)
        mapping = dict(zip(names, vectors))
        queries = synthetic_queries(vectors, 200, seed=6)
        built = VectorIndex(tmp_path / "built", fingerprint="fp")
        built.build(mapping)
        folded = VectorIndex(tmp_path / "folded", fingerprint="fp")
        folded.build(dict(zip(names[:2000], vectors[:2000])))
        folded.add(dict(zip(names[2000:], vectors[2000:])))
        folded.flush()
        assert len(folded) == 3000 and folded.pending_count() == 0
        assert _recall(folded, vectors, names, queries) >= \
            _recall(built, vectors, names, queries) - 0.02

    def test_rows_stay_visible_while_a_fold_writes(self, tmp_path,
                                                   monkeypatch):
        import repro.index.index as index_mod

        names, vectors, mapping = _world(300, 8)
        index = VectorIndex(tmp_path, fingerprint="fp")
        index.build(mapping)
        rng = np.random.default_rng(7)
        folded, newer = rng.standard_normal((2, 8))
        index.add({"folded-entity": folded})
        writing, release = threading.Event(), threading.Event()
        real_write = index_mod.write_shard

        def slow_write(*args, **kwargs):
            writing.set()
            release.wait(10)
            return real_write(*args, **kwargs)

        monkeypatch.setattr(index_mod, "write_shard", slow_write)
        worker = threading.Thread(target=index.flush)
        worker.start()
        try:
            assert writing.wait(10)
            assert "folded-entity" in index
            np.testing.assert_allclose(index.get("folded-entity"),
                                       _unit(folded), atol=1e-6)
            [hits] = index.query(folded, k=1)
            assert hits[0][0] == "folded-entity"
            assert len(index) == 301
            index.add({"folded-entity": newer})      # newer, mid-fold
            assert index.pending_count() == 1
        finally:
            release.set()
            worker.join(10)
        assert not worker.is_alive()
        # The committed shard holds the folded vector, but the newer add
        # still shadows it.
        assert index.pending_count() == 1 and len(index) == 301
        np.testing.assert_allclose(index.get("folded-entity"),
                                   _unit(newer), atol=1e-6)
        [hits] = index.query(newer, k=1)
        assert hits[0] == ("folded-entity", pytest.approx(1.0, abs=1e-5))
        monkeypatch.setattr(index_mod, "write_shard", real_write)
        assert index.flush() == 1
        np.testing.assert_allclose(index.get("folded-entity"),
                                   _unit(newer), atol=1e-6)

    def test_failed_fold_returns_rows_to_the_buffer(self, tmp_path,
                                                    monkeypatch):
        import repro.index.index as index_mod

        _, vectors, mapping = _world(100, 8)
        index = VectorIndex(tmp_path, fingerprint="fp")
        index.build(mapping)
        index.add({"kept": vectors[0] + 0.1})

        def failing_write(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(index_mod, "write_shard", failing_write)
        with pytest.raises(OSError):
            index.flush()
        assert "kept" in index and index.pending_count() == 1
        monkeypatch.undo()
        assert index.flush() == 1 and "kept" in index

    def test_add_then_build_drops_pending(self, tmp_path):
        _, vectors, mapping = _world(60, 8)
        index = VectorIndex(tmp_path, fingerprint="fp")
        index.add({"doomed": vectors[0]})
        index.build(mapping)
        assert "doomed" not in index


# ----------------------------------------------------------------------
# Crash safety
# ----------------------------------------------------------------------
class TestCrashRecovery:
    def test_sigkill_mid_build_preserves_previous_generation(
            self, tmp_path):
        names, vectors, mapping = _world(200, 8)
        index = VectorIndex(tmp_path, fingerprint="fp")
        index.build(mapping)
        generation = index._generation

        # A child process starts a full rebuild with different data and
        # SIGKILLs itself after shard files are written but *before* the
        # manifest commit point.
        script = f"""
import os, signal
import numpy as np
import repro.index.index as index_mod
from repro.index import VectorIndex, synthetic_world

real = index_mod.atomic_write_text
def dying_write(path, text):
    if str(path).endswith("manifest.json"):
        os.kill(os.getpid(), signal.SIGKILL)
    return real(path, text)
index_mod.atomic_write_text = dying_write

names, vectors = synthetic_world(150, 8, seed=9)
index = VectorIndex({str(tmp_path)!r}, fingerprint="fp")
index.build(dict(zip(names, vectors)))
raise SystemExit("unreachable: the build should have been killed")
"""
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True,
            text=True, timeout=120,
            env={**os.environ,
                 "PYTHONPATH": str(Path(__file__).parent.parent / "src")})
        assert result.returncode == -9, result.stderr

        # Orphaned next-generation files exist, but the manifest still
        # names the old generation and every query answers from it.
        leftovers = list(tmp_path.glob("shard-*"))
        assert len(leftovers) > len(
            [s for s in index._shards if s is not None]) * 2 - 1
        survivor = VectorIndex(tmp_path, fingerprint="fp")
        assert survivor._generation == generation
        assert len(survivor) == len(names)
        [hits] = survivor.query(vectors[3], k=1)
        assert hits[0][0] == names[3]

        # The next successful commit garbage-collects the orphans.
        survivor.build(mapping)
        stems = {p.name.split(".")[0] for p in tmp_path.glob("shard-*")}
        live = {s.stem for s in survivor._shards if s is not None}
        assert stems == live

    def test_unreadable_manifest_raises_index_corrupt(self, tmp_path):
        from repro.index import IndexCorrupt

        (tmp_path / "manifest.json").write_text("{not json")
        with pytest.raises(IndexCorrupt):
            VectorIndex(tmp_path, fingerprint="fp")


# ----------------------------------------------------------------------
# IndexedEmbeddingProvider
# ----------------------------------------------------------------------
class TestIndexedProvider:
    def test_encode_names_keeps_index_in_sync(self, tmp_path):
        provider = RandomProvider(dim=8, seed=0)
        index = VectorIndex(tmp_path / "idx", fingerprint="fp")
        indexed = IndexedEmbeddingProvider(provider, index, auto_flush=3)
        indexed.encode_names(["a", "b"])
        assert "a" in index and index.stats()["pending"] == 2
        indexed.encode_names(["c"])          # hits auto_flush threshold
        assert index.stats()["pending"] == 0
        [hits] = indexed.retrieve_names(["a"], k=1)
        assert hits[0][0] == "a"

    def test_populate_from_store(self, tmp_path):
        store = EmbeddingStore(tmp_path / "store", fingerprint="fp")
        provider = PersistentProvider(RandomProvider(dim=8, seed=0), store)
        catalog = [f"ev-{i}" for i in range(40)]
        provider.encode_names(catalog)
        index = VectorIndex(tmp_path / "idx", fingerprint="fp")
        indexed = IndexedEmbeddingProvider(provider, index, store=store)
        assert indexed.ensure_indexed() == len(catalog)
        assert len(index) == len(catalog)
        # idempotent: a populated index is not rebuilt
        assert indexed.ensure_indexed() == 0

    def test_store_index_fingerprint_mismatch_rejected(self, tmp_path):
        store = EmbeddingStore(tmp_path / "store", fingerprint="ckpt-a")
        index = VectorIndex(tmp_path / "idx", fingerprint="ckpt-b")
        with pytest.raises(ValueError, match="fingerprint"):
            IndexedEmbeddingProvider(RandomProvider(dim=8, seed=0), index,
                                     store=store)


# ----------------------------------------------------------------------
# Task-adapter retrieval hooks
# ----------------------------------------------------------------------
class TestCandidateHooks:
    def test_candidate_events_filters_to_catalog(self, tmp_path):
        from repro.tasks.retrieval import RetrievalCandidateMixin

        class Adapter(RetrievalCandidateMixin):
            event_names = ["ev-1", "ev-2", "ev-3"]

        provider = RandomProvider(dim=8, seed=0)
        index = VectorIndex(tmp_path, fingerprint="fp")
        vectors = provider.encode_names(
            ["ev-1", "ev-2", "ev-3", "other-1", "other-2"])
        index.build({n: vectors[i] for i, n in enumerate(
            ["ev-1", "ev-2", "ev-3", "other-1", "other-2"])})
        adapter = Adapter()
        assert adapter.candidate_events("ev-1") == []   # no retriever yet
        adapter.attach_retriever(
            IndexedEmbeddingProvider(provider, index))
        got = adapter.candidate_events("ev-1", k=5)
        assert set(got) <= {"ev-2", "ev-3"}             # catalog only
        assert "ev-1" not in got                        # query excluded


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCli:
    def test_build_query_stats_roundtrip(self, tmp_path, capsys):
        directory = str(tmp_path / "idx")
        assert index_main(["build", "--dir", directory,
                           "--synthetic", "300", "--dim", "8"]) == 0
        built = json.loads(capsys.readouterr().out)
        assert built["built"] == 300

        assert index_main(["query", "--dir", directory,
                           "--name", "entity-0", "--k", "3"]) == 0
        answer = json.loads(capsys.readouterr().out)
        assert answer["query"] == "entity-0"
        assert answer["neighbours"][0]["name"] == "entity-0"

        assert index_main(["stats", "--dir", directory]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["count"] == 300
        assert stats["generation"] == 1
        assert sum(stats["shard_counts"]) == 300

    def test_build_from_store(self, tmp_path, capsys):
        store_dir = str(tmp_path / "store")
        store = EmbeddingStore(store_dir, fingerprint="fp")
        PersistentProvider(RandomProvider(dim=8, seed=0),
                           store).encode_names([f"n-{i}" for i in range(20)])
        assert index_main(["build", "--dir", str(tmp_path / "idx"),
                           "--store", store_dir,
                           "--fingerprint", "fp"]) == 0
        assert json.loads(capsys.readouterr().out)["built"] == 20

    def test_build_flag_validation_and_unknown_name(self, tmp_path,
                                                    capsys):
        assert index_main(["build", "--dir", str(tmp_path)]) == 2
        capsys.readouterr()
        assert index_main(["build", "--dir", str(tmp_path / "i"),
                           "--synthetic", "50", "--dim", "8"]) == 0
        capsys.readouterr()
        assert index_main(["query", "--dir", str(tmp_path / "i"),
                           "--name", "missing-name"]) == 1
        assert "unknown name" in capsys.readouterr().out

    def test_top_level_cli_forwards_index(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["index", "build", "--dir", str(tmp_path / "idx"),
                     "--synthetic", "40", "--dim", "8"]) == 0
        assert json.loads(capsys.readouterr().out)["built"] == 40
