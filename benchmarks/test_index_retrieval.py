"""Vector-index retrieval: recall vs exact scan and probed-query QPS.

Builds :class:`repro.index.VectorIndex` over seeded synthetic entity
worlds (clustered unit vectors — the geometry real KTeleBERT entity
embeddings have) and measures, per scale:

* recall@1 / recall@10 of the probed query against the brute-force
  cosine oracle (:func:`repro.index.exact_topk`);
* sequential single-query QPS through the index, best-of-``REPS``
  interleaved with the same measurement over an exact full scan (one
  matvec + one top-k partition per query — what serving one request at a
  time without an index costs).  Interleaving the two sides and keeping
  each side's best rep cancels host noise from the recorded ratio.

Scales: 10k and 100k always; the 1M world only when
``REPRO_BENCH_FULL_SCALE`` is set (the build is minutes, not seconds) —
the registry marks the 1M gates non-binding otherwise via the recorded
``full_scale.enabled`` config flag.

A second suite times the incremental fold (:meth:`VectorIndex.flush` of
4096 buffered rows into a 20k-row index) as a same-process A/B: the
current warm-started, vectorised clustering against the per-cell Lloyd
loop with cold k-means++ seeding it replaced (kept below as
:func:`_legacy_coarse_cluster`), best of ``FOLD_REPS`` interleaved reps,
each on a fresh copy of the same built index.  It reports recall@10
after the fold next to recall@10 after the build.

Writes ``benchmarks/results/index_retrieval.txt`` and
``index_fold.txt`` (rendered views) and
``benchmarks/results/BENCH_index_retrieval.json`` (structured source of
truth, via the shared :mod:`repro.bench` emitter).
"""

from __future__ import annotations

import os
import shutil
import time

import numpy as np
from conftest import save_and_print

import repro.index.shards as shards_mod
from repro.bench import BENCH_INDEX_RETRIEVAL
from repro.index import VectorIndex, exact_topk, synthetic_queries, \
    synthetic_world
from repro.index.ivf import DEFAULT_ITERATIONS, TRAIN_SAMPLE_CAP, \
    _seed_centroids

NUM_QUERIES = 200
K = 10
REPS = 5
SCALES = {"10k": 10_000, "100k": 100_000}
FULL_SCALE = {"1m": 1_000_000}
DIM = 32
FOLD_BASE = 20_000
FOLD_ROWS = 4096
FOLD_REPS = 3
#: Denser than the default world (128 clusters), so neighbour sets span
#: several index cells and a worse fold layout would show in recall.
FOLD_CLUSTERS = 1024
MIN_FOLD_SPEEDUP = 2.5


def full_scale_enabled() -> bool:
    return bool(os.environ.get("REPRO_BENCH_FULL_SCALE"))


def _exact_scan(vectors: np.ndarray, queries: np.ndarray, k: int) -> None:
    """Sequential exact serving loop: full matvec + top-k per query."""
    for query in queries:
        row = vectors @ query
        top = np.argpartition(-row, k - 1)[:k]
        top[np.argsort(-row[top], kind="stable")]


def _recall_at_k(answers, oracle) -> float:
    overlap = sum(
        sum(1 for name, _ in want if name in {n for n, _ in got})
        for got, want in zip(answers, oracle))
    return overlap / (len(oracle) * K)


def _measure_scale(tmp_path, label: str, count: int) -> dict:
    names, vectors = synthetic_world(count, DIM, seed=0)
    queries = synthetic_queries(vectors, NUM_QUERIES, seed=1)
    oracle = exact_topk(vectors, names, queries, K)

    index = VectorIndex(tmp_path / f"index-{label}", fingerprint="bench")
    start = time.perf_counter()
    index.build(dict(zip(names, vectors)))
    build_s = time.perf_counter() - start

    # Warm both paths (mmap pages, BLAS thread pools) before timing.
    index.query(queries[:20], k=K)
    _exact_scan(vectors, queries[:20], K)

    index_qps = exact_qps = 0.0
    answers = None
    for _ in range(REPS):
        start = time.perf_counter()
        answers = index.query(queries, k=K)
        index_qps = max(index_qps,
                        NUM_QUERIES / (time.perf_counter() - start))
        start = time.perf_counter()
        _exact_scan(vectors, queries, K)
        exact_qps = max(exact_qps,
                        NUM_QUERIES / (time.perf_counter() - start))

    top1 = sum(1 for got, want in zip(answers, oracle)
               if got and got[0][0] == want[0][0])
    return {
        "count": count,
        "build_s": build_s,
        "recall_at_1": top1 / NUM_QUERIES,
        "recall_at_10": _recall_at_k(answers, oracle),
        "index_qps": index_qps,
        "exact_qps": exact_qps,
        "speedup_x": index_qps / exact_qps,
    }


def test_index_retrieval(results_dir, record_bench, tmp_path):
    scales = dict(SCALES)
    if full_scale_enabled():
        scales.update(FULL_SCALE)
    rows = {label: _measure_scale(tmp_path, label, count)
            for label, count in scales.items()}

    lines = [f"Index retrieval — dim {DIM}, {NUM_QUERIES} queries, "
             f"k={K}, best of {REPS} interleaved reps",
             f"{'scale':<6} {'recall@1':>9} {'recall@10':>10} "
             f"{'index q/s':>10} {'exact q/s':>10} {'speedup':>8} "
             f"{'build s':>8}"]
    for label, row in rows.items():
        lines.append(
            f"{label:<6} {row['recall_at_1']:>9.3f} "
            f"{row['recall_at_10']:>10.3f} {row['index_qps']:>10,.0f} "
            f"{row['exact_qps']:>10,.0f} {row['speedup_x']:>7.1f}x "
            f"{row['build_s']:>8.1f}")
    save_and_print(results_dir, "index_retrieval.txt", "\n".join(lines))

    metrics = {
        "recall_at_1_10k": rows["10k"]["recall_at_1"],
        "recall_at_10_10k": rows["10k"]["recall_at_10"],
        "recall_at_1_100k": rows["100k"]["recall_at_1"],
        "recall_at_10_100k": rows["100k"]["recall_at_10"],
        "index_qps_10k": rows["10k"]["index_qps"],
        "index_qps_100k": rows["100k"]["index_qps"],
        "exact_qps_10k": rows["10k"]["exact_qps"],
        "exact_qps_100k": rows["100k"]["exact_qps"],
        "speedup_10k_x": rows["10k"]["speedup_x"],
        "speedup_100k_x": rows["100k"]["speedup_x"],
        "build_100k_s": rows["100k"]["build_s"],
    }
    if "1m" in rows:
        metrics.update({
            "recall_at_10_1m": rows["1m"]["recall_at_10"],
            "index_qps_1m": rows["1m"]["index_qps"],
            "exact_qps_1m": rows["1m"]["exact_qps"],
            "speedup_1m_x": rows["1m"]["speedup_x"],
        })
    record_bench(BENCH_INDEX_RETRIEVAL, metrics, config={
        "dim": DIM,
        "num_queries": NUM_QUERIES,
        "k": K,
        "reps": REPS,
        "scales": {label: row["count"] for label, row in rows.items()},
        "full_scale": {"enabled": full_scale_enabled()},
    })

    # Default nprobe must answer almost exactly at both standing scales,
    # and the probed scan must beat serving exact scans outright at 100k.
    for label in ("10k", "100k"):
        assert rows[label]["recall_at_10"] >= 0.95, rows[label]
    assert rows["100k"]["speedup_x"] > 3.0, rows["100k"]


def _legacy_coarse_cluster(vectors, nlist, seed=0,
                           iterations=DEFAULT_ITERATIONS, init=None):
    """The fold's clustering before vectorisation (the A/B "before").

    Ignores ``init``: every fold re-seeded all cells with k-means++, then
    each Lloyd iteration looped over the cells with one masked gather and
    one mean per cell, re-seeding empty cells one at a time.
    """
    vectors = np.ascontiguousarray(vectors, dtype=np.float32)
    count = vectors.shape[0]
    nlist = max(1, min(int(nlist), count))
    if nlist == 1:
        centroid = vectors.mean(axis=0, keepdims=True)
        centroid /= max(float(np.linalg.norm(centroid)), 1e-12)
        return centroid.astype(np.float32), np.zeros(count, dtype=np.int64)
    rng = np.random.default_rng(seed)
    train = vectors
    if count > TRAIN_SAMPLE_CAP:
        sample = rng.choice(count, size=TRAIN_SAMPLE_CAP, replace=False)
        sample.sort()
        train = vectors[sample]
    centroids = _seed_centroids(train, nlist, rng)
    for _ in range(max(1, iterations)):
        assignments = np.argmax(train @ centroids.T, axis=1)
        for cell in range(nlist):
            members = train[assignments == cell]
            if len(members):
                centroids[cell] = members.mean(axis=0)
            else:
                similarity = (train * centroids[assignments]).sum(axis=1)
                centroids[cell] = train[int(np.argmin(similarity))]
        norms = np.linalg.norm(centroids, axis=1, keepdims=True)
        centroids = (centroids / np.maximum(norms, 1e-12)).astype(np.float32)
    assignments = np.argmax(vectors @ centroids.T, axis=1).astype(np.int64)
    return centroids, assignments


def test_index_fold_speedup(results_dir, record_bench, tmp_path,
                            monkeypatch):
    names, vectors = synthetic_world(FOLD_BASE + FOLD_ROWS, DIM, seed=2,
                                     clusters=FOLD_CLUSTERS)
    base_names, base_vectors = names[:FOLD_BASE], vectors[:FOLD_BASE]
    fresh = dict(zip(names[FOLD_BASE:], vectors[FOLD_BASE:]))
    queries = synthetic_queries(vectors, NUM_QUERIES, seed=3)

    built_dir = tmp_path / "fold-base"
    built = VectorIndex(built_dir, fingerprint="bench")
    built.build(dict(zip(base_names, base_vectors)))
    build_recall = _recall_at_k(
        built.query(queries, k=K),
        exact_topk(base_vectors, base_names, queries, K))

    implementations = {"legacy": _legacy_coarse_cluster,
                       "current": shards_mod.coarse_cluster}
    best = {label: float("inf") for label in implementations}
    folded = None
    for rep in range(FOLD_REPS):
        for label, cluster in implementations.items():
            copy = tmp_path / f"fold-{label}-{rep}"
            shutil.copytree(built_dir, copy)
            index = VectorIndex(copy, fingerprint="bench")
            index.add(fresh)
            with monkeypatch.context() as patch:
                patch.setattr(shards_mod, "coarse_cluster", cluster)
                start = time.perf_counter()
                assert index.flush() == FOLD_ROWS
                best[label] = min(best[label], time.perf_counter() - start)
            if label == "current":
                folded = index
    fold_recall = _recall_at_k(folded.query(queries, k=K),
                               exact_topk(vectors, names, queries, K))
    speedup = best["legacy"] / best["current"]

    lines = [f"Index fold — {FOLD_ROWS} buffered rows into a {FOLD_BASE:,}"
             f"-row index, dim {DIM}, best of {FOLD_REPS} interleaved reps",
             f"  legacy (cold seed, per-cell Lloyd): "
             f"{best['legacy'] * 1e3:8.1f} ms",
             f"  current (warm start, vectorised):   "
             f"{best['current'] * 1e3:8.1f} ms",
             f"  speedup: {speedup:.2f}x  (required >= "
             f"{MIN_FOLD_SPEEDUP:.1f}x)",
             f"  recall@10 after build {build_recall:.3f}, "
             f"after fold {fold_recall:.3f}"]
    save_and_print(results_dir, "index_fold.txt", "\n".join(lines))
    record_bench(BENCH_INDEX_RETRIEVAL, {
        "fold_s": best["current"],
        "fold_legacy_s": best["legacy"],
        "fold_speedup_x": speedup,
        "fold_build_recall_at_10": build_recall,
        "fold_recall_at_10": fold_recall,
    }, config={"fold": {"base_rows": FOLD_BASE, "rows": FOLD_ROWS,
                        "clusters": FOLD_CLUSTERS, "reps": FOLD_REPS}})

    assert build_recall >= 0.95 and fold_recall >= 0.95, (build_recall,
                                                          fold_recall)
    assert speedup >= MIN_FOLD_SPEEDUP, best
