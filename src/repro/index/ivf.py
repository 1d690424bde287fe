"""IVF-style coarse clustering in pure numpy.

The retrieval tier (:mod:`repro.index`) partitions each shard's vectors
into ``nlist`` coarse clusters so a query only scans the ``nprobe``
clusters whose centroids lie nearest — the classic inverted-file (IVF)
trade of recall for speed.  Clustering is a small, deterministic k-means:

* **Seeding.**  A cold start (a full build, or a shard with no committed
  layout) draws k-means++-style seeds from a seeded
  :func:`numpy.random.default_rng` Generator.  A *warm* start (a fold
  re-clustering a shard that already has committed centroids) begins
  from those centroids and draws k-means++ seeds only for the extra
  cells a grown shard is entitled to, spread away from the committed
  ones.
* **Lloyd update, vectorised.**  Each of the bounded iterations is one
  assignment matmul plus one weighted :func:`numpy.bincount` per
  dimension for the per-cell sums — no Python loop over cells, so the
  update's call count does not grow with ``nlist``.  A warm start runs
  fewer iterations (:data:`WARM_ITERATIONS`) and reuses the scores
  against the committed cells from seeding for its first assignment.
* **Empty cells.**  Every cell left empty by an assignment is reseeded in
  the same step onto *distinct* rows — the rows farthest from their
  current centroid, farthest first — so no two reseeded cells share a
  row.

The determinism contract: the same rows, in the same order, with the same
committed centroids (or none) and the same ``(nlist, seed)`` always give
the same layout, bit-exact across processes.

Vectors are expected L2-normalised (the index stores cosine geometry);
centroids are re-normalised after every update so centroid similarity is
a faithful proxy for member similarity.
"""

from __future__ import annotations

import numpy as np

#: Lloyd iterations; coarse quantisation converges fast and exactness is
#: irrelevant (probing is what decides recall, not cluster optimality).
DEFAULT_ITERATIONS = 8
#: Lloyd iterations from a warm start: committed centroids are already
#: converged for the rows they were fitted on, so a few passes settle the
#: new rows and the extra cells.
WARM_ITERATIONS = 3

#: Rows above which k-means trains on a deterministic subsample; the
#: final assignment pass still covers every row.
TRAIN_SAMPLE_CAP = 16_384


def _normalise(matrix: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    return matrix / np.maximum(norms, 1e-12)


def _nearest(vectors: np.ndarray,
             centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's nearest centroid (highest dot product) and that score."""
    sims = vectors @ centroids.T
    assignments = np.argmax(sims, axis=1)
    return assignments, sims[np.arange(len(sims)), assignments]


def _extend_nearest(vectors: np.ndarray, centroids: np.ndarray, k: int,
                    known: tuple[np.ndarray, np.ndarray]
                    ) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_nearest` over all ``centroids``, given ``known``, its
    result over the first ``k`` of them: only the other columns are
    scored.  Ties go to the lower cell, as in a single argmax."""
    assignments, similarity = known
    if k == len(centroids):
        return known
    extra, extra_similarity = _nearest(vectors, centroids[k:])
    closer = extra_similarity > similarity
    return (np.where(closer, extra + k, assignments),
            np.where(closer, extra_similarity, similarity))


def _seed_centroids(vectors: np.ndarray, nlist: int,
                    rng: np.random.Generator,
                    committed: np.ndarray | None = None,
                    committed_similarity: np.ndarray | None = None
                    ) -> np.ndarray:
    """k-means++-style seeding: spread the initial centroids out.

    With ``committed`` centroids (and each row's similarity to the
    nearest of them) the seeds start from them and only the remaining
    ``nlist - len(committed)`` cells are drawn, each spread away from
    every centroid chosen so far.
    """
    count = vectors.shape[0]
    if committed is None:
        first = int(rng.integers(count))
        chosen = [vectors[first]]
        # Cosine distance to the nearest chosen centroid so far.
        distances = 1.0 - vectors @ vectors[first]
    else:
        chosen = list(committed)
        distances = 1.0 - committed_similarity
    for _ in range(len(chosen), nlist):
        distances = np.maximum(distances, 0.0)
        total = float(distances.sum())
        if total <= 0.0:
            # All remaining rows coincide with a centroid; fill uniformly.
            pick = int(rng.integers(count))
        else:
            # ``rng.choice(count, p=distances / total)`` draw for draw,
            # without its O(count) validation of ``p``.
            cdf = np.cumsum(distances / total, dtype=np.float64)
            cdf /= cdf[-1]
            pick = int(cdf.searchsorted(rng.random(), side="right"))
        chosen.append(vectors[pick])
        distances = np.minimum(distances, 1.0 - vectors @ vectors[pick])
    return np.array(chosen, dtype=np.float32)


def _lloyd_step(train: np.ndarray, columns: np.ndarray, nlist: int,
                assignments: np.ndarray,
                similarity: np.ndarray) -> np.ndarray:
    """One vectorised centroid update; returns unit-row centroids.

    ``columns`` is ``train`` transposed (float64, contiguous) and
    ``similarity`` each row's dot product with its assigned centroid.
    Per-cell sums are one weighted ``bincount`` per dimension.  A
    populated cell moves to its members' mean direction (the sum's
    direction, since rows are re-normalised below); every empty cell is
    reseeded onto its own distinct row, farthest-from-centroid first.
    """
    sums = np.stack([np.bincount(assignments, weights=column,
                                 minlength=nlist) for column in columns],
                    axis=1)
    empty = np.flatnonzero(np.bincount(assignments, minlength=nlist) == 0)
    if len(empty):
        farthest = np.argsort(similarity, kind="stable")[:len(empty)]
        sums[empty] = train[farthest]
    return _normalise(sums).astype(np.float32)


def coarse_cluster(vectors: np.ndarray, nlist: int, seed: int = 0,
                   iterations: int | None = None,
                   init: np.ndarray | None = None
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Cluster L2-normalised ``vectors`` into at most ``nlist`` cells.

    Returns ``(centroids, assignments)``: a ``(k, dim)`` float32 centroid
    matrix (``k <= nlist``, unit rows) and a length-``n`` int64 vector of
    cluster ids.  ``init`` warm-starts Lloyd from previously committed
    centroids (at most ``nlist`` of them are kept); k-means++ seeds only
    the cells beyond them.  ``iterations`` defaults to
    :data:`DEFAULT_ITERATIONS` cold and :data:`WARM_ITERATIONS` warm.
    Deterministic for a fixed ``(vectors, nlist, seed, init,
    iterations)``.
    """
    vectors = np.ascontiguousarray(vectors, dtype=np.float32)
    count = vectors.shape[0]
    if count == 0:
        raise ValueError("cannot cluster an empty vector set")
    nlist = max(1, min(int(nlist), count))
    if nlist == 1:
        centroid = _normalise(vectors.mean(axis=0, keepdims=True))
        return centroid.astype(np.float32), np.zeros(count, dtype=np.int64)

    rng = np.random.default_rng(seed)
    if count > TRAIN_SAMPLE_CAP:
        sample = rng.choice(count, size=TRAIN_SAMPLE_CAP, replace=False)
        sample.sort()
        train = vectors[sample]
    else:
        train = vectors
    if init is None or not len(init):
        centroids = _seed_centroids(train, nlist, rng)
        nearest = _nearest(train, centroids)
        if iterations is None:
            iterations = DEFAULT_ITERATIONS
    else:
        committed = _normalise(
            np.asarray(init, dtype=np.float32)[:nlist]).astype(np.float32)
        # The committed cells' scores serve both the seeding distances
        # and the first assignment; only the extra cells are new.
        known = _nearest(train, committed)
        centroids = _seed_centroids(train, nlist, rng, committed, known[1])
        nearest = _extend_nearest(train, centroids, len(committed), known)
        if iterations is None:
            iterations = WARM_ITERATIONS
    columns = np.ascontiguousarray(train.T, dtype=np.float64)
    for step in range(max(1, iterations)):
        if step:
            nearest = _nearest(train, centroids)
        centroids = _lloyd_step(train, columns, nlist, *nearest)
    assignments = np.argmax(vectors @ centroids.T, axis=1).astype(np.int64)
    return centroids, assignments


__all__ = ["DEFAULT_ITERATIONS", "TRAIN_SAMPLE_CAP", "WARM_ITERATIONS",
           "coarse_cluster"]
