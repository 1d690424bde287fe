"""Bridge between the embedding providers and the ANN retrieval tier.

:class:`IndexedEmbeddingProvider` decorates any
:class:`~repro.service.providers.EmbeddingProvider` (typically the
:class:`~repro.serving.store.PersistentProvider` already wired into the
serving stack) and keeps a :class:`~repro.index.index.VectorIndex` in
sync with everything it encodes: bulk ingestion from an
:class:`~repro.serving.store.EmbeddingStore` via the batched
``get_many`` path, plus online capture of fresh encodes through the
index's ``add`` buffer.  The index directory is keyed by the same
checkpoint fingerprint as the store, so a re-trained encoder can never
serve neighbours from a stale geometry — opening the mismatch raises
instead.
"""

from __future__ import annotations

import numpy as np

from repro.index.index import VectorIndex
from repro.serving.store import EmbeddingStore
from repro.service.providers import EmbeddingProvider

#: Pending ``add()`` rows that trigger an automatic fold into the shards.
DEFAULT_AUTO_FLUSH = 4096
#: Store names read per ``get_many`` batch during bulk ingestion.
INGEST_BATCH = 2048


class IndexedEmbeddingProvider(EmbeddingProvider):
    """Provider decorator that mirrors every encode into a vector index.

    Parameters
    ----------
    inner:
        The provider actually producing vectors.
    index:
        The retrieval tier to keep in sync.  Must carry the same
        fingerprint as ``store`` when one is given.
    store:
        Optional persistent store to bulk-ingest from
        (:meth:`populate_from_store`).
    auto_flush:
        Fold the index's pending buffer into shards once it holds this
        many rows (``0`` disables; call :meth:`flush` manually).
    """

    def __init__(self, inner: EmbeddingProvider, index: VectorIndex, *,
                 store: EmbeddingStore | None = None,
                 auto_flush: int = DEFAULT_AUTO_FLUSH):
        if store is not None and store.fingerprint != index.fingerprint:
            raise ValueError(
                f"store fingerprint {store.fingerprint!r} does not match "
                f"index fingerprint {index.fingerprint!r}")
        self.inner = inner
        self.index = index
        self.store = store
        self.auto_flush = auto_flush
        self.label = inner.label
        self.dim = inner.dim

    # -- EmbeddingProvider interface -----------------------------------
    def encode_names(self, names: list[str]) -> np.ndarray:
        """Encode via the inner provider and capture the rows in the index."""
        vectors = np.asarray(self.inner.encode_names(names))
        fresh: dict[str, np.ndarray] = {}
        for row, name in enumerate(names):
            if name not in self.index:
                fresh[name] = vectors[row]
        if fresh:
            self.index.add(fresh)
            if (self.auto_flush
                    and self.index.pending_count() >= self.auto_flush):
                self.index.flush()
        return vectors

    # -- Retrieval -----------------------------------------------------
    def retrieve(self, queries: np.ndarray, k: int = 10,
                 nprobe: int | None = None) -> list[list[tuple[str, float]]]:
        """Top-``k`` ``(name, score)`` neighbours for raw query vectors."""
        return self.index.query(queries, k=k, nprobe=nprobe)

    def retrieve_names(self, names: list[str], k: int = 10,
                       nprobe: int | None = None
                       ) -> list[list[tuple[str, float]]]:
        """Encode ``names`` then retrieve their nearest stored entities."""
        return self.retrieve(self.encode_names(names), k=k, nprobe=nprobe)

    # -- Bulk ingestion ------------------------------------------------
    def populate_from_store(self, rebuild: bool = False) -> int:
        """Index every name the store holds; returns rows ingested.

        Uses the batched ``get_many`` read path (one open + one lock
        acquisition per :data:`INGEST_BATCH` names).  With ``rebuild``
        the index is rebuilt from scratch; otherwise only names the
        index does not already hold are added and folded in.
        """
        if self.store is None:
            raise ValueError("no store attached to populate from")
        names = self.store.names()
        if rebuild:
            gathered: dict[str, np.ndarray] = {}
            for start in range(0, len(names), INGEST_BATCH):
                gathered.update(
                    self.store.get_many(names[start:start + INGEST_BATCH]))
            self.index.build(gathered)
            return len(gathered)
        ingested = 0
        for start in range(0, len(names), INGEST_BATCH):
            batch = [n for n in names[start:start + INGEST_BATCH]
                     if n not in self.index]
            if not batch:
                continue
            found = self.store.get_many(batch)
            if found:
                self.index.add(found)
                ingested += len(found)
        if ingested:
            self.index.flush()
        return ingested

    def ensure_indexed(self) -> int:
        """Populate from the store only when the index is empty."""
        if self.store is not None and len(self.index) == 0:
            return self.populate_from_store(rebuild=True)
        return 0

    def flush(self) -> int:
        """Fold any pending buffered rows into the shards."""
        return self.index.flush()

    def stats(self) -> dict:
        """Index stats plus the inner provider's (when it has any)."""
        stats = {"index": self.index.stats()}
        inner_stats = getattr(self.inner, "stats", None)
        if callable(inner_stats):
            stats["inner"] = inner_stats()
        return stats


__all__ = ["DEFAULT_AUTO_FLUSH", "INGEST_BATCH", "IndexedEmbeddingProvider"]
