"""Embedding store: bounded in-memory LRU tier + optional append-only disk log.

This is the serving stack's one per-name embedding cache.  Every process
start would otherwise re-encode the same target names; with a
``directory`` the store makes the cache survive: vectors live in an
append-only JSON-lines log on disk, keyed by ``(fingerprint, provider
label, mode, name)``, with a bounded LRU dict in front so hot names never
touch the disk twice.  With ``directory=None`` the store is the LRU alone
— bounded memory, nothing persisted.

*Versioned invalidation* falls out of the key: the fingerprint component
comes from :func:`repro.models.checkpoint.checkpoint_fingerprint` (or
:func:`~repro.models.checkpoint.model_fingerprint`), so re-training the
encoder changes the namespace and stale vectors are simply never matched
again.  ``compact()`` rewrites the log keeping only the live namespace.

The append-only format is crash-tolerant by construction: a torn final
line (killed process) is detected and skipped on the next open.
"""

from __future__ import annotations

import json
import threading
from collections import OrderedDict
from pathlib import Path

import numpy as np

from repro.ioutil import atomic_writer
from repro.service.providers import EmbeddingProvider

_LOG_NAME = "embeddings.jsonl"


class ProviderShapeError(ValueError):
    """An inner provider returned a matrix misaligned with its names.

    Raised by :meth:`PersistentProvider.encode_names` when the wrapped
    encoder yields a different number of rows than names requested.
    Persisting such a batch would zip names onto the wrong vectors and
    poison the store for every later process sharing the fingerprint, so
    the batch is rejected before anything is written.
    """


class EmbeddingStore:
    """Two-tier (LRU memory / append-only disk) per-name embedding cache.

    One store instance binds one namespace — ``(fingerprint, label,
    mode)`` — and maps names to vectors within it.  Entries written under
    other namespaces coexist in the same log file but are invisible, which
    is what makes checkpoint-fingerprint invalidation free.

    ``directory=None`` drops the disk tier: no log file, ``put_many``
    fills only the LRU, and an evicted name is simply a miss.
    """

    def __init__(self, directory: str | Path | None,
                 fingerprint: str = "unversioned",
                 label: str = "provider", mode: str = "name",
                 lru_capacity: int = 4096):
        if lru_capacity < 1:
            raise ValueError("lru_capacity must be positive")
        self.directory = None if directory is None else Path(directory)
        self.fingerprint = fingerprint
        self.label = label
        self.mode = mode
        self.lru_capacity = lru_capacity
        self.path: Path | None = None
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
            self.path = self.directory / _LOG_NAME
        self._lock = threading.RLock()
        self._lru: OrderedDict[str, np.ndarray] = OrderedDict()
        # name -> byte offset of its newest record in the log (this
        # namespace only); vectors are re-read lazily on LRU miss.
        self._offsets: dict[str, int] = {}
        self.hits = 0
        self.misses = 0
        self._scan()

    # ------------------------------------------------------------------
    # Disk log
    # ------------------------------------------------------------------
    def _matches(self, record: dict) -> bool:
        return (record.get("v") == self.fingerprint
                and record.get("p") == self.label
                and record.get("m") == self.mode)

    def _scan(self) -> None:
        """Index the log: newest offset per name in this namespace."""
        if self.path is None or not self.path.exists():
            return
        with open(self.path, "rb") as handle:
            offset = 0
            for raw in handle:
                line = raw.decode("utf-8", errors="replace").strip()
                start, offset = offset, offset + len(raw)
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue  # torn trailing write from a killed process
                if self._matches(record):
                    self._offsets[record["n"]] = start

    def _read_at(self, offset: int) -> np.ndarray | None:
        """Decode the record at ``offset``; ``None`` if torn/unreadable.

        A record that indexed cleanly can still fail to read later (the
        file truncated or corrupted underneath a live store).  That must
        degrade to a cache miss — the provider re-encodes — never to a
        ``JSONDecodeError`` escaping ``get()``.
        """
        try:
            with open(self.path, "rb") as handle:
                return self._decode_at(handle, offset)
        except OSError:
            return None

    @staticmethod
    def _decode_at(handle, offset: int) -> np.ndarray | None:
        """Decode one record from an already-open handle; ``None`` if torn."""
        try:
            handle.seek(offset)
            record = json.loads(handle.readline().decode("utf-8"))
            return np.asarray(record["e"], dtype=np.float64)
        except (OSError, json.JSONDecodeError, KeyError, UnicodeDecodeError,
                TypeError, ValueError):
            return None

    # ------------------------------------------------------------------
    # LRU tier
    # ------------------------------------------------------------------
    def _lru_get(self, name: str) -> np.ndarray | None:
        vector = self._lru.get(name)
        if vector is not None:
            self._lru.move_to_end(name)
        return vector

    def _lru_put(self, name: str, vector: np.ndarray) -> None:
        self._lru[name] = vector
        self._lru.move_to_end(name)
        while len(self._lru) > self.lru_capacity:
            self._lru.popitem(last=False)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def get(self, name: str) -> np.ndarray | None:
        """The stored vector for ``name``, or ``None`` on a full miss."""
        with self._lock:
            vector = self._lru_get(name)
            if vector is None and name in self._offsets:
                vector = self._read_at(self._offsets[name])
                if vector is None:
                    # Torn/unreadable record: forget the offset so the
                    # miss is permanent rather than re-read every call.
                    del self._offsets[name]
                else:
                    self._lru_put(name, vector)
            if vector is None:
                self.misses += 1
            else:
                self.hits += 1
            return vector

    def get_many(self, names: list[str]) -> dict[str, np.ndarray]:
        """Vectors for every known name (missing names are absent).

        One lock acquisition and at most one ``open()`` for the whole
        batch: LRU hits are collected first, then every missing-offset
        record is read through a single file handle.  This is the index
        build ingestion path, where per-name opens dominate wall time.
        """
        found: dict[str, np.ndarray] = {}
        with self._lock:
            to_read: dict[str, int] = {}
            for name in dict.fromkeys(names):
                vector = self._lru_get(name)
                if vector is not None:
                    found[name] = vector
                    self.hits += 1
                elif name in self._offsets:
                    to_read[name] = self._offsets[name]
                else:
                    self.misses += 1
            if to_read:
                try:
                    handle = open(self.path, "rb")
                except OSError:
                    handle = None
                try:
                    for name, offset in to_read.items():
                        vector = (self._decode_at(handle, offset)
                                  if handle is not None else None)
                        if vector is None:
                            # Torn/unreadable record: same permanent-miss
                            # policy as get().
                            del self._offsets[name]
                            self.misses += 1
                        else:
                            self._lru_put(name, vector)
                            found[name] = vector
                            self.hits += 1
                finally:
                    if handle is not None:
                        handle.close()
        return found

    def _ensure_newline_terminated(self) -> None:
        """Repair a torn trailing write so appends start on a fresh line."""
        if not self.path.exists() or not self.path.stat().st_size:
            return
        with open(self.path, "rb") as handle:
            handle.seek(-1, 2)
            torn = handle.read(1) != b"\n"
        if torn:
            with open(self.path, "ab") as handle:
                handle.write(b"\n")

    def put_many(self, vectors: dict[str, np.ndarray]) -> None:
        """Append vectors to the log (when there is one); refresh the LRU."""
        if not vectors:
            return
        with self._lock:
            if self.path is not None:
                self._ensure_newline_terminated()
                with open(self.path, "ab") as handle:
                    for name, vector in vectors.items():
                        record = {"v": self.fingerprint, "p": self.label,
                                  "m": self.mode, "n": name,
                                  "e": [float(x) for x in np.asarray(vector)]}
                        start = handle.tell()
                        handle.write(json.dumps(record,
                                                ensure_ascii=False).encode())
                        handle.write(b"\n")
                        self._offsets[name] = start
            for name, vector in vectors.items():
                self._lru_put(name, np.asarray(vector, dtype=np.float64))

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._lru or name in self._offsets

    def __len__(self) -> int:
        """Distinct live names across both tiers.

        A name can live in only one tier — LRU-only after a torn-record
        eviction dropped its offset, disk-only after an LRU eviction — so
        the count is the union, never the sum.
        """
        with self._lock:
            return len(set(self._offsets) | set(self._lru))

    def names(self) -> list[str]:
        """Sorted distinct live names (the index-build ingestion set)."""
        with self._lock:
            return sorted(set(self._offsets) | set(self._lru))

    def compact(self) -> int:
        """Rewrite the log keeping only this namespace; returns kept count.

        Garbage-collects entries from superseded fingerprints (and other
        providers/modes).  Safe to call while the store is live.  Records
        stream straight to the temp file — the rewritten log is never
        materialised in memory, so compacting a million-entity store costs
        one record of RAM, not gigabytes.  The temp+fsync+rename discipline
        (:func:`repro.ioutil.atomic_writer`) still guarantees a crash
        mid-compaction leaves the previous complete log, never a partial
        one.  Names alive only in the LRU (their disk record was torn and
        evicted) are re-persisted from memory rather than dropped.  A
        memory-only store has nothing to rewrite and returns its LRU size.
        """
        with self._lock:
            if self.path is None:
                return len(self._lru)
            disk_only = {name: offset
                         for name, offset in self._offsets.items()
                         if name not in self._lru}
            offsets: dict[str, int] = {}
            read_handle = None
            if disk_only:
                try:
                    read_handle = open(self.path, "rb")
                except OSError:
                    read_handle = None
            try:
                with atomic_writer(self.path) as out:
                    position = 0

                    def emit(name: str, vector: np.ndarray) -> None:
                        nonlocal position
                        record = {"v": self.fingerprint, "p": self.label,
                                  "m": self.mode, "n": name,
                                  "e": [float(x) for x in vector]}
                        line = json.dumps(
                            record, ensure_ascii=False).encode() + b"\n"
                        out.write(line)
                        offsets[name] = position
                        position += len(line)

                    for name, offset in disk_only.items():
                        vector = (self._decode_at(read_handle, offset)
                                  if read_handle is not None else None)
                        if vector is not None:  # torn records fall out
                            emit(name, vector)
                    for name, vector in self._lru.items():
                        emit(name, vector)
            finally:
                if read_handle is not None:
                    read_handle.close()
            self._offsets = offsets
            return len(offsets)

    def stats(self) -> dict:
        """Hit/miss counters and tier sizes (feeds the metrics registry).

        ``entries`` is the *distinct* live-name count (tier union);
        ``memory_entries``/``disk_entries`` are per-tier sizes whose sum
        double-counts names resident in both tiers — consumers wanting
        "how many names does this store hold" must use ``entries``.
        """
        with self._lock:
            total = self.hits + self.misses
            return {
                "hits": self.hits,
                "misses": self.misses,
                "hit_rate": self.hits / total if total else 0.0,
                "entries": len(set(self._offsets) | set(self._lru)),
                "memory_entries": len(self._lru),
                "disk_entries": len(self._offsets),
            }


class PersistentProvider(EmbeddingProvider):
    """Provider decorator backed by an :class:`EmbeddingStore`.

    Drop-in for any :class:`~repro.service.providers.EmbeddingProvider`:
    names found in the store (from *any* earlier process with the same
    fingerprint, when the store is disk-backed) skip the inner encoder
    entirely; fresh names are encoded once, stored, and served from memory
    afterwards.
    """

    def __init__(self, inner: EmbeddingProvider, store: EmbeddingStore):
        self.inner = inner
        self.store = store
        self.label = inner.label
        self.dim = inner.dim

    def encode_names(self, names: list[str]) -> np.ndarray:
        # Only the store read and write take the store's lock — never the
        # inner encode.  A slow (or hung) encoder therefore cannot
        # serialize traffic that the disk/LRU tiers can already answer.
        # Two threads racing on the same missing name may both encode it;
        # the second put_many wins and each caller returns a
        # self-consistent matrix (duplicate names within one request
        # always share one vector, drawn from this call's ``found`` map).
        found = self.store.get_many(names)
        missing = [n for n in dict.fromkeys(names) if n not in found]
        if missing:
            vectors = np.asarray(self.inner.encode_names(missing))
            if vectors.ndim != 2 or vectors.shape[0] != len(missing):
                # Zipping a misaligned matrix would persist wrong
                # name->vector pairs for every later process; refuse it.
                raise ProviderShapeError(
                    f"provider {self.label!r} returned shape "
                    f"{vectors.shape} for {len(missing)} names")
            fresh = {name: vector
                     for name, vector in zip(missing, vectors)}
            self.store.put_many(fresh)
            found.update(fresh)
        return np.stack([found[n] for n in names])

    def stats(self) -> dict:
        """The underlying store's counters."""
        return self.store.stats()
