"""`FaultAnalysisService`: one façade over embedding + RCA / EAP / FCT.

Composes the serving stack the rest of :mod:`repro.serving` provides::

    caller ──▶ FaultAnalysisService.embed
                  │  deadline / bounded retry with backoff / fallback
                  ▼
               MicroBatcher  (coalesce + cross-request dedup,
                  │           deadline-aware waits, flush watchdog)
                  ▼
               PersistentProvider ──▶ EmbeddingStore (bounded LRU +
                  │                   optional disk log)
                  ▼
               primary EmbeddingProvider (the frozen encoder)

Task calls (:meth:`rank_root_causes`, :meth:`propagate_alarms`,
:meth:`classify_fault`) route through lazily-fitted adapters from
``repro.tasks.*.serve``; the embeddings they consume travel the same
pipeline, so they hit the same caches and metrics.

Degradation policy: every request carries a total budget of
``timeout_s × (max_retries + 1)`` plus backoff.  Each attempt gets a
:class:`~repro.serving.deadline.Deadline` of at most ``timeout_s``
(clipped to the remaining budget) that is *propagated into* the batcher,
so waits underneath are cooperative: a hung provider makes the attempt
fail with a typed timeout and releases its pool thread instead of
leaking it.  Exhausted budget falls back to the ``fallback`` provider
when one is configured (counted in ``serving.fallbacks``), else raises
:class:`ServingError`.  ``close()`` is bounded by ``close_timeout_s``
and never blocks on a wedged provider — hung threads are daemons and
cannot block interpreter exit.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

import numpy as np

from repro.serving import metric_names as mn
from repro.serving.batcher import MicroBatcher
from repro.serving.deadline import (
    CancellationToken,
    Deadline,
    DeadlineExceeded,
    FlushTimeout,
)
from repro.serving.metrics import MetricsRegistry
from repro.serving.pool import CancellableWorkerPool
from repro.serving.store import EmbeddingStore, PersistentProvider
from repro.service.providers import EmbeddingProvider

#: Grace added to the *external* wait on a pool job beyond the attempt
#: deadline, so a cooperative primary (which times out internally at the
#: deadline) gets to raise its own typed error before the waiter writes
#: the thread off as hung.
_ATTEMPT_GRACE_S = 0.25


class ServingError(RuntimeError):
    """Primary provider failed and no fallback could answer."""


@dataclass
class ServiceConfig:
    """Operational knobs for :class:`FaultAnalysisService`."""

    #: flush a batch at this many pending unique names
    max_batch_size: int = 32
    #: ... or when the oldest pending name has waited this long
    max_wait_ms: float = 5.0
    #: per-call wall-clock budget for one primary attempt (seconds)
    timeout_s: float = 30.0
    #: additional attempts after the first failed/timed-out one
    max_retries: int = 2
    #: first retry sleeps this long; doubles per attempt
    backoff_s: float = 0.05
    #: capacity of the store's in-memory LRU tier (the only per-name
    #: cache, with or without a ``store_dir``)
    lru_capacity: int = 4096
    #: watchdog bound on one provider flush inside the batcher;
    #: ``None`` inherits ``timeout_s``
    flush_timeout_s: float | None = None
    #: upper bound on how long :meth:`FaultAnalysisService.close` blocks
    close_timeout_s: float = 5.0
    #: concurrent primary attempts the retry pool can run
    max_workers: int = 8
    #: circuit-breaker: with this many provider flushes wedged, further
    #: flushes fail fast instead of stacking more hung threads
    max_hung_flushes: int = 8

    def __post_init__(self):
        if self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.flush_timeout_s is not None and self.flush_timeout_s <= 0:
            raise ValueError("flush_timeout_s must be positive")
        if self.close_timeout_s <= 0:
            raise ValueError("close_timeout_s must be positive")
        if self.max_workers < 1:
            raise ValueError("max_workers must be positive")
        if self.max_hung_flushes < 1:
            raise ValueError("max_hung_flushes must be positive")

    @property
    def effective_flush_timeout_s(self) -> float:
        """The watchdog bound actually armed on the batcher."""
        return (self.timeout_s if self.flush_timeout_s is None
                else self.flush_timeout_s)

    def total_budget_s(self) -> float:
        """Worst-case wall clock for one request: attempts + backoff."""
        attempts = self.max_retries + 1
        backoff = sum(self.backoff_s * (2 ** a)
                      for a in range(self.max_retries))
        return self.timeout_s * attempts + backoff


class FaultAnalysisService:
    """Batched, cached, observable front-end over a frozen encoder.

    Parameters
    ----------
    provider:
        The primary encoder (any :class:`EmbeddingProvider`).
    fallback:
        Optional cheaper provider answering when the primary is exhausted
        (timeouts/errors after retries) — e.g. a
        :class:`~repro.service.WordEmbeddingProvider` of the same ``dim``.
    store_dir:
        Directory for the persistent embedding store; ``None`` keeps only
        the store's bounded LRU tier (``config.lru_capacity`` names).
    fingerprint:
        Version key for the store — pass
        :func:`repro.models.checkpoint.checkpoint_fingerprint` (or
        ``model_fingerprint``) output so re-training invalidates old
        vectors.
    mode:
        Data-mode component of the store key (matches the provider's
        ``mode`` when it has one).
    rca / eap / fct:
        Optional task adapters (``repro.tasks.*.serve``); fitted lazily on
        first use with embeddings drawn through this service.
    index:
        Optional :class:`~repro.index.VectorIndex` enabling
        :meth:`retrieve`.  The provider stack is wrapped in an
        :class:`~repro.index.IndexedEmbeddingProvider` so every encode
        keeps the index in sync, and task adapters get a retriever for
        candidate generation.  Must carry the service's fingerprint.
    """

    def __init__(self, provider: EmbeddingProvider, *,
                 fallback: EmbeddingProvider | None = None,
                 config: ServiceConfig | None = None,
                 metrics: MetricsRegistry | None = None,
                 store_dir=None, fingerprint: str = "unversioned",
                 mode: str | None = None,
                 rca=None, eap=None, fct=None, index=None):
        self.config = config or ServiceConfig()
        self.metrics = metrics or MetricsRegistry()
        self.fallback = fallback
        self.rca = rca
        self.eap = eap
        self.fct = fct
        if fallback is not None and fallback.dim != provider.dim:
            raise ValueError("fallback dim must match the primary provider")

        self.store = EmbeddingStore(
            store_dir, fingerprint=fingerprint, label=provider.label,
            mode=mode or getattr(provider, "mode", "name"),
            lru_capacity=self.config.lru_capacity)
        stack: EmbeddingProvider = PersistentProvider(provider, self.store)
        self.index = index
        self._retriever = None
        if index is not None:
            # Local import: repro.index imports repro.serving at module
            # level, so the reverse edge must stay call-time only.
            from repro.index.provider import IndexedEmbeddingProvider

            # Only a disk-backed store may seed the index: a memory-only
            # one starts empty and must not rebuild an existing index.
            self._retriever = IndexedEmbeddingProvider(
                stack, index,
                store=self.store if store_dir is not None else None)
            self._retriever.ensure_indexed()
            stack = self._retriever
            for adapter in (rca, eap, fct):
                attach = getattr(adapter, "attach_retriever", None)
                if callable(attach):
                    attach(self._retriever)
        self.batcher = MicroBatcher(
            stack,
            max_batch_size=self.config.max_batch_size,
            max_wait_ms=self.config.max_wait_ms,
            flush_timeout_s=self.config.effective_flush_timeout_s,
            max_hung_flushes=self.config.max_hung_flushes,
            metrics=self.metrics)
        self._pool = CancellableWorkerPool(
            max_workers=self.config.max_workers,
            name_prefix="repro-serving", metrics=self.metrics)
        self._fit_lock = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------------
    # Resilience plumbing
    # ------------------------------------------------------------------
    def _call_with_policy(self, op: str, primary, fallback=None,
                          deadline: Deadline | None = None):
        """Deadline + bounded retry with backoff + graceful degradation.

        ``primary`` is called as ``primary(deadline, token)`` on a pool
        worker; deadline-aware primaries (the embed path) honour the
        budget cooperatively and release their thread, others are bounded
        by the external wait and written off as hung if they overrun.

        A caller-supplied ``deadline`` (e.g. the per-request budget a
        network frontend issued at admission) *caps* the configured
        budget: the overall budget is the smaller of
        ``config.total_budget_s()`` and the deadline's remaining time, so
        an end-to-end budget propagates through every retry and wait.
        An already-expired deadline degrades immediately (fallback or
        :class:`ServingError`) without touching the provider.
        """
        self.metrics.counter(mn.SERVING_REQUESTS).inc()
        self.metrics.counter(mn.requests_for(op)).inc()
        attempts = self.config.max_retries + 1
        budget_s = self.config.total_budget_s()
        if deadline is not None:
            budget_s = min(budget_s, deadline.remaining())
        overall = Deadline.after(budget_s)
        last_error: BaseException | None = None
        with self.metrics.time(mn.SERVING_LATENCY):
            for attempt in range(attempts):
                remaining = overall.remaining()
                if remaining <= 0:
                    # Budget already spent (e.g. by earlier slow attempts
                    # plus backoff): degrade now instead of queueing more
                    # work behind a stuck provider.
                    self.metrics.counter(mn.SERVING_BUDGET_EXHAUSTED).inc()
                    break
                deadline = Deadline.after(
                    min(self.config.timeout_s, remaining))
                token = CancellationToken()
                job = self._pool.submit(
                    lambda d=deadline, t=token: primary(d, t), token=token)
                timed_out = not job.wait(
                    deadline.remaining() + _ATTEMPT_GRACE_S)
                if timed_out:
                    self._pool.abandon(job)
                    last_error = DeadlineExceeded(
                        f"{op} attempt exceeded "
                        f"{self.config.timeout_s:g}s")
                    self.metrics.counter(mn.SERVING_TIMEOUTS).inc()
                    self.metrics.emit("timeout", op=op, attempt=attempt)
                else:
                    try:
                        with self.metrics.time(mn.latency_for(op)):
                            # repro-lint: allow[RL002] wait() above already bounded this attempt; result() raises unless the job settled
                            result = job.result()
                        self.metrics.histogram(
                            mn.SERVING_DEADLINE_REMAINING).observe(
                            overall.remaining())
                        return result
                    except (DeadlineExceeded, FlushTimeout) as error:
                        last_error = error
                        self.metrics.counter(mn.SERVING_TIMEOUTS).inc()
                        self.metrics.emit("timeout", op=op, attempt=attempt,
                                          error=repr(error))
                    except Exception as error:  # noqa: BLE001 — retried
                        last_error = error
                        self.metrics.counter(mn.SERVING_ERRORS).inc()
                        self.metrics.emit("error", op=op, attempt=attempt,
                                          error=repr(error))
                if attempt < attempts - 1:
                    self.metrics.counter(mn.SERVING_RETRIES).inc()
                    backoff = self.config.backoff_s * (2 ** attempt)
                    time.sleep(min(backoff, overall.remaining()))
            if fallback is not None:
                self.metrics.counter(mn.SERVING_FALLBACKS).inc()
                self.metrics.emit("fallback", op=op)
                return fallback()
            raise ServingError(
                f"{op} failed after {attempts} attempt(s)") from last_error

    # ------------------------------------------------------------------
    # Embedding
    # ------------------------------------------------------------------
    def embed(self, names: list[str],
              deadline: Deadline | None = None) -> np.ndarray:
        """Service embeddings for ``names`` through the full stack.

        ``deadline`` (optional) caps the total budget — see
        :meth:`_call_with_policy`.
        """
        fallback = None
        if self.fallback is not None:
            fallback = lambda: self.fallback.encode_names(names)  # noqa: E731

        def primary(attempt_deadline: Deadline, token: CancellationToken):
            token.raise_if_cancelled()
            return self.batcher.encode(names, deadline=attempt_deadline)

        return self._call_with_policy("embed", primary, fallback,
                                      deadline=deadline)

    # ------------------------------------------------------------------
    # Fault-analysis calls
    # ------------------------------------------------------------------
    def _fitted(self, adapter, op: str):
        """Fit ``adapter`` on first use (embeddings via this service).

        The embed runs *outside* ``_fit_lock`` (double-checked): a slow or
        hung first encode must not serialize every other task call behind
        the lock.  Concurrent first calls may both pay for the embed; the
        re-check under the lock makes exactly one of them fit the adapter
        (same liveness-over-dedup trade as ``PersistentProvider``).
        """
        if adapter is None:
            raise ValueError(f"no {op} adapter configured on this service")
        with self._fit_lock:
            if adapter.fitted:
                return adapter
        with self.metrics.time(mn.fit_for(op)):
            vectors = self.embed(adapter.event_names)
            with self._fit_lock:
                if not adapter.fitted:
                    adapter.fit(vectors)
                    self.metrics.emit("adapter_fitted", op=op)
        return adapter

    def rank_root_causes(self, state, top_k: int | None = None,
                         deadline: Deadline | None = None
                         ) -> list[tuple[str, float]]:
        """RCA: nodes of ``state`` ranked most-likely-root first."""
        adapter = self._fitted(self.rca, "rca")
        ranking = self._call_with_policy(
            "rank_root_causes", lambda d, t: adapter.rank(state),
            deadline=deadline)
        return ranking[:top_k] if top_k is not None else ranking

    def propagate_alarms(self, pairs,
                         deadline: Deadline | None = None) -> list[dict]:
        """EAP: trigger verdict + confidence for each candidate pair."""
        adapter = self._fitted(self.eap, "eap")
        return self._call_with_policy(
            "propagate_alarms", lambda d, t: adapter.predict(pairs),
            deadline=deadline)

    def classify_fault(self, alarm_name: str, top_k: int = 5,
                       deadline: Deadline | None = None) -> list[dict]:
        """FCT: most plausible next-hop alarms for ``alarm_name``."""
        adapter = self._fitted(self.fct, "fct")
        return self._call_with_policy(
            "classify_fault", lambda d, t: adapter.trace(alarm_name,
                                                         top_k=top_k),
            deadline=deadline)

    # ------------------------------------------------------------------
    # Retrieval (ANN index tier)
    # ------------------------------------------------------------------
    def retrieve(self, names: list[str], k: int = 10,
                 nprobe: int | None = None,
                 deadline: Deadline | None = None) -> list[list[dict]]:
        """Top-``k`` nearest stored entities for each of ``names``.

        Embeds ``names`` through the full serving stack (batching, store,
        retries — deadline-aware), then answers from the ANN index; the
        remaining budget is re-checked between the two stages so a slow
        embed cannot push the query past its deadline.
        """
        if self.index is None:
            raise ValueError("no vector index configured on this service")
        vectors = self.embed(names, deadline=deadline)
        if deadline is not None and deadline.remaining() <= 0:
            self.metrics.counter(mn.SERVING_BUDGET_EXHAUSTED).inc()
            raise DeadlineExceeded("retrieve: budget spent during embed")

        def run(attempt_deadline: Deadline, token: CancellationToken):
            token.raise_if_cancelled()
            with self.metrics.time(mn.INDEX_QUERY_LATENCY):
                hits = self.index.query(vectors, k=k, nprobe=nprobe)
            self.metrics.counter(mn.INDEX_QUERIES).inc(len(hits))
            return [[{"name": name, "score": round(score, 6)}
                     for name, score in per_query] for per_query in hits]

        return self._call_with_policy("retrieve", run, deadline=deadline)

    # ------------------------------------------------------------------
    # Observability / lifecycle
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Request counts, cache hit rate, latency percentiles, tiers."""
        snapshot = self.metrics.snapshot()
        store = self.store.stats()
        latency = snapshot["histograms"].get(
            mn.SERVING_LATENCY, {"count": 0, "mean": 0.0,
                                 "p50": 0.0, "p95": 0.0, "p99": 0.0})
        return {
            "requests": snapshot["counters"].get(mn.SERVING_REQUESTS, 0),
            "cache": {key: store[key]
                      for key in ("hits", "misses", "hit_rate")},
            "latency": latency,
            "batcher": self.batcher.stats(),
            "pool": self._pool.stats(),
            "store": store,
            "index": self.index.stats() if self.index else None,
            "metrics": snapshot,
        }

    def close(self) -> None:
        """Stop the batcher worker and the retry pool (idempotent).

        Bounded by ``config.close_timeout_s``: a provider wedged inside a
        flush cannot hold shutdown hostage — its thread is a daemon and
        is simply left behind.
        """
        if self._closed:
            return
        self._closed = True
        self.batcher.close(timeout=self.config.close_timeout_s)
        self._pool.shutdown()
        if self._retriever is not None:
            # Fold any buffered adds into the shards so vectors encoded
            # during this process survive into the next one.
            flushed = self._retriever.flush()
            if flushed:
                self.metrics.counter(mn.INDEX_FLUSHED_ROWS).inc(flushed)

    def __enter__(self) -> "FaultAnalysisService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
