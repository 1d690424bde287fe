"""Online fault-analysis serving layer.

Turns the frozen encoders of :mod:`repro.service` into a long-lived
inference service, the deployment shape the paper's "service embeddings"
imply (Sec. V-A3) and that industrial tele-PLM systems build around:

* :class:`MicroBatcher` — dynamic micro-batching with cross-request
  deduplication (flush on size or deadline), deadline-aware waits, and a
  flush watchdog that bounds provider calls;
* :class:`EmbeddingStore` / :class:`PersistentProvider` — the one
  per-name embedding cache: a bounded LRU memory tier, plus (given a
  directory) an append-only on-disk log keyed by checkpoint fingerprint
  with versioned invalidation;
* :class:`FaultAnalysisService` — one façade exposing ``embed`` plus the
  three fault-analysis calls (``rank_root_causes`` / ``propagate_alarms``
  / ``classify_fault``) with per-request deadlines, bounded retry with
  backoff, and graceful degradation to a fallback provider;
* :class:`Deadline` / :class:`CancellationToken` — the propagated budget
  and cooperative-stop primitives that keep a hung encoder from wedging
  the stack (typed failures: :class:`DeadlineExceeded`,
  :class:`FlushTimeout`);
* :class:`CancellableWorkerPool` — the façade's daemon-thread retry pool
  with hung-thread accounting and bounded replacement;
* :class:`MetricsRegistry` — counters, gauges, latency histograms with
  p50/p95/p99, and structured event logging.

The JSON-lines transports (``python -m repro serve`` / ``serve-net``)
live in :mod:`repro.netserve`.
"""

from repro.serving.batcher import MicroBatcher
from repro.serving.deadline import (
    CancellationToken,
    CancelledError,
    Deadline,
    DeadlineExceeded,
    FlushTimeout,
)
from repro.serving.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    replay_journal,
)
from repro.serving.pool import CancellableWorkerPool
from repro.serving.service import (
    FaultAnalysisService,
    ServiceConfig,
    ServingError,
)
from repro.serving.store import (
    EmbeddingStore,
    PersistentProvider,
    ProviderShapeError,
)

__all__ = [
    "CancellableWorkerPool",
    "CancellationToken",
    "CancelledError",
    "Counter",
    "Deadline",
    "DeadlineExceeded",
    "EmbeddingStore",
    "FaultAnalysisService",
    "FlushTimeout",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MicroBatcher",
    "PersistentProvider",
    "ProviderShapeError",
    "ServiceConfig",
    "ServingError",
    "replay_journal",
]
