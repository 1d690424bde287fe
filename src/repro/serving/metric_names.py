"""Single source of truth for metric-name strings.

Every metric emitted through :class:`repro.serving.metrics.MetricsRegistry`
is named here — dashboards, alerts, and tests key on these strings, so a
drifted copy (a typo'd literal in an emitting module) silently charts a
metric nobody emits.  The ``RL007`` lint rule rejects metric-shaped
literals anywhere else in ``src/repro``; import the constant, or use the
``*_for``/``train_event`` helpers for per-operation families.

Naming convention: ``serving.*`` for the online stack (service facade,
micro-batcher, worker pool, stdin loop), ``netserve.*`` for the TCP
socket frontend (connections, tenancy, admission control), ``index.*``
for the ANN retrieval tier (:mod:`repro.index`), and ``train.*`` for
metrics replayed from the training runtime's journal.
"""

from __future__ import annotations

# -- service facade (repro.serving.service) ---------------------------
SERVING_REQUESTS = "serving.requests"
SERVING_LATENCY = "serving.latency"
SERVING_BUDGET_EXHAUSTED = "serving.budget_exhausted"
SERVING_TIMEOUTS = "serving.timeouts"
SERVING_DEADLINE_REMAINING = "serving.deadline_remaining"
SERVING_ERRORS = "serving.errors"
SERVING_RETRIES = "serving.retries"
SERVING_FALLBACKS = "serving.fallbacks"
SERVING_FIT = "serving.fit"

# -- request protocol (repro.netserve.protocol) -----------------------
SERVING_BAD_REQUESTS = "serving.bad_requests"

# -- micro-batcher (repro.serving.batcher) ----------------------------
BATCHER_REQUESTS = "serving.batcher.requests"
BATCHER_QUEUE_DEPTH = "serving.batcher.queue_depth"
BATCHER_DROPPED_NAMES = "serving.batcher.dropped_names"
BATCHER_FAST_FAILS = "serving.batcher.fast_fails"
BATCHER_ERRORS = "serving.batcher.errors"
BATCHER_BATCHES = "serving.batcher.batches"
BATCHER_NAMES = "serving.batcher.names"
BATCHER_BATCH_SIZE = "serving.batcher.batch_size"
BATCHER_FLUSH_LATENCY = "serving.batcher.flush_latency"
BATCHER_HUNG_FLUSH_THREADS = "serving.batcher.hung_flush_threads"
BATCHER_RECOVERED_FLUSHES = "serving.batcher.recovered_flushes"
SERVING_ABANDONED_WAITS = "serving.abandoned_waits"
SERVING_HUNG_FLUSHES = "serving.hung_flushes"

# -- cancellable worker pool (repro.serving.pool) ---------------------
POOL_HUNG_THREADS = "serving.pool.hung_threads"
POOL_REPLACEMENTS = "serving.pool.replacements"
POOL_SKIPPED = "serving.pool.skipped"
POOL_RECOVERED = "serving.pool.recovered"

# -- socket frontend (repro.netserve) ---------------------------------
#: lifetime accepted TCP connections
NETSERVE_CONNECTIONS = "netserve.connections"
#: currently open connections (gauge)
NETSERVE_ACTIVE_CONNECTIONS = "netserve.active_connections"
#: requests read off sockets (before auth/admission)
NETSERVE_REQUESTS = "netserve.requests"
#: lines that failed JSON parsing / were not objects
NETSERVE_PROTOCOL_ERRORS = "netserve.protocol_errors"
#: requests with an unknown or missing API key
NETSERVE_AUTH_FAILURES = "netserve.auth_failures"
#: requests past every admission gate
NETSERVE_ADMITTED = "netserve.admitted"
#: requests rejected by admission control (see ``rejections_for``)
NETSERVE_REJECTIONS = "netserve.rejections"
#: admitted requests currently executing (gauge)
NETSERVE_INFLIGHT = "netserve.inflight"
#: end-to-end request latency on the socket path (histogram)
NETSERVE_LATENCY = "netserve.latency"
#: requests answered with the draining envelope during shutdown
NETSERVE_DRAINING_REJECTS = "netserve.draining_rejects"
#: graceful drains initiated (SIGTERM / close)
NETSERVE_DRAINS = "netserve.drains"

# -- ANN retrieval tier (repro.index via the service facade) ----------
#: retrieval queries answered (one per query vector)
INDEX_QUERIES = "index.queries"
#: index-query latency, embed excluded (histogram)
INDEX_QUERY_LATENCY = "index.query_latency"
#: rows folded into shards by flushes through the service
INDEX_FLUSHED_ROWS = "index.flushed_rows"

# -- training-journal replay (repro.serving.metrics.replay_journal) ---
TRAIN_STEPS = "train.steps"
TRAIN_TOKENS = "train.tokens"
TRAIN_LOSS = "train.loss"
TRAIN_TOKENS_PER_SEC = "train.tokens_per_sec"
TRAIN_STEP_WALL_S = "train.step_wall_s"
TRAIN_STEP = "train.step"
TRAIN_EVENTS = "train.events"


# -- per-operation families -------------------------------------------
def requests_for(op: str) -> str:
    """Per-operation request counter, e.g. ``serving.requests.embed``."""
    return f"{SERVING_REQUESTS}.{op}"


def latency_for(op: str) -> str:
    """Per-operation latency histogram, e.g. ``serving.latency.embed``."""
    return f"{SERVING_LATENCY}.{op}"


def fit_for(op: str) -> str:
    """Lazy-fit event name, e.g. ``serving.fit.rca``."""
    return f"{SERVING_FIT}.{op}"


def train_event(kind: str) -> str:
    """Journal-event counter, e.g. ``train.events.snapshot``."""
    return f"{TRAIN_EVENTS}.{kind}"


def rejections_for(code: str) -> str:
    """Per-reason admission-rejection counter, e.g.
    ``netserve.rejections.rate_limit``."""
    return f"{NETSERVE_REJECTIONS}.{code}"


__all__ = [
    "BATCHER_BATCHES",
    "BATCHER_BATCH_SIZE",
    "BATCHER_DROPPED_NAMES",
    "BATCHER_ERRORS",
    "BATCHER_FAST_FAILS",
    "BATCHER_FLUSH_LATENCY",
    "BATCHER_HUNG_FLUSH_THREADS",
    "BATCHER_NAMES",
    "BATCHER_QUEUE_DEPTH",
    "BATCHER_RECOVERED_FLUSHES",
    "BATCHER_REQUESTS",
    "INDEX_FLUSHED_ROWS",
    "INDEX_QUERIES",
    "INDEX_QUERY_LATENCY",
    "NETSERVE_ACTIVE_CONNECTIONS",
    "NETSERVE_ADMITTED",
    "NETSERVE_AUTH_FAILURES",
    "NETSERVE_CONNECTIONS",
    "NETSERVE_DRAINING_REJECTS",
    "NETSERVE_DRAINS",
    "NETSERVE_INFLIGHT",
    "NETSERVE_LATENCY",
    "NETSERVE_PROTOCOL_ERRORS",
    "NETSERVE_REJECTIONS",
    "NETSERVE_REQUESTS",
    "POOL_HUNG_THREADS",
    "POOL_RECOVERED",
    "POOL_REPLACEMENTS",
    "POOL_SKIPPED",
    "SERVING_ABANDONED_WAITS",
    "SERVING_BAD_REQUESTS",
    "SERVING_BUDGET_EXHAUSTED",
    "SERVING_DEADLINE_REMAINING",
    "SERVING_ERRORS",
    "SERVING_FALLBACKS",
    "SERVING_FIT",
    "SERVING_HUNG_FLUSHES",
    "SERVING_LATENCY",
    "SERVING_REQUESTS",
    "SERVING_RETRIES",
    "SERVING_TIMEOUTS",
    "TRAIN_EVENTS",
    "TRAIN_LOSS",
    "TRAIN_STEP",
    "TRAIN_STEPS",
    "TRAIN_STEP_WALL_S",
    "TRAIN_TOKENS",
    "TRAIN_TOKENS_PER_SEC",
    "fit_for",
    "latency_for",
    "rejections_for",
    "requests_for",
    "train_event",
]
