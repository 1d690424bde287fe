"""Metrics registry for the serving layer: counters, gauges, histograms.

The online serving stack (:mod:`repro.serving`) needs the classic
observability triple — request counters, state gauges, and latency
histograms with tail percentiles — without pulling in a metrics client the
container does not ship.  Everything here is dependency-free and
thread-safe: the micro-batcher's worker thread, the façade's caller
threads, and the stdin request loop all write to one shared
:class:`MetricsRegistry`.

Histograms keep a bounded ring of recent observations; percentiles use
linear interpolation between closest ranks (the same convention as
``numpy.percentile``), so ``p50`` of ``1..100`` is ``50.5``.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path
from typing import Callable

from repro.serving import metric_names as mn


class Counter:
    """Monotonically increasing count (requests, cache hits, fallbacks)."""

    def __init__(self, name: str):
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        """Current count."""
        return self._value


class Gauge:
    """Last-write-wins instantaneous value (queue depth, store size)."""

    def __init__(self, name: str):
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        """Record the current level."""
        with self._lock:
            self._value = float(value)

    def add(self, delta: float) -> None:
        """Shift the level by ``delta`` (atomic; negative allowed).

        For up/down tracking shared across threads — in-flight requests,
        hung worker threads — where ``set`` would race.
        """
        with self._lock:
            self._value += float(delta)

    @property
    def value(self) -> float:
        """Most recently set level."""
        return self._value


class Histogram:
    """Bounded sample window with closest-rank-interpolated percentiles.

    Keeps the most recent ``window`` observations in a ring buffer — old
    samples age out, so long-lived services report *current* latency, not
    the all-time mixture.
    """

    def __init__(self, name: str, window: int = 2048):
        if window < 1:
            raise ValueError("window must be positive")
        self.name = name
        self.window = window
        self._samples: list[float] = []
        self._cursor = 0
        self._count = 0
        self._total = 0.0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Record one observation (e.g. a latency in seconds)."""
        value = float(value)
        with self._lock:
            if len(self._samples) < self.window:
                self._samples.append(value)
            else:
                self._samples[self._cursor] = value
                self._cursor = (self._cursor + 1) % self.window
            self._count += 1
            self._total += value

    @property
    def count(self) -> int:
        """Total number of observations ever recorded."""
        return self._count

    @property
    def mean(self) -> float:
        """Mean over *all* observations (not just the window)."""
        return self._total / self._count if self._count else 0.0

    def percentile(self, q: float) -> float:
        """Linear-interpolated percentile ``q`` in [0, 100] of the window."""
        if not 0.0 <= q <= 100.0:
            raise ValueError("percentile must be in [0, 100]")
        with self._lock:
            ordered = sorted(self._samples)
        if not ordered:
            return 0.0
        rank = (len(ordered) - 1) * (q / 100.0)
        low = int(rank)
        high = min(low + 1, len(ordered) - 1)
        fraction = rank - low
        return ordered[low] * (1.0 - fraction) + ordered[high] * fraction

    def summary(self) -> dict[str, float]:
        """count / mean / p50 / p95 / p99 snapshot."""
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }


class MetricsRegistry:
    """Named counters/gauges/histograms plus a structured event log.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create, so
    collaborating components (batcher, store, façade, server) share
    instruments by name.  ``emit`` appends a structured event to a bounded
    in-memory log and forwards it to an optional sink callable — e.g.
    ``lambda line: print(line, file=sys.stderr)`` for JSON-lines shipping.
    """

    def __init__(self, event_capacity: int = 1024,
                 sink: Callable[[str], None] | None = None):
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._events: list[dict] = []
        self._event_capacity = event_capacity
        self._event_seq = 0
        self._sink = sink

    # ------------------------------------------------------------------
    # Instruments
    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        """Get or create the counter called ``name``."""
        with self._lock:
            if name not in self._counters:
                self._counters[name] = Counter(name)
            return self._counters[name]

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge called ``name``."""
        with self._lock:
            if name not in self._gauges:
                self._gauges[name] = Gauge(name)
            return self._gauges[name]

    def histogram(self, name: str, window: int = 2048) -> Histogram:
        """Get or create the histogram called ``name``."""
        with self._lock:
            if name not in self._histograms:
                self._histograms[name] = Histogram(name, window=window)
            return self._histograms[name]

    def time(self, name: str) -> "_Timer":
        """Context manager observing elapsed seconds into histogram ``name``."""
        return _Timer(self.histogram(name))

    # ------------------------------------------------------------------
    # Structured events
    # ------------------------------------------------------------------
    def emit(self, kind: str, **fields) -> dict:
        """Append a structured event; returns the event dict."""
        with self._lock:
            self._event_seq += 1
            event = {"seq": self._event_seq, "kind": kind, **fields}
            self._events.append(event)
            if len(self._events) > self._event_capacity:
                del self._events[: len(self._events) - self._event_capacity]
            sink = self._sink
        if sink is not None:
            sink(json.dumps(event, ensure_ascii=False, default=str))
        return event

    @property
    def events(self) -> list[dict]:
        """The retained structured events, oldest first."""
        with self._lock:
            return list(self._events)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Nested dict of every instrument's current state."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        return {
            "counters": {n: c.value for n, c in sorted(counters.items())},
            "gauges": {n: g.value for n, g in sorted(gauges.items())},
            "histograms": {n: h.summary()
                           for n, h in sorted(histograms.items())},
        }

    def render(self) -> str:
        """Human-readable multi-line dump (the ``--stats`` output)."""
        snap = self.snapshot()
        lines = ["== serving stats =="]
        for name, value in snap["counters"].items():
            lines.append(f"counter   {name}: {value}")
        for name, value in snap["gauges"].items():
            lines.append(f"gauge     {name}: {value:g}")
        for name, summary in snap["histograms"].items():
            lines.append(
                f"histogram {name}: count={summary['count']} "
                f"mean={summary['mean']:.6f} p50={summary['p50']:.6f} "
                f"p95={summary['p95']:.6f} p99={summary['p99']:.6f}")
        return "\n".join(lines)


class _Timer:
    """Context manager used by :meth:`MetricsRegistry.time`."""

    def __init__(self, histogram: Histogram):
        self._histogram = histogram
        self._start = 0.0

    def __enter__(self) -> "_Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self._histogram.observe(time.perf_counter() - self._start)


def replay_journal(path: str | Path,
                   registry: MetricsRegistry | None = None) -> MetricsRegistry:
    """Replay a training-run journal into a metrics registry.

    The training runtime (:mod:`repro.training.runtime`) appends one JSON
    event per step plus lifecycle events to ``journal.jsonl``.  This folds
    that log into the same instruments the serving stack exposes: step
    counters, loss / throughput / wall-time histograms, and one structured
    event per lifecycle transition — so ops tooling observes training and
    serving through a single registry.  Malformed (torn) lines are skipped.
    """
    registry = registry or MetricsRegistry()
    path = Path(path)
    if not path.exists():
        return registry
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            event = json.loads(line)
        except json.JSONDecodeError:
            continue
        kind = event.get("kind")
        if kind == "step":
            registry.counter(mn.TRAIN_STEPS).inc()
            registry.counter(mn.TRAIN_TOKENS).inc(int(event.get("tokens", 0)))
            registry.histogram(mn.TRAIN_LOSS).observe(
                float(event.get("loss", 0.0)))
            registry.histogram(mn.TRAIN_TOKENS_PER_SEC).observe(
                float(event.get("tokens_per_sec", 0.0)))
            registry.histogram(mn.TRAIN_STEP_WALL_S).observe(
                float(event.get("wall_s", 0.0)))
            registry.gauge(mn.TRAIN_STEP).set(int(event.get("step", 0)))
        elif kind:
            registry.counter(mn.train_event(kind)).inc()
            registry.emit(kind,
                          **{k: v for k, v in event.items() if k != "kind"})
    return registry
