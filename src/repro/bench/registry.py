"""Registry of known benchmarks: metrics, directions, tolerances.

This module is the single source of truth for ``bench.*`` benchmark ids
(the ``RL007`` lint rule rejects ``bench.``-shaped literals anywhere else
in ``src/repro``) and for each benchmark's gating policy: which metrics
exist, which direction is better, and how much regression the CI gate
tolerates before failing.

Tolerance philosophy
--------------------
Absolute timings (milliseconds, names/sec) vary wildly across hosts —
the committed baseline was measured on one machine, CI runs on another —
so raw latencies are *tracked* (``tolerance=None``: recorded, charted,
never gating) while host-independent ratios (speedups), invariant counts
(protocol errors, forward passes on a warm cache), and generous relative
bounds carry the gate.  A metric whose bar only binds under certain run
conditions (the ≥2x data-parallel speedup needs ≥4 CPUs) names a
``binding_key`` into the run's config; when that key resolves to a falsy
value the metric is skipped with a recorded note instead of failing on a
1-CPU runner.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Directions a metric can improve in.
HIGHER_IS_BETTER = "higher_is_better"
LOWER_IS_BETTER = "lower_is_better"
DIRECTIONS = (HIGHER_IS_BETTER, LOWER_IS_BETTER)

#: Namespace prefix every benchmark id carries ("bench.<short_name>").
NAMESPACE = "bench."

# -- benchmark ids (the canonical ``bench.*`` strings) -----------------
BENCH_TRAIN_STEP = "bench.train_step"
BENCH_NETSERVE_LOAD = "bench.netserve_load"
BENCH_SERVING_THROUGHPUT = "bench.serving_throughput"
BENCH_SERVING_DEGRADATION = "bench.serving_degradation"
BENCH_INDEX_RETRIEVAL = "bench.index_retrieval"


def short_name(bench_id: str) -> str:
    """``bench.train_step`` -> ``train_step`` (file-naming stem)."""
    if not bench_id.startswith(NAMESPACE):
        raise ValueError(f"benchmark id must start with {NAMESPACE!r}: "
                         f"{bench_id!r}")
    return bench_id[len(NAMESPACE):]


@dataclass(frozen=True)
class MetricSpec:
    """Gating policy for one metric of one benchmark.

    ``tolerance`` is the allowed *relative* regression (0.5 = the current
    value may be up to 50% worse than baseline before the gate fails);
    ``None`` means the metric is tracked and charted but never gates.
    ``abs_tolerance`` is the allowed *absolute* worsening, needed when the
    baseline is 0 (a relative bound on zero admits nothing); when both are
    set the more permissive bound wins.  ``binding_key`` is a dotted path
    into the run's ``config`` — a falsy value there makes the metric
    non-binding for that run (skipped with a note).
    """

    name: str
    direction: str = LOWER_IS_BETTER
    tolerance: float | None = None
    abs_tolerance: float | None = None
    binding_key: str | None = None
    unit: str = ""

    def __post_init__(self):
        if self.direction not in DIRECTIONS:
            raise ValueError(f"direction must be one of {DIRECTIONS}, "
                             f"got {self.direction!r}")
        if self.tolerance is not None and self.tolerance < 0:
            raise ValueError(f"tolerance must be >= 0, got {self.tolerance}")
        if self.abs_tolerance is not None and self.abs_tolerance < 0:
            raise ValueError(
                f"abs_tolerance must be >= 0, got {self.abs_tolerance}")

    @property
    def gating(self) -> bool:
        """Whether this metric can ever fail the regression gate."""
        return self.tolerance is not None or self.abs_tolerance is not None


@dataclass(frozen=True)
class BenchSpec:
    """One registered benchmark: id, provenance, and its metric specs."""

    bench_id: str
    title: str
    source: str = ""                # the emitting benchmark module
    metrics: tuple[MetricSpec, ...] = field(default_factory=tuple)

    def __post_init__(self):
        short_name(self.bench_id)   # validates the namespace
        seen: set[str] = set()
        for spec in self.metrics:
            if spec.name in seen:
                raise ValueError(f"duplicate metric {spec.name!r} in "
                                 f"{self.bench_id}")
            seen.add(spec.name)

    def metric(self, name: str) -> MetricSpec | None:
        for spec in self.metrics:
            if spec.name == name:
                return spec
        return None


def _ms(name: str, tolerance: float | None = None,
        abs_tolerance: float | None = None,
        binding_key: str | None = None) -> MetricSpec:
    return MetricSpec(name, LOWER_IS_BETTER, tolerance=tolerance,
                      abs_tolerance=abs_tolerance, binding_key=binding_key,
                      unit="ms")


def _speedup(name: str, tolerance: float | None = 0.5,
             binding_key: str | None = None) -> MetricSpec:
    return MetricSpec(name, HIGHER_IS_BETTER, tolerance=tolerance,
                      binding_key=binding_key, unit="x")


def _rate(name: str, tolerance: float | None = None,
          unit: str = "names/s") -> MetricSpec:
    return MetricSpec(name, HIGHER_IS_BETTER, tolerance=tolerance, unit=unit)


def _count(name: str, direction: str = LOWER_IS_BETTER,
           tolerance: float | None = None,
           abs_tolerance: float | None = None) -> MetricSpec:
    return MetricSpec(name, direction, tolerance=tolerance,
                      abs_tolerance=abs_tolerance, unit="")


#: Every known benchmark.  Ratios/counts gate; absolute timings track.
REGISTRY: dict[str, BenchSpec] = {
    spec.bench_id: spec for spec in (
        BenchSpec(
            BENCH_TRAIN_STEP,
            title="Training hot path: mask_batch, fused ops, stage-2 step",
            source="benchmarks/test_train_step_throughput.py",
            metrics=(
                _ms("mask_batch_legacy_ms"),
                _ms("mask_batch_fixed_ms"),
                _speedup("mask_batch_speedup_x"),
                _ms("fused_embedding_legacy_ms"),
                _ms("fused_embedding_fused_ms"),
                _speedup("fused_embedding_speedup_x", tolerance=0.6),
                _ms("attention_weights_legacy_ms"),
                _ms("attention_weights_fused_ms"),
                _speedup("attention_weights_speedup_x", tolerance=0.6),
                _ms("stage2_step_ms"),
                _rate("stage2_tokens_per_sec", unit="tok/s"),
                _ms("data_parallel_serial_step_ms"),
                _ms("data_parallel_parallel_step_ms"),
                # The ≥2x bar needs ≥4 CPUs; the emitter records whether
                # it binds on this host under config.data_parallel.
                _speedup("data_parallel_speedup_x",
                         binding_key="data_parallel.speedup_bar_binding"),
            )),
        BenchSpec(
            BENCH_NETSERVE_LOAD,
            title="TCP frontend: latency vs offered load + wedged shedding",
            source="benchmarks/test_netserve_load.py",
            metrics=(
                _ms("sweep_rate_50_p95_ms"),
                _ms("sweep_rate_100_p95_ms"),
                _ms("sweep_rate_200_p95_ms"),
                _ms("sweep_rate_400_p95_ms"),
                _rate("sweep_rate_50_achieved_rps", tolerance=0.25,
                      unit="req/s"),
                _rate("sweep_rate_100_achieved_rps", tolerance=0.25,
                      unit="req/s"),
                _rate("sweep_rate_200_achieved_rps", tolerance=0.25,
                      unit="req/s"),
                _rate("sweep_rate_400_achieved_rps", tolerance=0.25,
                      unit="req/s"),
                # Rejections must answer fast even on a slow runner:
                # generous relative bound plus a 50ms absolute floor.
                _ms("wedged_reject_p95_ms", tolerance=3.0,
                    abs_tolerance=50.0),
                _count("wedged_rejected", HIGHER_IS_BETTER),
                _count("wedged_answered", HIGHER_IS_BETTER),
                # Invariant: the frontend never drops a request on the
                # floor.  Baseline 0, zero absolute tolerance.
                _count("wedged_protocol_errors", abs_tolerance=0.0),
            )),
        BenchSpec(
            BENCH_SERVING_THROUGHPUT,
            title="Serving stack: batching on/off, persistent cache "
                  "cold/warm, serve forward vs tape forward",
            source="benchmarks/test_serving_throughput.py",
            metrics=(
                _rate("unbatched_names_per_sec"),
                _rate("batched_names_per_sec"),
                _speedup("batched_speedup_x", tolerance=0.6),
                _rate("cold_names_per_sec"),
                _rate("warm_names_per_sec"),
                _count("unbatched_fwd_passes"),
                _count("batched_fwd_passes", tolerance=0.5),
                _count("cold_fwd_passes", tolerance=0.5),
                # Invariant: a warm persistent store does zero forward
                # passes.
                _count("warm_fwd_passes", abs_tolerance=0.0),
                # Real encoder at batch 32: tape-free serve forward vs
                # the eval-mode autograd forward, same process; the
                # tokenized ratio adds the shared tokenization to both.
                _rate("encode_session_names_per_s"),
                _rate("encode_tape_names_per_s"),
                _speedup("encode_session_speedup_x"),
                _speedup("encode_tokenized_speedup_x", tolerance=None),
            )),
        BenchSpec(
            BENCH_SERVING_DEGRADATION,
            title="Serving stack under encoder faults: bounded latency, "
                  "bounded threads",
            source="benchmarks/test_serving_degradation.py",
            metrics=(
                _ms("healthy_p50_ms"),
                _ms("healthy_p95_ms"),
                _ms("healthy_max_ms"),
                _ms("wedged_p50_ms"),
                _ms("wedged_p95_ms"),
                # Wedged requests must stay inside the retry budget; the
                # budget itself is ~115ms so the bound is absolute-backed.
                _ms("wedged_max_ms", tolerance=3.0, abs_tolerance=250.0),
                _ms("flaky_p50_ms"),
                _ms("flaky_p95_ms"),
                _ms("flaky_max_ms", tolerance=3.0, abs_tolerance=250.0),
                # Thread growth is the hung-flush circuit-breaker bound,
                # not one-thread-per-request: small absolute headroom.
                _count("wedged_thread_growth", abs_tolerance=4.0),
                _count("wedged_fallbacks", HIGHER_IS_BETTER),
                _count("flaky_retries", HIGHER_IS_BETTER),
                _count("flaky_fallbacks", tolerance=1.0,
                       abs_tolerance=6.0),
            )),
        BenchSpec(
            BENCH_INDEX_RETRIEVAL,
            title="Vector index: recall vs exact scan + probed-query QPS",
            source="benchmarks/test_index_retrieval.py",
            metrics=(
                # Recall against the brute-force oracle is host-independent
                # (seeded synthetic world, deterministic clustering): tight
                # relative gates.
                _count("recall_at_1_10k", HIGHER_IS_BETTER, tolerance=0.05),
                _count("recall_at_10_10k", HIGHER_IS_BETTER,
                       tolerance=0.05),
                _count("recall_at_1_100k", HIGHER_IS_BETTER,
                       tolerance=0.05),
                _count("recall_at_10_100k", HIGHER_IS_BETTER,
                       tolerance=0.05),
                # Absolute QPS varies per host: tracked only.  The probed
                # scan vs exact scan ratio is host-independent and gates.
                _rate("index_qps_10k", unit="q/s"),
                _rate("index_qps_100k", unit="q/s"),
                _rate("exact_qps_10k", unit="q/s"),
                _rate("exact_qps_100k", unit="q/s"),
                _speedup("speedup_10k_x", tolerance=None),
                _speedup("speedup_100k_x", tolerance=0.4),
                MetricSpec("build_100k_s", LOWER_IS_BETTER, unit="s"),
                # The incremental fold, A/B in one process: absolute
                # times track, the legacy/current ratio gates, and recall
                # after the fold gates like recall after a build.
                MetricSpec("fold_s", LOWER_IS_BETTER, unit="s"),
                MetricSpec("fold_legacy_s", LOWER_IS_BETTER, unit="s"),
                _speedup("fold_speedup_x"),
                _count("fold_build_recall_at_10", HIGHER_IS_BETTER,
                       tolerance=0.05),
                _count("fold_recall_at_10", HIGHER_IS_BETTER,
                       tolerance=0.05),
                # Million-entity scale runs only when the emitter was
                # launched with full-scale mode on (slow build): the
                # config flag makes these non-binding otherwise.
                MetricSpec("recall_at_10_1m", HIGHER_IS_BETTER,
                           tolerance=0.05,
                           binding_key="full_scale.enabled"),
                _rate("index_qps_1m", unit="q/s"),
                _rate("exact_qps_1m", unit="q/s"),
                _speedup("speedup_1m_x",
                         binding_key="full_scale.enabled"),
            )),
    )
}


def get_spec(bench_id: str) -> BenchSpec:
    """Look up a registered benchmark; raise ``KeyError`` with the known
    ids when the id is unknown (typo'd registrations fail loudly)."""
    try:
        return REGISTRY[bench_id]
    except KeyError:
        known = ", ".join(sorted(REGISTRY))
        raise KeyError(f"unknown benchmark {bench_id!r} "
                       f"(known: {known})") from None


__all__ = [
    "BENCH_INDEX_RETRIEVAL",
    "BENCH_NETSERVE_LOAD",
    "BENCH_SERVING_DEGRADATION",
    "BENCH_SERVING_THROUGHPUT",
    "BENCH_TRAIN_STEP",
    "BenchSpec",
    "DIRECTIONS",
    "HIGHER_IS_BETTER",
    "LOWER_IS_BETTER",
    "MetricSpec",
    "NAMESPACE",
    "REGISTRY",
    "get_spec",
    "short_name",
]
