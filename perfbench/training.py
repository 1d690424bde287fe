"""The ``train-stage2`` workload: serial PMTL stage-2 steps.

The measured steps run in their own process (``python3 training.py
CHECKPOINT SEED SECONDS TRACE OUT``) so its CPU time and peak memory are
the training's alone.  Each step makes the calls ``train_step`` makes,
one by one, so the traced run can time them: ``advance``,
``draw_batches``, ``zero_grad``, ``compute_losses``, ``backward`` on the
step loss, ``finish_step``.  The orchestrator then replays the first
steps with ``KTeleBertRetrainer.train_step`` itself and requires
bit-equal losses.
"""

from __future__ import annotations

import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import prepare
from prepare import CheckFailed
from serving import percentile

SETUP_REPEATS = 5
BATCH = 8
KE_BATCH = 8
SCHEDULE_STEPS = 100_000
#: Steps the in-process twin replays (warm-up step included).
TWIN_STEPS = 25
#: Per-layer metrics a traced run must measure, none of them 0.
LAYERS = (
    "models.masked_lm_loss_ms", "models.ke_loss_ms", "tensor.backward_ms",
    "training.mask_batch_ms", "training.finish_step_ms",
    "training.tokens_per_step", "tokenization.encode_batch_ms",
    "models.load_checkpoint_s", "trace.coverage", "trace.overhead_pct",
)


def build_retrainer(checkpoint, seed: int):
    """Stage-2 data plus a retrainer over the prepared checkpoint."""
    from repro.experiments import ExperimentPipeline, PipelineConfig
    from repro.models import load_ktelebert
    from repro.training import build_strategy
    from repro.training.retrainer import KTeleBertRetrainer

    pipeline = ExperimentPipeline(PipelineConfig(seed=seed))
    data = pipeline.stage2_data
    model = load_ktelebert(checkpoint)
    return KTeleBertRetrainer(
        model, data, build_strategy("pmtl", SCHEDULE_STEPS),
        seed=seed + 4, batch_size=BATCH, ke_batch_size=KE_BATCH)


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _install(tracer) -> None:
    import repro.models
    from repro.models.ktelebert import KTeleBert
    from repro.tokenization.tokenizer import WordTokenizer
    from repro.training.masking import DynamicMasker
    from repro.training.retrainer import KTeleBertRetrainer

    tracer.wrap(KTeleBert, "masked_lm_loss", "models.masked_lm_loss")
    tracer.wrap(KTeleBert, "ke_loss", "models.ke_loss")
    tracer.wrap(DynamicMasker, "mask_batch", "training.mask_batch")
    tracer.wrap(KTeleBertRetrainer, "finish_step", "training.finish_step")
    tracer.wrap(WordTokenizer, "encode_batch_with_tokens",
                "tokenization.encode_batch")
    tracer.wrap(WordTokenizer, "encode_batch", "tokenization.encode_batch")
    tracer.wrap(repro.models, "load_ktelebert", "models.load_checkpoint")


def _steps(retrainer, seconds: float, tracer=None) -> dict:
    """Run steps for ``seconds`` (at least one); per-step wall time, loss
    and tokens."""
    times, losses, tokens, parts = [], [], [], []
    cpu_start = _cpu_s()
    started = time.perf_counter()
    while not times or time.perf_counter() - started < seconds:
        begin = time.perf_counter()
        step = tracer.open_span("training.step") if tracer else None
        tasks = retrainer.advance()
        rows, triples = retrainer.draw_batches(tasks)
        retrainer.optimizer.zero_grad()
        step_losses = retrainer.compute_losses(rows, triples)
        backward = tracer.open_span("tensor.backward") if tracer else None
        step_losses.total.backward()
        if tracer:
            tracer.close_span(backward)
        value = retrainer.finish_step(step_losses)
        if tracer:
            tracer.close_span(step)
        times.append(time.perf_counter() - begin)
        losses.append(value)
        tokens.append(step_losses.tokens)
        parts.append([step_losses.mask, step_losses.ke])
    return {"times": times, "losses": losses, "tokens": tokens,
            "parts": parts, "cpu_s": _cpu_s() - cpu_start,
            "seconds": time.perf_counter() - started}


def worker(checkpoint: str, seed: int, seconds: float, trace: bool,
           out: str) -> int:
    """The measured process."""
    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
        _install(tracer)
    setups = []
    for _ in range(SETUP_REPEATS):
        begin = time.perf_counter()
        retrainer = build_retrainer(checkpoint, seed)
        setups.append(time.perf_counter() - begin)
    warmup = _steps(retrainer, 0.0)          # exactly one step
    result = {"setups": setups, "warmup": warmup}
    if trace:
        # Same process, same model: untraced half, then traced half.
        result["untraced"] = _steps(retrainer, seconds / 2)
        result["traced"] = _steps(retrainer, seconds / 2, tracer)
        result["spans"] = [s.row() for s in tracer.finished]
    else:
        result["measured"] = _steps(retrainer, seconds)
    result["peak_rss_mb"] = prepare.peak_rss_mb()
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


# ----------------------------------------------------------------------
# Orchestrator side
# ----------------------------------------------------------------------
def _spawn(ctx, checkpoint: Path, trace: bool) -> dict:
    out = ctx.work / "train.out.json"
    subprocess.run([sys.executable, str(ctx.bench / "training.py"),
                    str(checkpoint), str(ctx.seed), str(ctx.seconds),
                    str(int(trace)), str(out)],
                   env=prepare.repro_env(ctx.checkout), check=True,
                   timeout=170, cwd=str(ctx.bench))
    return json.loads(out.read_text())


def _check(checkpoint: Path, seed: int, result: dict, phases) -> int:
    """Bit-equal losses from a twin running ``train_step`` itself."""
    served = result["warmup"]["losses"] + [
        loss for phase in phases for loss in result[phase]["losses"]]
    twin = build_retrainer(checkpoint, seed)
    count = min(TWIN_STEPS, len(served))
    expected = [twin.train_step() for _ in range(count)]
    if expected != served[:count]:
        first = next(i for i in range(count) if expected[i] != served[i])
        raise CheckFailed(f"step {first} loss {served[first]!r} differs "
                          f"from the twin's {expected[first]!r}")
    for phase in phases:
        for mask, ke in result[phase]["parts"]:
            if not (mask > 0 and ke > 0):
                raise CheckFailed("a PMTL step skipped the masking or the "
                                  "KE objective")
    return count


def run(ctx, trace: bool) -> dict:
    artifacts = prepare.build(ctx.checkout, ctx.artifacts_dir, ctx.seed,
                              serving=False)
    from repro.models import checkpoint_fingerprint

    if checkpoint_fingerprint(artifacts.checkpoint) != artifacts.fingerprint:
        raise CheckFailed("prepared checkpoint changed under its "
                          "fingerprint")
    result = _spawn(ctx, artifacts.checkpoint, trace)
    phases = ("untraced", "traced") if trace else ("measured",)
    checked = _check(artifacts.checkpoint, ctx.seed, result, phases)
    main = result[phases[-1]]
    steps = len(main["times"])
    tokens_per_step = statistics.mean(main["tokens"])
    step_p50 = percentile(main["times"], 50)
    samples = {"steps": steps, "setups": len(result["setups"]),
               "twin_steps_checked": checked}
    report = {"train_step_p50_ms": 1000 * step_p50,
              "latency_p99_ms": 1000 * percentile(main["times"], 99),
              "train_tokens_per_s": tokens_per_step * steps
              / main["seconds"]}
    if not trace:
        return {
            "attempted": steps, "failed": 0, "samples": samples,
            "report": report,
            "metrics": {
                "setup_s": statistics.median(result["setups"]),
                "latency_p50_ms": 1000 * step_p50,
                "throughput_rps": steps / main["seconds"],
                "cpu_ms_per_request": 1000 * main["cpu_s"] / steps,
                "peak_rss_mb": result["peak_rss_mb"],
            },
        }
    rows = result["spans"]

    def mean_ms(name):
        picked = [r[2] - r[1] for r in rows if r[0] == name]
        return 1000 * sum(picked) / len(picked) if picked else 0.0

    step_rows = [r for r in rows if r[0] == "training.step"]
    step_total = sum(r[2] - r[1] for r in step_rows)
    step_self = sum(r[3] for r in step_rows)
    untraced_p50 = percentile(result["untraced"]["times"], 50)
    return {
        "attempted": steps + len(result["untraced"]["times"]),
        "failed": 0, "samples": samples, "report": report,
        "expected": LAYERS,
        "metrics": {
            "models.masked_lm_loss_ms": mean_ms("models.masked_lm_loss"),
            "models.ke_loss_ms": mean_ms("models.ke_loss"),
            "tensor.backward_ms": mean_ms("tensor.backward"),
            "training.mask_batch_ms": mean_ms("training.mask_batch"),
            "training.finish_step_ms": mean_ms("training.finish_step"),
            "training.tokens_per_step": tokens_per_step,
            "tokenization.encode_batch_ms": mean_ms(
                "tokenization.encode_batch"),
            "models.load_checkpoint_s": sum(
                r[2] - r[1] for r in rows
                if r[0] == "models.load_checkpoint") / SETUP_REPEATS,
            "trace.coverage": 1 - step_self / step_total,
            "trace.overhead_pct": 100 * (step_p50 - untraced_p50)
            / untraced_p50,
        },
    }


if __name__ == "__main__":
    sys.exit(worker(sys.argv[1], int(sys.argv[2]), float(sys.argv[3]),
                    sys.argv[4] == "1", sys.argv[5]))
