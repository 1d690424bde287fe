"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload embed-cold --seed 1 --seconds 15 \
        --trace 0

Run from the root of a checkout.  The workloads, metric names, units and
bounds are in ``BENCHMARK.json``; why each workload exists is in
``perfbench/README.md``.  ``--trace 0`` reports every end-to-end metric,
``--trace 1`` every per-layer metric.  Every run checks the program's
answers; a failed check prints ``"correct": false`` and exits 1.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import sys
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

WORKLOADS = ("embed-cold", "train-stage2")


@dataclass
class Context:
    checkout: Path
    bench: Path
    work: Path
    artifacts_dir: Path
    seed: int
    seconds: float


def _parse(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    checkout = Path.cwd()
    if not (checkout / "src" / "repro" / "cli.py").is_file():
        print("perfbench: run from the root of a checkout holding "
              "src/repro", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(checkout / "src"))
    # Let ``finally`` blocks stop the server and generator on SIGTERM.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    work = checkout / ".perfbench"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir()
    ctx = Context(checkout=checkout, bench=BENCH, work=work,
                  artifacts_dir=work / "artifacts", seed=args.seed,
                  seconds=args.seconds)

    import prepare
    import serving
    import training

    try:
        if args.workload == "train-stage2":
            outcome = training.run(ctx, bool(args.trace))
        elif args.trace:
            outcome = serving.run_traced(ctx)
        else:
            outcome = serving.run(ctx)
        # Every layer the workload loads must have been timed.
        silent = [name for name in outcome.get("expected", ())
                  if not outcome["metrics"].get(name)]
        if silent:
            raise prepare.CheckFailed(f"per-layer metrics missing or 0: "
                                      f"{', '.join(silent)}")
        correct = True
    except prepare.CheckFailed as failure:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)
        outcome = {"attempted": 1, "failed": 1, "metrics": {}}
        correct = False
    finally:
        shutil.rmtree(work, ignore_errors=True)

    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for entry in spec[kind]:
        # Every result carries every metric of its kind.  A layer this
        # workload leaves idle (not in its ``expected`` list) did no work
        # and reads 0.
        value = outcome["metrics"].get(entry["name"], 0.0)
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    if correct:
        for name, value in outcome.get("samples", {}).items():
            print(f"samples  {name} = {value}")
        for name, value in outcome.get("report", {}).items():
            print(f"report   {name} = {value:.6g}")
        attempted, failed = outcome["attempted"], outcome["failed"]
        print(f"errors   error_rate = {failed / attempted:.6g} "
              f"({failed} failed of {attempted} operations)")
        for name, metric in metrics.items():
            print(f"metric   {name} = {metric['value']:.6g} "
                  f"{metric['unit']}")
    print(json.dumps({"correct": correct,
                      "attempted": int(outcome["attempted"]),
                      "failed": int(outcome["failed"]),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
