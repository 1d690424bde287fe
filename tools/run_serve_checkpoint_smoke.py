"""Serve a real checkpoint end to end for ``make serve-checkpoint-smoke``.

Every other serve smoke test runs the ``RandomProvider`` stub.  This one:

1. trains a tiny KTeleBERT checkpoint with
   ``python -m repro pretrain --stage1-steps 3 --stage2-steps 3``;
2. pipes one multi-name ``embed`` and single-name ``embed``s of other
   names (so both are encoded, not served from the cache) through
   ``python -m repro serve --checkpoint``;
3. encodes every name in one batch with ``python -m repro encode``;

and fails (non-zero exit, with a message) unless every request succeeded
and every served vector equals the ``encode`` vector of its name within
2e-6 (both commands print vectors rounded to 6 decimals).  The checkpoint
lives in a temporary directory that is removed at exit.

Usage::

    python tools/run_serve_checkpoint_smoke.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOLERANCE = 2e-6
BATCH_NAMES = ["The link is down",
               "paging storm on the access ring",
               "NF destination service unreachable"]
SINGLE_NAMES = ["registration request rejected", "CPU load high"]


def _repro(*args: str, stdin: str | None = None) -> str:
    """Run ``python -m repro ARGS`` from the checkout; return its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(REPO_ROOT, "src"),
                      env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "repro", *args],
                          input=stdin, capture_output=True, text=True,
                          env=env, cwd=REPO_ROOT, timeout=240)
    if done.returncode != 0:
        raise SystemExit(f"repro {args[0]} exited {done.returncode}: "
                         f"{done.stderr.strip()[-2000:]}")
    return done.stdout


def _served(checkpoint: str) -> list[tuple[str, list[float]]]:
    """(name, vector) for every name in every served embed response."""
    requests = [{"op": "embed", "names": BATCH_NAMES}]
    requests += [{"op": "embed", "names": [name]} for name in SINGLE_NAMES]
    out = _repro("serve", "--checkpoint", checkpoint, "--max-wait-ms", "2",
                 stdin="".join(json.dumps(r) + "\n" for r in requests))
    responses = [json.loads(line) for line in out.splitlines() if line.strip()]
    if len(responses) != len(requests):
        raise SystemExit(f"{len(requests)} requests, "
                         f"{len(responses)} responses: {out!r}")
    served = []
    for request, response in zip(requests, responses):
        if not response.get("ok"):
            raise SystemExit(f"embed failed: {response}")
        vectors = response.get("embeddings") or []
        if len(vectors) != len(request["names"]):
            raise SystemExit(f"{len(request['names'])} names, "
                             f"{len(vectors)} vectors: {response}")
        served += zip(request["names"], vectors)
    return served


def _encoded(checkpoint: str) -> dict[str, list[float]]:
    args = ["encode", "--checkpoint", checkpoint]
    for name in BATCH_NAMES + SINGLE_NAMES:
        args += ["--text", name]
    lines = _repro(*args).splitlines()
    return {row["text"]: row["embedding"]
            for row in map(json.loads, filter(str.strip, lines))}


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="serve-ckpt-smoke-") as tmp:
        checkpoint = os.path.join(tmp, "ckpt")
        _repro("pretrain", "--stage1-steps", "3", "--stage2-steps", "3",
               "--out", checkpoint)
        served = _served(checkpoint)
        expected = _encoded(checkpoint)
    worst = 0.0
    for name, vector in served:
        reference = expected.get(name)
        if reference is None or len(reference) != len(vector):
            raise SystemExit(f"no encode vector of matching size for {name!r}")
        gap = max(abs(a - b) for a, b in zip(vector, reference))
        if gap > TOLERANCE:
            raise SystemExit(f"served vector of {name!r} differs from "
                             f"encode by {gap:.3g} > {TOLERANCE:g}")
        worst = max(worst, gap)
    print(f"serve checkpoint smoke OK: {len(served)} served vectors match "
          f"encode (max |diff| {worst:.2g})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
