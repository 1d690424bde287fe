"""Build the benchmark's three artifacts from the workload seed.

* a KTeleBERT checkpoint: a few stage-1 and stage-2 (PMTL) steps at
  ``PipelineConfig`` geometry (d_model 32, 2 layers);
* an ``EmbeddingStore`` holding the 20k-name catalog under the
  checkpoint's fingerprint, encoded the way ``serve-net`` encodes names;
* an ANN index built from that store by ``python -m repro index build``.

Artifacts are built once per benchmark invocation, in its work
directory (about 3 s for the checkpoint and 9 s for all three on a
2-vCPU VM).  Every server starts on a fresh copy of the store and the
index (:func:`fresh_copy`), because serving appends to both; the
checkpoint and the originals are only read.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import names as bench_names

STAGE1_STEPS = 3
STAGE2_STEPS = 3
ENCODE_BATCH = 256
#: the provider label ``serve-net --checkpoint`` stores vectors under
LABEL = "KTeleBERT"


class CheckFailed(RuntimeError):
    """A correctness check, input check or workload-shape guard failed."""


@dataclass(frozen=True)
class Artifacts:
    checkpoint: Path
    store: Path
    index: Path
    fingerprint: str

    @classmethod
    def under(cls, root: Path, fingerprint: str) -> "Artifacts":
        return cls(root / "checkpoint", root / "store", root / "index",
                   fingerprint)


def repro_env(checkout: Path) -> dict:
    """Environment for a process running the checkout's ``repro``.

    The hash seed is fixed so that anything iterating a set of strings
    does so in the same order on every run.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(checkout / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def peak_rss_mb(pid="self") -> float:
    """Peak resident memory of the process's own image (``VmHWM``).

    ``ru_maxrss`` would also count the parent's memory at the moment of
    ``exec``, so a small server forked from a large orchestrator would
    read as large.
    """
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def build(checkout: Path, root: Path, seed: int,
          serving: bool = True) -> Artifacts:
    """Build the seed's artifacts under ``root``, a new directory.

    Training needs only the checkpoint; ``serving`` adds the store and
    the index.
    """
    from repro.experiments import ExperimentPipeline, PipelineConfig
    from repro.models import checkpoint_fingerprint, save_ktelebert
    from repro.serving.store import EmbeddingStore
    from repro.service import KTeleBertProvider

    root.mkdir(parents=True)
    pipeline = ExperimentPipeline(PipelineConfig(
        seed=seed, stage1_steps=STAGE1_STEPS, stage2_steps=STAGE2_STEPS))
    save_ktelebert(pipeline.ktelebert_pmtl, root / "checkpoint")
    fingerprint = checkpoint_fingerprint(root / "checkpoint")
    if not serving:
        return Artifacts.under(root, fingerprint)

    provider = KTeleBertProvider(pipeline.ktelebert_pmtl, mode="name")
    store = EmbeddingStore(root / "store", fingerprint=fingerprint,
                           label=LABEL, mode="name")
    catalog = bench_names.catalog_names(seed)
    for start in range(0, len(catalog), ENCODE_BATCH):
        batch = catalog[start:start + ENCODE_BATCH]
        store.put_many(dict(zip(batch, provider.encode_names(batch))))

    subprocess.run(
        [sys.executable, "-m", "repro", "index", "build",
         "--dir", str(root / "index"), "--store", str(root / "store"),
         "--fingerprint", fingerprint, "--label", LABEL],
        check=True, env=repro_env(checkout), stdout=subprocess.DEVNULL,
        timeout=300)
    return Artifacts.under(root, fingerprint)


def fresh_copy(artifacts: Artifacts, target: Path) -> Artifacts:
    """A private copy of the store and the index, which serving mutates."""
    if target.exists():
        shutil.rmtree(target)
    target.mkdir(parents=True)
    shutil.copytree(artifacts.store, target / "store")
    shutil.copytree(artifacts.index, target / "index")
    return Artifacts(artifacts.checkpoint, target / "store",
                     target / "index", artifacts.fingerprint)


def check_fingerprints(artifacts: Artifacts) -> None:
    """The checkpoint must be the one the store and index were built for."""
    from repro.index import FingerprintMismatch, VectorIndex
    from repro.models import checkpoint_fingerprint
    from repro.serving.store import EmbeddingStore

    fingerprint = checkpoint_fingerprint(artifacts.checkpoint)
    if fingerprint != artifacts.fingerprint:
        raise CheckFailed(f"checkpoint fingerprint {fingerprint!r} is not "
                           f"the prepared {artifacts.fingerprint!r}")
    store = EmbeddingStore(artifacts.store, fingerprint=fingerprint,
                           label=LABEL, mode="name")
    if len(store) != bench_names.CATALOG_SIZE:
        raise CheckFailed(f"store holds {len(store)} names under the "
                           f"checkpoint fingerprint, expected "
                           f"{bench_names.CATALOG_SIZE}")
    try:
        index = VectorIndex(artifacts.index, fingerprint=fingerprint)
    except FingerprintMismatch as error:
        raise CheckFailed(str(error)) from error
    if len(index) != bench_names.CATALOG_SIZE:
        raise CheckFailed(f"index holds {len(index)} names, expected "
                           f"{bench_names.CATALOG_SIZE}")
