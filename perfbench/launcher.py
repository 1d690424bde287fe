"""Traced ``serve-net``: install span wrappers, then run the entry point.

Usage: ``python3 launcher.py SPANS_PATH serve-net [serve-net flags...]``

Only the traced run starts the server through this file.  It wraps the
public calls of every serving layer (see :func:`install`), then hands
its arguments to ``repro.cli.main`` unchanged.  ``SIGUSR1`` writes the
spans recorded so far to ``SPANS_PATH``.
"""

from __future__ import annotations

import signal
import sys

from spans import Tracer


def _size(args, kwargs, result) -> int:
    """Work count of ``method(self, items)``: the number of items."""
    return len(args[1])


def install(tracer: Tracer) -> None:
    import repro.models
    import repro.models.checkpoint
    from repro.index.index import VectorIndex
    from repro.index.provider import IndexedEmbeddingProvider
    from repro.models.ktelebert import KTeleBert
    from repro.netserve import protocol
    from repro.netserve.admission import AdmissionController, AdmissionRejected
    from repro.serving.batcher import MicroBatcher
    from repro.serving.pool import CancellableWorkerPool
    from repro.serving.service import FaultAnalysisService
    from repro.serving.store import EmbeddingStore, PersistentProvider
    from repro.service.providers import KTeleBertProvider
    from repro.tasks.eap.serve import EapAdapter
    from repro.tasks.fct.serve import FctAdapter
    from repro.tasks.rca.serve import RcaAdapter
    from repro.tokenization.tokenizer import WordTokenizer

    wrap = tracer.wrap
    wrap(protocol, "handle_request", "netserve.handle_request")
    wrap(AdmissionController, "admit", "netserve.admission",
         failure=AdmissionRejected)
    for method in ("embed", "rank_root_causes", "propagate_alarms",
                   "classify_fault", "retrieve"):
        wrap(FaultAnalysisService, method, "serving.service")
    tracer.propagate(CancellableWorkerPool, "submit")
    wrap(MicroBatcher, "encode", "serving.batcher", count=_size)
    wrap(IndexedEmbeddingProvider, "encode_names", "serving.provider_call",
         count=_size)
    wrap(PersistentProvider, "encode_names", "serving.store.lookup",
         count=_size)
    wrap(EmbeddingStore, "put_many", "serving.store.put", count=_size)
    wrap(KTeleBertProvider, "encode_names", "service.provider.rows",
         count=_size)
    wrap(KTeleBert, "encode", "models.encode", count=_size)
    wrap(WordTokenizer, "encode_batch_with_tokens",
         "tokenization.encode_batch")
    wrap(WordTokenizer, "encode_batch", "tokenization.encode_batch")
    wrap(VectorIndex, "query", "index.query")
    wrap(VectorIndex, "flush", "index.flush",
         count=lambda args, kwargs, result: result)
    wrap(VectorIndex, "add", "index.add", count=_size)
    wrap(RcaAdapter, "rank", "tasks.rca.rank")
    wrap(EapAdapter, "predict", "tasks.eap.predict")
    wrap(FctAdapter, "trace", "tasks.fct.trace")
    for adapter in (RcaAdapter, EapAdapter, FctAdapter):
        wrap(adapter, "fit", "tasks.fit")
    # serve-net imports load_ktelebert from the package at call time.
    wrap(repro.models, "load_ktelebert", "models.load_checkpoint")
    repro.models.checkpoint.load_ktelebert = repro.models.load_ktelebert


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    signal.signal(signal.SIGUSR1, lambda signum, frame:
                  tracer.dump(spans_path))
    from repro.cli import main as repro_main

    return repro_main(cli_args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
