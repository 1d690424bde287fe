"""The serving workload ``embed-cold``.

Each run starts ``python -m repro serve-net`` on a fresh copy of the
prepared artifacts with only the flags that select the real path
(``--checkpoint --store --index --adapters``), drives it from one
separate generator process (:mod:`gen`), then stops it and checks its
answers in-process.  The traced run starts the same server through
:mod:`launcher` instead.
"""

from __future__ import annotations

import json
import re
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import gen
import names as bench_names
import prepare
import spans as span_io
from prepare import CheckFailed

API_KEY = "dev-key"          # serve-net's default tenant key
WORLD_SEED = 11              # serve-net's default --world-seed
SETUP_REPEATS = 5
START_TIMEOUT_S = 120.0
#: Names the index buffers before ``IndexedEmbeddingProvider`` folds them
#: into the shards (its auto-flush size when this benchmark was written).
#: embed-cold sizes its unmeasured fill with it so that one fold lands
#: late in the open loop and exactly CLOSED_FOLDS in the closed loop.
#: Fixed here rather than read from the program: the workload stays the
#: same when the program changes.
FOLD_EVERY = 4096
COLD_NAMES_PER_REQUEST = 8
#: Where in the open loop the fold lands, as a share of its requests.
FOLD_AT = 0.7
KNN_K = 10
OPEN_SHARE = 0.45            # of --seconds; the closed loop gets the rest
#: Folds the closed loop holds.  More than one makes its throughput a
#: mean over several folds and a longer stretch of host load.
CLOSED_FOLDS = 2
RATE = 25.0                  # open-loop requests per second
#: Host CPU steal, as a share of all CPU time over the measured phases,
#: above which a run measures once more on a fresh server and keeps the
#: less-stolen set (at most ATTEMPTS sets); see perfbench/README.md.
STEAL_LIMIT = 0.02
ATTEMPTS = 2
#: Read requests every run sends after its measured phases, to check
#: the answers of the ops the measured phases leave idle and, traced, to
#: time the layers only they load (READ_SIDE).
READ_PROBES = 100
READ_SIDE = ("index.query_ms", "tasks.rca.rank_ms", "tasks.eap.predict_ms",
             "tasks.fct.trace_ms")
#: Per-layer metrics a traced run must measure, none of them 0; a wrapped
#: call that stops firing is an error, not a perfect improvement.  The
#: cache hit rate is reported too, but reads ~0 here by design (see
#: :func:`check_shape`).
LAYERS = (
    "netserve.handle_request_ms", "netserve.admission_ms",
    "serving.service.self_ms", "serving.batcher.wait_ms",
    "serving.batcher.mean_batch_names", "serving.store.put_ms",
    "serving.store.lookup_ms", "service.provider.rows_ms",
    "tokenization.encode_batch_ms", "models.encode_ms",
    "models.encode_rows", "models.load_checkpoint_s", "tasks.fit_s",
    *READ_SIDE, "index.flush_ms", "index.flushes", "index.add_rows",
    "loadgen.latency_p99_ms", "loadgen.schedule_lag_p99_ms",
    "trace.overhead_pct", "trace.coverage",
)


# ----------------------------------------------------------------------
# The server process
# ----------------------------------------------------------------------
class Server:
    """One serve-net process on a private copy of the artifacts."""

    def __init__(self, ctx, artifacts: prepare.Artifacts, name: str,
                 spans_path: Path | None = None):
        self.copy = prepare.fresh_copy(artifacts, ctx.work / name)
        self.log_path = ctx.work / f"{name}.log"
        self.spans_path = spans_path
        flags = ["serve-net", "--port", "0",
                 "--checkpoint", str(self.copy.checkpoint),
                 "--store", str(self.copy.store),
                 "--index", str(self.copy.index), "--adapters"]
        if spans_path is None:
            command = [sys.executable, "-m", "repro", *flags]
        else:
            command = [sys.executable, str(ctx.bench / "launcher.py"),
                       str(spans_path), *flags]
        self.peak_rss_mb = 0.0
        with open(self.log_path, "wb") as log:
            self.started = time.monotonic()
            self.process = subprocess.Popen(
                command, env=prepare.repro_env(ctx.checkout),
                stdout=subprocess.DEVNULL, stderr=log,
                cwd=str(ctx.bench))
        try:
            self.port = self._wait_listening()
        except BaseException:
            self.stop()
            raise

    def _wait_listening(self) -> int:
        pattern = re.compile(rb"netserve listening on [\d.]+:(\d+)")
        deadline = self.started + START_TIMEOUT_S
        while time.monotonic() < deadline:
            match = pattern.search(self.log_path.read_bytes())
            if match:
                return int(match.group(1))
            if self.process.poll() is not None:
                break
            time.sleep(0.01)
        raise RuntimeError("serve-net did not start:\n"
                           + self.log_path.read_text(errors="replace"))

    def dump_spans(self) -> list[list]:
        self.process.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if self.spans_path.exists():
                try:
                    return span_io.load(self.spans_path)
                except ValueError:
                    pass  # still being written
            time.sleep(0.05)
        raise RuntimeError("traced server wrote no spans")

    def stop(self) -> None:
        """Read the server's peak memory, then kill it and wait for it."""
        if self.process.poll() is None:
            self.peak_rss_mb = prepare.peak_rss_mb(self.process.pid)
            self.process.kill()
        self.process.wait()


def _request(payload: dict) -> dict:
    return dict(payload, api_key=API_KEY)


def _task_factory(seed: int):
    from repro.loadgen import RequestFactory, parse_mix

    return RequestFactory(parse_mix("rca=1,eap=1,fct=1"), seed=seed,
                          world_seed=WORLD_SEED)


def setup_server(ctx, artifacts, name: str, spans_path=None
                 ) -> tuple[Server, float, dict]:
    """Start a server and send each op once; returns its set-up time."""
    from repro.loadgen import NetClient

    # Probes are built before the spawn, so set-up time holds none of
    # this process's own work.
    catalog_name = bench_names.catalog_names(ctx.seed)[0]
    probes = [{"op": "ping"},
              _request({"op": "embed", "names": [catalog_name]}),
              _request({"op": "knn", "names": [catalog_name], "k": KNN_K})]
    factory = _task_factory(ctx.seed)
    seen = set()
    while len(seen) < 3:
        token, payload = factory.build(0)
        if token not in seen:
            seen.add(token)
            probes.append(_request(payload))
    server = Server(ctx, artifacts, name, spans_path)
    try:
        with NetClient("127.0.0.1", server.port, timeout_s=60) as client:
            for probe in probes:
                response = client.request(probe)
                if not response.get("ok"):
                    raise RuntimeError(f"set-up probe {probe['op']} failed: "
                                       f"{response}")
            setup_s = time.monotonic() - server.started
            stats = client.request(_request({"op": "stats"}))
    except BaseException:
        server.stop()
        raise
    return server, setup_s, stats


# ----------------------------------------------------------------------
# Request plans
# ----------------------------------------------------------------------
def _read_requests(ctx, count: int) -> list[dict]:
    """``count`` knn, rca, eap and classify_fault requests, in turn, each
    kept for :func:`check_read_probes`."""
    from repro.loadgen import RequestFactory

    catalog = bench_names.catalog_names(ctx.seed)
    factories = [RequestFactory({op: 1.0}, seed=ctx.seed,
                                world_seed=WORLD_SEED)
                 for op in ("rca", "eap", "fct")]
    requests = []
    for i in range(count):
        if i % 4 == 0:
            request = {"op": "knn", "k": KNN_K, "names": [catalog[i]]}
        else:
            _, request = factories[i % 4 - 1].build(0)
            request.pop("id")
        requests.append(_request(dict(request, keep=True)))
    return requests


def plan_embed_cold(ctx, stats_after_setup: dict) -> dict:
    cold = bench_names.ColdNames(ctx.seed)
    open_requests = int(RATE * OPEN_SHARE * ctx.seconds)

    def embed(keep: bool = False) -> dict:
        request = _request({"op": "embed",
                            "names": cold.take(COLD_NAMES_PER_REQUEST)})
        if keep:
            request["keep"] = True
        return request

    # The fill holds one whole fold, so no measured fold is the process's
    # first (slower in a fresh process), and then stops
    # where the next fold lands at FOLD_AT of the open loop.  ``misses``
    # counts the names set-up already sent to the index.
    buffered = stats_after_setup["cache"]["misses"]
    fill_names = 2 * FOLD_EVERY - buffered - int(
        FOLD_AT * open_requests) * COLD_NAMES_PER_REQUEST
    fill = [embed() for _ in range(fill_names // COLD_NAMES_PER_REQUEST)]
    open_phase = [embed(keep=i % 8 == 0) for i in range(open_requests)]
    closed = [embed() for _ in range(
        CLOSED_FOLDS * FOLD_EVERY // COLD_NAMES_PER_REQUEST)]
    return {"fill": fill, "open": open_phase, "closed": closed,
            "after": _read_requests(ctx, READ_PROBES)}


def run_generator(ctx, server: Server, plan: dict, name: str) -> dict:
    plan = dict(plan, port=server.port, pid=server.process.pid, rate=RATE,
                stats=_request({"op": "stats"}))
    plan_path = ctx.work / f"{name}.plan.json"
    out_path = ctx.work / f"{name}.out.json"
    plan_path.write_text(json.dumps(plan))
    subprocess.run([sys.executable, str(ctx.bench / "gen.py"),
                    str(plan_path), str(out_path)],
                   env=prepare.repro_env(ctx.checkout), check=True,
                   timeout=170, cwd=str(ctx.bench))
    result = json.loads(out_path.read_text())
    result["plan"] = plan
    return result


# ----------------------------------------------------------------------
# Figures from the generator's records
# ----------------------------------------------------------------------
def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def open_latencies(result: dict) -> list[float]:
    return [r[1] for r in result["open"]["records"] if r[3]]


def _errors(result: dict) -> dict:
    """Requests attempted and failed (errors or sheds) in both phases."""
    records = result["open"]["records"] + result["closed"]["records"]
    return {"attempted": len(records),
            "failed": sum(1 for r in records if not r[3])}


def steal_share(result: dict) -> float:
    """Share of all CPU time the host stole over the measured phases."""
    start, end = result["ticks"]["measure_start"], result["ticks"][
        "measure_end"]
    delta = [b - a for a, b in zip(start, end)]
    return delta[gen.STEAL] / sum(delta) if sum(delta) else 0.0


def window_counters(result: dict) -> dict:
    """Cache and batcher counters over the measured phases only."""
    start, end = result["stats_start"], result["stats_end"]
    hits = end["cache"]["hits"] - start["cache"]["hits"]
    misses = end["cache"]["misses"] - start["cache"]["misses"]
    batches = (end["batcher"]["batches_flushed"]
               - start["batcher"]["batches_flushed"])
    encoded = (end["batcher"]["names_encoded"]
               - start["batcher"]["names_encoded"])
    return {"hits": hits, "misses": misses,
            "hit_rate": hits / (hits + misses) if hits + misses else 0.0,
            "mean_batch_names": encoded / batches if batches else 0.0}


def names_sent(requests: list[dict]) -> int:
    return sum(len(r.get("names", ())) for r in requests
               if r["op"] == "embed")


def check_shape(result: dict, encode_rows=None) -> None:
    """Every cold name must miss the cache and reach the encoder."""
    counters = window_counters(result)
    sent = names_sent(result["plan"]["open"] + result["plan"]["closed"])
    if counters["hit_rate"] > 0.01 or counters["misses"] < sent:
        raise CheckFailed(f"embed-cold hit the cache: {counters}, "
                          f"{sent} cold names sent")
    if encode_rows is not None and encode_rows < sent:
        raise CheckFailed(f"embed-cold encoded {encode_rows} rows for "
                          f"{sent} cold names")


# ----------------------------------------------------------------------
# Correctness checks
# ----------------------------------------------------------------------
WIRE_TOLERANCE = 1e-6   # the wire rounds every float to 6 decimals


def _kept(result: dict, phases=("open", "closed")):
    for phase in phases:
        requests = result["plan"][phase]
        for i, response in result[phase]["kept"].items():
            yield requests[int(i)], response


def check_embed_cold(artifacts: prepare.Artifacts, result: dict) -> int:
    """Served vectors equal an in-process encode of the same checkpoint."""
    from repro.models import load_ktelebert
    from repro.service import KTeleBertProvider

    provider = KTeleBertProvider(load_ktelebert(artifacts.checkpoint),
                                 mode="name")
    checked = 0
    for request, response in _kept(result):
        expected = provider.encode_names(request["names"])
        served = np.asarray(response["embeddings"])
        error = float(np.max(np.abs(served - expected)))
        if served.shape != expected.shape or error > WIRE_TOLERANCE:
            raise CheckFailed(f"embed vectors differ from the in-process "
                              f"encode by {error:.3g}")
        checked += 1
    if not checked:
        raise CheckFailed("no embed responses were kept for checking")
    return checked


def _same_neighbours(index, queries, served, expected) -> bool:
    """Served neighbour lists equal the reference up to ties.

    Names that tokenize alike have equal vectors, and the index may order
    (or cut at ``k``) a tie differently from the reference.  So the score
    sequences must match, and each served name must be a distinct stored
    name whose own cosine with the query has its served score.
    """
    for query, row, reference in zip(queries, served, expected):
        if [n["score"] for n in row] != [n["score"] for n in reference]:
            return False
        if len({n["name"] for n in row}) != len(row):
            return False
        unit = query / np.linalg.norm(query)
        for neighbour in row:
            vector = index.get(neighbour["name"])
            if vector is None or abs(float(unit @ vector)
                                     - neighbour["score"]) > WIRE_TOLERANCE:
                return False
    return len(served) == len(expected)


class _Retriever:
    """In-process stand-in for the server's retriever (store + index)."""

    def __init__(self, store, index):
        self.store = store
        self.index = index

    def vectors(self, names: list[str]) -> np.ndarray:
        found = self.store.get_many(names)
        return np.stack([found[n] for n in names])

    def retrieve_names(self, names, k=10, nprobe=None):
        return self.index.query(self.vectors(names), k=k, nprobe=nprobe)


def check_read_probes(artifacts: prepare.Artifacts, served_copy,
                      result: dict) -> int:
    """knn and task answers of the read probes equal in-process references.

    The references read the vectors the server stored, open the server's
    own index copy as it last folded plus, in memory, the rows it still
    buffered (every stored name the shards lack), and fit the task
    adapters in-process on those vectors.
    """
    from repro.cli import _build_task_adapters
    from repro.index import VectorIndex
    from repro.netserve.protocol import parse_eap_pairs, parse_rca_state
    from repro.serving.store import EmbeddingStore

    store = EmbeddingStore(served_copy.store,
                           fingerprint=artifacts.fingerprint,
                           label=prepare.LABEL, mode="name")
    index = VectorIndex(served_copy.index, fingerprint=artifacts.fingerprint)
    index.add(store.get_many([n for n in store.names() if n not in index]))
    retriever = _Retriever(store, index)
    adapters = _build_task_adapters(WORLD_SEED)
    for adapter in adapters.values():
        adapter.fit(retriever.vectors(adapter.event_names))
        adapter.attach_retriever(retriever)

    checked = 0
    ops = set()
    for request, response in _kept(result, ("after",)):
        op = request["op"]
        ops.add(op)
        if op == "knn":
            queries = retriever.vectors(request["names"])
            hits = index.query(queries, k=request["k"])
            served = response["neighbours"]
            expected = [[{"name": n, "score": round(s, 6)} for n, s in row]
                        for row in hits]
            ok = served == expected or _same_neighbours(index, queries,
                                                        served, expected)
        else:
            if op == "rca":
                ranking = adapters["rca"].rank(parse_rca_state(request))
                served = response["ranking"]
                expected = [{"node": n, "score": round(float(s), 6)}
                            for n, s in ranking]
            elif op == "eap":
                verdicts = adapters["eap"].predict(parse_eap_pairs(request))
                served = response["verdicts"]
                expected = [{"triggers": v["triggers"],
                             "confidence": round(float(v["confidence"]), 6)}
                            for v in verdicts]
            else:
                chain = adapters["fct"].trace(request["alarm"],
                                              top_k=int(request["top_k"]))
                served = response["next_hops"]
                expected = json.loads(json.dumps(chain))
            ok = served == expected
        if not ok:
            raise CheckFailed(
                f"{op} answer differs from the in-process reference for "
                f"{json.dumps(request, sort_keys=True)[:200]}:\n served   "
                f"{str(served)[:600]}\n expected {str(expected)[:600]}")
        checked += 1
    if ops != {"knn", "rca", "eap", "classify_fault"}:
        raise CheckFailed(f"kept read answers cover only {sorted(ops)}")
    return checked


# ----------------------------------------------------------------------
# Per-layer figures from spans
# ----------------------------------------------------------------------
def _mean(values) -> float:
    values = list(values)
    return float(sum(values) / len(values)) if values else 0.0


def _uncovered(start: float, end: float, intervals) -> float:
    """Length of [start, end] not covered by the (sorted) intervals."""
    covered, cursor = 0.0, start
    for a, b in intervals:
        if b <= cursor:
            continue
        if a >= end:
            break
        a = max(a, cursor)
        b = min(b, end)
        if b > a:
            covered += b - a
            cursor = b
    return (end - start) - covered


def layer_metrics(rows: list[list], start: float, end: float) -> dict:
    """Per-layer figures over spans that began inside [start, end].

    ``*_ms`` figures are means per call; those marked self in BENCHMARK
    exclude the time of child spans.  The batcher wait excludes the time
    any batcher provider call ran during the wait: without trace ids a
    flush cannot be tied to the requests inside it.
    """
    everything = rows
    rows = [r for r in rows if start <= r[1] < end]
    by_name: dict[str, list[list]] = {}
    for row in rows:
        by_name.setdefault(row[0], []).append(row)

    def calls(name):
        return by_name.get(name, [])

    def mean_ms(name, self_time=False):
        return 1000 * _mean((r[3] if self_time else r[2] - r[1])
                            for r in calls(name))

    provider_calls = sorted((r[1], r[2])
                            for r in calls("serving.provider_call") if r[5])
    waits = [_uncovered(r[1], r[2], provider_calls)
             for r in calls("serving.batcher")]
    handle = calls("netserve.handle_request")
    handle_total = sum(r[2] - r[1] for r in handle)
    handle_self = sum(r[3] for r in handle)
    flushes = [r for r in calls("index.flush") if r[4] > 0]
    return {
        "netserve.handle_request_ms": mean_ms("netserve.handle_request",
                                              True),
        "netserve.admission_ms": mean_ms("netserve.admission"),
        "netserve.rejects": sum(1 for r in calls("netserve.admission")
                                if r[7]),
        "serving.service.self_ms": mean_ms("serving.service", True),
        "serving.batcher.wait_ms": 1000 * _mean(waits),
        "serving.store.put_ms": mean_ms("serving.store.put"),
        "serving.store.lookup_ms": mean_ms("serving.store.lookup", True),
        "service.provider.rows_ms": mean_ms("service.provider.rows", True),
        "tokenization.encode_batch_ms": mean_ms(
            "tokenization.encode_batch"),
        "models.encode_ms": mean_ms("models.encode", True),
        "models.encode_rows": sum(r[4] for r in calls("models.encode")),
        "index.query_ms": mean_ms("index.query"),
        "index.flush_ms": 1000 * _mean(r[2] - r[1] for r in flushes),
        "index.flushes": len(flushes),
        "index.add_rows": sum(r[4] for r in calls("index.add")),
        "tasks.rca.rank_ms": mean_ms("tasks.rca.rank"),
        "tasks.eap.predict_ms": mean_ms("tasks.eap.predict"),
        "tasks.fct.trace_ms": mean_ms("tasks.fct.trace"),
        "models.load_checkpoint_s": sum(
            r[2] - r[1] for r in everything
            if r[0] == "models.load_checkpoint"),
        "tasks.fit_s": sum(r[2] - r[1] for r in everything
                           if r[0] == "tasks.fit"),
        "trace.coverage": (1 - handle_self / handle_total
                           if handle_total else 0.0),
    }


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------
def _measure(ctx, artifacts, server: Server, stats: dict,
             name: str) -> dict:
    """One set of measured phases on ``server``, which it then stops;
    checks the shape and the answers."""
    try:
        result = run_generator(ctx, server, plan_embed_cold(ctx, stats),
                               name)
    finally:
        server.stop()
    check_shape(result)
    result["checked"] = (check_embed_cold(artifacts, result)
                         + check_read_probes(artifacts, server.copy, result))
    result["steal"] = steal_share(result)
    return result


def run(ctx) -> dict:
    """Untraced run: every end-to-end metric."""
    artifacts = prepare.build(ctx.checkout, ctx.artifacts_dir, ctx.seed)
    prepare.check_fingerprints(artifacts)
    setups = []
    for repeat in range(SETUP_REPEATS):
        server, setup_s, stats = setup_server(ctx, artifacts,
                                              f"server{repeat}")
        setups.append(setup_s)
        if repeat < SETUP_REPEATS - 1:
            server.stop()
    attempts = [(server, _measure(ctx, artifacts, server, stats, "load"))]
    while (attempts[-1][1]["steal"] > STEAL_LIMIT
           and len(attempts) < ATTEMPTS):
        server, _, stats = setup_server(ctx, artifacts,
                                        f"retry{len(attempts)}")
        attempts.append((server, _measure(ctx, artifacts, server, stats,
                                          f"retry{len(attempts)}")))
    server, result = min(attempts, key=lambda a: a[1]["steal"])

    # CPU time is taken over the fill too: more requests and folds hold
    # it steadier.
    answered = sum(len(result[phase]["records"])
                   for phase in ("fill", "open", "closed"))
    cpu_s = (result["server_cpu_s"]["measure_end"]
             - result["server_cpu_s"]["fill_start"])
    latencies = open_latencies(result)
    closed = result["closed"]
    counters = window_counters(result)
    lags = [r[2] for r in result["open"]["records"]]
    return {
        **_errors(result),
        "samples": {"open_ok": len(latencies),
                    "closed": len(closed["records"]),
                    "setups": len(setups), "attempts": len(attempts),
                    "checked_answers": sum(a[1]["checked"]
                                           for a in attempts)},
        "metrics": {
            "setup_s": statistics.median(setups),
            "latency_p50_ms": 1000 * percentile(latencies, 50),
            "throughput_rps": sum(1 for r in closed["records"] if r[3])
            / closed["seconds"],
            "cpu_ms_per_request": 1000 * cpu_s / answered,
            "peak_rss_mb": server.peak_rss_mb,
        },
        "report": {
            # Printed, not gated: see perfbench/README.md.
            "latency_p99_ms": 1000 * percentile(latencies, 99),
            "serving.cache.hit_rate": counters["hit_rate"],
            "serving.batcher.mean_batch_names":
                counters["mean_batch_names"],
            "loadgen.schedule_lag_p99_ms": 1000 * percentile(lags, 99),
            "host.steal_pct": 100 * result["steal"],
        },
    }


def run_traced(ctx) -> dict:
    """Traced run: every per-layer metric, plus the tracing's own cost."""
    artifacts = prepare.build(ctx.checkout, ctx.artifacts_dir, ctx.seed)
    prepare.check_fingerprints(artifacts)

    # Untraced reference for the overhead: same set-up and open loop.
    server, _, stats = setup_server(ctx, artifacts, "untraced")
    try:
        plan = dict(plan_embed_cold(ctx, stats), closed=[], after=[])
        untraced = run_generator(ctx, server, plan, "untraced")
    finally:
        server.stop()

    spans_path = ctx.work / "spans.json"
    server, _, stats = setup_server(ctx, artifacts, "traced", spans_path)
    try:
        plan = plan_embed_cold(ctx, stats)
        result = run_generator(ctx, server, plan, "traced")
        rows = server.dump_spans()
    finally:
        server.stop()
    marks = result["marks"]
    layers = layer_metrics(rows, marks["measure_start"],
                           marks["measure_end"])
    # The measured phases leave the read side idle; time it on the read
    # probes sent after them.
    read = layer_metrics(rows, marks["after_start"], marks["after_end"])
    layers.update({name: read[name] for name in READ_SIDE})
    check_shape(result, encode_rows=layers["models.encode_rows"])
    checked = check_embed_cold(artifacts, result)
    checked += check_read_probes(artifacts, server.copy, result)

    counters = window_counters(result)
    latencies = open_latencies(result)
    traced_p50 = percentile(latencies, 50)
    traced_p99 = percentile(latencies, 99)
    untraced_p50 = percentile(open_latencies(untraced), 50)
    layers.update({
        "serving.cache.hit_rate": counters["hit_rate"],
        "serving.batcher.mean_batch_names": counters["mean_batch_names"],
        "loadgen.latency_p99_ms": 1000 * traced_p99,
        "loadgen.schedule_lag_p99_ms": 1000 * percentile(
            [r[2] for r in result["open"]["records"]], 99),
        "trace.overhead_pct": 100 * (traced_p50 - untraced_p50)
        / untraced_p50,
    })
    # How much of the open loop's tail its one fold explains.  The
    # request due as the fold starts waits all of it; the p99 is the
    # wait of one due (1% of the samples) arrival intervals later.
    open_fold = layer_metrics(rows, marks["measure_start"],
                              marks["open_end"])["index.flush_ms"]
    past_p99_s = 0.01 * (len(latencies) - 1) / RATE
    report = {
        "netserve.rejects": layers.pop("netserve.rejects"),
        "traced latency_p50_ms": 1000 * traced_p50,
        "untraced latency_p50_ms": 1000 * untraced_p50,
        "open-loop fold ms": open_fold,
        "open-loop fold / (latency_p99_ms - latency_p50_ms + past_p99_ms)":
            open_fold / (1000 * (traced_p99 - traced_p50 + past_p99_s)),
        "host.steal_pct": 100 * steal_share(result),
    }
    return {
        **_errors(result),
        "samples": {"open_ok": len(latencies), "spans": len(rows),
                    "checked_answers": checked},
        "metrics": layers,
        "expected": LAYERS,
        "report": report,
    }
