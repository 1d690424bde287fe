"""The load generator process: open loop, then closed loop.

Run as its own process (``python3 gen.py PLAN OUT``) so it never shares
an interpreter lock with the server or the orchestrator.  It uses at
most two threads, each owning one :class:`repro.loadgen.NetClient`
connection.

The plan file (JSON) holds pre-built request payloads, so building them
costs nothing inside the timed phases:

``fill``    requests sent back to back before measuring (not timed);
``open``    requests due at ``i / rate`` seconds after the phase starts.
            Latency is measured from the **due** time, so a stall also
            charges the wait it imposes on later requests; the lateness of
            each send (schedule lag) is recorded too;
``closed``  requests sent back to back on both connections, for
            throughput;
``stats``   the request sent just before and just after the measured
            phases, so counters can be read over the measured window;
``after``   requests sent back to back after the measured phases (not
            timed), so their answers can be checked and a traced run can
            time the layers they alone load.

The result file holds, per phase, one record per request
``[op, latency_s, lag_s, ok, code]`` plus the responses of the requests
the plan marks with ``"keep": true`` (for the correctness checks), and
the machine's CPU time counters (``/proc/stat``) at the start and end of
the measured phases, from which the host's CPU steal is read, and the
server process's own CPU time at the start of the fill and at the end of
the measured phases.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time

from repro.loadgen import NetClient, ProtocolError

CONNECTIONS = 2
TIMEOUT_S = 60.0
#: Position of the steal counter in :func:`cpu_ticks`.
STEAL = 7


def cpu_ticks() -> list[int]:
    """All CPUs' user, nice, system, idle, iowait, irq, softirq and steal
    time, in clock ticks."""
    with open("/proc/stat", encoding="ascii") as handle:
        return [int(x) for x in handle.readline().split()[1:9]]


def process_cpu_s(pid: int) -> float:
    """User plus system CPU seconds of process ``pid`` so far."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _send(client: NetClient, payload: dict) -> tuple[bool, str | None,
                                                      dict | None]:
    try:
        response = client.request(payload)
    except ProtocolError as error:
        return False, f"protocol: {error}", None
    if response.get("ok"):
        return True, None, response
    return False, str(response.get("code") or response.get("error")), None


def _run_threads(target) -> None:
    threads = [threading.Thread(target=target, args=(c,), daemon=True)
               for c in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(TIMEOUT_S * 10)
        if thread.is_alive():
            raise RuntimeError("generator thread did not finish")


class Phase:
    """One phase's request list, shared cursor and per-request records."""

    def __init__(self, requests: list[dict]):
        self.requests = requests
        self.records: list[list | None] = [None] * len(requests)
        self.kept: dict[int, dict] = {}
        self._next = 0
        self._lock = threading.Lock()

    def take(self) -> int | None:
        with self._lock:
            if self._next >= len(self.requests):
                return None
            self._next += 1
            return self._next - 1

    def record(self, i: int, latency: float, lag: float, ok: bool,
               code: str | None, response: dict | None) -> None:
        request = self.requests[i]
        self.records[i] = [request["op"], latency, lag, ok, code]
        if ok and request.get("keep"):
            self.kept[i] = response

    def result(self, started: float, ended: float) -> dict:
        return {"records": self.records, "seconds": ended - started,
                "kept": {str(i): r for i, r in self.kept.items()}}


def _payload(request: dict, i: int) -> dict:
    payload = {k: v for k, v in request.items() if k != "keep"}
    payload["id"] = i
    return payload


def run_closed(clients: list[NetClient], requests: list[dict]) -> dict:
    phase = Phase(requests)

    def worker(c: int) -> None:
        while (i := phase.take()) is not None:
            payload = _payload(phase.requests[i], i)
            sent = time.monotonic()
            ok, code, response = _send(clients[c], payload)
            phase.record(i, time.monotonic() - sent, 0.0, ok, code, response)

    started = time.monotonic()
    _run_threads(worker)
    return phase.result(started, time.monotonic())


def run_open(clients: list[NetClient], requests: list[dict],
             rate: float) -> dict:
    phase = Phase(requests)
    start = time.monotonic() + 0.05

    def worker(c: int) -> None:
        while (i := phase.take()) is not None:
            payload = _payload(phase.requests[i], i)
            due = start + i / rate
            delay = due - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            sent = time.monotonic()
            ok, code, response = _send(clients[c], payload)
            phase.record(i, time.monotonic() - due, sent - due, ok, code,
                         response)

    _run_threads(worker)
    return phase.result(start, time.monotonic())


def main(plan_path: str, out_path: str) -> int:
    with open(plan_path, encoding="utf-8") as handle:
        plan = json.load(handle)
    clients = [NetClient("127.0.0.1", plan["port"], timeout_s=TIMEOUT_S)
               for _ in range(CONNECTIONS)]
    try:
        for client in clients:
            client.connect()
        result = {"marks": {}, "ticks": {}, "server_cpu_s": {}}
        result["server_cpu_s"]["fill_start"] = process_cpu_s(plan["pid"])
        if plan.get("fill"):
            result["fill"] = run_closed(clients, plan["fill"])
        result["stats_start"] = clients[0].request(plan["stats"])
        result["ticks"]["measure_start"] = cpu_ticks()
        result["marks"]["measure_start"] = time.monotonic()
        result["open"] = run_open(clients, plan["open"], plan["rate"])
        result["marks"]["open_end"] = time.monotonic()
        result["closed"] = run_closed(clients, plan["closed"])
        result["marks"]["measure_end"] = time.monotonic()
        result["ticks"]["measure_end"] = cpu_ticks()
        result["server_cpu_s"]["measure_end"] = process_cpu_s(plan["pid"])
        result["stats_end"] = clients[0].request(plan["stats"])
        if plan.get("after"):
            result["marks"]["after_start"] = time.monotonic()
            result["after"] = run_closed(clients, plan["after"])
            result["marks"]["after_end"] = time.monotonic()
    finally:
        for client in clients:
            client.close()
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
