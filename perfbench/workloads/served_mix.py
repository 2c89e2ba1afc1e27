"""``served_mix``: an open loop of HTTP requests against ``repro serve``.

The server is a child process booted through ``perfbench/serve_boot.py``
(``--threads 2``, ``--cache-size 256`` so the hot set fits the session
caches).  Its catalog holds two synthetic tables: 2,000 tuples at ME
0.4 and 4,000 tuples at ME 0.2.

The client sends requests on a fixed schedule of :data:`RATE` per
second over at most two connections.  Latency runs from each request's
due time, so a stall also delays the requests queued behind it; how
late the generator sent is reported beside it.  Nine requests in ten
are hot: they rotate across the six answer semantics on ``/v1/answer``,
``/v1/typical`` at several ``c``, ``/v1/distribution`` and
``/v1/explain``, at k in {5, 10} and p_tau in {0.01, 0.1}; a warm-up pass
answers each once before the measured phase.  Every tenth request is
cold: a fresh p_tau near 0.1 each.  With two connections at most two
requests are in flight, so batching and single-flight seldom have
anything to merge (traced runs saw a mean batch of 1.000 to 1.001).

Correctness: every response must be 200, and the first response of each
answer shape is compared with the same request served in process by a
``QueryService`` over an identical catalog.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
from typing import Any

from harness import BUILD_DIR, ROOT, BenchError, Latencies, Result

TABLES = {
    "small": "synthetic:tuples=2000,me=0.4,seed=41",
    "large": "synthetic:tuples=4000,me=0.2,seed=42",
}
SEMANTICS = ("typical", "u_topk", "pt_k", "u_kranks", "global_topk",
             "expected_ranks")
TYPICAL_CS = (2, 3, 5)
KS = (5, 10)
#: Not 0: on these tables a cold p_tau=0 distribution or expected-ranks
#: answer takes 3.5-11 s, so the warm-up alone would outlast a run.
#: 0.01 keeps a deep prefix.
P_TAUS = (0.01, 0.1)
#: Cold requests: one (table, k) shape at a fresh p_tau near 0.1 each,
#: so that cold requests form one cost mode around the p98 tail.
COLD_SHAPE = ("large", 10)
#: Offered load, requests per second: a quarter of the closed-loop
#: capacity of this exact mix over two connections at the seed commit
#: (``perfbench/capacity.py``: 155, 157 and 157 req/s for seeds 1-3,
#: 20 s each, on a 2-vCPU x86-64 VM).  At half, 78 req/s, queueing
#: amplified whole-run host slowdowns: query_p50_ms spread 0.28 (IQR
#: over median) across 10 seeds, above its 0.25 bound.
RATE = 39.0
CONNECTIONS = 2
#: One request in 10 is cold.  At the 1 in 33 first tried (28 req/s,
#: tail p98), the tail sat among 17 cold samples and spread 0.28-0.37
#: (IQR over median) across runs; with 56 it spread 0.06.
COLD_EVERY = 10
#: 780 requests per 20 s: p98 leaves 15, inside the cold 10%.
TAIL_PCT = 98.0
#: Requests per block of a traced run (about one second; a multiple of
#: COLD_EVERY, so every block holds the same share of cold requests).
BLOCK_REQUESTS = COLD_EVERY * max(1, round(RATE / COLD_EVERY))
BOOT_TIMEOUT_S = 60.0
TOGGLE_TIMEOUT_S = 5.0
REQUEST_TIMEOUT_S = 30.0


def hot_shapes() -> list[tuple[str, dict]]:
    """Every hot (endpoint, payload) shape."""
    shapes = []
    for table in TABLES:
        for k in KS:
            for p_tau in P_TAUS:
                base = {"table": table, "k": k, "p_tau": p_tau}
                for semantics in SEMANTICS:
                    shapes.append(("answer", {**base, "semantics": semantics}))
                for c in TYPICAL_CS:
                    shapes.append(("typical", {**base, "c": c}))
                shapes.append(("distribution", dict(base)))
                shapes.append(("explain", dict(base)))
    return shapes


def request_schedule(seed: int, count: int) -> list[tuple[str, dict]]:
    """The seeded request sequence of one run."""
    rng = random.Random(seed)
    hot = hot_shapes()
    order: list[tuple[str, dict]] = []
    deck: list[tuple[str, dict]] = []
    for index in range(count):
        if index % COLD_EVERY == COLD_EVERY // 2:
            table, k = COLD_SHAPE
            order.append(
                ("typical", {"table": table, "k": k,
                             "p_tau": round(rng.uniform(0.095, 0.105), 9)})
            )
            continue
        if not deck:  # every hot shape once per deck, seeded order
            deck = list(hot)
            rng.shuffle(deck)
        order.append(deck.pop())
    return order


# ----------------------------------------------------------------------
# The server child
# ----------------------------------------------------------------------
def _serve_args() -> list[str]:
    args = ["--port", "0", "--threads", "2", "--cache-size", "256"]
    for name, source in TABLES.items():
        args += ["--table", f"{name}={source}"]
    return args


class Server:
    """A ``repro serve`` child booted through ``serve_boot.py``."""

    def __init__(self, trace: bool, tag: str) -> None:
        self.out = BUILD_DIR / "serve" / f"{tag}.json"
        self.out.parent.mkdir(parents=True, exist_ok=True)
        self.out.unlink(missing_ok=True)
        self.out.with_suffix(".toggles").unlink(missing_ok=True)
        self.toggles = 0
        started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, str(ROOT / "perfbench" / "serve_boot.py"),
             "--trace", str(int(trace)), "--out", str(self.out), "--",
             *_serve_args()],
            stdout=subprocess.PIPE,
            text=True,
        )
        self.port = self._await_listening()
        self.boot_s = time.perf_counter() - started
        # Keep draining stdout so the child never blocks on a full pipe.
        self._drain = threading.Thread(
            target=self.process.stdout.read, daemon=True
        )
        self._drain.start()

    def _await_listening(self) -> int:
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        while time.monotonic() < deadline:
            line = self.process.stdout.readline()
            if not line:
                break
            match = re.search(r"listening on http://[^:]+:(\d+)", line)
            if match:
                return int(match.group(1))
        self.stop()
        raise BenchError("the repro serve child did not start")

    def mark_phase(self) -> None:
        self.process.send_signal(signal.SIGUSR1)

    def set_tracing(self, on: bool) -> None:
        """Switch the child's span wrappers on or off (SIGUSR2) and wait
        until it has."""
        self.toggles += 1
        self.process.send_signal(signal.SIGUSR2)
        flag = self.out.with_suffix(".toggles")
        deadline = time.monotonic() + TOGGLE_TIMEOUT_S
        while time.monotonic() < deadline:
            try:
                if int(flag.read_text()) == self.toggles:
                    return
            except (OSError, ValueError):
                pass
            time.sleep(0.002)
        raise BenchError("the server did not switch tracing")

    def peak_rss_mb(self) -> float:
        from harness import peak_rss_mb

        return peak_rss_mb(self.process.pid)

    def stop(self) -> dict | None:
        """SIGTERM, wait for the drain, return the child's document."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.out.with_suffix(".toggles").unlink(missing_ok=True)
        if not self.out.exists():
            return None
        document = json.loads(self.out.read_text())
        self.out.unlink()
        return document


def time_setup(seed: int) -> float:
    """Seconds from spawning the server until it accepts requests."""
    server = Server(trace=False, tag=f"probe-{os.getpid()}")
    try:
        return server.boot_s
    finally:
        server.stop()


# ----------------------------------------------------------------------
# The client
# ----------------------------------------------------------------------
def _request(port: int, method: str, path: str, payload: Any = None):
    """One request on its own connection, as ``repro loadgen`` sends.

    (A kept-alive connection would add the 40 ms delayed-ACK stall the
    server's two-write responses trigger, and measure that timer.)
    """
    connection = http.client.HTTPConnection(
        "127.0.0.1", port, timeout=REQUEST_TIMEOUT_S
    )
    try:
        connection.request(
            method, path,
            body=None if payload is None else json.dumps(payload),
            headers={"Content-Type": "application/json",
                     "Connection": "close"},
        )
        response = connection.getresponse()
        return response.status, response.read()
    except (OSError, http.client.HTTPException) as exc:
        return 0, repr(exc).encode()
    finally:
        connection.close()


def cache_counters(port: int) -> dict:
    """The server session's stage cache counters (``GET /metrics``)."""
    status, body = _request(port, "GET", "/metrics")
    if status != 200:
        raise BenchError(f"GET /metrics answered {status}")
    return json.loads(body)["cache"]


def open_loop(
    port: int, schedule: list, rate: float, stop_after: float | None = None
) -> dict:
    """Send ``schedule`` at ``rate`` per second over two connections.

    ``rate=math.inf`` makes it a closed loop; ``stop_after`` seconds
    stop it before the schedule ends.  Returns per-request (due, sent,
    done, status, body) records, None for requests never sent."""
    records: list[Any] = [None] * len(schedule)
    cursor = iter(range(len(schedule)))
    lock = threading.Lock()
    start = time.perf_counter() + 0.05
    stop_at = math.inf if stop_after is None else start + stop_after

    def worker() -> None:
        while True:
            with lock:
                index = next(cursor, None)
            if index is None or time.perf_counter() >= stop_at:
                return
            due = start + index / rate
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter()
            endpoint, payload = schedule[index]
            status, body = _request(port, "POST", f"/v1/{endpoint}", payload)
            records[index] = (due, sent, time.perf_counter(), status, body)

    threads = [threading.Thread(target=worker) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return {"records": records, "start": start}


def _comparable(document: dict) -> str:
    document = dict(document)
    document.pop("elapsed_ms", None)
    return json.dumps(document, sort_keys=True)


def _check(schedule: list, records: list, result: Result) -> None:
    """First response of each answer shape == the in-process answer."""
    from repro.service import DatasetCatalog
    from repro.service.server import QueryService

    service = QueryService(DatasetCatalog(dict(TABLES)))
    seen = set()
    checked = 0
    try:
        for (endpoint, payload), record in zip(schedule, records):
            if endpoint == "explain" or record[3] != 200:
                continue
            key = json.dumps([endpoint, payload], sort_keys=True)
            if key in seen:
                continue
            seen.add(key)
            served = json.loads(record[4])
            if served.get("degraded"):
                continue  # a degraded (MC) answer is not the exact one
            reply = service.handle(endpoint, dict(payload))
            checked += 1
            if _comparable(served) != _comparable(reply.document):
                result.mismatch(f"HTTP {endpoint} {payload} differs from "
                                "the in-process answer")
    finally:
        service.shutdown()
    result.info["checked_answers"] = checked


def warm_server(trace: bool, tag: str) -> Server:
    """A booted server that has answered every hot shape once."""
    server = Server(trace=trace, tag=tag)
    try:
        warm = open_loop(server.port, hot_shapes(), rate=1000.0)
    except BaseException:
        server.stop()
        raise
    if any(r[3] != 200 for r in warm["records"]):
        server.stop()
        raise BenchError("warm-up requests failed")
    return server


def _blocks(port: int, schedule: list, inter: Any) -> tuple[list, float]:
    """The traced run: the schedule in blocks of :data:`BLOCK_REQUESTS`,
    tracing switched on and off between them while nothing is in
    flight.  Returns the records, each with a traced flag appended, and
    the seconds spent sending."""
    records: list[Any] = []
    elapsed = 0.0
    for first in range(0, len(schedule), BLOCK_REQUESTS):
        traced = inter.next_block()
        part = open_loop(port, schedule[first:first + BLOCK_REQUESTS], RATE)
        for due, sent, done, status, body in part["records"]:
            if status == 200:
                inter.add(done - due)
            records.append((due, sent, done, status, body, traced))
        elapsed += max(r[2] for r in part["records"]) - part["start"]
    inter.close()
    return records, elapsed


def measure(seed: int, seconds: float, inter: Any, result: Result) -> dict:
    """The untraced (``inter is None``) or interleaved traced phase."""
    traced = inter is not None
    server = warm_server(traced, f"run-{os.getpid()}-{int(traced)}")
    try:
        schedule = request_schedule(seed, max(1, int(seconds * RATE)))
        server.mark_phase()
        time.sleep(0.2)
        cache_before = cache_counters(server.port)
        if inter is None:
            outcome = open_loop(server.port, schedule, RATE)
            records = [(*r, False) for r in outcome["records"]]
            elapsed = max(r[2] for r in records) - outcome["start"]
        else:
            inter.toggle = server.set_tracing
            records, elapsed = _blocks(server.port, schedule, inter)
        cache_after = cache_counters(server.port)
        rss = server.peak_rss_mb()
    finally:
        document = server.stop()
    if document is None:
        raise BenchError("the server wrote no summary")
    latencies = Latencies(TAIL_PCT)
    lateness = []
    sent_to_done = []
    degraded = rejected = 0
    for due, sent, done, status, body, traced_block in records:
        result.attempted += 1
        lateness.append(sent - due)
        if status == 200:
            latencies.add(done - due)
            if traced_block or inter is None:
                sent_to_done.append(done - sent)
            degraded += b'"degraded"' in body and bool(
                json.loads(body).get("degraded")
            )
        else:
            result.failed += 1
            rejected += status == 429
    _check(schedule, records, result)
    phase = {
        "latencies": latencies,
        "elapsed": elapsed,
        "proc": document["proc"],
        "rss": rss,
        "summary": document["summary"],
        "cache": (cache_before, cache_after),
        "client": {
            "lateness_ms": sum(lateness) / len(lateness) * 1e3,
            "sent_to_done_ms": sum(sent_to_done) / max(1, len(sent_to_done))
            * 1e3,
            "degraded": degraded,
            "rejected": rejected,
        },
    }
    if not traced:
        lat = latencies
        result.metric("query_p50_ms", lat.p50_ms(), "ms", len(lat),
                      "from due time")
        result.metric(
            "query_tail_ms", lat.tail_ms(), "ms", len(lat),
            f"p{lat.tail_pct:g}"
            + ("" if lat.tail_supported() else ", under 10 beyond"),
        )
        result.metric("queries_per_s", len(lat) / elapsed, "1/s", len(lat),
                      f"offered {RATE:g}/s")
        result.metric("peak_rss_mb", rss, "MB", 1, "server VmHWM")
        ordered = sorted(lateness)
        result.info["generator_lateness_ms"] = {
            "p50": ordered[len(ordered) // 2] * 1e3,
            "max": ordered[-1] * 1e3,
        }
        result.info["boot_s"] = server.boot_s
        result.info["degraded"] = degraded
    return phase


def layer_extras(phase: dict) -> dict[str, float]:
    from tracing import cache_ratios

    summary = phase["summary"]
    client = phase["client"]
    handled = summary["calls"].get("service.handle", 0)
    handle_ms = (
        summary["total_s"].get("service.handle", 0.0) * 1e3 / handled
        if handled else 0.0
    )
    return {
        **cache_ratios(*phase["cache"]),
        "service.http_ms": client["sent_to_done_ms"] - handle_ms,
        "service.degraded": client["degraded"],
        "service.rejected": client["rejected"],
        "client.lateness_ms": client["lateness_ms"],
    }
