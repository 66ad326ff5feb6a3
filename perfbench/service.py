"""The ``service`` workload: the bound service driven over HTTP.

The server runs as a subprocess (``serve.py``) with a fresh disk-cache
and C-probe directory per launch.  Load comes from this process: one
asyncio thread and at most two keep-alive connections.

* **cold** -- a closed loop over two connections sends a seeded list
  of distinct queries to ``/v1/bounds``: nine per scheduler (FIFO, BMUX,
  SP, EDF) and path length H in {1, 2, 5, 10} with random flow counts,
  plus six backlog queries at H <= 2.  Every answer is a fresh solve
  and is written to the LRU and the disk cache.
* **hot** -- open-loop Poisson ``/v1/admissible`` queries whose keys
  are Zipf(1.1)-popular over the cold set, so every read hits the LRU:
  first at a fixed 500 rps, then in steps of 750..3000 rps
  (refined by bisection below the first failing step).  Latency runs
  from each request's due time.

Correctness: every cold row must describe its query, every verdict
must agree with its own bound and that bound must be bitwise the cold
answer; afterwards a seeded sample of cold answers is re-solved with
direct ``bound_query_cell`` calls and must match bitwise.
"""

from __future__ import annotations

import asyncio
import gc
import http.client
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

from common import (
    BENCH_DIR,
    SRC,
    PROBE_REF_S,
    SETUP_SAMPLES,
    BenchError,
    child_env,
    median,
    peak_rss_mb_pid,
    quantile,
    same_value,
    stop_process,
    tail_percentile,
)

SCHEDULERS = ("FIFO", "BMUX", "SP", "EDF")
HOPS = (1, 2, 5, 10)
DELAY_PER_CLASS = 9
#: Flow counts are drawn from a narrow band (U about 0.27-0.42) where
#: the EDF fixed point converges in about 10-15 iterations; unbalanced
#: mixes take up to 40 and would make the solver work of a run depend
#: on the seed.
#: Six backlog queries (4% of the cold set), all at H <= 2: a backlog
#: solve at H = 5 or 10 takes seconds, and the host-speed probes that
#: rescale the cold time (``serve.py --speed``) can only bracket a solve,
#: so seconds-long solves left the rescaled throughput spread by 0.13
#: over ten seeds.  A fixed scheduler per query keeps the solver work
#: of a run independent of the seed, which only draws flow counts.
BACKLOG = (
    ("BMUX", 1), ("FIFO", 2), ("SP", 1), ("BMUX", 2), ("FIFO", 1), ("SP", 2),
)
WARMUP = {"scheduler": "FIFO", "hops": 1, "n_through": 1, "n_cross": 0}

CONNECTIONS = 2
ZIPF_S = 1.1
HOT_RATE = 500.0
#: The fixed-rate segment is measured as this many windows of at
#: least 1000 requests; the hot figures are medians over windows, so
#: one stall of the shared host moves them less.
HOT_WINDOWS = 4
#: Coarse ramp; after the first failing rate, bisect below it.
RAMP = (750.0, 1000.0, 1250.0, 1500.0, 2000.0, 2500.0, 3000.0)
REFINE_STEPS = 2
#: Each step sends at least this many requests (so its p99 has ten
#: samples beyond it) and lasts at least a second.
STEP_REQUESTS = 1000
HOT_P99_LIMIT_MS = 10.0
#: The generator is "behind" when its own dispatch runs this late.
LATE_LIMIT_MS = 0.5 * HOT_P99_LIMIT_MS
COLD_TIMEOUT_S = 60.0
HOT_TIMEOUT_S = 10.0
RESOLVE_DELAY = 4
RESOLVE_BACKLOG_MAX_HOPS = 2


def cold_queries(seed: int, tiny: bool = False) -> list[dict]:
    """The cold query list: seeded flow counts, never repeated.

    The order is fixed -- the queries of each (scheduler, H) class
    back to back, a backlog query after every sixth -- so that the
    two connections' queries that meet in one coalescer flush are of
    the same class whichever way they pair up, and the same queries
    wait behind each backlog solve in every run.  The seed draws only
    the flow counts.
    """
    rng = random.Random(seed)
    seen: set[tuple] = set()

    def draw(kind: str, scheduler: str, hops: int) -> dict:
        while True:
            n_through, n_cross = rng.randint(80, 120), rng.randint(100, 160)
            ident = (kind, scheduler, hops, n_through, n_cross)
            if ident not in seen:
                seen.add(ident)
                return {
                    "kind": kind, "scheduler": scheduler, "hops": hops,
                    "n_through": n_through, "n_cross": n_cross,
                }

    per_class = 1 if tiny else DELAY_PER_CLASS
    backlog = BACKLOG[:1] if tiny else BACKLOG
    delay = [
        draw("delay", scheduler, hops)
        for scheduler in SCHEDULERS
        for hops in HOPS
        for _ in range(per_class)
    ]
    queries: list[dict] = []
    chunk = len(delay) // len(backlog)
    for index, (scheduler, hops) in enumerate(backlog):
        queries += delay[index * chunk:(index + 1) * chunk]
        queries.append(draw("backlog", scheduler, hops))
    return queries + delay[len(backlog) * chunk:]


def bound_of(row: dict) -> float:
    return row["delay"] if row["kind"] == "delay" else row["backlog"]


def cold_ok(query: dict, status: int, row) -> bool:
    """A 200 whose row answers this query with a bound."""
    return (
        status == 200
        and isinstance(row, dict)
        and all(row.get(k) == query[k] for k in ("kind", "scheduler", "hops"))
        and isinstance(row.get("delay" if query["kind"] == "delay" else "backlog"), float)
        and isinstance(row.get("feasible"), bool)
    )


def verdict_ok(status: int, reply, cold_row: dict) -> bool:
    """A 200 whose verdict follows from its bound, which is the cold one."""
    if status != 200 or not isinstance(reply, dict):
        return False
    bound, target = reply.get("bound"), reply.get("target")
    if not isinstance(bound, float) or not isinstance(target, float):
        return False
    admissible = bool(reply.get("feasible")) and bound <= target
    return (
        reply.get("admissible") is admissible
        and same_value(bound, bound_of(cold_row))
        and reply.get("feasible") is cold_row["feasible"]
    )


def encode(path: str, body: dict) -> bytes:
    """A keep-alive ``POST`` of ``body`` as JSON."""
    data = json.dumps(body).encode()
    return (
        f"POST {path} HTTP/1.1\r\nHost: bench\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(data)}\r\n\r\n"
    ).encode("ascii") + data


class Connection:
    """One keep-alive HTTP/1.1 connection, one request at a time."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self.reader, self.writer = reader, writer

    @classmethod
    async def open(cls, port: int) -> "Connection":
        return cls(*await asyncio.open_connection("127.0.0.1", port))

    async def request(self, data: bytes):
        """Send one encoded request; ``(status, parsed JSON body)``."""
        self.writer.write(data)
        await self.writer.drain()
        head = await self.reader.readuntil(b"\r\n\r\n")
        status = int(head.split(None, 2)[1])
        length = 0
        for line in head.split(b"\r\n")[1:]:
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        raw = await self.reader.readexactly(length) if length else b""
        return status, json.loads(raw) if raw else None

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


class Server:
    """One server subprocess; ``setup_s`` runs to its warm-up answer.

    ``record`` is ``"spans"`` (a traced server) or ``"speed"``
    (host-speed probes); see ``serve.py``.
    """

    def __init__(self, work: Path, index: int, record: str = "speed"):
        self.record_path = work / f"{record}-{index}.json"
        cmd = [sys.executable, str(BENCH_DIR / "serve.py")]
        cmd += [f"--{record}", str(self.record_path)]
        cmd += ["--port", "0", "--cache-dir", str(work / f"server-cache-{index}")]
        self.log = open(work / f"server-{index}.log", "w")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd,
            stdout=subprocess.PIPE,
            stderr=self.log,
            env=child_env(work, work / f"cprobe-server-{index}"),
            cwd=work,
            text=True,
        )
        try:
            line = self.proc.stdout.readline()
            if not line.startswith("listening on http://"):
                raise BenchError(f"server did not start: {line!r}")
            self.port = int(line.rsplit(":", 1)[1])
            conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
            try:
                conn.request(
                    "POST", "/v1/bounds", body=json.dumps(WARMUP),
                    headers={"Content-Type": "application/json"},
                )
                reply = conn.getresponse()
                reply.read()
            except (OSError, http.client.HTTPException) as exc:
                raise BenchError(f"warm-up query failed: {exc!r}") from exc
            finally:
                conn.close()
            if reply.status != 200:
                raise BenchError(f"warm-up query failed: HTTP {reply.status}")
        except BaseException:
            stop_process(self.proc)
            self.log.close()
            raise
        self.setup_s = time.perf_counter() - start

    def peak_rss_mb(self) -> float:
        return peak_rss_mb_pid(self.proc.pid)

    def stop(self):
        """Stop the server; returns what it recorded."""
        rc = stop_process(self.proc)
        self.proc.stdout.close()
        self.log.close()
        if rc != 0:
            raise BenchError(f"server exited with {rc}")
        return json.loads(self.record_path.read_text())


class Load:
    """Request bookkeeping shared by the phases of one server launch."""

    def __init__(self, port: int, traced: bool):
        self.port = port
        self.traced = traced
        self.attempted = 0
        self.failed = 0
        self.non_lru = 0
        self.client_s: dict[str, float] = {}
        self._rid = 0
        self.conns: list[Connection] = []

    async def open(self) -> None:
        self.conns = [await Connection.open(self.port) for _ in range(CONNECTIONS)]

    async def close(self) -> None:
        for conn in self.conns:
            await conn.close()

    async def send(self, slot: int, path: str, body: dict, data: bytes | None,
                   timeout: float):
        """One request on connection ``slot``; ``(status, reply)``.

        ``data`` is the pre-encoded request (encoded here when ``None``
        or when the run is traced, which tags the body with a request
        id).  A timeout or broken connection counts as status 0 and the
        connection is replaced.
        """
        if self.traced:
            self._rid += 1
            rid = f"c{self._rid}"
            data = encode(path, {**body, "rid": rid})
        elif data is None:
            data = encode(path, body)
        self.attempted += 1
        sent = time.perf_counter()
        try:
            async with asyncio.timeout(timeout):
                status, reply = await self.conns[slot].request(data)
        except (TimeoutError, ConnectionError, OSError, ValueError, asyncio.IncompleteReadError):
            await self.conns[slot].close()
            self.conns[slot] = await Connection.open(self.port)
            status, reply = 0, None
        if self.traced:
            self.client_s[rid] = time.perf_counter() - sent
        return status, reply

    async def cold(
        self, queries: list[dict]
    ) -> tuple[tuple[float, float], list[float], list]:
        """Closed loop; returns ``((start, end), latencies ms, rows)``."""
        rows: list = [None] * len(queries)
        latencies: list[float] = []
        todo = list(range(len(queries)))
        todo.reverse()

        async def client(slot: int) -> None:
            while todo:
                index = todo.pop()
                start = time.perf_counter()
                status, row = await self.send(
                    slot, "/v1/bounds", queries[index], None, COLD_TIMEOUT_S
                )
                latencies.append((time.perf_counter() - start) * 1e3)
                if cold_ok(queries[index], status, row):
                    rows[index] = row
                else:
                    self.failed += 1

        start = time.perf_counter()
        await asyncio.gather(*(client(slot) for slot in range(CONNECTIONS)))
        return (start, time.perf_counter()), latencies, rows

    async def open_loop(
        self, rate: float, seconds: float, picks: list[tuple[dict, bytes, dict]],
        rng: random.Random,
    ) -> dict:
        """Poisson arrivals at ``rate`` for ``seconds``.

        ``picks`` are ``(body, encoded request, cold row)``, used in
        turn.  Returns latency from due time, the dispatcher's own lateness,
        and the wait before sending, per request in due order.
        """
        dues = []
        t = rng.expovariate(rate)
        while t < seconds:
            dues.append(t)
            t += rng.expovariate(rate)
        n = len(dues)
        latency = [0.0] * n
        late = [0.0] * n
        wait = [0.0] * n
        queue: asyncio.Queue = asyncio.Queue()

        async def client(slot: int) -> None:
            while True:
                index = await queue.get()
                if index is None:
                    return
                body, data, cold_row = picks[index % len(picks)]
                wait[index] = time.perf_counter() - (start + dues[index])
                status, reply = await self.send(
                    slot, "/v1/admissible", body, data, HOT_TIMEOUT_S
                )
                latency[index] = (time.perf_counter() - (start + dues[index])) * 1e3
                if not verdict_ok(status, reply, cold_row):
                    self.failed += 1
                elif reply.get("cached") != "lru":
                    self.non_lru += 1

        clients = [asyncio.create_task(client(slot)) for slot in range(CONNECTIONS)]
        start = time.perf_counter()
        index = 0
        while index < n:
            now = time.perf_counter() - start
            if dues[index] > now:
                await asyncio.sleep(dues[index] - now)
                continue
            while index < n and dues[index] <= now:
                late[index] = (now - dues[index]) * 1e3
                queue.put_nowait(index)
                index += 1
        for _ in clients:
            queue.put_nowait(None)
        await asyncio.gather(*clients)
        quarter = max(1, n // 4)
        growing = (
            sum(wait[-quarter:]) / quarter > sum(wait[:quarter]) / quarter + 0.002
        )
        return {
            "rate": rate,
            "latency_ms": latency,
            "late_ms": late,
            "growing": growing,
        }


def hot_picks(queries: list[dict], rows: list, rng: random.Random, count: int):
    """``count`` admissible requests, Zipf(1.1)-popular over the cold set."""
    answered = [i for i, row in enumerate(rows) if row is not None]
    rng.shuffle(answered)
    cum, total = [], 0.0
    for rank in range(1, len(answered) + 1):
        total += rank ** -ZIPF_S
        cum.append(total)
    picks = []
    for index in rng.choices(answered, cum_weights=cum, k=count):
        row = rows[index]
        bound = bound_of(row)
        target = bound * rng.uniform(0.5, 1.5) if bound != float("inf") else 1e3
        body = {**queries[index], "target": target}
        picks.append((body, encode("/v1/admissible", body), row))
    return picks


def step_passes(step: dict) -> bool:
    _, p99 = tail_percentile(step["latency_ms"], 0.99)
    return p99 <= HOT_P99_LIMIT_MS and not step["growing"]


async def drive(port: int, queries: list[dict], seed: int, seconds: float,
                tiny: bool, traced: bool) -> dict:
    load = Load(port, traced)
    await load.open()
    steps: list[tuple[float, bool]] = []
    # the generator's own garbage collections would stall its schedule
    gc.collect()
    gc.freeze()
    gc.disable()

    async def sustained(rate: float) -> bool:
        seconds = max(1.0, STEP_REQUESTS / rate)
        step = await load.open_loop(rate, seconds, picks, rng)
        steps.append((rate, step_passes(step)))
        return steps[-1][1]

    try:
        cold_window, cold_ms, rows = await load.cold(queries)
        rng = random.Random(seed + 1)
        picks = hot_picks(queries, rows, rng, 4096)
        rate = 200.0 if tiny else HOT_RATE
        window_s = 0.5 if tiny else max(STEP_REQUESTS / rate, seconds / 12)
        windows = [
            await load.open_loop(rate, window_s, picks, rng)
            for _ in range(HOT_WINDOWS)
        ]
        passed = sum(step_passes(w) for w in windows)
        steps.append((rate, 2 * passed > len(windows)))
        best = rate if steps[-1][1] else 0.0
        failed_at = None
        for step_rate in ((400.0,) if tiny else RAMP):
            if not await sustained(step_rate):
                failed_at = step_rate
                break
            best = step_rate
        if failed_at is not None and not tiny:
            lo, hi = best, failed_at
            for _ in range(REFINE_STEPS):
                mid = 0.5 * (lo + hi)
                if await sustained(mid):
                    lo = best = max(best, mid)
                else:
                    hi = mid
    finally:
        gc.enable()
        gc.unfreeze()
        await load.close()
    return {
        "cold_window": cold_window,
        "cold_s": cold_window[1] - cold_window[0],
        "cold_ms": cold_ms,
        "rows": rows,
        "windows": windows,
        "steps": steps,
        "max_rps": best,
        "attempted": load.attempted,
        "failed": load.failed,
        "non_lru": load.non_lru,
        "client_s": load.client_s,
    }


def resolve_sample(queries: list[dict], rows: list, seed: int, work: Path) -> tuple[int, int]:
    """Re-solve a seeded sample with direct cell calls; ``(checked, wrong)``."""
    rng = random.Random(seed + 2)
    delay = [i for i, q in enumerate(queries) if q["kind"] == "delay" and rows[i]]
    backlog = [
        i for i, q in enumerate(queries)
        if q["kind"] == "backlog" and q["hops"] <= RESOLVE_BACKLOG_MAX_HOPS and rows[i]
    ]
    sample = rng.sample(delay, min(RESOLVE_DELAY, len(delay)))
    sample += rng.sample(backlog, min(1, len(backlog)))
    os.environ["REPRO_CPROBE_DIR"] = str(work / "cprobe-resolve")
    os.makedirs(os.environ["REPRO_CPROBE_DIR"], exist_ok=True)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from repro.service.api.cells import bound_query_cell
    from repro.service.api.model import BoundQuery

    wrong = 0
    for index in sample:
        direct = bound_query_cell(**BoundQuery.from_json(queries[index]).params())
        served = {k: v for k, v in rows[index].items() if k not in ("key", "cached")}
        if not same_value(served, dict(direct["rows"][0])):
            wrong += 1
    return len(sample), wrong


def launch_and_drive(work: Path, index: int, queries, seed, seconds, tiny,
                     traced: bool, started: list) -> dict:
    server = Server(work, index, "spans" if traced else "speed")
    started.append(server)
    result = asyncio.run(
        drive(server.port, queries, seed, seconds, tiny, traced)
    )
    result["setup_s"] = server.setup_s
    result["rss_mb"] = server.peak_rss_mb()
    started.remove(server)
    result["record"] = server.stop()
    if not traced:
        result["cold_wall_s"], result["cold_scaled_s"] = scaled_cold(
            result["cold_window"], result["record"]
        )
    return result


def scaled_cold(window: tuple[float, float], probes: list) -> tuple[float, float]:
    """The cold phase's wall time without probes, and at reference speed.

    ``probes`` are ``[start, end, speed]`` from ``serve.py --speed``.
    The time between two probes is rescaled by ``PROBE_REF_S`` over
    their mean speed; before the first probe of the phase and after its
    last, by that probe alone.  Server and client share
    ``time.perf_counter`` (CLOCK_MONOTONIC).
    """
    lo, hi = window
    inside = [p for p in probes if lo <= p[0] and p[1] <= hi]
    wall = hi - lo - sum(end - start for start, end, _ in inside)
    if not inside:
        return wall, wall
    edges = [[lo, lo, inside[0][2]]] + inside + [[hi, hi, inside[-1][2]]]
    scaled = sum(
        (b[0] - a[1]) * 2.0 * PROBE_REF_S / (a[2] + b[2])
        for a, b in zip(edges, edges[1:])
    )
    return wall, scaled


def run(seed: int, seconds: float, trace: bool, tiny: bool, work: Path,
        started: list) -> dict:
    """Run the workload; returns the figures ``run.py`` reports."""
    queries = cold_queries(seed, tiny)
    setups = []
    if trace:
        plain = launch_and_drive(work, 0, queries, seed, seconds, tiny, False, started)
        traced = launch_and_drive(work, 1, queries, seed, seconds, tiny, True, started)
        main = plain
    else:
        for index in range(0 if tiny else SETUP_SAMPLES - 1):
            server = Server(work, index)
            started.append(server)
            setups.append(server.setup_s)
            started.remove(server)
            server.stop()
        main = launch_and_drive(work, 9, queries, seed, seconds, tiny, False, started)
        traced = None
    setups.append(main["setup_s"])

    windows = main["windows"]
    late_ms = [ms for w in windows for ms in w["late_ms"]]
    checked, wrong = resolve_sample(queries, main["rows"], seed, work)
    attempted = main["attempted"] + (traced["attempted"] if traced else 0)
    failed = main["failed"] + (traced["failed"] if traced else 0) + wrong
    _, cold_p90 = tail_percentile(main["cold_ms"], 0.9)
    out = {
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "setup_s": median(setups),
            "peak_rss_mb": main["rss_mb"],
            "cells_per_s": len(queries) / main["cold_scaled_s"],
            "cells_per_s_wall": len(queries) / main["cold_wall_s"],
            "cold_p50_ms": median(main["cold_ms"]),
            "cold_p90_ms": cold_p90,
            "hot_p50_ms": median([median(w["latency_ms"]) for w in windows]),
            "hot_p99_ms": median(
                [tail_percentile(w["latency_ms"], 0.99)[1] for w in windows]
            ),
            "hot_max_rps": main["max_rps"],
        },
        "notes": {
            "cold_queries": len(queries),
            "hot_requests": sum(len(w["latency_ms"]) for w in windows),
            "ramp": main["steps"],
            "hot_non_lru": main["non_lru"],
            "resolved": checked,
            "resolve_mismatches": wrong,
        },
        "loadgen": {
            "loadgen.late_p99_ms": quantile(late_ms, 0.99),
            "loadgen.connections": CONNECTIONS,
            "loadgen.behind": int(quantile(late_ms, 0.99) > LATE_LIMIT_MS),
        },
    }
    if traced is not None:
        out["traced"] = {
            "spans": traced["record"],
            "client_s": traced["client_s"],
            "overhead": {
                "trace.overhead_pct": 100.0 * (traced["cold_s"] / main["cold_wall_s"] - 1.0),
                "trace.hot_overhead_pct": 100.0 * (
                    median([ms for w in traced["windows"] for ms in w["latency_ms"]])
                    / median([ms for w in windows for ms in w["latency_ms"]]) - 1.0
                ),
            },
        }
    return out
