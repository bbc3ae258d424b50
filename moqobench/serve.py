"""serve_zipf: open-loop HTTP traffic against ``repro-moqo serve --workers 2``.

The traffic is the repository's own skewed-trace model,
``repro.bench.trace``'s ``zipf_repeat`` shape: Zipf-popular exact repeats
over a small population of keys, where each key's first arrival is a
one-invocation *probe*.  The run's schedule is a stream of such traces
(:func:`synthesize_trace` under seeds 0, 1, 2, ...), each trace's keys mapped
onto fresh request fingerprints of the pinned :data:`~pools.SERVE_POOL`
members, so every request class the shape implies
shows up as the cache class the service answers with:

* **probe** -- a key's first arrival, asking for
  :data:`~pools.PROBE_INVOCATIONS` invocation; a cache miss that plans cold
  and parks its session;
* **warm** -- the key's first full-climb arrival, which the cache answers by
  resuming the parked session;
* **hit** -- every later arrival, replayed from the cached trace without
  invocations.

Requests are sent from one process by two threads (so at most two
connections) on a fixed schedule of :data:`RATE` per second; the trace's
tick bursts are flattened onto that fixed rate.  Each request is timed from
its due time, so a stalled generator shows as latency, and how late the
generator sent is reported as ``gen.lag_ms``.
"""

from __future__ import annotations

import os
import random
import re
import select
import signal
import socket
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

import pools
from speed import SpeedLog
from stats import seeded_pass

_perf = time.perf_counter
HERE = Path(__file__).resolve().parent

#: Offered load, requests per second.  Below the knee of the sweep recorded
#: in ledger.json ("serve_rate_sweep").
RATE = 3.5
#: Seconds within which a request's first frontier must arrive to count as goodput.
TTFF_LIMIT_S = 1.0
#: Per-shard frontier cache budget: the live keys' traces and parked probe
#: sessions fit, keys of finished traces evict.
CACHE_MB = 6
WORKERS = 2
CLIENT_THREADS = 2
#: Slots between two requests for the same key (``KEY_GAP / RATE`` seconds):
#: longer than a cold request takes, so a request finds the previous one for
#: its key finished and gets the cache class its trace gives it.
KEY_GAP = 12
#: Server spawns per run; the median spawn-to-healthy time is setup_s.
SETUP_PROBES = 5
#: The reference routine is timed only when the next request is at least
#: this far off (it takes 8-15 ms on the 2-vCPU box) ...
REFERENCE_GAP_S = 0.05
#: ... and the last one finished this long ago.  Timed right after a request,
#: while the server still winds it down, the routine tracked hit latency
#: worse (7.5 s block medians over 5 runs correlated 0.24, against 0.58).
REFERENCE_QUIET_S = 0.06

#: Cache status the service should answer each planned class with.
EXPECTED_STATUS = {"probe": "miss", "warm": "warm", "hit": "hit"}


@dataclass(frozen=True)
class Planned:
    kind: str  # probe | warm | hit
    member: str
    invocations: int
    key: int


def trace_keys(trace_seed: int, passes: Dict[bool, List[str]], rng: random.Random,
               first_key: int) -> List[Planned]:
    """One ``zipf_repeat`` trace as planned requests on fresh keys.

    The trace's ``(template, seed)`` pairs become keys ``first_key, ...`` in
    order of first arrival.  Keys that arrive again (and so warm-start) and
    keys that only probe each take the next member of their own seeded whole
    pass over the pool (``passes`` carries both across traces), so every
    member does its share of the warm starts as well as of the probes.
    """
    from repro.bench.trace import REPEAT_SHAPE, get_shape, synthesize_trace

    events = synthesize_trace(get_shape(REPEAT_SHAPE), seed=trace_seed)
    arrivals = Counter(event.spec for event in events)
    keys: Dict[str, list] = {}
    planned = []
    for event in events:
        if event.spec not in keys:
            members = passes.setdefault(arrivals[event.spec] > 1, [])
            if not members:
                members.extend(seeded_pass(pools.SERVE_POOL, rng))
            keys[event.spec] = [members.pop(), first_key + len(keys), 0]
        entry = keys[event.spec]
        if event.kind == "probe":
            kind, invocations = "probe", pools.PROBE_INVOCATIONS
        else:
            kind, invocations = ("warm" if entry[2] == 1 else "hit"), pools.LEVELS
        entry[2] += 1
        planned.append(Planned(kind, entry[0], invocations, entry[1]))
    return planned


def build_schedule(seed: int, count: int) -> List[Planned]:
    """The run's requests, in send order (a pure function of the seed).

    Trace ``k`` is ``synthesize_trace`` under seed ``k`` in every run, so every
    run offers the same sequence of request classes; the seed decides which
    member each key plans.  Traces run side by side: each slot takes the next
    request of the oldest open trace whose key was last sent at least
    :data:`KEY_GAP` slots ago, and opens a new trace when none qualifies.
    Every trace's own order is kept.
    """
    rng = random.Random(f"serve_zipf:{seed}")
    passes: Dict[bool, List[str]] = {}
    open_traces: List[List[Planned]] = []
    last_sent: Dict[int, int] = {}
    schedule: List[Planned] = []
    traces = 0
    next_key = 1
    while len(schedule) < count:
        slot = len(schedule)
        for trace in open_traces:
            if slot - last_sent.get(trace[0].key, -KEY_GAP) >= KEY_GAP:
                break
        else:
            trace = trace_keys(traces, passes, rng, next_key)
            traces += 1
            next_key = max(planned.key for planned in trace) + 1
            open_traces.append(trace)
        planned = trace.pop(0)
        last_sent[planned.key] = slot
        schedule.append(planned)
        if not trace:
            open_traces.remove(trace)
    return schedule


def wire_request(planned: Planned):
    budget = None if planned.invocations == pools.LEVELS else planned.invocations
    return pools.request(planned.member, max_invocations=budget, key=planned.key)


# ----------------------------------------------------------------------
# The server process
# ----------------------------------------------------------------------
def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except (FileNotFoundError, ProcessLookupError, IndexError):
        return False
    return state not in ("Z", "X")


def _peak_rss_mb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except FileNotFoundError:
        pass
    return 0.0


class Server:
    """One ``serve_main.py`` process; ``setup_s`` is spawn to healthy."""

    def __init__(self, tmp: Path, env: dict, ledger_dir: Optional[Path] = None):
        from repro.service import ServiceClient

        cache_dir = tmp / f"cache-{len(list(tmp.glob('cache-*')))}"
        cache_dir.mkdir()
        command = [sys.executable, str(HERE / "serve_main.py")]
        if ledger_dir is not None:
            command += ["--ledger-dir", str(ledger_dir)]
        command += [
            "--", "--workers", str(WORKERS), "--port", "0",
            "--cache-mb", str(CACHE_MB), "--cache-dir", str(cache_dir),
            "--drain-seconds", "2",
        ]
        self.started = started = _perf()
        self.proc = subprocess.Popen(
            command, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True
        )
        self.shard_pids: List[int] = []
        try:
            port = self._read_port(deadline=started + 60.0)
            self.client = ServiceClient(port=port, timeout=120.0)
            self.port = port
            while True:
                try:
                    health = self.client.health()
                    if health.get("status") == "ok":
                        break
                except OSError:
                    pass
                if _perf() > started + 60.0:
                    raise RuntimeError("planning service never became healthy")
                time.sleep(0.005)
            self.setup_s = _perf() - started
            self.shard_pids = [shard["pid"] for shard in self.client.stats()["shards"]]
        except BaseException:
            self.close()
            raise

    def _read_port(self, deadline: float) -> int:
        output = []
        while _perf() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if ready:
                line = self.proc.stdout.readline()
                if not line:
                    break
                output.append(line)
                match = re.search(r"http://[0-9.]+:(\d+)", line)
                if match:
                    return int(match.group(1))
        raise RuntimeError("planning service did not start: " + "".join(output)[-2000:])

    @property
    def pids(self) -> List[int]:
        return [self.proc.pid, *self.shard_pids]

    def peak_rss_mb(self) -> float:
        return sum(_peak_rss_mb(pid) for pid in self.pids)

    def signal_all(self, signum: int) -> None:
        for pid in self.pids:
            os.kill(pid, signum)

    def close(self) -> List[str]:
        """Stop the server; returns what survived it (processes, the port)."""
        survivors = []
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                survivors.append(f"server pid {self.proc.pid} ignored SIGTERM for 30 s")
                self.proc.kill()
                self.proc.wait(timeout=10)
        self.proc.stdout.close()
        deadline = _perf() + 15.0
        for pid in self.shard_pids:
            while _alive(pid) and _perf() < deadline:
                time.sleep(0.01)
            if _alive(pid):
                survivors.append(f"shard pid {pid}")
                os.kill(pid, signal.SIGKILL)
        port = getattr(self, "port", None)
        if port is not None:
            with socket.socket() as probe:
                if probe.connect_ex(("127.0.0.1", port)) == 0:
                    survivors.append(f"port {port}")
        return survivors


# ----------------------------------------------------------------------
# The open loop
# ----------------------------------------------------------------------
@dataclass
class Record:
    planned: Planned
    due: float
    lag_s: float
    ok: bool = False
    failed: bool = False
    ttff_s: Optional[float] = None
    total_s: Optional[float] = None
    submit_s: float = 0.0
    poll_s: float = 0.0
    cache_status: str = ""
    plans: int = 0
    error: str = ""
    ended: float = 0.0


def _one_request(client, planned: Planned, due: float, expected: List[str]) -> Record:
    from repro.api.schema import SchemaError
    from repro.service import ServiceClientError

    sent = _perf()
    record = Record(planned, due=due, lag_s=sent - due)
    frontiers = []
    final = None
    try:
        status = client.submit(wire_request(planned))
        submitted = _perf()
        for line in client.stream(status["ticket"]):
            if line.get("kind") == "frontier_update":
                if record.ttff_s is None:
                    record.ttff_s = _perf() - due
                frontiers.append(line["frontier"])
            else:
                final = line
        done = _perf()
    except (ServiceClientError, SchemaError, OSError, ValueError) as exc:
        record.failed = True
        record.error = f"{type(exc).__name__}: {exc}"
        return record
    record.total_s = done - due
    record.submit_s = submitted - sent
    record.poll_s = done - submitted
    if final is None or final.get("state") != "finished" or record.ttff_s is None:
        record.failed = True
        record.error = f"job ended {final and final.get('state')}: {final and final.get('error')}"
        return record
    record.cache_status = final["cache_status"]
    result = final["result"]
    record.plans = int(result.get("plans_generated", 0))
    want = expected[: planned.invocations]
    seen = [pools.frontier_digest(frontier) for frontier in frontiers]
    record.ok = seen == want and pools.frontier_digest(result["frontier"]) == want[-1]
    if not record.ok:
        record.error = f"frontier digests {seen} != pinned {want}"
    return record


def open_loop(client, schedule: List[Planned], digests: Dict[str, List[str]],
              speed: SpeedLog) -> tuple:
    """Send ``schedule`` at :data:`RATE`; returns (records, window seconds).

    Meanwhile the calling thread times the reference routine into ``speed``,
    at most once per slot and only while the server is quiet: no request in
    flight, none finished within :data:`REFERENCE_QUIET_S`, and none due
    within :data:`REFERENCE_GAP_S`, so the timing never delays a send.
    """
    records: List[Optional[Record]] = [None] * len(schedule)
    cursor = iter(range(len(schedule)))
    lock = threading.Lock()
    start = _perf() + 0.05

    def client_thread():
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            due = start + index / RATE
            delay = due - _perf()
            if delay > 0:
                time.sleep(delay)
            planned = schedule[index]
            record = _one_request(client, planned, due, digests[planned.member])
            record.ended = _perf()
            records[index] = record

    threads = [threading.Thread(target=client_thread) for _ in range(CLIENT_THREADS)]
    for thread in threads:
        thread.start()
    lowest = 0
    measured_at = -1
    last_end = start
    while lowest < len(schedule):
        # Every request before ``lowest`` has finished; none after it is due.
        if records[lowest] is not None:
            last_end = max(last_end, records[lowest].ended)
            lowest += 1
            continue
        now = _perf()
        wait = start + lowest / RATE - now
        quiet = now - last_end >= REFERENCE_QUIET_S
        if quiet and wait >= REFERENCE_GAP_S and measured_at != lowest:
            speed.measure()
            measured_at = lowest
        elif not any(thread.is_alive() for thread in threads):
            break
        else:
            time.sleep(min(wait, 0.02) if wait > 0 else 0.02)
    for thread in threads:
        thread.join()
    return records, _perf() - start


def calibrate(client) -> float:
    """Seconds to run the calibration members' cold climbs one after another."""
    started = _perf()
    for member in pools.CALIBRATION:
        status = client.submit(pools.request(member, key=0))
        client.result(status["ticket"], timeout=120.0, poll_interval=0.005)
    return _perf() - started


def warm_up(client) -> None:
    """One full climb of every pool member, on keys the run never sends."""
    tickets = [client.submit(pools.request(member))["ticket"] for member in pools.SERVE_POOL]
    for ticket in tickets:
        client.result(ticket, timeout=120.0, poll_interval=0.01)
