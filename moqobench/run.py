"""Repository benchmark: cold refinement and Zipf serving.

    python3 moqobench/run.py --workload refine_cold --seed 1 --seconds 45 --trace 0
    python3 moqobench/run.py --workload serve_zipf --seed 1 --seconds 45 --trace 1
    python3 moqobench/run.py --workload refine_cold --smoke
    python3 moqobench/run.py --selfcheck

Run from the repository root.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones, measured untraced; with
``--trace 1`` they are the per-layer ledger of a separate traced run.  Lines
before it give provenance, sample counts and the tail percentile used.  The
exit code is 0 only when every operation's frontiers matched the pinned
digests and nothing the run started survived it.

End-to-end times are scaled to a fixed host speed by the reference routine
of ``speed.py``, timed next to every operation; the unscaled wall-clock
figures are printed on the ``samples`` line.

Workload and metric definitions, layer predictions and the serving-rate
sweep are in ``moqobench/ledger.json``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import pools  # noqa: E402
from speed import SpeedLog  # noqa: E402
from stats import percentile, seeded_pass, summarize  # noqa: E402

_perf = time.perf_counter

WORKLOADS = ("refine_cold", "serve_zipf")

#: Fresh-interpreter probes per refine_cold run; setup_s is their median.
SETUP_PROBES = 5
#: TTFF limit for goodput of refine_cold (serve_zipf: serve.TTFF_LIMIT_S).
TTFF_LIMIT_S = 1.0

#: Per-layer metrics of the service layer (zero on refine_cold).
SERVICE_LAYER_METRICS = (
    "client.submit_ms", "client.poll_ms", "cache.hits", "cache.warm_starts",
    "cache.misses", "cache.evictions", "cache.hit_ratio",
    "scheduler.queue_wait_ms", "shard.imbalance", "gen.lag_ms",
)

#: Nominal seconds of one refine_cold pass over the full pool on the 2-vCPU
#: box the benchmark was built on (5.2-8.4 s measured, with the host's speed
#: phase).  A run makes ``--seconds / REFINE_PASS_S`` whole passes, rounded
#: to the nearest, so every run does the same work and its sample count, and
#: with it the tail rung, never changes with the host's speed.
REFINE_PASS_S = 6.0
#: Smoke mode: one set-up probe and ten passes over two cheap members, the
#: 20 sessions the tail rule needs.
SMOKE_POOL = ("tpch:q02_main", "template:ss_customer_funnel:1")
SMOKE_PASSES = 10


def declared_metrics(kind: str) -> list:
    """The ``end_to_end`` or ``per_layer`` metric list of BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)[kind]


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------
def source_digest() -> str:
    digest = hashlib.sha256()
    for base in (SRC, HERE):
        for path in sorted(base.rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode("utf-8"))
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_revision():
    """HEAD of the checkout when it is a git work tree, else None."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="ascii").strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text(encoding="ascii").strip() if target.is_file() else ref[5:]
    return ref


def provenance(args) -> dict:
    from repro import kernel

    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "git_revision": git_revision(),
        "source_digest": source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "kernel_backend": kernel.backend_name(),
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }


# ----------------------------------------------------------------------
# refine_cold (in-process open_session)
# ----------------------------------------------------------------------
def setup_probe_s(env: dict, member: str) -> tuple:
    """(start, seconds) of one fresh interpreter from spawn to ready."""
    started = _perf()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "probe.py"), member],
        env=env,
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        line = proc.stdout.readline()
        elapsed = _perf() - started
    finally:
        proc.stdout.close()
        proc.wait(timeout=60)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe for {member} failed (exit {proc.returncode})")
    return started, elapsed


def calibrate_sessions() -> float:
    from sessions import cold_climb

    started = _perf()
    for member in pools.CALIBRATION:
        cold_climb(member)
    return _perf() - started


def run_sessions(args, env: dict) -> dict:
    from sessions import cold_climb

    digests = pools.load_digests()["refine"]
    pool = SMOKE_POOL if args.smoke else pools.REFINE_POOL
    rng = random.Random(f"refine_cold:{args.seed}")
    speed = SpeedLog()

    probes = 1 if args.smoke else SETUP_PROBES
    setups = []
    speed.measure()
    for _ in range(probes):
        setups.append(setup_probe_s(env, pool[0]))
        speed.measure()

    # Warm-up: imports, lazy tables and allocator state settle before timing.
    cold_climb("tpch:q02_main")

    ledger = None
    overhead = None
    if args.trace:
        from ledger import Ledger, install

        untraced = calibrate_sessions()
        ledger = Ledger()
        install(ledger)
        overhead = calibrate_sessions() / untraced
        ledger.reset()

    passes = SMOKE_PASSES if args.smoke else max(1, int(args.seconds / REFINE_PASS_S + 0.5))
    spans = []
    plans = ok = attempted = 0
    speed.measure()
    for _ in range(passes):
        # One pass: every member once, in seeded order.
        for member in seeded_pass(pool, rng):
            begin = _perf()
            # Collect the previous session's garbage outside the session's
            # clock, so a session never pays for cycles its predecessor left.
            gc.collect()
            op = cold_climb(member)
            plans += op.plans
            attempted += 1
            matched = op.digests() == digests[member]
            ok += matched
            spans.append((begin, _perf(), op.ttff_s, op.total_s, matched))
            # Outside the window: the reference time that scales this span.
            speed.measure()
    # The window is the sessions' spans, without the reference timings.
    window = sum(span[1] - span[0] for span in spans)
    scaled = []
    for begin, end, ttff, total, matched in spans:
        scale = speed.scale(begin, end)
        scaled.append(((end - begin) * scale, ttff * scale, total * scale, matched))

    result = {
        "attempted": attempted,
        "failed": attempted - ok,
        "setup": [seconds * speed.scale(start, start + seconds) for start, seconds in setups],
        "ttff": [span[1] for span in scaled],
        "op": [span[2] for span in scaled],
        "good_ttff": [span[1] for span in scaled if span[3]],
        "ttff_limit_s": TTFF_LIMIT_S,
        "window_s": sum(span[0] for span in scaled),
        "raw": {
            "setup": [seconds for _, seconds in setups],
            "ttff": [span[2] for span in spans],
            "op": [span[3] for span in spans],
            "window_s": window,
        },
        "reference_ms": speed.median_s() * 1e3,
        "reference_samples": len(speed.samples),
        "plans": plans,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "survivors": [],
    }
    if ledger is not None:
        from ledger import layer_metrics, layer_shares, merge

        merged = merge([ledger.snapshot()])
        ledger.restore()
        result["layers"] = layer_metrics(merged, window)
        result["layer_ms"] = layer_shares(merged)
        result["layers"].update({"trace.overhead": overhead, "trace.wall_ms": window * 1e3})
        # In-process sessions never reach the service layer.
        result["layers"].update(dict.fromkeys(SERVICE_LAYER_METRICS, 0.0))
    return result


# ----------------------------------------------------------------------
# serve_zipf
# ----------------------------------------------------------------------
def run_serve(args, env: dict, tmp: Path) -> dict:
    import serve

    digests = pools.load_digests()["refine"]
    count = int(round(serve.RATE * args.seconds))
    schedule = serve.build_schedule(args.seed, count)
    # A traced run calibrates on the first, untraced server: keep two.
    probes = (2 if args.trace else 1) if args.smoke else serve.SETUP_PROBES
    setups, survivors = [], []
    speed = SpeedLog()
    untraced_cal = None
    for index in range(probes - 1):
        speed.measure()
        server = serve.Server(tmp, env)
        setups.append((server.started, server.setup_s))
        try:
            if args.trace and index == 0:
                untraced_cal = serve.calibrate(server.client)
        finally:
            survivors += server.close()
    ledger_dir = None
    if args.trace:
        ledger_dir = tmp / "ledgers"
        ledger_dir.mkdir()
    speed.measure()
    server = serve.Server(tmp, env, ledger_dir)
    setups.append((server.started, server.setup_s))
    try:
        speed.measure()
        traced_cal = serve.calibrate(server.client) if args.trace else None
        serve.warm_up(server.client)
        before = server.client.stats()
        if args.trace:
            server.signal_all(signal.SIGUSR1)
        records, window = serve.open_loop(server.client, schedule, digests, speed)
        if args.trace:
            server.signal_all(signal.SIGUSR2)
        after = server.client.stats()
        peak_rss = server.peak_rss_mb()
        pids = server.pids
    finally:
        survivors += server.close()

    done = [record for record in records if not record.failed]
    hits = [record for record in done if record.planned.kind == "hit"]
    scale = {
        id(record): speed.scale(record.due, record.due + record.total_s) for record in done
    }
    # Plans built in the window: a probe's, plus what each warm start added
    # on top of its key's probe.  Hits build none.
    probe_plans = {r.planned.key: r.plans for r in done if r.planned.kind == "probe"}
    plans = 0
    for record in done:
        if record.planned.kind == "probe":
            plans += record.plans
        elif record.planned.kind == "warm" and record.planned.key in probe_plans:
            plans += record.plans - probe_plans[record.planned.key]
    for record in records:
        if not record.ok:
            print(f"request failed: {record.planned} {record.error}", file=sys.stderr)
    result = {
        "attempted": len(records),
        "failed": sum(1 for record in records if not record.ok),
        "setup": [seconds * speed.scale(start, start + seconds) for start, seconds in setups],
        "ttff": [record.ttff_s * scale[id(record)] for record in done],
        "op": [record.total_s * scale[id(record)] for record in done],
        "center": {
            "ttff": [record.ttff_s * scale[id(record)] for record in hits],
            "op": [record.total_s * scale[id(record)] for record in hits],
        },
        # The offered window and the plans built in it are set by the
        # schedule, not by the host's speed: they are not scaled.
        "window_s": window,
        "plans": plans,
        "good_ttff": [record.ttff_s * scale[id(record)] for record in done if record.ok],
        "raw": {
            "setup": [seconds for _, seconds in setups],
            "ttff": [record.ttff_s for record in done],
            "op": [record.total_s for record in done],
            "center": {
                "ttff": [record.ttff_s for record in hits],
                "op": [record.total_s for record in hits],
            },
            "window_s": window,
        },
        "reference_ms": speed.median_s() * 1e3,
        "reference_samples": len(speed.samples),
        "ttff_limit_s": serve.TTFF_LIMIT_S,
        "peak_rss_mb": peak_rss,
        "survivors": survivors,
        "classes": {
            kind: sum(1 for r in done if r.cache_status == kind)
            for kind in ("hit", "warm", "miss")
        },
        # Requests the service answered from another cache class than their
        # trace gives them (a key's previous request was still running).
        "class_flips": sum(
            1 for r in done if r.cache_status != serve.EXPECTED_STATUS[r.planned.kind]
        ),
        "gen_lag_ms": {
            "p50": statistics.median(r.lag_s for r in records) * 1e3,
            "max": max(r.lag_s for r in records) * 1e3,
        },
    }
    result["classes"]["evictions"] = after["cache"]["evictions"] - before["cache"]["evictions"]
    if args.trace:
        result["layers"], result["layer_ms"] = serve_layers(
            records, before, after, ledger_dir, pids, traced_cal / untraced_cal
        )
    return result


def serve_layers(records, before, after, ledger_dir: Path, pids, overhead) -> tuple:
    from ledger import layer_metrics, layer_shares, merge

    snapshots = []
    deadline = _perf() + 10.0
    for pid in pids:
        path = ledger_dir / f"{pid}.json"
        while not path.exists() and _perf() < deadline:
            time.sleep(0.01)
        with open(path, encoding="utf-8") as handle:
            snapshots.append(json.load(handle))
    merged = merge(snapshots)
    layers = layer_metrics(merged, merged["wall_s"])
    cache = {key: after["cache"][key] - before["cache"][key]
             for key in ("hits", "warm_starts", "misses", "evictions")}
    lookups = cache["hits"] + cache["warm_starts"] + cache["misses"]
    submitted = [
        shard["scheduler"]["submitted"] - old["scheduler"]["submitted"]
        for shard, old in zip(after["shards"], before["shards"])
    ]
    counts = merged["counts"]
    jobs = counts.get("scheduler.jobs", 0.0)
    done = [record for record in records if not record.failed]
    layers.update(
        {
            "client.submit_ms": statistics.fmean(r.submit_s for r in done) * 1e3,
            "client.poll_ms": statistics.fmean(r.poll_s for r in done) * 1e3,
            "cache.hits": float(cache["hits"]),
            "cache.warm_starts": float(cache["warm_starts"]),
            "cache.misses": float(cache["misses"]),
            "cache.evictions": float(cache["evictions"]),
            "cache.hit_ratio": cache["hits"] / lookups if lookups else 0.0,
            "scheduler.queue_wait_ms": (
                counts.get("scheduler.queue_wait_s", 0.0) / jobs * 1e3 if jobs else 0.0
            ),
            "shard.imbalance": max(submitted) / statistics.fmean(submitted),
            "gen.lag_ms": statistics.fmean(r.lag_s for r in records) * 1e3,
            "trace.overhead": overhead,
            "trace.wall_ms": merged["wall_s"] * 1e3,
        }
    )
    return layers, layer_shares(merged)


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def unscaled(result: dict) -> dict:
    """The wall-clock figures behind the host-speed-scaled metrics."""
    raw = result["raw"]
    center = raw.get("center", raw)
    return {
        "setup_s": statistics.median(raw["setup"]),
        "ttff_ms.p50": percentile([value * 1e3 for value in center["ttff"]], 50.0),
        "ttff_ms.tail": summarize([value * 1e3 for value in raw["ttff"]])["tail"],
        "op_ms.p50": percentile([value * 1e3 for value in center["op"]], 50.0),
        "op_ms.tail": summarize([value * 1e3 for value in raw["op"]])["tail"],
        "window_s": raw["window_s"],
    }


def end_to_end(result: dict) -> dict:
    ttff = summarize([value * 1e3 for value in result["ttff"]])
    op = summarize([value * 1e3 for value in result["op"]])
    # The medians are taken over one class of operations where a workload
    # mixes classes whose latencies lie far apart (serve_zipf: the hits).
    center = result.get("center", result)
    ttff["p50"] = percentile([value * 1e3 for value in center["ttff"]], 50.0)
    op["p50"] = percentile([value * 1e3 for value in center["op"]], 50.0)
    window = result["window_s"]
    good = sum(1 for value in result["good_ttff"] if value <= result["ttff_limit_s"])
    values = {
        "setup_s": statistics.median(result["setup"]),
        "ttff_ms.p50": ttff["p50"],
        "ttff_ms.tail": ttff["tail"],
        "op_ms.p50": op["p50"],
        "op_ms.tail": op["tail"],
        "plans_per_s": result["plans"] / window,
        "goodput_rps": good / window,
        "ok_ratio": (result["attempted"] - result["failed"]) / result["attempted"],
        "peak_rss_mb": result["peak_rss_mb"],
    }
    print(
        "samples: "
        + json.dumps(
            {
                "ttff_ms": {k: ttff[k] for k in ("count", "tail_pct")},
                "op_ms": {k: op[k] for k in ("count", "tail_pct")},
                "p50_count": len(center["op"]),
                "setup_probes_s": result["setup"],
                "window_s": window,
                "reference_ms": result["reference_ms"],
                "reference_samples": result["reference_samples"],
                "unscaled": unscaled(result),
                "classes": result.get("classes"),
                "class_flips": result.get("class_flips"),
                "gen_lag_ms": result.get("gen_lag_ms"),
            }
        )
    )
    return values


def emit(result: dict, metrics: list, values: dict, correct: bool) -> None:
    missing = [spec["name"] for spec in metrics if spec["name"] not in values]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]}
                    for spec in metrics
                },
            }
        )
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="a few seconds, same checks")
    parser.add_argument("--selfcheck", action="store_true", help="unit checks of the statistics")
    args = parser.parse_args(argv)
    if args.workload is None and not args.selfcheck:
        parser.error("--workload is required")
    if args.smoke:
        # serve_zipf opens its first traces with a run of probes; 12 s (42
        # requests) is the shortest run that reaches its hits.
        args.seconds = min(args.seconds, 12.0)
    if not (SRC / "repro").is_dir():
        print(f"no program source under {SRC}", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != pools.HASH_SEED:
        # Pin the hash seed for this process and every child it starts.
        env = dict(os.environ, PYTHONHASHSEED=pools.HASH_SEED)
        os.execve(sys.executable, [sys.executable, __file__, *sys.argv[1:]], env)
    sys.path.insert(0, str(SRC))
    if args.selfcheck:
        import selfcheck

        return selfcheck.main()

    def _terminate(signum, frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, _terminate)
    tmp = ROOT / ".moqobench_tmp" / str(os.getpid())
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(
        os.environ,
        PYTHONHASHSEED=pools.HASH_SEED,
        PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])),
        TMPDIR=str(tmp),
    )
    try:
        print("provenance: " + json.dumps(provenance(args)))
        if args.workload == "serve_zipf":
            result = run_serve(args, env, tmp)
        else:
            result = run_sessions(args, env)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass
    if result["survivors"]:
        print(f"survived the run: {result['survivors']}", file=sys.stderr)
    correct = result["failed"] == 0 and not result["survivors"]
    if args.trace:
        layer_ms = dict(result["layer_ms"], unattributed=result["layers"]["unattributed_ms"])
        total = sum(layer_ms.values())
        print("self time by layer: " + json.dumps(
            {layer: {"ms": ms, "share": ms / total} for layer, ms in
             sorted(layer_ms.items(), key=lambda item: -item[1])}
        ))
        emit(result, declared_metrics("per_layer"), result["layers"], correct)
    else:
        emit(result, declared_metrics("end_to_end"), end_to_end(result), correct)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
