"""Outside-in per-layer ledger: self time and work counts per layer.

Nothing under ``src/`` knows about this module.  :func:`install` replaces each
layer's public entry points (module functions at their call sites, class
methods on the class, the kernel's ``ops`` module) with wrappers that keep a
per-thread stack of open spans.  A span's *self* time is its duration minus
the time covered by spans it opened, so the self times of all layers plus
``unattributed_ms`` (see :func:`layer_metrics`) add up to the wall time the ledger was open.

The wrappers cost roughly a microsecond per call, which matters for the
per-row layers (index, freshness): the traced run is slower than the untraced
one, and ``trace.overhead`` reports by how much.  Hook work (counting kept
plans, fresh pairs, built plans) is charged to the layer it counts.
"""

from __future__ import annotations

import json
import os
import threading
import time
import types
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

_perf = time.perf_counter

#: Span name -> layer (the rollup printed by traced runs).
LAYERS: Dict[str, str] = {
    "session.advance": "api.session",
    "resolve": "workloads",
    "optimizer": "core.optimizer",
    "prune": "core.pruning",
    "index.insert_id": "core.index",
    "index.remove_id": "core.index",
    "index.find_dominating_id": "core.index",
    "index.retrieve_ids": "core.index",
    "fresh": "core.fresh",
    "factory": "plans.factory",
    "kernel": "kernel",
}


class Ledger:
    """Span self times and layer counters for one process."""

    def __init__(self) -> None:
        #: span name -> [calls, self seconds]
        self.spans: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])
        #: free-form layer counters (plans in, plans kept, rows, ...)
        self.counts: Dict[str, float] = defaultdict(float)
        self._tls = threading.local()
        self._patches: List[Tuple[object, str, object]] = []
        self._opened = _perf()

    # ------------------------------------------------------------------
    def wrap(self, name: str, fn: Callable, hook: Optional[Callable] = None) -> Callable:
        """``fn`` timed as span ``name``; ``hook(args, kwargs, result)`` counts."""
        entry = self.spans[name]
        tls = self._tls

        def wrapper(*args, **kwargs):
            try:
                stack = tls.stack
            except AttributeError:
                stack = tls.stack = []
            stack.append(0.0)
            started = _perf()
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(args, kwargs, result)
                return result
            finally:
                elapsed = _perf() - started
                entry[0] += 1
                entry[1] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed

        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self, owner: object, attr: str, name: str, hook: Optional[Callable] = None) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, hook))

    def reset(self) -> None:
        """Zero every span and counter in place (wrappers hold the entries)."""
        for entry in self.spans.values():
            entry[0] = 0
            entry[1] = 0.0
        self.counts.clear()
        self._opened = _perf()

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def wall_s(self) -> float:
        return _perf() - self._opened

    def self_s(self) -> float:
        return sum(entry[1] for entry in self.spans.values())

    def snapshot(self) -> dict:
        """JSON-safe state; :func:`merge` adds snapshots of several processes."""
        return {
            "spans": {name: list(entry) for name, entry in self.spans.items()},
            "counts": dict(self.counts),
            "wall_s": self.wall_s(),
        }

    def dump(self, path: str) -> None:
        """Write :meth:`snapshot` to ``path`` atomically (readers poll for it)."""
        partial = f"{path}.partial"
        with open(partial, "w", encoding="utf-8") as handle:
            json.dump(self.snapshot(), handle)
        os.replace(partial, path)


def merge(snapshots: List[dict]) -> dict:
    """Sum span entries, counters and wall times across snapshots."""
    spans: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])
    counts: Dict[str, float] = defaultdict(float)
    wall = 0.0
    for snap in snapshots:
        for name, (calls, self_s) in snap["spans"].items():
            spans[name][0] += calls
            spans[name][1] += self_s
        for name, value in snap["counts"].items():
            counts[name] += value
        wall += snap["wall_s"]
    return {"spans": dict(spans), "counts": dict(counts), "wall_s": wall}


def _kernel_rows(name: str, args: tuple) -> int:
    if name in ("take", "combine_columns"):
        return len(args[1])
    columns = args[0]
    return len(columns[0]) if columns else 0


def install(ledger: Ledger) -> None:
    """Wrap every layer's public entry points (see :data:`LAYERS`)."""
    import repro.api.session as session_mod
    import repro.core.optimizer as optimizer_mod
    import repro.kernel as kernel
    import repro.service.service as service_mod
    import repro.service.shard as shard_mod
    from repro.core.fresh import FreshnessRegistry
    from repro.core.index import PlanIndex
    from repro.core.pruning import PruneOutcome
    from repro.plans.factory import PlanFactory

    counts = ledger.counts
    inserted = PruneOutcome.INSERTED

    def count_prune(args, kwargs, outcomes):
        counts["prune.plans_in"] += len(kwargs["plan_ids"])
        counts["prune.kept"] += sum(1 for outcome in outcomes if outcome is inserted)

    def count_fresh(args, kwargs, fresh):
        if fresh:
            counts["fresh.new"] += 1

    def count_built(args, kwargs, plan_ids):
        counts["factory.plans_built"] += len(plan_ids)

    ledger.patch(session_mod.PlannerSession, "advance", "session.advance")
    for module in (session_mod, service_mod, shard_mod):
        ledger.patch(module, "resolve_request", "resolve")
    ledger.patch(optimizer_mod.IncrementalOptimizer, "optimize", "optimizer")
    ledger.patch(optimizer_mod, "prune_all_ids", "prune", count_prune)
    for method in ("insert_id", "remove_id", "find_dominating_id", "retrieve_ids"):
        ledger.patch(PlanIndex, method, f"index.{method}")
    ledger.patch(FreshnessRegistry, "register_ids", "fresh", count_fresh)
    for method in ("combine_block", "scan_block"):
        ledger.patch(PlanFactory, method, "factory", count_built)

    backend = kernel.ops
    proxy = types.SimpleNamespace()
    for name in dir(backend):
        if name.startswith("_"):
            continue
        fn = getattr(backend, name)
        if not isinstance(fn, types.FunctionType):
            setattr(proxy, name, fn)
            continue

        def count_rows(args, kwargs, result, _name=name):
            counts["kernel.rows"] += _kernel_rows(_name, args)

        setattr(proxy, name, ledger.wrap("kernel", fn, count_rows))
    ledger._patches.append((kernel, "ops", backend))
    kernel.ops = proxy


def install_scheduler_probe(ledger: Ledger) -> None:
    """Count each job's wait from submission to its first timeslice.

    The scheduler exposes no per-job hook, so this wraps its slice runner
    without a span: the probe only reads the job's submission clock.
    """
    from repro.service.scheduler import Scheduler

    counts = ledger.counts
    run_slice = Scheduler._run_slice
    seen = set()

    def probed_run_slice(self, job):
        if job.ticket not in seen:
            seen.add(job.ticket)
            counts["scheduler.jobs"] += 1
            counts["scheduler.queue_wait_s"] += self.clock() - job.submitted_at
        return run_slice(self, job)

    ledger._patches.append((Scheduler, "_run_slice", run_slice))
    Scheduler._run_slice = probed_run_slice


def layer_metrics(merged: dict, wall_s: float) -> Dict[str, float]:
    """Per-layer metrics from a (merged) snapshot over ``wall_s`` of wall time."""
    spans = merged["spans"]
    counts = merged["counts"]

    def calls(name: str) -> float:
        return float(spans.get(name, (0, 0.0))[0])

    def self_ms(name: str) -> float:
        return spans.get(name, (0, 0.0))[1] * 1e3

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    plans_in = counts.get("prune.plans_in", 0.0)
    out = {
        "prune.self_ms": self_ms("prune"),
        "prune.plans_in": plans_in,
        "prune.kept_ratio": ratio(counts.get("prune.kept", 0.0), plans_in),
    }
    for method in ("insert_id", "remove_id", "find_dominating_id", "retrieve_ids"):
        out[f"index.{method}.calls"] = calls(f"index.{method}")
        out[f"index.{method}.self_ms"] = self_ms(f"index.{method}")
    out.update(
        {
            "fresh.calls": calls("fresh"),
            "fresh.self_ms": self_ms("fresh"),
            "fresh.new_ratio": ratio(counts.get("fresh.new", 0.0), calls("fresh")),
            "optimizer.calls": calls("optimizer"),
            "optimizer.self_ms": self_ms("optimizer"),
            "factory.plans_built": counts.get("factory.plans_built", 0.0),
            "factory.self_ms": self_ms("factory"),
            "kernel.calls": calls("kernel"),
            "kernel.rows": counts.get("kernel.rows", 0.0),
            "kernel.self_ms": self_ms("kernel"),
            "session.self_ms": self_ms("session.advance"),
            "resolve.ms": self_ms("resolve"),
        }
    )
    attributed = sum(entry[1] for entry in spans.values()) * 1e3
    out["unattributed_ms"] = wall_s * 1e3 - attributed
    return out


def layer_shares(merged: dict) -> Dict[str, float]:
    """Self time per layer (ms), the rollup of :data:`LAYERS`."""
    shares: Dict[str, float] = defaultdict(float)
    for name, (_calls, self_s) in merged["spans"].items():
        shares[LAYERS.get(name, name)] += self_s * 1e3
    return dict(shares)
