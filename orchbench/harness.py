"""The closed-loop measurement: set-up, timed phase, checks, report.

An untraced run (``--trace 0``) reports the end-to-end metrics; a
traced run (``--trace 1``) alternates untraced and traced blocks of
steps and reports the per-layer rollup plus the tracing overhead.
Only the untraced run's figures are end-to-end numbers.
"""

from __future__ import annotations

import gc
import hashlib
import os
import platform
import resource
import statistics
import subprocess
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from orchbench import refloop, trace
from orchbench.stats import adjust, percentile
from orchbench.workloads import WORKLOADS, CallResult, Stack, Workload
from repro.perf import counters

#: the end-to-end metrics of an untraced run, with their units
END_TO_END_UNITS = {
    "step_p50_ms": "ms",
    "step_p90_ms": "ms",
    "ops_per_s": "1/s",
    "ok_ratio": "ratio",
    "mapping_cost_mean": "cost",
    "ctl_kb_per_op": "KiB/op",
    "setup_s": "s",
    "rss_mb": "MiB",
}

#: set-ups per untraced run; setup_s is their median (two rather
#: than three keep a run at 30-40 s on a 2-core VM)
SETUPS = 2
#: untimed steps after set-up (lazy caches fill)
WARMUP_STEPS = 4
#: the timed phase runs at least the workload's ``min_steps`` and at
#: most MAX_STEPS; the program's cost drifts with the history it
#: keeps, so runs of equal step count compare best
MAX_STEPS = 3000
#: the seed-determined counts are taken over exactly this many steps
PREFIX_STEPS = 100
#: steps per block in a traced run, and the minimum of each kind
TRACE_BLOCK = 5
MIN_TRACE_STEPS = 40
#: the timed phase stops here whatever the step count
HARD_LIMIT_S = 110.0


@dataclass
class Step:
    wall_s: float
    ref_s: float
    calls: list[CallResult]

    @property
    def adjusted_s(self) -> float:
        return adjust(self.wall_s, self.ref_s, refloop.R0)


@dataclass
class RunOutcome:
    """Everything one run produced: result line plus its stamp."""

    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    record: dict = field(default_factory=dict)

    def result_line(self) -> dict:
        return {"correct": self.correct, "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {name: {"value": value, "unit": unit}
                            for name, (value, unit) in self.metrics.items()}}


def _commit(root: Path) -> Optional[str]:
    # only a checkout that is itself a git repository: git must not
    # wander into directories above it
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def stamp(root: Path, cleared: dict) -> dict:
    """The environment part of the record every run carries."""
    return {
        "commit": _commit(root), "source_digest": _source_digest(root),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "cleared_env": cleared, "r0_ms": refloop.R0 * 1e3,
    }


def _timed_setup(workload: Workload) -> tuple[Stack, float, float]:
    """One set-up; returns (stack, wall seconds, reference seconds)."""
    before = refloop.reference_time()
    started = time.perf_counter()
    stack = workload.setup()
    wall = time.perf_counter() - started
    after = refloop.reference_time()
    return stack, wall, (before + after) / 2


def _run_steps(workload: Workload, stack: Stack, first: int, count: int
               ) -> None:
    for index in range(first, first + count):
        workload.prepare(stack, index)
        workload.step(stack, index)


def _timed_step(workload: Workload, stack: Stack, index: int,
                ref_before: float) -> tuple[Step, float]:
    workload.prepare(stack, index)
    started = time.perf_counter()
    calls = workload.step(stack, index)
    wall = time.perf_counter() - started
    ref_after = refloop.reference_time()
    return Step(wall, (ref_before + ref_after) / 2, calls), ref_after


def _check(workload: Workload, stack: Stack) -> list[str]:
    try:
        return workload.check(stack)
    except Exception as exc:  # noqa: BLE001 - a crashed check is a failed one
        return [f"check raised {type(exc).__name__}: {exc}"]


def run_untraced(name: str, seed: int, seconds: float, *,
                 setups: int = SETUPS, min_steps: Optional[int] = None,
                 prefix_steps: int = PREFIX_STEPS,
                 warmup: int = WARMUP_STEPS) -> RunOutcome:
    """Set up ``setups`` times, then run the closed loop for at least
    ``seconds`` and ``min_steps`` steps (default: the workload's own
    minimum); end-to-end metrics."""
    workload = WORKLOADS[name](seed)
    if min_steps is None:
        min_steps = workload.min_steps
    totals_gc = _GCWatch()
    setup_times: list[float] = []
    stack: Optional[Stack] = None
    try:
        for _ in range(setups):
            if stack is not None:
                # free the previous set-up before timing the next one
                stack.close()
                stack = None
                gc.collect()
            stack, wall, ref = _timed_setup(workload)
            setup_times.append(adjust(wall, ref, refloop.R0))
        assert stack is not None
        _run_steps(workload, stack, 0, warmup)
        gc_before = totals_gc.snapshot()
        steps: list[Step] = []
        ref = refloop.reference_time()
        started = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - started
            if (len(steps) >= min_steps and elapsed >= seconds) \
                    or len(steps) >= MAX_STEPS or elapsed >= HARD_LIMIT_S:
                break
            step, ref = _timed_step(workload, stack, warmup + len(steps), ref)
            steps.append(step)
        gc_after = totals_gc.snapshot()
        problems = _check(workload, stack)
    finally:
        totals_gc.close()
        if stack is not None:
            stack.close()

    calls = [call for step in steps for call in step.calls]
    prefix = [call for step in steps[:prefix_steps] for call in step.calls]
    costs = [call.mapping_cost for call in prefix
             if call.mapping_cost is not None]
    adjusted = [step.adjusted_s for step in steps]
    ok = sum(call.ok for call in calls)
    correct = not problems
    values = {
        "step_p50_ms": percentile(adjusted, 50) * 1e3,
        "step_p90_ms": percentile(adjusted, 90) * 1e3,
        "ops_per_s": len(calls) / sum(adjusted),
        "ok_ratio": (ok if correct else 0) / len(calls),
        "mapping_cost_mean": statistics.fmean(costs) if costs else 0.0,
        "ctl_kb_per_op": (sum(call.control_bytes for call in prefix)
                          / len(prefix) / 1024),
        "setup_s": statistics.median(setup_times),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    metrics = {name: (values[name], unit)
               for name, unit in END_TO_END_UNITS.items()}
    record = {
        "workload": name, "seed": seed, "input_digest": workload.digest,
        "steps": len(steps), "calls": len(calls),
        "prefix_steps": min(prefix_steps, len(steps)),
        "setup_s_samples": setup_times,
        "ref_ms_median": statistics.median(s.ref_s for s in steps) * 1e3,
        "wall_step_p50_ms": percentile([s.wall_s for s in steps], 50) * 1e3,
        "gc": _gc_delta(gc_before, gc_after),
        "errors": sorted({call.error for call in calls if not call.ok})[:5],
        "problems": problems,
    }
    return RunOutcome(correct=correct, attempted=len(calls),
                      failed=len(calls) - (ok if correct else 0),
                      metrics=metrics, record=record)


def run_traced(name: str, seed: int, seconds: float, *,
               min_steps: int = MIN_TRACE_STEPS, block: int = TRACE_BLOCK,
               warmup: int = WARMUP_STEPS) -> RunOutcome:
    """Alternate untraced and traced blocks of steps for at least
    ``seconds``; per-layer rollup of the traced steps."""
    workload = WORKLOADS[name](seed)
    tracer = trace.Tracer()
    restore_apply = trace.trace_domain_applies(tracer)
    totals_gc = _GCWatch()
    gc.callbacks.append(tracer.on_gc)
    stack: Optional[Stack] = None
    try:
        stack = workload.setup()
        patches = trace.LayerPatches(tracer)
        simulator = _simulator(stack)
        _run_steps(workload, stack, 0, warmup)
        plain: list[Step] = []
        traced: list[Step] = []
        shares: dict[str, float] = {}
        counted: dict[str, float] = {}
        gc_before = totals_gc.snapshot()
        gc_traced = [0, 0]
        ref = refloop.reference_time()
        started = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - started
            if (min(len(plain), len(traced)) >= min_steps
                    and elapsed >= seconds) \
                    or len(plain) + len(traced) >= MAX_STEPS \
                    or elapsed >= HARD_LIMIT_S:
                break
            tracing = (len(plain) + len(traced)) // block % 2 == 1
            if tracing:
                patches.install()
                before = counters.snapshot()
                events_before = simulator.events_processed if simulator else 0
                gc_block = totals_gc.snapshot()
            for _ in range(block):
                index = warmup + len(plain) + len(traced)
                tracer.active = tracing
                workload.prepare(stack, index)
                step_started = time.perf_counter()
                calls = workload.step(stack, index)
                step_ended = time.perf_counter()
                tracer.active = False
                ref_after = refloop.reference_time()
                step = Step(step_ended - step_started, (ref + ref_after) / 2,
                            calls)
                ref = ref_after
                if not tracing:
                    plain.append(step)
                    continue
                traced.append(step)
                spans, gc_spans = tracer.take()
                factor = refloop.R0 / step.ref_s
                for layer, seconds_ in trace.partition(
                        spans, gc_spans, step_started, step_ended).items():
                    shares[layer] = shares.get(layer, 0.0) + seconds_ * factor
            if tracing:
                patches.uninstall()
                _add_counter_delta(counted, before, counters.snapshot())
                if simulator is not None:
                    counted["sim.events"] = counted.get("sim.events", 0) + (
                        simulator.events_processed - events_before)
                block_gc = _gc_delta(gc_block, totals_gc.snapshot())
                gc_traced[0] += block_gc["collections"]
                gc_traced[1] += block_gc["gen2"]
        gc_after = totals_gc.snapshot()
        problems = _check(workload, stack)
    finally:
        gc.callbacks.remove(tracer.on_gc)
        totals_gc.close()
        restore_apply()
        if stack is not None:
            stack.close()

    calls_traced = sum(len(step.calls) for step in traced)
    calls_plain = sum(len(step.calls) for step in plain)
    counted.update(tracer.counts)
    metrics: dict[str, tuple[float, str]] = {}
    for layer, metric in trace.LAYER_METRICS.items():
        metrics[metric] = (shares.get(layer, 0.0) * 1e3 / calls_traced,
                           "ms/op")
    unknown = sorted(set(shares) - set(trace.LAYER_METRICS))
    per_op = {key: value / calls_traced for key, value in counted.items()}
    hits = counted.get("pathcache.hit", 0)
    lookups = hits + counted.get("pathcache.miss", 0)
    pushes = counted.get("push.delta", 0) + counted.get("push.full", 0)
    counts = {
        "mapping.nodes_examined_per_op": per_op.get("mapping.nodes_examined",
                                                    0),
        "mapping.pathcache_hit_ratio": hits / lookups if lookups else 0.0,
        "mapping.index_fallback_per_op": per_op.get("mapping.index.fallback",
                                                    0),
        "mapping.index_rebuild_per_op": per_op.get("mapping.index.rebuild",
                                                   0),
        "cal.copy_nodes_per_op": (per_op.get("nffg.copy.nodes", 0)
                                  + per_op.get("nffg.copy_subgraph.nodes",
                                               0)),
        "cal.dov_rebuild_per_op": per_op.get("dov.rebuild", 0),
        "cal.remaining_rebuild_per_op": per_op.get("cal.remaining.rebuild",
                                                   0),
        "dispatch.parallel_per_op": per_op.get("dispatch.parallel", 0),
        "adapter.delta_ratio": (counted.get("push.delta", 0) / pushes
                                if pushes else 0.0),
        "adapter.msgs_per_op": per_op.get("adapter.msgs", 0),
        "netconf.get_config_per_op": per_op.get("netconf.get_config", 0),
        "netconf.snapshot_per_op": per_op.get("netconf.snapshot", 0),
        "virtualizer.convert_per_op": per_op.get("virtualizer.convert", 0),
        "openflow.flow_mods_per_op": per_op.get("openflow.flow_mods", 0),
        "journal.records_per_op": (per_op.get("recovery.journal.appends", 0)
                                   + per_op.get(
                                       "recovery.journal.checkpoints", 0)),
        "sim.events_per_op": per_op.get("sim.events", 0),
        "gc.collections_per_op": gc_traced[0] / calls_traced,
        "gc.gen2_per_op": gc_traced[1] / calls_traced,
    }
    for metric, unit in trace.COUNT_METRICS.items():
        metrics[metric] = (float(counts[metric]), unit)
    traced_ms = [step.adjusted_s * 1e3 for step in traced]
    plain_ms = [step.adjusted_s * 1e3 for step in plain]
    metrics["trace.step_ms_per_op"] = (sum(traced_ms) / calls_traced,
                                       "ms/op")
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced_ms) / statistics.median(plain_ms), "ratio")
    metrics["machine.ref_ms"] = (
        statistics.median(s.ref_s for s in plain + traced) * 1e3, "ms")
    metrics["wall.step_p50_ms"] = (
        percentile([s.wall_s for s in plain], 50) * 1e3, "ms")
    all_calls = [call for step in plain + traced for call in step.calls]
    ok = sum(call.ok for call in all_calls)
    correct = not problems and not unknown
    if unknown:
        problems = problems + [f"spans of unreported layers: {unknown}"]
    record = {
        "workload": name, "seed": seed, "input_digest": workload.digest,
        "steps_traced": len(traced), "steps_untraced": len(plain),
        "calls_traced": calls_traced, "calls_untraced": calls_plain,
        "ref_ms_median": metrics["machine.ref_ms"][0],
        "gc": _gc_delta(gc_before, gc_after),
        "errors": sorted({c.error for c in all_calls if not c.ok})[:5],
        "problems": problems,
    }
    return RunOutcome(correct=correct, attempted=len(all_calls),
                      failed=len(all_calls) - (ok if correct else 0),
                      metrics=metrics, record=record)


# -- helpers -----------------------------------------------------------------


class _GCWatch:
    """Collections, gen-2 collections and pause time of the whole run,
    via gc.callbacks."""

    def __init__(self) -> None:
        self.collections = 0
        self.gen2 = 0
        self.pause_s = 0.0
        self._started: dict[int, float] = {}
        gc.callbacks.append(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        ident = threading.get_ident()
        if phase == "start":
            self._started[ident] = time.perf_counter()
            return
        started = self._started.pop(ident, None)
        if started is None:
            return
        self.collections += 1
        self.gen2 += info.get("generation") == 2
        self.pause_s += time.perf_counter() - started

    def snapshot(self) -> tuple[int, int, float]:
        return self.collections, self.gen2, self.pause_s

    def close(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)


def _gc_delta(before: tuple[int, int, float],
              after: tuple[int, int, float]) -> dict:
    return {"collections": after[0] - before[0],
            "gen2": after[1] - before[1],
            "pause_ms": (after[2] - before[2]) * 1e3}


def _add_counter_delta(into: dict[str, float], before: dict[str, float],
                       after: dict[str, float]) -> None:
    for name, value in after.items():
        delta = value - before.get(name, 0)
        if delta:
            into[name] = into.get(name, 0) + delta


def _simulator(stack: Stack):
    testbed = stack.testbed
    return testbed.network.simulator if testbed is not None else None
