"""OBS-1 — observability overhead.

The whole point of gating the tracer behind ``obs.enabled()`` is that
instrumented code costs (nearly) nothing when nobody is looking, and an
acceptable, bounded amount when someone is.  This harness times the
same deploy/teardown loop with tracing off and on and gates the traced
run at < 10% overhead (plus a small epsilon for timer noise on the
sub-millisecond loop).  Both measurements are best-of-3, which filters
scheduler hiccups the same way the other harnesses do.
"""

import time

from benchmarks.conftest import SMOKE, emit
from repro import obs, perf
from repro.mapping import GreedyEmbedder
from repro.nffg.builder import mesh_substrate
from repro.orchestration.adapters import DirectDomainAdapter
from repro.orchestration.escape import EscapeOrchestrator
from repro.service import ServiceRequestBuilder

#: traced must stay within 10% of untraced, with an absolute floor
#: that keeps sub-ms timer jitter from flaking the gate
OVERHEAD_RATIO = 1.10
EPSILON_MS = 2.0


def _chain(index: int):
    return (ServiceRequestBuilder(f"obs{index}")
            .sap("sap1").sap("sap2")
            .nf(f"obs{index}-fw", "firewall", cpu=0.5, mem=64.0)
            .chain("sap1", f"obs{index}-fw", "sap2", bandwidth=1.0)
            .build().sg)


def _escape():
    escape = EscapeOrchestrator(embedder=GreedyEmbedder())
    escape.add_domain(DirectDomainAdapter(
        "dom", view=mesh_substrate(20, degree=4, seed=7,
                                   supported_types=["firewall"])))
    return escape


def _deploy_loop_ms(deploys: int) -> float:
    """Best-of-3 wall-clock for a deploy+teardown loop."""
    escape = _escape()
    warmup = escape.deploy(_chain(0), wait_activation=False)
    assert warmup.success, warmup.error
    escape.teardown("obs0")
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        for index in range(1, deploys + 1):
            report = escape.deploy(_chain(index), wait_activation=False)
            assert report.success, report.error
        for index in range(1, deploys + 1):
            escape.teardown(f"obs{index}")
        best = min(best, (time.perf_counter() - started) * 1e3)
    return best


def test_bench_tracing_overhead():
    """A traced control-plane loop stays within 10% of the untraced
    one — the gate behind shipping the instrumentation always-on."""
    deploys = 5 if SMOKE else 20

    previous = obs.disable()
    try:
        off_ms = _deploy_loop_ms(deploys)
        state = obs.enable(fresh=True)
        on_ms = _deploy_loop_ms(deploys)
        spans = len(state.tracer.spans()) + state.tracer.dropped
    finally:
        obs.disable()
        obs.restore(previous)

    assert spans > 0  # the traced run actually traced
    assert on_ms <= off_ms * OVERHEAD_RATIO + EPSILON_MS, (
        f"tracing overhead too high: off={off_ms:.3f} ms "
        f"on={on_ms:.3f} ms")
    emit("OBS-1: tracing overhead on the deploy loop", [{
        "deploys": deploys,
        "off_ms": off_ms,
        "on_ms": on_ms,
        "overhead_pct": (on_ms / off_ms - 1.0) * 100.0,
        "spans": spans,
    }], group="obs")


def test_bench_disabled_instrumentation_records_nothing():
    """With tracing off the instrumented paths must not touch the
    trace/event counters at all — the no-op span really is a no-op."""
    previous = obs.disable()
    perf.reset("trace.")
    perf.reset("obs.")
    try:
        escape = _escape()
        report = escape.deploy(_chain(0), wait_activation=False)
        assert report.success, report.error
    finally:
        obs.restore(previous)
    assert perf.snapshot("trace.") == {}
    assert perf.snapshot("obs.") == {}
