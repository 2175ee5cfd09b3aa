"""Self-tests of the benchmark harness.

Run from the repository root::

    python3 -m pytest orchbench/tests -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from orchbench import harness, refloop, trace
from orchbench.inputs import block_size, generate_mesh, generate_requests
from orchbench.stats import adjust, percentile
from orchbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
SEED_COUNTS = ("ok_ratio", "mapping_cost_mean", "ctl_kb_per_op")


def _short_run(seed):
    # a fresh process per run, as the benchmark is run: NETCONF message
    # and session ids are process-wide counters, and their digits count
    # in the control bytes
    code = ("import json, sys; sys.path[:0] = [%r, %r]; "
            "from orchbench import harness; "
            "o = harness.run_untraced('fig1-churn', %d, 0, setups=1, "
            "min_steps=6, prefix_steps=6, warmup=1); "
            "print(json.dumps([o.record['input_digest'], o.record['steps'], "
            "o.metrics]))" % (str(ROOT / "src"), str(ROOT), seed))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=300, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def test_same_seed_same_inputs_and_counts():
    (digest, steps, first), (digest2, steps2, second) = (_short_run(5),
                                                         _short_run(5))
    assert digest == digest2
    for name in SEED_COUNTS:
        assert first[name] == second[name], name
    assert steps == steps2 == 6


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_input_digest_follows_the_seed(name):
    assert WORKLOADS[name](3).digest == WORKLOADS[name](3).digest
    assert WORKLOADS[name](3).digest != WORKLOADS[name](4).digest


def test_request_mix_keeps_template_weights_per_sap_pair():
    saps = ("sap1", "sap2", "sap3")
    assert block_size(saps) == 54
    specs = generate_requests(7, 108, saps)
    counts = {}
    for spec in specs:
        key = (spec.template, spec.src, spec.dst)
        counts[key] = counts.get(key, 0) + 1
    weights = {"access": 3, "inspection": 2, "media": 1, "monitoring": 1,
               "abstract-cpe": 2}
    assert counts == {(template, src, dst): 2 * weight
                      for template, weight in weights.items()
                      for src in saps for dst in saps if src != dst}


def test_mesh_saps_at_fixed_distance():
    mesh = generate_mesh(11, nodes=60, degree=4, sap_distance=3)
    neighbours = {i: set() for i in range(mesh.nodes)}
    for a, b in mesh.links:
        neighbours[a].add(b)
        neighbours[b].add(a)
    (_, first), (_, second) = mesh.saps
    hops, frontier = 0, {first}
    seen = {first}
    while second not in frontier:
        frontier = {n for node in frontier for n in neighbours[node]} - seen
        seen |= frontier
        hops += 1
    assert hops == 3
    assert len(mesh.links) == 120


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(10, 0, -1)]
    assert percentile(values, 50) == 5.0
    assert percentile(values, 90) == 9.0
    assert percentile(values, 100) == 10.0
    assert percentile(values, 10) == 1.0
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert percentile([0.25], 90) == 0.25
    with pytest.raises(ValueError):
        percentile([], 50)


def test_adjustment_is_identity_at_r0():
    assert adjust(0.1234, refloop.R0, refloop.R0) == 0.1234
    assert adjust(0.2, 2 * refloop.R0, refloop.R0) == pytest.approx(0.1)


def test_reference_loop_does_not_import_the_program():
    code = ("import sys; sys.path.insert(0, %r); "
            "from orchbench import refloop; refloop.reference_time(); "
            "print(any(m == 'repro' or m.startswith('repro.') "
            "for m in sys.modules))" % str(ROOT))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout.strip() == "False"


def test_partition_splits_overlap_and_sums_to_window():
    spans = [
        ["cal.push", 1.0, 9.0, -1],        # 0: orchestrator thread
        ["dispatch", 2.0, 8.0, 0],         # 1
        ["adapter.emu", 3.0, 7.0, 1],      # 2: worker A
        ["adapter.un", 4.0, 6.0, 1],       # 3: worker B, overlaps A
    ]
    gc_spans = [["gc", 6.5, 7.5, 2]]       # ends after its parent
    shares = trace.partition(spans, gc_spans, 0.0, 10.0)
    assert sum(shares.values()) == pytest.approx(10.0)
    assert shares["other"] == pytest.approx(2.0)
    assert shares["cal.push"] == pytest.approx(2.0)
    assert shares["dispatch"] == pytest.approx(1.0 + 0.5)
    assert shares["adapter.un"] == pytest.approx(1.0)
    assert shares["adapter.emu"] == pytest.approx(1.0 + 1.0 + 0.5)
    assert shares["gc"] == pytest.approx(1.0)


def test_layer_self_times_add_up_to_traced_step_time():
    outcome = harness.run_traced("fig1-churn", 2, 0, min_steps=2, block=2,
                                 warmup=1)
    metrics = {name: value for name, (value, _) in outcome.metrics.items()}
    layers = sum(metrics[name] for name in trace.LAYER_METRICS.values())
    assert layers == pytest.approx(metrics["trace.step_ms_per_op"],
                                   rel=1e-9)
    assert metrics["cal.push.self_ms_per_op"] > 0
    assert metrics["domain.cloud.apply_ms_per_op"] > 0
    assert set(metrics) == set(trace.per_layer_units())


def test_benchmark_json_lists_what_the_harness_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert declared == trace.per_layer_units()
    assert [m["name"] for m in spec["end_to_end"]] == list(
        harness.END_TO_END_UNITS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        harness.END_TO_END_UNITS


@pytest.mark.xfail(strict=True, reason=(
    "the cloud picks the smallest flavor covering the NF's request and "
    "ignores the image's min_ram; Nova's NoValidHost becomes a vm-error "
    "notification while the deploy reports success. The benchmark's "
    "request mix sizes NFs at their catalog footprint, which does not "
    "hit this; once it is fixed, this test passes and fails as XPASS"))
def test_cloud_nf_below_image_minimum_is_not_reported_deployed():
    from repro.nffg.builder import NFFGBuilder
    from repro.topo import build_reference_multidomain

    testbed = build_reference_multidomain()
    try:
        builder = NFFGBuilder("small-dpi").sap("sap3").sap("sap1")
        builder.nf("small-dpi-nf0", "dpi", cpu=1.0, mem=128.0)
        builder.chain("sap3", "small-dpi-nf0", "sap1", bandwidth=1.0,
                      flowclass="tp_dst=9999")
        service = builder.build()
        service.nf("small-dpi-nf0").metadata["constraint:infra"] = \
            testbed.cloud.bisbis_id
        report = testbed.escape.deploy(service)
        assert (not report.success
                or len(testbed.cloud.nova.list_instances()) == 1)
    finally:
        testbed.escape.cal.dispatcher.shutdown()
