"""EXT-3 — mapping quality x speed matrix on large substrates.

The substrate index (PR 10) exists to keep the mapping layer usable at
thousands of nodes: instead of scanning every infra per NF, embedders
ask ``ctx.candidates(nf, k)`` and get a pruned, capacity-bucketed set.
This matrix measures both axes of that trade on meshes up to 5k nodes:

- **speed** — median map time, full-scan vs index-backed; the gate
  demands the indexed greedy run at the largest size is at least
  ``SPEEDUP_FLOOR`` x faster than the full scan.
- **quality** — mapping cost; the gate demands the indexed run stays
  within ``COST_TOLERANCE`` of the full scan, i.e. pruning must not
  buy speed with materially worse placements.
- **work** — ``nodes_examined`` must grow sub-linearly with substrate
  size when the index is attached (that is the whole point).

The three AccaSim-derived allocators (balanced / weighted / hybrid)
ride along in the matrix so their overhead vs plain greedy is on
record at every size.
"""

import statistics
import time

from benchmarks.conftest import SMOKE, bench_sizes, emit
from repro.mapping import SubstrateIndex, make_embedder

from repro.nffg import NFFGBuilder
from repro.nffg.builder import mesh_substrate

NF_TYPES = ["firewall", "nat", "dpi", "monitor"]
SIZES = bench_sizes([1000, 2500, 5000], smoke=[150, 400])
EMBEDDER_NAMES = ["greedy", "balanced", "weighted", "hybrid"]
CHAIN_LENGTH = 6
REPEATS = 2 if SMOKE else 3
#: indexed cost must stay within this factor of the full-scan cost
COST_TOLERANCE = 1.10
#: full-scan / indexed map-time ratio required at the largest size
SPEEDUP_FLOOR = 5.0


def _chain(length: int, bandwidth: float = 2.0):
    builder = NFFGBuilder(f"chain{length}").sap("sap1").sap("sap2")
    names = []
    for index in range(length):
        name = f"nf{index}"
        builder.nf(name, NF_TYPES[index % len(NF_TYPES)], cpu=1.0)
        names.append(name)
    builder.chain("sap1", *names, "sap2", bandwidth=bandwidth)
    return builder.build()


def _measure(name, service, substrate, index):
    """Median map time over REPEATS runs with a fresh embedder each."""
    times = []
    result = None
    for _ in range(REPEATS):
        embedder = make_embedder(name)
        started = time.perf_counter()
        result = embedder.map(service, substrate, index=index)
        times.append((time.perf_counter() - started) * 1e3)
        assert result.success, (name, result.failure_reason)
    return statistics.median(times), result


def test_bench_mapping_matrix(benchmark):
    """The EXT-3 table: embedder x substrate size, full-scan vs indexed."""
    rows = []
    summary = []
    examined = {}
    for size in SIZES:
        substrate = mesh_substrate(size, degree=3, seed=7,
                                   supported_types=NF_TYPES)
        service = _chain(CHAIN_LENGTH)
        index = SubstrateIndex()
        index.sync(substrate, epoch=1)
        # One warm-up run so the indexed columns measure steady state —
        # in production the CAL keeps one index (and its delay memo) hot
        # across every request on the same topology epoch.
        make_embedder("greedy").map(service, substrate, index=index)

        full_ms, full_result = _measure("greedy", service, substrate, None)
        rows.append({
            "substrate_nodes": size, "embedder": "greedy", "indexed": False,
            "map_ms": full_ms, "cost": full_result.cost,
            "nodes_examined": full_result.nodes_examined,
        })
        for name in EMBEDDER_NAMES:
            indexed_ms, result = _measure(name, service, substrate, index)
            rows.append({
                "substrate_nodes": size, "embedder": name, "indexed": True,
                "map_ms": indexed_ms, "cost": result.cost,
                "nodes_examined": result.nodes_examined,
            })
            if name == "greedy":
                examined[size] = result.nodes_examined
                summary.append({
                    "substrate_nodes": size,
                    "full_scan_ms": full_ms,
                    "indexed_ms": indexed_ms,
                    "speedup_x": full_ms / indexed_ms
                    if indexed_ms else float("inf"),
                    "full_cost": full_result.cost,
                    "indexed_cost": result.cost,
                    "full_examined": full_result.nodes_examined,
                    "indexed_examined": result.nodes_examined,
                })

    # quality gate: pruning never trades more than COST_TOLERANCE of cost
    for entry in summary:
        assert entry["indexed_cost"] <= COST_TOLERANCE * entry["full_cost"], (
            "indexed greedy cost regressed past tolerance", entry)

    # work gate: nodes_examined grows sub-linearly with substrate size
    small, large = SIZES[0], SIZES[-1]
    size_ratio = large / small
    examined_ratio = examined[large] / max(1, examined[small])
    assert examined_ratio < size_ratio, (
        "indexed nodes_examined is not sub-linear",
        examined, size_ratio)

    # speed gate (full sizes only; smoke substrates are too small for a
    # stable timing ratio and are gated on work + cost instead)
    if not SMOKE:
        top = summary[-1]
        assert top["speedup_x"] >= SPEEDUP_FLOOR, (
            "indexed greedy speedup below floor at largest size", top)

    emit("EXT-3: mapping quality x speed matrix (embedder x substrate)",
         rows, group="mapping")
    emit("EXT-3: substrate index speedup (greedy, full-scan vs indexed)",
         summary, group="mapping")

    warm = SubstrateIndex()
    small_substrate = mesh_substrate(SIZES[0], degree=3, seed=7,
                                     supported_types=NF_TYPES)
    warm.sync(small_substrate, epoch=1)
    benchmark(make_embedder("greedy").map, _chain(CHAIN_LENGTH),
              small_substrate, index=warm)
