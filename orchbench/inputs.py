"""Seeded workload inputs, generated in the benchmark's own files.

Every input the benchmark feeds the orchestrator comes from here: the
tenant request mix and the mesh substrate.  Both are plain data derived
only from the workload seed, so a change to the program's own workload
helpers cannot silently change what the benchmark measures, and
:func:`input_digest` fingerprints exactly what a run used.

The request mix mirrors the orchestrator's demo templates (access,
inspection, media, monitoring and the decomposable ``vCPE``) with the
same weights and ranges, and sizes every NF the way the tenant-facing
``ServiceRequestBuilder`` does: at its NF catalog footprint (abstract
types at the builder's fallback size).  It is *stratified* rather than
drawn i.i.d.: requests come in shuffled blocks that pair every ordered
SAP pair with each template in proportion to the template's weight
(:func:`block_size` requests), and bandwidths and delay bounds walk
their ranges on a golden-ratio sequence with a seeded offset.  Each
seed gives a different request order and different values, while a
block's mix of chain shapes and endpoints is the same for every seed,
so runs with different seeds stay comparable.

This module is plain data and imports nothing from ``repro``;
:mod:`orchbench.workloads` turns the specs into NFFGs.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

_PHI = 0.6180339887498949


@dataclass(frozen=True)
class Template:
    """One chain shape of the request mix."""

    name: str
    nf_types: tuple[str, ...]
    bandwidth_range: tuple[float, float]
    max_delay_range: Optional[tuple[float, float]]
    weight: int


#: the demo mix: vCPE-ish access chains, inspection chains, media,
#: monitoring and abstract decomposable CPEs
TEMPLATES: tuple[Template, ...] = (
    Template("access", ("firewall", "nat"), (2.0, 20.0), (40.0, 120.0), 3),
    Template("inspection", ("firewall", "dpi"), (1.0, 10.0), (60.0, 200.0), 2),
    Template("media", ("transcoder",), (5.0, 50.0), None, 1),
    Template("monitoring", ("monitor",), (0.5, 2.0), None, 1),
    Template("abstract-cpe", ("vCPE",), (2.0, 10.0), (50.0, 150.0), 2),
)

#: (cpu, mem MB, storage GB) per NF type, as the NF catalog declares
#: them; a VM image needs half its type's memory
NF_SIZES: dict[str, tuple[float, float, float]] = {
    "firewall": (1.0, 128.0, 1.0),
    "nat": (1.0, 128.0, 1.0),
    "dpi": (2.0, 512.0, 4.0),
    "transcoder": (4.0, 2048.0, 16.0),
    "monitor": (0.5, 64.0, 2.0),
}

#: size of a type the catalog does not hold (the abstract ``vCPE``)
FALLBACK_SIZE: tuple[float, float, float] = (1.0, 128.0, 1.0)

#: the concrete NF types of the mix (what a mesh node must support)
CONCRETE_TYPES: tuple[str, ...] = ("firewall", "nat", "dpi", "transcoder",
                                   "monitor")


@dataclass(frozen=True)
class RequestSpec:
    """One tenant chain request, as data."""

    service_id: str
    template: str
    nf_types: tuple[str, ...]
    #: (cpu, mem, storage) of each NF, in ``nf_types`` order
    nf_sizes: tuple[tuple[float, float, float], ...]
    src: str
    dst: str
    bandwidth: float
    max_delay: Optional[float]
    #: distinct flow class per request (transport port)
    port: int


def _rng(seed: int, stream: str) -> random.Random:
    # str seeds hash through sha512: stable across processes
    return random.Random(f"orchbench/{seed}/{stream}")


def _golden(rng: random.Random):
    """Endless low-discrepancy sequence in [0, 1) with a seeded offset."""
    offset = rng.random()
    for k in itertools.count():
        yield (offset + k * _PHI) % 1.0


def block_size(sap_ids: Sequence[str]) -> int:
    """Requests per block of the stratified mix over ``sap_ids``."""
    pairs = len(sap_ids) * (len(sap_ids) - 1)
    return pairs * sum(t.weight for t in TEMPLATES)


def generate_requests(seed: int, count: int,
                      sap_ids: Sequence[str]) -> list[RequestSpec]:
    """``count`` requests of the stratified demo mix over ``sap_ids``."""
    rng = _rng(seed, "requests")
    block = [(t, pair) for t in TEMPLATES for _ in range(t.weight)
             for pair in itertools.permutations(sap_ids, 2)]
    bandwidth_u = {t.name: _golden(rng) for t in TEMPLATES}
    delay_u = {t.name: _golden(rng) for t in TEMPLATES}
    order: list[tuple[Template, tuple[str, str]]] = []
    specs: list[RequestSpec] = []
    for index in range(count):
        if not order:
            order = list(block)
            rng.shuffle(order)
        template, (src, dst) = order.pop()
        lo, hi = template.bandwidth_range
        bandwidth = round(lo + (hi - lo) * next(bandwidth_u[template.name]), 3)
        max_delay = None
        if template.max_delay_range is not None:
            dlo, dhi = template.max_delay_range
            max_delay = round(dlo + (dhi - dlo) * next(delay_u[template.name]),
                              3)
        specs.append(RequestSpec(
            service_id=f"t{index}", template=template.name,
            nf_types=template.nf_types,
            nf_sizes=tuple(NF_SIZES.get(nf_type, FALLBACK_SIZE)
                           for nf_type in template.nf_types),
            src=src, dst=dst,
            bandwidth=bandwidth, max_delay=max_delay, port=10000 + index))
    return specs


@dataclass(frozen=True)
class MeshSpec:
    """A ring-plus-chords substrate, as data."""

    nodes: int
    #: undirected links as (a, b) node indexes, a < b
    links: tuple[tuple[int, int], ...]
    #: SAP id -> attachment node index
    saps: tuple[tuple[str, int], ...]


def generate_mesh(seed: int, nodes: int = 600, degree: int = 4,
                  sap_distance: int = 6) -> MeshSpec:
    """A connected ``nodes``-node mesh of average ``degree``: a ring
    plus seeded random chords.  ``sap1`` sits on a seeded node and
    ``sap2`` on a seeded node exactly ``sap_distance`` hops away (the
    farthest reachable distance if the mesh is smaller), so chain
    lengths do not depend on the seed."""
    rng = _rng(seed, "mesh")
    links: set[tuple[int, int]] = {
        (min(i, (i + 1) % nodes), max(i, (i + 1) % nodes))
        for i in range(nodes)}
    target = degree * nodes // 2
    while len(links) < target:
        a, b = rng.sample(range(nodes), 2)
        links.add((min(a, b), max(a, b)))
    neighbours: dict[int, list[int]] = {i: [] for i in range(nodes)}
    for a, b in sorted(links):
        neighbours[a].append(b)
        neighbours[b].append(a)
    first = rng.randrange(nodes)
    hops = {first: 0}
    frontier = [first]
    while frontier:
        following = []
        for node in frontier:
            for neighbour in neighbours[node]:
                if neighbour not in hops:
                    hops[neighbour] = hops[node] + 1
                    following.append(neighbour)
        frontier = following
    distance = min(sap_distance, max(hops.values()))
    second = rng.choice(sorted(n for n, d in hops.items() if d == distance))
    return MeshSpec(nodes=nodes, links=tuple(sorted(links)),
                    saps=(("sap1", first), ("sap2", second)))


def input_digest(*parts) -> str:
    """Fingerprint of a run's inputs (request specs, mesh spec, ...)."""
    def plain(value):
        if isinstance(value, (RequestSpec, MeshSpec)):
            return asdict(value)
        if isinstance(value, (list, tuple)):
            return [plain(item) for item in value]
        return value

    blob = json.dumps([plain(part) for part in parts], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]
