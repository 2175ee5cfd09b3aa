"""Capacity conservation: the CAL's book is exact under any churn.

The remaining view behind ``resource_view(copy=False)`` is the one
record of free capacity.  After any seeded interleaving of deploys,
teardowns, link-failure heals and state imports — including imports
onto a substrate too small for the adopted state — every infra and
link of the book must hold exactly

    capacity - sum of the demands bound to it

and equal an unclamped from-scratch derivation off the DoV.  An
overdrawn host reads negative, never a clamped zero that a later
teardown would inflate into capacity that does not exist.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.nffg import NFFGBuilder, capacity_book
from repro.nffg.builder import linear_substrate, mesh_substrate
from repro.orchestration import EscapeOrchestrator
from repro.orchestration.adapters import DirectDomainAdapter
from repro.perf import counters

TOLERANCE = 1e-9
DIMS = ("cpu", "mem", "storage")


def _escape(substrate):
    escape = EscapeOrchestrator("book")
    escape.add_domain(DirectDomainAdapter("dom", substrate))
    escape.resource_view()  # the book exists before anything is bound
    return escape


def _mesh(scale=1.0):
    return mesh_substrate(6, degree=3, seed=2, cpu=8.0 * scale,
                          link_bw=20.0 * scale, supported_types=["firewall"])


def _service(slot, cpu, bandwidth=1.0):
    service_id = f"s{slot}"
    return (NFFGBuilder(service_id).sap("sap1").sap("sap2")
            .nf(f"{service_id}-fw", "firewall", cpu=cpu)
            .chain("sap1", f"{service_id}-fw", "sap2", bandwidth=bandwidth)
            .build())


def assert_book_exact(escape):
    """Book == capacity - bound demands == unclamped rebuild, exactly."""
    cal = escape.cal
    book = cal.resource_view(copy=False)
    dov = cal.dov
    compute: dict[str, dict[str, float]] = {}
    bandwidth: dict[str, float] = {}
    for service_id in cal.deployed_services():
        service, result = cal.snapshot_service(service_id)
        for nf_id, infra_id in result.nf_placement.items():
            demand = service.nf(nf_id).resources
            used = compute.setdefault(infra_id, dict.fromkeys(DIMS, 0.0))
            for dim in DIMS:
                used[dim] += getattr(demand, dim)
        for route in result.hop_routes.values():
            for link_id in route.link_ids:
                bandwidth[link_id] = (bandwidth.get(link_id, 0.0)
                                      + route.bandwidth)
    scratch = capacity_book(dov)
    assert {infra.id for infra in book.infras} == \
        {infra.id for infra in dov.infras}
    assert {link.id for link in book.links} == \
        {link.id for link in dov.links}
    for infra in book.infras:
        capacity = dov.infra(infra.id).resources
        used = compute.get(infra.id, dict.fromkeys(DIMS, 0.0))
        rebuilt = scratch.infra(infra.id).resources
        for dim in DIMS:
            free = getattr(infra.resources, dim)
            assert abs(free - (getattr(capacity, dim) - used[dim])) \
                <= TOLERANCE, (infra.id, dim, free)
            assert abs(free - getattr(rebuilt, dim)) <= TOLERANCE, \
                (infra.id, dim, free)
    for link in book.links:
        free = link.available_bandwidth
        assert abs(free - (dov.edge(link.id).bandwidth
                           - bandwidth.get(link.id, 0.0))) <= TOLERANCE, \
            (link.id, free)
        assert abs(free - scratch.edge(link.id).available_bandwidth) \
            <= TOLERANCE, (link.id, free)
    assert cal.substrate_index.verify(book) == []


def _heal_without(escape, substrate, position):
    """Fail one infra-infra link in the domain, heal, then repair it
    (the DoV picks the link back up at the next re-merge)."""
    links = [link for link in substrate.links
             if link.src_node.startswith("mesh-")
             and link.dst_node.startswith("mesh-")]
    link = links[position % len(links)]
    substrate.remove_edge(link.id)
    escape.heal()
    substrate.add_edge_copy(link)


operations = st.lists(st.one_of(
    st.tuples(st.just("deploy"), st.integers(0, 4),
              st.sampled_from([1.5, 3.0, 6.0]),
              st.sampled_from([1.0, 5.0, 12.0])),
    st.tuples(st.just("teardown"), st.integers(0, 4)),
    st.tuples(st.just("heal"), st.integers(0, 8)),
    st.tuples(st.just("import"), st.sampled_from([0.25, 0.5, 1.0])),
), min_size=1, max_size=12)


@given(operations)
@settings(max_examples=30, deadline=None)
def test_book_conserves_capacity_under_churn(ops):
    substrate = _mesh()
    escape = _escape(substrate)
    for op in ops:
        kind = op[0]
        deployed = escape.deployed_services()
        if kind == "deploy" and f"s{op[1]}" not in deployed:
            escape.deploy(_service(op[1], op[2], op[3]),
                          wait_activation=False)
        elif kind == "teardown" and f"s{op[1]}" in deployed:
            escape.teardown(f"s{op[1]}")
        elif kind == "heal":
            _heal_without(escape, substrate, op[1])
        elif kind == "import":
            # adopt the live state on a fresh controller whose domain
            # shrank: the import must go through, over-subscribed
            state = escape.export_state()
            substrate = _mesh(scale=op[1])
            escape = _escape(substrate)
            escape.import_state(state, push=False)
        assert_book_exact(escape)


def test_oversubscribed_import_keeps_exact_negative_balance():
    """Two services of 6 and 1.5 CPU adopted onto a host shrunk from 8
    to 4 CPU: after the small one leaves, the host is 2 CPU overdrawn
    — not 1.5 CPU free — and fits nothing."""
    source = _escape(linear_substrate(1, id="s", cpu=8.0,
                                      supported_types=["firewall"]))
    assert source.deploy(_service(0, 6.0), wait_activation=False)
    assert source.deploy(_service(1, 1.5), wait_activation=False)
    overdrawn = counters.get("cal.capacity.overdrawn")
    escape = _escape(linear_substrate(1, id="s", cpu=4.0,
                                      supported_types=["firewall"]))
    escape.import_state(source.export_state(), push=False)
    assert counters.get("cal.capacity.overdrawn") > overdrawn
    assert escape.teardown("s1")
    book = escape.cal.resource_view(copy=False)
    assert book.infra("s-bb0").resources.cpu == -2.0
    # advertisement clamps at its own boundary
    assert escape.cal.resource_view().infra("s-bb0").resources.cpu == 0.0
    assert_book_exact(escape)
    assert not escape.deploy(_service(2, 1.5), wait_activation=False)
