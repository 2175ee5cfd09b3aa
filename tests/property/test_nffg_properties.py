"""Property-based tests for the NFFG model (hypothesis)."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.nffg import (
    NFFG,
    ResourceVector,
    merge_nffgs,
    nffg_from_dict,
    nffg_from_json,
    nffg_to_dict,
    nffg_to_json,
    remaining_nffg,
)
from repro.nffg.model import DomainType

resources = st.builds(
    ResourceVector,
    cpu=st.floats(0, 128, allow_nan=False),
    mem=st.floats(0, 1 << 16, allow_nan=False),
    storage=st.floats(0, 1 << 10, allow_nan=False),
    bandwidth=st.floats(0, 1 << 14, allow_nan=False),
    delay=st.floats(0, 100, allow_nan=False),
)

node_ids = st.text(alphabet="abcdefgh0123456789", min_size=1, max_size=8)


@st.composite
def random_nffg(draw):
    """A random but structurally valid NFFG with infras, links, NFs."""
    nffg = NFFG(id=f"g{draw(st.integers(0, 999))}")
    infra_count = draw(st.integers(1, 6))
    domains = list(DomainType)
    for index in range(infra_count):
        nffg.add_infra(f"bb{index}", resources=draw(resources),
                       domain=draw(st.sampled_from(domains)),
                       num_ports=0)
    # random connected-ish links
    for index in range(infra_count - 1):
        src, dst = f"bb{index}", f"bb{index + 1}"
        port_s = nffg.infra(src).add_port(f"to-{dst}")
        port_d = nffg.infra(dst).add_port(f"to-{src}")
        nffg.add_link(src, port_s.id, dst, port_d.id,
                      bandwidth=draw(st.floats(1, 1000, allow_nan=False)),
                      delay=draw(st.floats(0, 10, allow_nan=False)))
    nf_count = draw(st.integers(0, 4))
    for index in range(nf_count):
        nf = nffg.add_nf(f"nf{index}", draw(st.sampled_from(
            ["firewall", "nat", "dpi"])), resources=draw(resources),
            num_ports=2)
        host = f"bb{draw(st.integers(0, infra_count - 1))}"
        if nffg.infra(host).supports(nf.functional_type):
            nffg.place_nf(nf.id, host)
    return nffg


@given(random_nffg())
@settings(max_examples=40, deadline=None)
def test_serialization_roundtrip_preserves_everything(nffg):
    clone = nffg_from_dict(nffg_to_dict(nffg))
    assert clone.summary() == nffg.summary()
    assert {n.id for n in clone.nodes} == {n.id for n in nffg.nodes}
    assert {e.id for e in clone.edges} == {e.id for e in nffg.edges}
    for nf in nffg.nfs:
        assert clone.host_of(nf.id) == nffg.host_of(nf.id)


@given(random_nffg())
@settings(max_examples=40, deadline=None)
def test_json_roundtrip_is_fixed_point(nffg):
    once = nffg_to_json(nffg)
    assert nffg_to_json(nffg_from_json(once)) == once


@given(random_nffg())
@settings(max_examples=30, deadline=None)
def test_copy_never_aliases(nffg):
    clone = nffg.copy()
    for node in clone.nodes:
        assert node is not nffg.node(node.id)
    assert clone.summary() == nffg.summary()


@given(random_nffg())
@settings(max_examples=30, deadline=None)
def test_remaining_resources_never_negative(nffg):
    remaining = remaining_nffg(nffg)
    for infra in remaining.infras:
        assert infra.resources.cpu >= 0
        assert infra.resources.mem >= 0
        assert infra.resources.storage >= 0
    for link in remaining.links:
        assert link.bandwidth >= 0
        assert link.reserved == 0


@given(random_nffg())
@settings(max_examples=20, deadline=None)
def test_merge_with_relabeled_copy_preserves_node_count(view):
    data = nffg_to_dict(view)
    relabeled = nffg_to_dict(view)
    rename = {node["id"]: "peer-" + node["id"]
              for node in relabeled["nodes"]}
    for node in relabeled["nodes"]:
        node["id"] = rename[node["id"]]
    for edge in relabeled["edges"]:
        edge["id"] = "peer-" + edge["id"]
        edge["src_node"] = rename[edge["src_node"]]
        edge["dst_node"] = rename[edge["dst_node"]]
    views = [nffg_from_dict(data), nffg_from_dict(relabeled)]
    merged = merge_nffgs(views)
    assert len(merged.nodes) == 2 * len(view.nodes)


@given(resources, resources)
def test_add_then_subtract_is_identity(a, b):
    result = (a + b) - b
    for field_name in ("cpu", "mem", "storage", "bandwidth", "delay"):
        assert abs(getattr(result, field_name)
                   - getattr(a, field_name)) < 1e-6


@given(resources)
def test_fits_within_is_reflexive(a):
    assert a.fits_within(a)
