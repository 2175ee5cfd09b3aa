"""Whole-graph NFFG operations used by the orchestration layers.

- :func:`merge_nffgs` stitches per-domain views into one global view
  (inter-domain SAP ports carrying the same ``sap_tag`` are fused with
  an inter-domain static link);
- :func:`available_resources` / :func:`capacity_book` compute what is
  left of a resource view after the currently placed NFs and reserved
  SG hops are subtracted, exactly (an overdrawn host stays negative);
- :func:`remaining_nffg` is the northbound advertisement of the same
  numbers, clamped at zero by :func:`clamp_capacity` — this is what a
  virtualizer shows its clients.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.nffg.graph import NFFG, NFFGError
from repro.nffg.model import NodeNF, ResourceVector


def merge_nffgs(views: Iterable[NFFG], merged_id: str = "global-view", *,
                stitch: bool = True) -> NFFG:
    """Merge domain views into a single global resource view.

    Node ids must be globally unique across domains (domain managers
    prefix their node ids); a collision raises :class:`NFFGError`
    naming both offending views.  Infra ports tagged with the same
    ``sap_tag`` on *different* nodes are connected with an inter-domain
    link of zero cost; the tag is treated as the physical hand-off
    between providers.

    With ``stitch=False`` the tag pairing is skipped: the merge is a
    pure union and tagged ports stay open.  The sharded CAL merges each
    shard's member views this way — a tag pair may span two shards, so
    only the final shard-of-shards merge is allowed to stitch (pairing
    twice would mint duplicate ``interdomain-*`` link ids).
    """
    merged = NFFG(id=merged_id, name="merged global view")
    tag_endpoints: dict[str, list[tuple[str, str]]] = {}
    node_owner: dict[str, str] = {}
    for view in views:
        for node in view.nodes:
            if node.id in node_owner:
                raise NFFGError(
                    f"cannot merge domain views: node id {node.id!r} "
                    f"appears in both {node_owner[node.id]!r} and "
                    f"{view.id!r}; domain managers must prefix their "
                    "node ids to keep them globally unique")
            node_owner[node.id] = view.id
            merged.add_node_copy(node)
        for edge in view.edges:
            merged.add_edge_copy(edge)
        for infra in view.infras:
            for port in infra.ports.values():
                if port.sap_tag is not None:
                    tag_endpoints.setdefault(port.sap_tag, []).append(
                        (infra.id, port.id))
    for tag, endpoints in sorted(tag_endpoints.items()) if stitch else ():
        if len(endpoints) < 2:
            continue
        if len(endpoints) > 2:
            raise NFFGError(
                f"sap_tag {tag!r} appears on {len(endpoints)} ports; "
                "inter-domain tags must pair exactly two ports")
        (node_a, port_a), (node_b, port_b) = endpoints
        merged.add_link(node_a, port_a, node_b, port_b,
                        id=f"interdomain-{tag}",
                        delay=_INTERDOMAIN_DELAY, bandwidth=_INTERDOMAIN_BW)
    return merged


#: defaults for the stitched inter-domain links; real systems learn these
#: from BGP-LS / peering contracts, the prototype hard-wires the peering.
_INTERDOMAIN_DELAY = 1.0
_INTERDOMAIN_BW = 10_000.0


def consumed_resources(view: NFFG, infra_id: str) -> ResourceVector:
    """Sum of resource demands of NFs currently placed on ``infra_id``."""
    total = ResourceVector()
    for nf in view.nfs_on(infra_id):
        total = total + nf.resources
    return total


def available_resources(view: NFFG, infra_id: str) -> ResourceVector:
    """Capacity minus consumption for one infra node."""
    infra = view.infra(infra_id)
    return infra.resources - consumed_resources(view, infra_id)


def capacity_book(view: NFFG, new_id: Optional[str] = None) -> NFFG:
    """The exact free-capacity book of ``view``: substrate + SAPs, with
    infra capacities net of the placed NFs' demand and link bandwidths
    net of their reservations.

    Deployed NFs, their dynamic links and the carried SG
    hop/requirement edges are left out, so the book's size does not
    depend on how much is deployed — and a ledger built over it never
    subtracts a deployed NF's demand a second time.

    Nothing is clamped: a host or link holding more than its capacity
    (state adopted by import or recovery onto a smaller substrate)
    keeps its negative balance, so charging and crediting the book
    (:func:`repro.mapping.index.charge`) stays exactly invertible and
    a from-scratch derivation gives the same numbers.
    """
    return _net_out(view, view.copy_subgraph(
        new_id or f"{view.id}-remaining",
        [node.id for node in view.nodes if not isinstance(node, NodeNF)],
        name=f"{view.name} (remaining)"))


def remaining_nffg(view: NFFG, new_id: Optional[str] = None, *,
                   include_deployed: bool = True) -> NFFG:
    """A copy of ``view`` whose infra capacities are the *free* resources
    and link bandwidths the *unreserved* bandwidths, clamped at zero.

    This is the graph a virtualizer exposes northbound: the client plans
    against what is actually left, and never sees a negative capacity.

    With ``include_deployed=False`` the advertised view is the clamped
    :func:`capacity_book` — substrate + SAPs + net capacities only,
    which is what a real virtualizer shows a client (tenant internals
    are not advertised).
    """
    if include_deployed:
        result = _net_out(view, view.copy(new_id or f"{view.id}-remaining"))
    else:
        result = capacity_book(view, new_id)
    return clamp_capacity(result)


def clamp_capacity(view: NFFG) -> NFFG:
    """Clamp every infra capacity and link bandwidth of ``view`` at zero,
    in place, and return it: the advertisement boundary's view of an
    overdrawn book."""
    for infra in view.infras:
        free = infra.resources
        infra.resources = ResourceVector(
            cpu=max(free.cpu, 0.0), mem=max(free.mem, 0.0),
            storage=max(free.storage, 0.0),
            bandwidth=max(free.bandwidth, 0.0), delay=free.delay)
    for link in view.links:
        link.bandwidth = max(link.bandwidth, 0.0)
    return view


def _net_out(view: NFFG, result: NFFG) -> NFFG:
    """Subtract ``view``'s placed NF demand and link reservations from
    the capacities of ``result`` (a copy of ``view``), exactly."""
    # one pass over the edge table for all placements instead of a
    # per-infra nfs_on scan
    consumed: dict[str, ResourceVector] = {}
    for infra_id, nf in view.placed_nfs():
        total = consumed.get(infra_id)
        consumed[infra_id] = (nf.resources if total is None
                              else total + nf.resources)
    for infra in result.infras:
        used = consumed.get(infra.id)
        if used is not None:
            free = infra.resources
            infra.resources = ResourceVector(
                cpu=free.cpu - used.cpu, mem=free.mem - used.mem,
                storage=free.storage - used.storage,
                bandwidth=free.bandwidth, delay=free.delay)
    for link in result.links:
        link.bandwidth = link.available_bandwidth
        link.reserved = 0.0
    return result


def strip_deployment(view: NFFG, new_id: Optional[str] = None) -> NFFG:
    """Remove NFs, dynamic links, SG hops and flow rules: bare topology."""
    result = view.copy(new_id or f"{view.id}-bare")
    for req in list(result.requirements):
        result.remove_edge(req.id)
    for hop in list(result.sg_hops):
        result.remove_edge(hop.id)
    for edge in list(result.dynamic_links):
        result.remove_edge(edge.id)
    for nf in list(result.nfs):
        result.remove_node(nf.id)
    result.clear_flowrules()
    for link in result.links:
        link.reserved = 0.0
    # drop NF-binding ports created by place_nf
    for infra in result.infras:
        dangling = [pid for pid, port in infra.ports.items()
                    if pid.count("-") and not port.sap_tag
                    and not _port_used(result, infra.id, pid)]
        for pid in dangling:
            del infra.ports[pid]
    return result


def _port_used(view: NFFG, node_id: str, port_id: str) -> bool:
    for edge in view.edges:
        if ((edge.src_node == node_id and edge.src_port == port_id)
                or (edge.dst_node == node_id and edge.dst_port == port_id)):
            return True
    return False
