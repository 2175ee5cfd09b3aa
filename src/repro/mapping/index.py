"""Persistent substrate index over a capacity book.

Every mapping run used to redo O(substrate) work from scratch: a fresh
:class:`~repro.mapping.base.ResourceLedger` scan, a fresh SAP-attachment
walk, a fresh adjacency/node-delay build, and a full `resource.infras`
scan *per NF* inside every embedder.  :class:`SubstrateIndex` hoists all
of that out of the run and keeps it alive across requests:

- **candidate sets** per functional type (explicitly supporting infras
  plus the wildcard pool) and per technology domain, so embedders ask
  for the top-K feasible hosts instead of scanning the substrate;
- **residual-capacity buckets** (power-of-two CPU classes, mirroring
  :func:`repro.mapping.pathcache.bandwidth_class`) ordered
  cheapest-first within a class, walked largest-class-first for top-K
  host selection;
- **ledger seeds**: read-through views of the book's free compute and
  link bandwidth, which a :class:`ResourceLedger` overlays
  copy-on-write — O(1) to build instead of O(substrate);
- **cached topology tables**: infra adjacency, node delays, SAP
  attachments, and a shared single-source delay memo that persists
  across mapping runs (it depends on topology only, never on the
  ledger).

The index holds no capacity of its own: it is bound to a *capacity
book* (the CAL's remaining view, see
:func:`repro.nffg.ops.capacity_book`, or a bare substrate) and reads
every balance from it.  :func:`charge` is the one writer of a book;
the index re-buckets the hosts a charge moved (:meth:`rebucket`).
:meth:`sync` follows ``PathCache.sync()``: a new book object or
topology epoch triggers a full :meth:`rebuild`.  :meth:`verify` is the
rebuild-and-compare test oracle; any detected inconsistency marks the
index stale and the next sync rebuilds it.

Thread-safety: like the CAL's book, the index is only mutated on the
orchestrator thread (commits/removals/rebuilds happen before any push
fan-out starts), so it takes no locks.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from collections import deque
from operator import attrgetter
from typing import Optional

from repro.mapping.base import build_sap_attachments
from repro.nffg.graph import NFFG, NFFGError
from repro.nffg.model import EdgeLink, InfraType, NodeInfra, ResourceVector
from repro.perf import counters

_EMPTY_SET: frozenset[str] = frozenset()

_FREE_COMPUTE = attrgetter("resources")
_FREE_BANDWIDTH = attrgetter("available_bandwidth")

#: consumable ResourceVector dimensions tracked in the totals (node
#: bandwidth and delay are capabilities, not allocations)
_DIMS = ("cpu", "mem", "storage")


def charge(book: NFFG, service: NFFG, result, sign: float) -> None:
    """Charge (``sign=1``: deploy) or credit (``sign=-1``: teardown) a
    mapping's demand to a capacity book — the one function that moves
    free capacity.

    Exact and never clamped, so a credit always undoes its charge.  A
    charge may overdraw a host or link (adopting live state onto a
    smaller substrate must not fail): the balance stays negative, the
    host fits nothing, and ``cal.capacity.overdrawn`` counts it.
    Raises :class:`KeyError`/:class:`NFFGError` when a placement or
    route no longer resolves; the book is then partly charged.
    """
    overdrawn = 0
    for nf_id, infra_id in result.nf_placement.items():
        infra = book.infra(infra_id)
        demand = service.nf(nf_id).resources
        before = infra.resources
        free = infra.resources = ResourceVector(
            cpu=before.cpu - sign * demand.cpu,
            mem=before.mem - sign * demand.mem,
            storage=before.storage - sign * demand.storage,
            bandwidth=before.bandwidth, delay=before.delay)
        if sign > 0 and min(free.cpu, free.mem, free.storage) < -1e-9:
            overdrawn += 1
    for route in result.hop_routes.values():
        for link_id in route.link_ids:
            link = book.edge(link_id)
            link.bandwidth -= sign * route.bandwidth
            if sign > 0 and link.available_bandwidth < -1e-9:
                overdrawn += 1
    if overdrawn:
        counters.incr("cal.capacity.overdrawn", overdrawn)


def cpu_class(cpu: float) -> int:
    """Bucket a free-CPU amount by power of two (class 0 = exhausted)."""
    if cpu <= 0.0:
        return 0
    return max(1, math.frexp(cpu)[1])


class SubstrateIndex:
    """Incrementally-maintained candidate/capacity index over one book."""

    def __init__(self) -> None:
        #: the exact book this index describes (identity-checked)
        self.resource: Optional[NFFG] = None
        self._epoch: Optional[int] = None
        self._stale = False
        #: the book's infras and static links by id: every capacity
        #: read goes through these to the live objects
        self._infras: dict[str, NodeInfra] = {}
        self._links: dict[str, EdgeLink] = {}
        #: functional type -> infras listing it in ``supported_types``
        self._by_type: dict[str, set[str]] = {}
        #: NF-capable infras with an empty (wildcard) supported set
        self._wildcard: set[str] = set()
        #: infra id -> DomainType value string
        self._domain_of: dict[str, str] = {}
        self._cost_of: dict[str, float] = {}
        #: capacity buckets over NF-capable infras: class -> sorted
        #: [(cost_per_cpu, infra_id)]; walked high class -> low for top-K
        self._buckets: dict[int, list[tuple[float, str]]] = {}
        self._bucket_of: dict[str, int] = {}
        #: per-dimension free totals over NF-capable infras when the
        #: index was built (the live totals are :attr:`free_totals`)
        self.capacity_totals: dict[str, float] = {}
        #: lazily built topology tables, dropped on rebuild
        self._adjacency: Optional[dict[str, list[EdgeLink]]] = None
        self._node_delays: Optional[dict[str, float]] = None
        self._sap_attach: Optional[dict[str, tuple[str, str]]] = None
        #: shared single-source delay memo (topology-only, so it is
        #: valid across mapping runs until the next rebuild)
        self.delay_memo: dict[str, dict[str, float]] = {}
        self.applies = 0
        self.rebuilds = 0

    # -- lifecycle ---------------------------------------------------------

    def sync(self, resource: NFFG, epoch: Optional[int] = None
             ) -> "SubstrateIndex":
        """Bind the index to the current book, rebuilding when the book
        object, the topology epoch, or a detected inconsistency moved —
        the :meth:`PathCache.sync` idiom."""
        if (self.resource is resource and not self._stale
                and (epoch is None or epoch == self._epoch)):
            return self
        self.rebuild(resource, epoch=epoch)
        return self

    def covers(self, resource: NFFG) -> bool:
        """True when the index describes exactly this view object."""
        return self.resource is resource and not self._stale

    def mark_stale(self) -> None:
        self._stale = True

    def rebuild(self, resource: NFFG, epoch: Optional[int] = None) -> None:
        """Full re-derivation from a book (the escape hatch everything
        falls back to)."""
        self.resource = resource
        self._epoch = epoch
        self._stale = False
        self._infras = {}
        self._by_type = {}
        self._wildcard = set()
        self._domain_of = {}
        self._cost_of = {}
        self._buckets = {}
        self._bucket_of = {}
        self._adjacency = None
        self._node_delays = None
        self._sap_attach = None
        self.delay_memo = {}
        for infra in resource.infras:
            self._infras[infra.id] = infra
            self._domain_of[infra.id] = infra.domain.value
            self._cost_of[infra.id] = infra.cost_per_cpu
            if infra.infra_type == InfraType.SDN_SWITCH:
                continue
            if infra.supported_types:
                for functional_type in infra.supported_types:
                    self._by_type.setdefault(functional_type,
                                             set()).add(infra.id)
            else:
                self._wildcard.add(infra.id)
            self._bucket_add(infra.id)
        self._links = {link.id: link for link in resource.links}
        self.capacity_totals = self.free_totals
        self.rebuilds += 1
        counters.incr("mapping.index.rebuild")

    @property
    def free_totals(self) -> dict[str, float]:
        """Per-dimension free totals over NF-capable infras, summed from
        the book."""
        totals = dict.fromkeys(_DIMS, 0.0)
        for infra_id in self._bucket_of:
            free = self._infras[infra_id].resources
            for dim in _DIMS:
                totals[dim] += getattr(free, dim)
        return totals

    # -- capacity buckets --------------------------------------------------

    def _bucket_add(self, infra_id: str) -> None:
        cls = cpu_class(self._infras[infra_id].resources.cpu)
        self._bucket_of[infra_id] = cls
        insort(self._buckets.setdefault(cls, []),
               (self._cost_of[infra_id], infra_id))

    def _bucket_remove(self, infra_id: str) -> None:
        cls = self._bucket_of.pop(infra_id)
        bucket = self._buckets[cls]
        entry = (self._cost_of[infra_id], infra_id)
        pos = bisect_left(bucket, entry)
        if pos >= len(bucket) or bucket[pos] != entry:
            raise KeyError(infra_id)
        del bucket[pos]
        if not bucket:
            del self._buckets[cls]

    # -- incremental maintenance -------------------------------------------

    def rebucket(self, infra_ids) -> None:
        """Move the hosts a :func:`charge` just moved to the bucket their
        balance now falls in."""
        for infra_id in infra_ids:
            cls = self._bucket_of.get(infra_id)
            if cls is not None and \
                    cpu_class(self._infras[infra_id].resources.cpu) != cls:
                self._bucket_remove(infra_id)
                self._bucket_add(infra_id)
        self.applies += 1
        counters.incr("mapping.index.apply")

    def apply_mapping(self, service: NFFG, result, sign: float) -> None:
        """Book a mapping deployed to (``sign=1``) or removed from
        (``sign=-1``) the bound book and re-bucket its hosts — the
        CAL's bind/unbind in miniature.  Any id that no longer resolves
        marks the index stale (next sync rebuilds)."""
        if self.resource is None or self._stale:
            return
        try:
            charge(self.resource, service, result, sign)
        except (KeyError, NFFGError):
            self.mark_stale()
            counters.incr("mapping.index.stale")
            return
        self.rebucket(result.nf_placement.values())

    # -- ledger seeding ----------------------------------------------------

    def ledger_seed(self) -> tuple[tuple, tuple]:
        """Read-through bases for a copy-on-write :class:`ResourceLedger`
        — ``(objects by id, free-amount getter)`` for infras and links;
        the ledger overlays its tentative allocations without writing
        the book."""
        return ((self._infras, _FREE_COMPUTE),
                (self._links, _FREE_BANDWIDTH))

    # -- topology tables ---------------------------------------------------

    def adjacency(self) -> dict[str, list[EdgeLink]]:
        if self._adjacency is None:
            from repro.mapping.paths import build_infra_adjacency
            self._adjacency = build_infra_adjacency(self.resource)
        return self._adjacency

    def node_delays(self) -> dict[str, float]:
        if self._node_delays is None:
            from repro.mapping.paths import build_node_delays
            self._node_delays = build_node_delays(self.resource)
        return self._node_delays

    def sap_attachments(self) -> dict[str, tuple[str, str]]:
        if self._sap_attach is None:
            self._sap_attach = build_sap_attachments(self.resource)
        return self._sap_attach

    # -- candidate queries -------------------------------------------------

    def supporters(self, functional_type: str) -> int:
        """How many NF-capable infras can run this type."""
        return (len(self._by_type.get(functional_type, _EMPTY_SET))
                + len(self._wildcard))

    def support_census(self) -> tuple[int, dict[str, int], int]:
        """(NF-capable host count, explicit supporters per type,
        wildcard host count) — the scarcity facts the balanced/hybrid
        allocators group by."""
        return (len(self._bucket_of),
                {functional_type: len(members)
                 for functional_type, members in self._by_type.items()},
                len(self._wildcard))

    def explicit_members(self, functional_type: str) -> frozenset[str]:
        """Infras that list this type in ``supported_types``."""
        return frozenset(self._by_type.get(functional_type, _EMPTY_SET))

    def candidate_ids(self, functional_type: str, *,
                      domain: Optional[str] = None,
                      k: Optional[int] = None,
                      min_cpu: float = 0.0,
                      near: Optional[str] = None) -> list[str]:
        """Candidate host ids for one NF.

        With ``k`` the result is a pruned top-K: up to half the slots go
        to hosts found by a bounded BFS around ``near`` (the embedder's
        anchor — keeps delay detours small), the rest come from the
        capacity buckets, largest free-CPU class first and cheapest
        first within a class.  Without ``k`` the *full* supporting set
        is returned (buckets below ``min_cpu``'s class are skipped —
        they provably cannot host the demand)."""
        counters.incr("mapping.index.candidates")
        typed = self._by_type.get(functional_type, _EMPTY_SET)
        wild = self._wildcard
        out: list[str] = []
        seen: set[str] = set()

        def admit(infra_id: str) -> None:
            if infra_id in seen:
                return
            seen.add(infra_id)
            if infra_id not in typed and infra_id not in wild:
                return
            if domain is not None and self._domain_of.get(infra_id) != domain:
                return
            out.append(infra_id)

        if k is not None and near is not None:
            self._admit_near(admit, near, min_cpu,
                             quota=max(1, k // 2), out=out)
        floor_cls = cpu_class(min_cpu) if min_cpu > 0.0 else 0
        for cls in sorted(self._buckets, reverse=True):
            if cls < floor_cls:
                break
            if k is not None and len(out) >= k:
                break
            for _cost, infra_id in self._buckets[cls]:
                if k is not None and len(out) >= k:
                    break
                admit(infra_id)
        return out

    def _admit_near(self, admit, near: str, min_cpu: float, *,
                    quota: int, out: list[str]) -> None:
        """Breadth-first walk of the substrate around an anchor,
        admitting up to ``quota`` capacity-plausible hosts.  The visit
        budget bounds the walk so an anchor stranded far from any
        supporter cannot degenerate into a full scan."""
        adjacency = self.adjacency()
        budget = max(32, 8 * quota)
        frontier: deque[str] = deque((near,))
        visited = {near}
        while frontier and budget > 0 and len(out) < quota:
            current = frontier.popleft()
            budget -= 1
            infra = self._infras.get(current)
            if infra is not None and infra.resources.cpu >= min_cpu:
                admit(current)
            for link in adjacency.get(current, ()):
                neighbour = link.dst_node
                if neighbour not in visited:
                    visited.add(neighbour)
                    frontier.append(neighbour)

    # -- test oracle -------------------------------------------------------

    def verify(self, resource: NFFG) -> list[str]:
        """Rebuild-and-compare: derive a fresh index from the book and
        diff it against the live one.  Any mismatch marks this index
        stale (forcing a rebuild on the next sync) and is returned for
        the caller to log/assert on."""
        counters.incr("mapping.index.verify")
        fresh = SubstrateIndex()
        fresh.rebuild(resource)
        problems: list[str] = []
        if self.resource is not resource:
            problems.append("bound to a different view")
        if (self._infras.keys() != fresh._infras.keys()
                or self._links.keys() != fresh._links.keys()):
            problems.append("infra or link set drifted")
        if (self._by_type != fresh._by_type
                or self._wildcard != fresh._wildcard):
            problems.append("candidate type sets drifted")
        if self._buckets != fresh._buckets:
            problems.append("capacity buckets drifted")
        if problems:
            self.mark_stale()
            counters.incr("mapping.index.verify_failed")
        return problems

    def stats(self) -> dict[str, int]:
        return {"infras": len(self._infras), "links": len(self._links),
                "types": len(self._by_type), "wildcard": len(self._wildcard),
                "applies": self.applies, "rebuilds": self.rebuilds}

    def __repr__(self) -> str:
        view = self.resource.id if self.resource is not None else None
        return (f"<SubstrateIndex view={view!r} infras={len(self._infras)} "
                f"stale={self._stale}>")
