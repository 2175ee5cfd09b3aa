"""Controller adaptation layer (CAL).

Owns the registered domain adapters, builds the **Domain Virtualizer's
global view (DoV)** by merging the per-domain views (inter-domain
sap-tagged ports become stitched links), keeps the DoV up to date as
services are deployed/torn down, and fans mapped configurations out to
the adapters.

DoV maintenance is **incremental**: the merged view is kept alive and
per-service mapping deltas are applied/removed in place instead of
re-merging every domain view on each change.  Each apply records a
:class:`_ServiceDelta` — the exact set of nodes, ports, edges, flow
rules and bandwidth reservations it introduced — so teardown is the
exact inverse.  ``generation`` counts DoV content versions;
``topology_generation`` counts substrate topology versions (adapter
registration, :meth:`mark_stale` after link failures) and drives
path-cache invalidation upstream.  :meth:`rebuild` is the explicit
escape hatch back to a from-scratch merge.

Free capacity has **one book**, the remaining view behind
:meth:`resource_view`.  ``_bind``/``_unbind`` charge and credit it per
service (:func:`repro.mapping.index.charge`) and a from-scratch
derivation (:func:`repro.nffg.ops.capacity_book`) gives the same
numbers; neither clamps, so state adopted onto a smaller substrate
stays exactly overdrawn.  The substrate index and the mapping ledgers
read the book; only advertisement (a ``resource_view()`` copy) clamps.

The registry is **sharded**: adapters are partitioned into
:class:`CALShard` buckets (explicit shard map, else a stable hash of
the adapter name), each shard caches its own merged sub-view with a
per-shard generation counter, and the global DoV is a lazy stitched
view — a rebuild refetches only the shards marked stale and re-merges
the cached sub-views of the rest, so view maintenance is proportional
to what actually changed, not to the number of registered domains.
Sub-views are merged *unstitched*; sap-tag pairs are only fused at the
final shard-of-shards stitch (a pair may span two shards).

Push fan-out is **planned**: ``commit_mapping``/``remove_service``/
``restore_service`` record the touched-domain set of the mapping they
applied, and :meth:`push_planned` submits dispatcher ops only for
those domains (plus any queued reconciliations whose breaker admits a
push again) — per-deploy push work is proportional to the domains a
service touches.  :meth:`push_all` keeps the full fan-out for
operator-driven reconciliation and remains the idempotent baseline.

Adapter fan-out is **concurrent**: ``push_all``/``push_planned``/
``reconcile``/``pristine_view`` hand their per-adapter operations to a
:class:`~repro.orchestration.dispatch.DomainDispatcher`, which runs
distinct domains in parallel while keeping per-domain operations
strictly serial (one in-flight op per adapter).  Shared bookkeeping
(the per-shard reconciliation queues, perf counters, fault plans) is
locked; breakers and adapter delta state are only ever touched by
their own domain's single in-flight operation.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from repro import obs
from repro.mapping.base import (
    MappingResult,
    build_sap_attachments,
    install_hop_flowrules,
)
from repro.mapping.index import SubstrateIndex, charge
from repro.nffg.graph import NFFG, NFFGError
from repro.nffg.model import DomainType, NodeNF, NodeSAP
from repro.orchestration.adapters import DomainAdapter
from repro.nffg.ops import capacity_book, clamp_capacity, merge_nffgs
from repro.orchestration.dispatch import DEFAULT_MAX_WORKERS, DomainDispatcher
from repro.orchestration.report import AdapterReport
from repro.perf import counters, observe, set_gauge
from repro.resilience.breaker import BreakerState, CircuitBreaker
from repro.sanitize import make_lock


@dataclass
class _ServiceDelta:
    """Everything one service's apply added to the DoV (for exact undo)."""

    #: NF node ids added (removal also drops their dynamic links)
    nf_ids: list[str] = field(default_factory=list)
    #: infra-side ports created by ``place_nf``: (infra_id, port_id)
    nf_ports: list[tuple[str, str]] = field(default_factory=list)
    #: SAP nodes this apply introduced (shared SAPs are only removed
    #: once no other service's edges still touch them)
    sap_ids: list[str] = field(default_factory=list)
    #: SG hop + requirement edge ids added
    edge_ids: list[str] = field(default_factory=list)
    #: bandwidth reservations: (link_ids, bandwidth)
    reservations: list[tuple[tuple[str, ...], float]] = field(default_factory=list)
    #: ports that received flow rules: (infra_id, port_id)
    flow_ports: list[tuple[str, str]] = field(default_factory=list)
    #: hop ids whose flow rules must go on removal
    hop_ids: set[str] = field(default_factory=set)


class CALShard:
    """One partition of the adapter registry.

    Holds the shard's member adapters (registration order), its cached
    merged sub-view (*unstitched*: sap-tag pairs stay open until the
    global stitch — a pair may span two shards) and the per-shard
    resilience bookkeeping.  ``generation`` counts sub-view refreshes;
    ``stale`` marks the sub-view for a refetch at the next stitch.
    Only complete sub-views are cached: a shard whose fetch lost a
    member stays stale so every later stitch retries the domain.
    """

    def __init__(self, index: int) -> None:
        self.index = index
        #: member adapter names in registration order
        self.adapter_names: list[str] = []
        #: cached merged sub-view (None until first refresh, or when
        #: every member view was unavailable)
        self.view: Optional[NFFG] = None
        #: sub-view version: bumped on every refresh
        self.generation = 0
        #: the cached sub-view no longer reflects the member domains
        self.stale = True
        #: members excluded from the cached sub-view (breaker open, or
        #: fetch failed after retries)
        self.view_failures: set[str] = set()
        #: infra id -> owning member adapter, from the latest refresh
        self.owners: dict[str, str] = {}
        #: members holding stale configuration (push skipped/failed),
        #: replayed by reconcile; mutated by concurrent ``_push_one``
        #: calls on dispatcher workers, hence the per-shard lock
        self.pending: set[str] = set()  # guarded-by: lock
        self.lock = make_lock(f"cal.shard{index}.pending")

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (f"<CALShard {self.index}: {len(self.adapter_names)} "
                f"adapters{' stale' if self.stale else ''}>")


class ControllerAdaptationLayer:
    """Adapter registry + incremental DoV maintenance + install fan-out."""

    def __init__(self, *, breaker_failure_threshold: int = 3,
                 breaker_recovery_s: float = 30.0,
                 breaker_clock: Callable[[], float] = time.monotonic,
                 push_workers: int = DEFAULT_MAX_WORKERS,
                 shards: int = 1,
                 shard_map: Optional[dict[str, int]] = None) -> None:
        self.adapters: dict[str, DomainAdapter] = {}
        #: concurrent per-domain fan-out; ``push_workers <= 1`` degrades
        #: to strictly serial pushes on the caller's thread
        self.dispatcher = DomainDispatcher(push_workers,
                                           serial=push_workers <= 1)
        #: adapter partition; ``shard_map`` pins adapter names to shard
        #: indexes, everything else hashes on the name (stable across
        #: runs and registration orders)
        count = max(1, int(shards))
        if shard_map:
            count = max(count, max(shard_map.values()) + 1)
        self.shards: list[CALShard] = [CALShard(i) for i in range(count)]
        self._shard_map = dict(shard_map or {})
        self._shard_of: dict[str, CALShard] = {}
        #: adapters grouped by DomainType, maintained at register time
        #: so ``adapters_for`` never scans the registry
        self._adapters_by_type: dict[DomainType, list[DomainAdapter]] = {}
        self._dov: Optional[NFFG] = None
        #: deployed services: service id -> (service graph, mapping
        #: result).  This map IS the desired state the write-ahead
        #: intent journal protects — only the annotated mutators may
        #: write it, and their callers must hold an open intent scope
        #: (lint rule CC007).
        self._deployed: dict[str, tuple[NFFG, MappingResult]] = (
            {}  # journaled: commit_mapping remove_service restore_service
        )
        #: per-service inverse records, valid for the *live* ``_dov`` only
        self._deltas: dict[str, _ServiceDelta] = {}
        #: the capacity book: the one record of free capacity (the
        #: remaining view, exact and unclamped), charged and credited
        #: by :meth:`_bind`/:meth:`_unbind`; generation-tagged so any
        #: other DoV mutation forces a re-derivation
        self._remaining: Optional[NFFG] = None
        self._remaining_generation = -1
        #: persistent mapping-layer index bound to the book: candidate
        #: sets, capacity buckets, ledger seeds and topology tables
        #: (see :class:`repro.mapping.index.SubstrateIndex`); handed to
        #: the RO so embedders skip their per-run O(substrate) rescans
        self.substrate_index = SubstrateIndex()
        #: DoV content version: bumped on every apply/remove/rebuild
        self.generation = 0
        #: substrate topology version: bumped when domain views change
        self.topology_generation = 0
        #: per-adapter circuit breakers (created on register)
        self.breakers: dict[str, CircuitBreaker] = {}
        self.breaker_failure_threshold = breaker_failure_threshold
        self.breaker_recovery_s = breaker_recovery_s
        self.breaker_clock = breaker_clock
        #: domains whose cumulative configuration changed since the
        #: last planned push; consumed by :meth:`push_planned`.  Only
        #: mutated on the orchestrator's thread (commit/remove/restore
        #: and rebuilds happen before any fan-out starts).
        self._dirty: set[str] = set()
        #: per-adapter own-infra-id cache for ``_install_for``, valid
        #: for one substrate topology generation
        self._own_infra_cache: dict[str, tuple[int, frozenset[str]]] = {}
        #: domains whose view could not enter the latest pristine merge
        #: (breaker open, or fetch failed after retries)
        self.last_view_failures: set[str] = set()
        #: the live DoV was rebuilt while some domain view was missing;
        #: push_all/reconcile re-merge before fanning out so a returned
        #: domain's substrate (and stranded services) re-enter the view
        self._degraded_view = False
        #: infra id -> owning adapter name, from the latest merge
        self._infra_owner: dict[str, str] = {}

    # -- adapter registry ---------------------------------------------------

    def register(self, adapter: DomainAdapter) -> DomainAdapter:
        if adapter.name in self.adapters:
            raise ValueError(f"duplicate adapter {adapter.name!r}")
        self.adapters[adapter.name] = adapter
        self._adapters_by_type.setdefault(
            adapter.domain_type, []).append(adapter)
        shard = self.shards[self._shard_index(adapter.name)]
        shard.adapter_names.append(adapter.name)
        self._shard_of[adapter.name] = shard
        self.breakers[adapter.name] = CircuitBreaker(
            adapter.name,
            failure_threshold=self.breaker_failure_threshold,
            recovery_time_s=self.breaker_recovery_s,
            clock=self.breaker_clock)
        # topology changed, but only the new adapter's shard needs a
        # refetch — the other sub-views are still current
        self.mark_stale(domains=(adapter.name,))
        return adapter

    def _shard_index(self, name: str) -> int:
        explicit = self._shard_map.get(name)
        if explicit is not None:
            if not 0 <= explicit < len(self.shards):
                raise ValueError(
                    f"shard_map pins {name!r} to shard {explicit}, but "
                    f"only shards 0..{len(self.shards) - 1} exist")
            return explicit
        return zlib.crc32(name.encode("utf-8")) % len(self.shards)

    def shard_of(self, name: str) -> int:
        """The shard index an adapter name lives in (registered or not)."""
        shard = self._shard_of.get(name)
        return shard.index if shard is not None else self._shard_index(name)

    def adapters_for(self, domain_type: DomainType) -> list[DomainAdapter]:
        return list(self._adapters_by_type.get(domain_type, ()))

    # -- global view --------------------------------------------------------------

    def pristine_view(self, *, refresh: bool = True) -> NFFG:
        """Merge of all current adapter views (no deployment state).

        The merge is shard-wise: every *stale* shard refetches its
        member views (one concurrent dispatcher batch across all stale
        shards) and re-merges its cached sub-view; fresh shards are
        reused as-is.  The global view is then stitched from the
        sub-views (sap-tag pairs fused here, and only here).

        With ``refresh`` (the default) every shard is marked stale
        first: callers asking for the pristine view directly —
        ``heal()`` probing for outages — expect current domain truth,
        not caches.  The incremental-DoV rebuild path passes
        ``refresh=False`` and pays only for shards something
        invalidated.

        Degrades gracefully: a domain whose breaker is open is not even
        asked (it is quarantined), and a domain whose view fetch fails
        after retries is excluded from the merge.  Both are recorded in
        :attr:`last_view_failures` so ``heal()`` can evacuate their
        services.
        """
        if refresh:
            for shard in self.shards:
                shard.stale = True
        populated = [shard for shard in self.shards if shard.adapter_names]
        stale = [shard for shard in populated if shard.stale]
        if stale:
            counters.incr("cal.shard.refresh", len(stale))
        if len(populated) > len(stale):
            counters.incr("cal.shard.reuse", len(populated) - len(stale))
        self._refresh_shards(stale)
        views: list[NFFG] = []
        owners: dict[str, str] = {}
        failures: set[str] = set()
        for shard in populated:
            if shard.view is not None:
                views.append(shard.view)
            owners.update(shard.owners)
            failures |= shard.view_failures
        self.last_view_failures = failures
        self._infra_owner = owners
        if not views:
            return NFFG(id="dov-empty")
        started = time.perf_counter()
        counters.incr("cal.shard.stitch")
        merged = merge_nffgs(views, merged_id="dov")
        observe("cal.shard.stitch_s", time.perf_counter() - started)
        return merged

    def _fetch_view(self, adapter: DomainAdapter) -> Optional[NFFG]:
        """One domain's view fetch with breaker quarantine/probing."""
        with obs.span(f"view/{adapter.name}", domain=adapter.name):
            breaker = self.breakers.get(adapter.name)
            if breaker is not None and \
                    breaker.state is BreakerState.OPEN:
                counters.incr("resilience.view.quarantined")
                return None
            try:
                view = adapter.fetch_view()
            except Exception:  # noqa: BLE001 - degrade, don't abort
                counters.incr("resilience.view.unreachable")
                if breaker is not None:
                    breaker.record_failure()
                return None
            if breaker is not None and \
                    breaker.state is BreakerState.HALF_OPEN:
                # the fetch was the probe: the domain answered
                breaker.record_success()
            return view

    def _refresh_shards(self, shards: list[CALShard]) -> None:
        """Refetch the member views of the given shards (one dispatcher
        batch spanning all of them, so distinct domains still fan out
        in parallel) and re-merge each sub-view.  A shard that lost a
        member stays stale — only complete sub-views are cached, so
        the next stitch retries the missing domain."""
        pairs = [(shard, self.adapters[name])
                 for shard in shards for name in shard.adapter_names]
        if not pairs:
            for shard in shards:
                shard.stale = False  # nothing to fetch
            return
        fetched = self.dispatcher.run(
            (adapter.name,
             lambda adapter=adapter: self._fetch_view(adapter))
            for _, adapter in pairs)
        by_shard: dict[int, list[tuple[DomainAdapter, Optional[NFFG]]]] = {}
        for (shard, adapter), view in zip(pairs, fetched):
            by_shard.setdefault(shard.index, []).append((adapter, view))
        for shard in shards:
            with obs.span(f"merge/shard{shard.index}", shard=shard.index):
                views: list[NFFG] = []
                shard.owners = {}
                shard.view_failures = set()
                for adapter, view in by_shard.get(shard.index, []):
                    if view is None:
                        shard.view_failures.add(adapter.name)
                        continue
                    for infra in view.infras:
                        shard.owners[infra.id] = adapter.name
                    views.append(view)
                # unstitched: tag pairs may span shards, the global
                # stitch in pristine_view fuses them exactly once
                shard.view = merge_nffgs(
                    views, merged_id=f"dov-shard{shard.index}",
                    stitch=False) if views else None
            shard.generation += 1
            shard.stale = bool(shard.view_failures)

    @property
    def dov(self) -> NFFG:
        """The global view including everything deployed so far."""
        if self._dov is None:
            self._dov = self._rebuild_dov()
        return self._dov

    def mark_stale(self, domains: Optional[Iterable[str]] = None) -> None:
        """Declare the substrate topology changed (adapter added, link
        failure observed): drop the live DoV and its deltas so the next
        access re-merges fresh domain views.

        ``domains`` narrows the refetch to the shards owning the named
        domains — the other shards' cached sub-views are reused at the
        next stitch.  ``None`` (the location of the change is unknown)
        stales every shard.  An *empty* iterable invalidates the DoV,
        deltas and path caches without staling any shard: used when
        the domain views were just refetched and only the derived
        state must go.
        """
        if domains is None:
            for shard in self.shards:
                shard.stale = True
        else:
            for name in domains:
                shard = self._shard_of.get(name)
                if shard is not None:
                    shard.stale = True
        self._dov = None
        self._deltas.clear()
        self._remaining = None
        self.generation += 1
        self.topology_generation += 1

    def rebuild(self) -> NFFG:
        """Explicit escape hatch: force a from-scratch re-merge now."""
        for shard in self.shards:
            shard.stale = True
        self._dov = None
        self._deltas.clear()
        self._remaining = None
        self.generation += 1
        return self.dov

    def _rebuild_dov(self) -> NFFG:
        counters.incr("dov.rebuild")
        started = time.perf_counter()
        with obs.span("dov/rebuild"):
            dov = self.pristine_view(refresh=False)
            self._degraded_view = bool(self.last_view_failures)
            self._deltas = {}
            for service_id, (service, result) in self._deployed.items():
                if not _replayable(dov, result):
                    # its substrate vanished from the merge (domain
                    # quarantined or unreachable): keep the booking but
                    # leave the service out of the degraded view —
                    # heal() evacuates it, or a later refresh
                    # re-applies it
                    self._deltas[service_id] = None
                    counters.incr("dov.replay_skipped")
                    continue
                self._deltas[service_id] = _apply_inplace(
                    dov, service, result)
        # after a rebuild the per-domain desired configs may all have
        # shifted (deferred replays re-entered, substrate came back):
        # the planner falls back to a full fan-out once
        self._dirty.update(self.adapters)
        observe("dov.rebuild_s", time.perf_counter() - started)
        return dov

    def _needs_refresh(self) -> bool:
        """The live DoV is known to under-represent reality (degraded
        merge, or bookings whose replay was skipped) and a re-merge
        could improve it."""
        return self._dov is not None and (
            self._degraded_view
            or any(delta is None for delta in self._deltas.values()))

    def resource_view(self, *, copy: bool = True) -> NFFG:
        """What the RO should map against: the substrate with remaining
        resources.  Deployed NFs are netted out of the capacities but
        not advertised themselves — the northbound view stays
        substrate-sized no matter how much is deployed.

        The view is the capacity book: cached between calls, moved by
        :meth:`_bind`/:meth:`_unbind` in O(service), re-derived via the
        generation tag after any other DoV mutation.  ``copy=False``
        hands out the live, exact book the deploy hot loop maps
        against; such callers must treat it as read-only (embedders
        do: reservations live in the mapping ledger).  A copy is an
        advertisement, clamped at zero."""
        dov = self.dov   # may rebuild and bump the generation: read first
        if self._remaining is None \
                or self._remaining_generation != self.generation:
            self._remaining = capacity_book(dov, new_id="dov-remaining")
            self._remaining_generation = self.generation
            counters.incr("cal.remaining.rebuild")
        else:
            counters.incr("cal.remaining.reuse")
        # keep the mapping index bound to the live book; identity/epoch
        # drift triggers its full rebuild (PathCache sync idiom),
        # everything else is a no-op
        self.substrate_index.sync(self._remaining,
                                  epoch=self.topology_generation)
        if copy:
            return clamp_capacity(self._remaining.copy("dov-remaining"))
        return self._remaining

    def _bind(self, service_id: str, service: NFFG,
              result: MappingResult) -> None:
        """Apply a mapping to the live DoV and charge it to the book.
        Call *after* bumping ``generation``."""
        self._deltas[service_id] = _apply_inplace(self.dov, service, result)
        self._charge(service, result, 1.0)
        counters.incr("dov.apply_inplace")

    def _unbind(self, delta: _ServiceDelta, service: NFFG,
                result: MappingResult) -> None:
        """Undo a mapping's DoV apply and credit it back to the book.
        Call *after* bumping ``generation``."""
        _remove_inplace(self._dov, delta)
        self._charge(service, result, -1.0)
        counters.incr("dov.remove_inplace")

    def _charge(self, service: NFFG, result: MappingResult,
                sign: float) -> None:
        if self._remaining is None:
            return
        try:
            charge(self._remaining, service, result, sign)
        except (KeyError, NFFGError):
            # a placement or route no longer resolves (topology moved
            # underneath): re-derive lazily, never serve a wrong balance
            self._remaining = None
            return
        self._remaining_generation = self.generation
        self.substrate_index.rebucket(result.nf_placement.values())

    # -- deployment ---------------------------------------------------------------------

    def _mark_dirty(self, result: MappingResult) -> None:
        """Record a mapping's touched domains for the push planner; a
        mapping whose owners cannot be resolved (ownership map not
        built yet, foreign replay) dirties everything — correctness
        over planning."""
        touched = self.adapter_names_for(result)
        self._dirty.update(touched if touched else self.adapters)

    def commit_mapping(self, service_id: str, service: NFFG,
                       result: MappingResult) -> None:
        """Record a successful mapping into the DoV (in place)."""
        self.generation += 1
        self._bind(service_id, service, result)
        self._deployed[service_id] = (service, result)
        self._mark_dirty(result)
        set_gauge("cal.services_deployed", len(self._deployed))

    def remove_service(self, service_id: str) -> bool:
        if service_id not in self._deployed:
            return False
        removed_service, removed_result = self._deployed[service_id]
        self._mark_dirty(removed_result)
        del self._deployed[service_id]
        had_delta = service_id in self._deltas
        delta = self._deltas.pop(service_id, None)
        self.generation += 1
        if had_delta and delta is None:
            # replay was skipped: never entered the live view, so the
            # book was never charged for it
            if self._remaining is not None:
                self._remaining_generation = self.generation
        elif self._dov is not None and delta is not None:
            self._unbind(delta, removed_service, removed_result)
        else:
            # no live view (or no delta for it): fall back to a lazy
            # from-scratch rebuild on next access
            self._dov = None
            self._deltas.clear()
            self._remaining = None
            counters.incr("dov.fallback")
        set_gauge("cal.services_deployed", len(self._deployed))
        return True

    def snapshot_service(self, service_id: str) -> tuple[NFFG, MappingResult]:
        """The (service graph, mapping) pair recorded for a service."""
        return self._deployed[service_id]

    def restore_service(self, service_id: str,
                        snapshot: tuple[NFFG, MappingResult]) -> None:
        """Put a previously snapshotted service back (rollback path)."""
        self._deployed[service_id] = snapshot
        self._mark_dirty(snapshot[1])
        self.generation += 1
        if self._dov is not None:
            service, result = snapshot
            if _replayable(self._dov, result):
                self._bind(service_id, service, result)
            else:
                # restoring onto a degraded view whose substrate is
                # gone: record it, defer the replay to the next refresh
                # (the capacity book is not charged)
                self._deltas[service_id] = None
                if self._remaining is not None:
                    self._remaining_generation = self.generation
                counters.incr("dov.replay_skipped")
        set_gauge("cal.services_deployed", len(self._deployed))

    def deployed_services(self) -> list[str]:
        return list(self._deployed)

    def push_all(self) -> list[AdapterReport]:
        """Push the cumulative per-domain configuration to every domain.

        Domain orchestrators reconcile against the full config, so the
        push is idempotent and also serves teardown (a domain that no
        longer appears gets an empty graph).

        A domain whose circuit breaker is open is skipped — its report
        carries ``skipped=True`` and its configuration joins the
        reconciliation queue, replayed by :meth:`reconcile` (or by the
        next :meth:`push_all` once the breaker half-opens).

        Pushes toward distinct domains run concurrently through the
        dispatcher; the report list keeps registration order.  The
        service lifecycle uses the planned variant
        (:meth:`push_planned`); the full fan-out stays the baseline for
        operator-driven reconciliation, rollback and state import.
        """
        self._prepare_push()
        self._dirty.clear()  # the full fan-out covers every planned target
        return self.dispatcher.run(
            (adapter.name, lambda adapter=adapter: self._push_one(adapter))
            for adapter in self.adapters.values())

    def push_planned(self) -> list[AdapterReport]:
        """Push only the domains whose configuration may have changed.

        The planner unions the touched-domain sets recorded by
        ``commit_mapping``/``remove_service``/``restore_service`` since
        the last push with the queued reconciliations whose breaker
        admits a push again, and submits dispatcher ops for exactly
        those domains — per-deploy push work is proportional to the
        domains a service touches, not to the number registered.  An
        untouched domain is not contacted at all: its cumulative
        configuration cannot have changed, so a push could only confirm
        a no-op.

        Reports come back in registration order, like :meth:`push_all`,
        but cover only the planned domains.
        """
        self._prepare_push()  # a forced rebuild marks every domain dirty
        targets = set(self._dirty)
        for shard in self.shards:
            with shard.lock:
                queued = set(shard.pending)
            for name in queued:
                breaker = self.breakers.get(name)
                if breaker is None or breaker.allow():
                    targets.add(name)
        planned = [adapter for name, adapter in self.adapters.items()
                   if name in targets]
        counters.incr("cal.push.planned", len(planned))
        skipped = len(self.adapters) - len(planned)
        if skipped:
            counters.incr("cal.push.skipped", skipped)
        self._dirty.difference_update(adapter.name for adapter in planned)
        if not planned:
            return []
        return self.dispatcher.run(
            (adapter.name, lambda adapter=adapter: self._push_one(adapter))
            for adapter in planned)

    def _prepare_push(self) -> None:
        """Materialize (and, when degraded, refresh) the DoV on the
        caller's thread before any fan-out: ``_install_for`` runs on
        dispatcher workers and must only *read* the live view — a lazy
        rebuild there would re-enter the dispatcher while the worker
        holds its domain's FIFO mutex."""
        if self._needs_refresh():
            self.rebuild()
        elif self._dov is None:
            self._dov = self._rebuild_dov()

    def _push_one(self, adapter: DomainAdapter, *,
                  force_full: bool = False) -> AdapterReport:
        """One domain's push, traced: the ``push/<domain>`` span covers
        the whole attempt *including* the breaker bookkeeping, so a
        ``breaker.trip`` event carries the span id of the push that
        tripped it.  Runs on a dispatcher worker thread under the
        domain's FIFO mutex (context copied over when tracing is on)."""
        with obs.span(f"push/{adapter.name}",
                      domain=adapter.name) as span:
            report = self._push_one_traced(adapter, force_full=force_full)
            span.set(outcome=("skipped" if report.skipped
                              else "ok" if report.success else "failed"),
                     delta=report.delta, attempts=report.attempts)
            obs.event("push", domain=adapter.name, success=report.success,
                      skipped=report.skipped, delta=report.delta,
                      attempts=report.attempts, error=report.error,
                      push_ms=round(report.push_time_s * 1e3, 3))
        if not report.skipped:
            observe("push.latency_s", report.push_time_s,
                    domain=adapter.name)
        return report

    def _push_one_traced(self, adapter: DomainAdapter, *,
                         force_full: bool = False) -> AdapterReport:
        shard = self._shard_of[adapter.name]
        breaker = self.breakers.get(adapter.name)
        if breaker is not None and not breaker.allow():
            counters.incr("resilience.breaker.skip")
            with shard.lock:
                shard.pending.add(adapter.name)
            set_gauge("cal.pending_reconcile", self._pending_total())
            return AdapterReport(
                domain=adapter.name, success=False, skipped=True,
                error=(f"circuit open after "
                       f"{breaker.consecutive_failures} consecutive "
                       "failures; push queued for reconciliation"))
        with shard.lock:
            was_pending = adapter.name in shard.pending
        # delta pushes need an agreed base: after a skipped/failed push
        # or on a breaker's half-open probe the domain's state is not
        # trusted, so the cumulative config goes out in full
        force_full = (force_full or was_pending
                      or (breaker is not None
                          and breaker.state is BreakerState.HALF_OPEN))
        try:
            install = self._install_for(adapter)
        except Exception as exc:  # noqa: BLE001 - slicing needs the view
            report = AdapterReport(
                domain=adapter.name, success=False,
                error=f"{type(exc).__name__}: {exc}")
        else:
            report = adapter.install(install, force_full=force_full)
        if breaker is not None:
            breaker.record(report.success)
        with shard.lock:
            if report.success:
                shard.pending.discard(adapter.name)
                if was_pending:
                    counters.incr("resilience.breaker.reconcile")
            else:
                shard.pending.add(adapter.name)
        set_gauge("cal.pending_reconcile", self._pending_total())
        if not report.success:
            # server state unknown: never diff against it again until a
            # full push re-establishes the base
            adapter.reset_delta_state()
        return report

    def _pending_total(self) -> int:
        """Advisory queue depth for the gauge; per-shard sizes are read
        without the shard locks (a len() is atomic, and the gauge may
        lag a concurrent settle by one push anyway)."""
        return sum(len(shard.pending) for shard in self.shards)

    def reconcile(self, *, force_probe: bool = False) -> list[AdapterReport]:
        """Replay the cumulative configuration to every domain whose
        last push was skipped or failed.

        With ``force_probe`` an open breaker is advanced to half-open
        first (operator signal: "the domain is back, try it"); without
        it only domains whose breaker already admits a push are tried.

        Reconciliation is also the convergence point for a degraded
        DoV: if the live view was last merged while some domain was
        unreachable, it is re-merged first — so a returned domain's
        substrate and any deferred service replays are back in the
        view before its cumulative configuration is re-pushed.
        """
        if force_probe:
            # a breaker can be open purely from view-fetch failures
            # (nothing pending), so probe every open breaker, not just
            # the queued domains — the refresh below is the probe
            for breaker in self.breakers.values():
                breaker.force_half_open()
        self._prepare_push()
        # snapshot the queues before iterating: _push_one (possibly on
        # a dispatcher worker) mutates the live sets as pushes settle
        pending = sorted(self.pending_reconciliation())
        if not pending:
            return []
        ops = []
        for name in pending:
            adapter = self.adapters.get(name)
            if adapter is None:
                for shard in self.shards:
                    with shard.lock:
                        shard.pending.discard(name)
                continue
            breaker = self.breakers.get(name)
            if breaker is not None and not breaker.allow():
                continue
            # replays re-establish the delta base with a full push
            ops.append((name, lambda adapter=adapter: self._push_one(
                adapter, force_full=True)))
        return self.dispatcher.run(ops)

    def pending_reconciliation(self) -> set[str]:
        """Domains holding stale configuration (push skipped/failed)."""
        queued: set[str] = set()
        for shard in self.shards:
            with shard.lock:
                queued |= shard.pending
        return queued

    def quarantined_domains(self) -> set[str]:
        """Domains currently unusable: breaker open, or excluded from
        the latest pristine merge because their view was unreachable."""
        quarantined = {name for name, breaker in self.breakers.items()
                       if breaker.state is BreakerState.OPEN}
        return quarantined | set(self.last_view_failures)

    # -- resilience state persistence ---------------------------------------

    def export_resilience(self) -> dict:
        """Serializable breaker + pending-replay state.

        A snapshot taken mid-storm must not forget which domains hold
        stale configuration awaiting replay, nor reset tripped
        breakers — an importer would otherwise hammer a domain the
        exporter had already quarantined.
        """
        return {
            "breakers": {name: breaker.export_state()
                         for name, breaker in self.breakers.items()},
            "pending": sorted(self.pending_reconciliation()),
        }

    def import_resilience(self, data: dict) -> None:
        """Restore :meth:`export_resilience` state onto the registered
        adapters.  Entries naming adapters this CAL does not have are
        skipped — a failover successor may front a subset (or renamed
        set) of the exporter's domains."""
        if not data:
            return
        for name, record in (data.get("breakers") or {}).items():
            breaker = self.breakers.get(name)
            if breaker is not None:
                breaker.import_state(record)
        restored = 0
        for name in data.get("pending") or ():
            shard = self._shard_of.get(name)
            if shard is None:
                continue
            with shard.lock:
                shard.pending.add(name)
            restored += 1
        if restored:
            counters.incr("recovery.pending.restored", restored)
        set_gauge("cal.pending_reconcile", self._pending_total())

    def adapter_names_for(self, result: MappingResult) -> set[str]:
        """The adapters whose substrate a mapping actually touches
        (placements + route hops), per the latest merged ownership."""
        infras = set(result.nf_placement.values())
        for route in result.hop_routes.values():
            infras.update(route.infra_path)
        return {self._infra_owner[infra_id] for infra_id in infras
                if infra_id in self._infra_owner}

    def _own_infra_ids(self, adapter: DomainAdapter) -> frozenset[str]:
        """The adapter's own infra ids, cached per substrate topology
        generation — ``_install_for`` runs on every push and must not
        pay for a full ``get_view()`` copy each time."""
        cached = self._own_infra_cache.get(adapter.name)
        if cached is not None and cached[0] == self.topology_generation:
            return cached[1]
        ids = adapter.own_infra_ids()
        self._own_infra_cache[adapter.name] = (self.topology_generation, ids)
        return ids

    def _install_for(self, adapter: DomainAdapter) -> NFFG:
        """The adapter's install slice, computed directly from the DoV.

        Members are the adapter's own infras, the NFs placed on them
        and the SAPs attached via its own sap-tagged ports; links
        survive exactly when both endpoints are members, so
        inter-domain stitches, SG hops and requirements never enter an
        install view.  This costs one id-membership sweep plus
        O(domain) node copies per push — not a full per-type
        materialization of the global view on every fan-out.

        The install graph id is deterministic per adapter so the delta
        machinery diffs against a stable base: ``<dov>@<type>`` for a
        DomainType with one adapter, suffixed ``@<name>`` when the type
        is shared.
        """
        dov = self.dov
        own_nodes = self._own_infra_ids(adapter)
        own_present = [infra.id for infra in dov.infras
                       if infra.id in own_nodes]
        if not own_present:
            return NFFG(id=f"{adapter.name}-empty")
        members: list[str] = list(own_present)
        for infra_id in own_present:
            for nf in dov.nfs_on(infra_id):
                members.append(nf.id)
        seen_tags: set[str] = set()
        for infra_id in own_present:
            infra = dov.infra(infra_id)
            for port in infra.ports.values():
                tag = port.sap_tag
                if (tag is not None and tag not in seen_tags
                        and dov.has_node(tag)
                        and isinstance(dov.node(tag), NodeSAP)):
                    seen_tags.add(tag)
                    members.append(tag)
        domain = adapter.domain_type.value
        shared_type = len(self._adapters_by_type.get(
            adapter.domain_type, ())) > 1
        install_id = (f"{dov.id}@{domain}@{adapter.name}" if shared_type
                      else f"{dov.id}@{domain}")
        return dov.copy_subgraph(install_id, members,
                                 name=f"install view for {domain}")

    def ready(self) -> bool:
        return all(adapter.ready() for adapter in self.adapters.values())


def _endpoint_port(dov: NFFG, service: NFFG,
                   attach: dict[str, tuple[str, str]],
                   node_id: str, port_id: str) -> str:
    """The infra-side port where a service endpoint attaches in the DoV."""
    node = service.node(node_id)
    if isinstance(node, NodeNF):
        bound = dov.infra_port_of_nf(node_id, port_id)
        if bound is None:
            raise KeyError(f"NF {node_id!r} not bound in the DoV")
        return bound[1]
    try:
        return attach[node_id][1]
    except KeyError:
        raise KeyError(f"service SAP {node_id!r} has no attachment point "
                       f"in the DoV") from None


def _replayable(dov: NFFG, result: MappingResult) -> bool:
    """Is all the substrate a mapping references present in ``dov``?

    False means the owning domain is missing from a degraded merge —
    applying the mapping would reference vanished nodes/links.
    """
    if any(not dov.has_node(infra_id)
           for infra_id in result.nf_placement.values()):
        return False
    for route in result.hop_routes.values():
        if any(not dov.has_node(node_id) for node_id in route.infra_path):
            return False
        if any(not dov.has_edge(link_id) for link_id in route.link_ids):
            return False
    return True


def _apply_inplace(dov: NFFG, service: NFFG,
                   result: MappingResult) -> _ServiceDelta:
    """Apply a mapping's placements/routes/flowrules to the DoV in place.

    Mirrors :meth:`MappingContext.commit` minus the full-view copy and
    returns the delta needed to undo it exactly.
    """
    delta = _ServiceDelta()
    for nf_id, infra_id in result.nf_placement.items():
        if not dov.has_node(nf_id):
            dov.add_node_copy(service.nf(nf_id))
            delta.nf_ids.append(nf_id)
        created = dov.place_nf(nf_id, infra_id)
        for link in created:
            delta.nf_ports.append((link.dst_node, link.dst_port))
        dov.nf(nf_id).status = "deployed"
    for route in result.hop_routes.values():
        if route.bandwidth > 1e-9 and route.link_ids:
            for link_id in route.link_ids:
                dov.edge(link_id).reserved += route.bandwidth
            delta.reservations.append(
                (tuple(route.link_ids), route.bandwidth))
    attach = build_sap_attachments(dov)
    for hop in service.sg_hops:
        route = result.hop_routes.get(hop.id)
        if route is None:
            continue
        in_port = _endpoint_port(dov, service, attach,
                                 hop.src_node, hop.src_port)
        out_port = _endpoint_port(dov, service, attach,
                                  hop.dst_node, hop.dst_port)
        delta.flow_ports.extend(
            install_hop_flowrules(dov, hop, route, in_port, out_port))
        delta.hop_ids.add(hop.id)
    # carry the SG hops and requirements for later teardown/audit
    for sap in service.saps:
        if not dov.has_node(sap.id):
            dov.add_node_copy(sap)
            delta.sap_ids.append(sap.id)
    for hop in service.sg_hops:
        if not dov.has_edge(hop.id):
            dov.add_edge_copy(hop)
            delta.edge_ids.append(hop.id)
    for req in service.requirements:
        if not dov.has_edge(req.id):
            dov.add_edge_copy(req)
            delta.edge_ids.append(req.id)
    return delta


def _remove_inplace(dov: NFFG, delta: _ServiceDelta) -> None:
    """Undo exactly what :func:`_apply_inplace` recorded in ``delta``."""
    for infra_id, port_id in set(delta.flow_ports):
        if not dov.has_node(infra_id):
            continue
        port = dov.infra(infra_id).ports.get(port_id)
        if port is not None:
            port.flowrules = [rule for rule in port.flowrules
                              if rule.hop_id not in delta.hop_ids]
    for link_ids, bandwidth in delta.reservations:
        for link_id in link_ids:
            if dov.has_edge(link_id):
                dov.edge(link_id).reserved -= bandwidth
    for edge_id in delta.edge_ids:
        if dov.has_edge(edge_id):
            dov.remove_edge(edge_id)
    for nf_id in delta.nf_ids:
        if dov.has_node(nf_id):
            dov.remove_node(nf_id)  # also drops its dynamic links
    for infra_id, port_id in delta.nf_ports:
        if dov.has_node(infra_id):
            dov.infra(infra_id).ports.pop(port_id, None)
    for sap_id in delta.sap_ids:
        if dov.has_node(sap_id) and not dov.edges_of(sap_id):
            dov.remove_node(sap_id)
