"""Outside-in per-layer tracing.

The benchmark times calls into each layer's public functions by
wrapping them from here, for the traced blocks of a ``--trace 1`` run
only; the program itself carries no benchmark code.  Each wrapped call
records a span (layer, start, end, parent).  A span's parent is the
innermost open span on its thread; a dispatcher worker thread's
outermost span hangs under the span the orchestrator thread had open
when it handed the work over.  Garbage-collector pauses, seen through
``gc.callbacks``, become spans of the ``gc`` layer under whatever was
running.

:func:`partition` turns one step's spans into per-layer self time:
a span's duration minus the union of its children's intervals.  Where
spans on different threads overlap, the shared wall time is split
evenly between them, and time no span covers is ``other``, so the
layer self times plus ``other`` add up to the step's wall time exactly.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Iterable, Optional

import repro.netconf.server as netconf_server
import repro.nffg.serialize as serialize
import repro.orchestration.adapters as adapters
import repro.orchestration.escape as escape
import repro.orchestration.unify as unify
from repro.netconf.client import NetconfClient
from repro.netconf.server import NetconfServer
from repro.nffg.graph import NFFG
from repro.openflow.controller import ControllerEndpoint
from repro.orchestration.cal import ControllerAdaptationLayer
from repro.orchestration.dispatch import DomainDispatcher
from repro.orchestration.ro import ResourceOrchestrator
from repro.recovery.journal import IntentJournal
from repro.sim.kernel import Simulator

OTHER = "other"
GC = "gc"

#: adapters and NETCONF-managed domains with a per-domain layer
ADAPTER_NAMES = ("emu", "sdn", "cloud", "un", "mesh")
APPLY_DOMAINS = ("emu", "cloud", "un")

#: span layer -> the per-layer metric that reports its self time
LAYER_METRICS: dict[str, str] = {
    "lint": "lint.ms_per_op",
    "mapping": "mapping.ms_per_op",
    "cal.view": "cal.view.ms_per_op",
    "adapter.fetch": "adapter.fetch.ms_per_op",
    "cal.book": "cal.book.ms_per_op",
    "cal.push": "cal.push.self_ms_per_op",
    "dispatch": "dispatch.self_ms_per_op",
    **{f"adapter.{name}": f"adapter.{name}.ms_per_op"
       for name in ADAPTER_NAMES},
    "nffg.serialize": "nffg.serialize.ms_per_op",
    "netconf.rpc": "netconf.rpc.ms_per_op",
    "netconf.snapshot": "netconf.snapshot.ms_per_op",
    "yang.encode": "yang.encode.ms_per_op",
    "yang.diff": "yang.diff.ms_per_op",
    **{f"domain.{name}.apply": f"domain.{name}.apply_ms_per_op"
       for name in APPLY_DOMAINS},
    "journal.append": "journal.append.ms_per_op",
    "journal.checkpoint": "journal.checkpoint.ms_per_op",
    "sim": "sim.ms_per_op",
    GC: "gc.pause_ms_per_op",
    OTHER: "other.ms_per_op",
}

#: per-layer counts and ratios (name -> unit), reported beside the times
COUNT_METRICS: dict[str, str] = {
    "mapping.nodes_examined_per_op": "1/op",
    "mapping.pathcache_hit_ratio": "ratio",
    "mapping.index_fallback_per_op": "1/op",
    "mapping.index_rebuild_per_op": "1/op",
    "cal.copy_nodes_per_op": "1/op",
    "cal.dov_rebuild_per_op": "1/op",
    "cal.remaining_rebuild_per_op": "1/op",
    "dispatch.parallel_per_op": "1/op",
    "adapter.delta_ratio": "ratio",
    "adapter.msgs_per_op": "1/op",
    "netconf.get_config_per_op": "1/op",
    "netconf.snapshot_per_op": "1/op",
    "virtualizer.convert_per_op": "1/op",
    "openflow.flow_mods_per_op": "1/op",
    "journal.records_per_op": "1/op",
    "sim.events_per_op": "1/op",
    "gc.collections_per_op": "1/op",
    "gc.gen2_per_op": "1/op",
}

#: diagnostics of the traced run itself
DIAGNOSTIC_METRICS: dict[str, str] = {
    "trace.step_ms_per_op": "ms/op",
    "trace.overhead_ratio": "ratio",
    "machine.ref_ms": "ms",
    "wall.step_p50_ms": "ms",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {metric: "ms/op" for metric in LAYER_METRICS.values()}
    units.update(COUNT_METRICS)
    units.update(DIAGNOSTIC_METRICS)
    return units


# -- span recording --------------------------------------------------------


class Tracer:
    """In-memory span recorder; records only while :attr:`active`."""

    def __init__(self) -> None:
        self.active = False
        #: [layer, start, end, parent index]
        self.spans: list[list] = []
        #: GC pauses, kept apart so a collection that fires while a
        #: span is being appended cannot shift span indexes
        self.gc_spans: list[list] = []
        #: plain counters (calls, nodes examined, messages, ...)
        self.counts: dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._main_stack: list[int] = []
        self._gc_open: dict[int, list] = {}

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            if threading.current_thread() is threading.main_thread():
                stack = self._main_stack
            else:
                stack = []
            self._local.stack = stack
        return stack

    def _parent(self, stack: list[int]) -> int:
        if stack:
            return stack[-1]
        if stack is not self._main_stack:
            # a worker's outermost span hangs under the span its
            # submitter (blocked in the dispatcher) has open
            try:
                return self._main_stack[-1]
            except IndexError:
                return -1
        return -1

    def current_layer(self) -> Optional[str]:
        stack = self._stack()
        parent = self._parent(stack)
        return self.spans[parent][0] if parent >= 0 else None

    def enter(self, layer: str) -> Optional[int]:
        """Open a span; None when not recording or when the innermost
        open span already belongs to ``layer`` (same-layer nesting
        adds nothing to the rollup)."""
        if not self.active:
            return None
        stack = self._stack()
        parent = self._parent(stack)
        if parent >= 0 and self.spans[parent][0] == layer:
            return None
        record = [layer, 0.0, None, parent]
        with self._lock:
            self.spans.append(record)
            index = len(self.spans) - 1
        stack.append(index)
        record[1] = time.perf_counter()
        return index

    def exit(self, index: Optional[int]) -> None:
        if index is None:
            return
        self.spans[index][2] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()

    def take(self) -> tuple[list[list], list[list]]:
        """Hand over and forget the recorded spans."""
        with self._lock:
            spans, self.spans = self.spans, []
            gc_spans, self.gc_spans = self.gc_spans, []
        return spans, gc_spans

    # -- garbage-collector pauses ------------------------------------------

    def on_gc(self, phase: str, info: dict) -> None:
        if not self.active:
            return
        ident = threading.get_ident()
        if phase == "start":
            self._gc_open[ident] = [GC, time.perf_counter(), None,
                                    self._parent(self._stack())]
        else:
            record = self._gc_open.pop(ident, None)
            if record is not None:
                record[2] = time.perf_counter()
                self.gc_spans.append(record)


# -- self-time partition ---------------------------------------------------


def partition(spans: list[list], gc_spans: Iterable[list],
              start: float, end: float) -> dict[str, float]:
    """Split the wall interval ``[start, end]`` into per-layer self
    time; the values add up to ``end - start``."""
    records = list(spans) + list(gc_spans)
    ancestors: list[frozenset[int]] = []
    for record in spans:
        parent = record[3]
        ancestors.append(frozenset() if parent < 0
                         else ancestors[parent] | {parent})
    for record in gc_spans:
        parent = record[3]
        ancestors.append(frozenset() if parent < 0
                         or parent >= len(spans)
                         else ancestors[parent] | {parent})
    events: list[tuple[float, int, int]] = []
    for index, (_, begin, finish, _) in enumerate(records):
        begin = max(begin, start)
        finish = min(finish if finish is not None else end, end)
        if finish > begin:
            events.append((begin, 1, index))
            events.append((finish, -1, index))
    events.sort()
    shares: dict[str, float] = defaultdict(float)
    active: set[int] = set()
    previous = start
    for moment, kind, index in events:
        if moment > previous:
            _attribute(shares, records, ancestors, active, moment - previous)
            previous = moment
        if kind > 0:
            active.add(index)
        else:
            active.discard(index)
    if end > previous:
        _attribute(shares, records, ancestors, active, end - previous)
    return dict(shares)


def _attribute(shares: dict[str, float], records: list[list],
               ancestors: list[frozenset[int]], active: set[int],
               length: float) -> None:
    if not active:
        shares[OTHER] += length
        return
    covered: set[int] = set()
    for index in active:
        covered |= ancestors[index]
    innermost = [index for index in active if index not in covered]
    share = length / len(innermost)
    for index in innermost:
        shares[records[index][0]] += share


# -- wrapping the program's layers ----------------------------------------


def _wrap(tracer: Tracer, fn: Callable, layer: Any,
          after: Optional[Callable] = None) -> Callable:
    """``fn`` timed as a span of ``layer`` (a name, or a function of
    the call's arguments returning one)."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        name = layer(*args, **kwargs) if callable(layer) else layer
        index = tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(index)
        if after is not None and tracer.active:
            after(result, *args, **kwargs)
        return result

    return wrapper


def _counting(tracer: Tracer, fn: Callable, key: str,
              amount: Callable[[Any], float]) -> Callable:
    """``fn`` with ``amount(result)`` added to ``tracer.counts[key]``."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        if tracer.active:
            tracer.counts[key] += amount(result)
        return result

    return wrapper


class LayerPatches:
    """The set of wrappers around the program's layer entry points;
    :meth:`install` and :meth:`uninstall` swap them in and out."""

    def __init__(self, tracer: Tracer) -> None:
        counts = tracer.counts
        cal = ControllerAdaptationLayer
        adapter_cls = adapters.DomainAdapter

        def after_map(result, *args, **kwargs):
            counts["mapping.nodes_examined"] += result.nodes_examined

        def after_install(report, *args, **kwargs):
            counts["adapter.msgs"] += report.control_messages

        def count(name):
            def bump(*args, **kwargs):
                counts[name] += 1
            return bump

        def rpc_layer(client, op, **params):
            if op == "get-config":
                counts["netconf.get_config"] += 1
            return "netconf.rpc"

        targets: list[tuple[Any, str, Any, Optional[Callable]]] = [
            (escape, "lint_nffg", "lint", None),
            (ResourceOrchestrator, "orchestrate", "mapping", after_map),
            (cal, "resource_view", "cal.view", None),
            (cal, "pristine_view", "cal.view", None),
            (adapter_cls, "fetch_view", "adapter.fetch", None),
            (cal, "commit_mapping", "cal.book", None),
            (cal, "remove_service", "cal.book", None),
            (cal, "push_planned", "cal.push", None),
            (cal, "push_all", "cal.push", None),
            (adapter_cls, "install",
             lambda adapter, *a, **k: f"adapter.{adapter.name}",
             after_install),
            (adapters, "nffg_to_dict", "nffg.serialize", None),
            (serialize, "nffg_to_dict", "nffg.serialize", None),
            (NetconfClient, "rpc", rpc_layer, None),
            (netconf_server.Datastore, "snapshot", "netconf.snapshot",
             count("netconf.snapshot")),
            (adapters, "config_to_tree", "yang.encode", None),
            (adapters, "config_digest", "yang.encode", None),
            (netconf_server, "config_to_tree", "yang.encode", None),
            (netconf_server, "config_digest", "yang.encode", None),
            (netconf_server, "tree_to_config", "yang.encode", None),
            (unify, "nffg_to_virtualizer", "yang.encode",
             count("virtualizer.convert")),
            (unify, "virtualizer_to_nffg", "yang.encode",
             count("virtualizer.convert")),
            (adapters, "diff_trees", "yang.diff", None),
            (adapters, "patch_size_bytes", "yang.diff", None),
            (netconf_server, "apply_patch", "yang.diff", None),
            (IntentJournal, "append", "journal.append", None),
            (IntentJournal, "maybe_checkpoint", "journal.checkpoint", None),
            (Simulator, "run", "sim", None),
            (Simulator, "step", "sim", None),
        ]
        self._patches: list[tuple[Any, str, Any, Any]] = []
        for owner, attr, layer, after in targets:
            original = getattr(owner, attr)
            self._patches.append(
                (owner, attr, original, _wrap(tracer, original, layer, after)))

        original_run = DomainDispatcher.run

        def dispatch_run(dispatcher, ops):
            # each op runs as a span of the layer that submitted it, so
            # the dispatcher's self time is only its hand-off and wait
            submitter = tracer.current_layer() or "dispatch"
            wrapped = [(domain, _wrap(tracer, thunk, submitter))
                       for domain, thunk in ops]
            index = tracer.enter("dispatch")
            try:
                return original_run(dispatcher, wrapped)
            finally:
                tracer.exit(index)

        self._patches.append((DomainDispatcher, "run", original_run,
                              functools.wraps(original_run)(dispatch_run)))

        # count-only wrappers: too frequent, or too fine, for spans
        for owner, attr, key, amount in (
                (ControllerEndpoint, "send_flow_mod", "openflow.flow_mods",
                 lambda result: 1),
                (NFFG, "copy_subgraph", "nffg.copy_subgraph.nodes",
                 lambda result: len(result.nodes))):
            original = getattr(owner, attr)
            self._patches.append(
                (owner, attr, original,
                 _counting(tracer, original, key, amount)))

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)


def trace_domain_applies(tracer: Tracer) -> Callable[[], None]:
    """Wrap every apply callback registered through the public
    ``NetconfServer.on_apply`` from now on; the spans name the domain
    whose local orchestrator the server is (``domain.<name>.apply``).
    Returns the function that restores ``on_apply``."""
    original = NetconfServer.on_apply

    def on_apply(server, callback):
        domain = getattr(getattr(server, "domain", None), "name", server.name)
        return original(server, _wrap(tracer, callback,
                                      f"domain.{domain}.apply"))

    NetconfServer.on_apply = on_apply

    def restore() -> None:
        NetconfServer.on_apply = original

    return restore
