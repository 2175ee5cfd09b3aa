"""The three benchmark workloads and their end-of-run checks.

Each workload owns a closed loop of lifecycle calls against one
``EscapeOrchestrator``: a single client, one call outstanding at a
time.  A *step* is one unit of the loop:

- ``fig1-churn``: deploy the next request, then tear down the oldest
  installed service (the population stays at 54 on the Fig. 1 testbed);
- ``fig1-update``: update one installed service in place, round-robin,
  toggling its hop bandwidths between the original value and +5%;
- ``mesh-churn``: deploy + teardown as in fig1-churn, on a 600-node
  mesh behind a history-free adapter, with 100 services installed.

Workloads keep their own record of what must be installed, and
:meth:`Workload.check` compares the orchestrator, its journal and (on
the Fig. 1 testbed) every domain's live NF inventory against it.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Optional

from orchbench.inputs import (
    CONCRETE_TYPES,
    MeshSpec,
    RequestSpec,
    block_size,
    generate_mesh,
    generate_requests,
    input_digest,
)
from repro.mapping.decomposition import default_decomposition_library
from repro.nffg.builder import NFFGBuilder
from repro.nffg.graph import NFFG
from repro.nffg.model import DomainType, ResourceVector
from repro.orchestration.adapters import DomainAdapter
from repro.orchestration.escape import EscapeOrchestrator
from repro.topo import build_reference_multidomain
from repro.un.containers import ContainerState

#: requests generated per run beyond the starting population: enough
#: for the longest timed phase (see harness.MAX_STEPS) plus warm-up
REQUEST_POOL = 3100


@dataclass
class CallResult:
    """What the harness keeps of one lifecycle call."""

    ok: bool
    control_bytes: int = 0
    mapping_cost: Optional[float] = None
    error: str = ""


def _call_result(report) -> CallResult:
    mapping = getattr(report, "mapping", None)
    cost = mapping.cost if (mapping is not None and report.success) else None
    return CallResult(
        ok=bool(report.success),
        control_bytes=sum(r.control_bytes for r in report.adapters),
        mapping_cost=cost, error=report.error or "")


def build_service(spec: RequestSpec, *, bandwidth_scale: float = 1.0) -> NFFG:
    """The service graph of ``spec``; ``bandwidth_scale`` scales every
    hop (the in-place update of the fig1-update workload)."""
    builder = NFFGBuilder(spec.service_id).sap(spec.src).sap(spec.dst)
    names = []
    for position, (nf_type, (cpu, mem, storage)) in enumerate(
            zip(spec.nf_types, spec.nf_sizes)):
        name = f"{spec.service_id}-nf{position}"
        builder.nf(name, nf_type, cpu=cpu, mem=mem, storage=storage)
        names.append(name)
    builder.chain(spec.src, *names, spec.dst,
                  bandwidth=round(spec.bandwidth * bandwidth_scale, 6),
                  flowclass=f"tp_dst={spec.port}")
    if spec.max_delay is not None:
        builder.requirement(spec.src, spec.dst, max_delay=spec.max_delay)
    return builder.build()


def build_mesh(spec: MeshSpec) -> NFFG:
    """The substrate NFFG of ``spec``: every node supports every
    concrete NF type of the mix, and links are wide enough that the
    installed population never runs out of bandwidth."""
    view = NFFG(id="mesh")
    infras = [view.add_infra(
        f"mesh-bb{index}", domain=DomainType.INTERNAL,
        resources=ResourceVector(cpu=16.0, mem=16384.0, storage=256.0,
                                 bandwidth=100_000.0, delay=0.1),
        supported_types=CONCRETE_TYPES) for index in range(spec.nodes)]
    for a, b in spec.links:
        infra_a, infra_b = infras[a], infras[b]
        port_a = infra_a.add_port(f"to-{infra_b.id}")
        port_b = infra_b.add_port(f"to-{infra_a.id}")
        view.add_link(infra_a.id, port_a.id, infra_b.id, port_b.id,
                      bandwidth=10_000.0, delay=1.0)
    for sap_id, index in spec.saps:
        infra = infras[index]
        sap = view.add_sap(sap_id)
        port = infra.add_port(f"sap-{sap_id}", sap_tag=sap_id)
        view.add_link(sap_id, list(sap.ports)[0], infra.id, port.id,
                      bandwidth=100_000.0, delay=0.0)
    return view


def _changed(new: dict, old: dict) -> list:
    return [[key, new.get(key)] for key in new.keys() | old.keys()
            if new.get(key) != old.get(key)]


class LatestOnlyAdapter(DomainAdapter):
    """A history-free, dataplane-free adapter over a static view.

    It keeps only the latest install, so the heap does not grow with
    run length.  Its control accounting is the wire a delta-native
    southbound would need: the JSON size of the NF placements and flow
    rules that differ from the previous install.
    """

    def __init__(self, name: str, view: NFFG) -> None:
        super().__init__(name, DomainType.INTERNAL)
        self._view = view
        self._own = frozenset(infra.id for infra in view.infras)
        self.latest: Optional[NFFG] = None
        self._placed: dict[str, tuple] = {}
        self._rules: dict[tuple, tuple] = {}
        self._messages = 0
        self._bytes = 0

    def get_view(self) -> NFFG:
        return self._view.copy()

    def own_infra_ids(self) -> frozenset[str]:
        return self._own

    def _push(self, install: NFFG) -> None:
        placed = {nf.id: (install.host_of(nf.id), nf.functional_type)
                  for nf in install.nfs}
        rules = {(infra.id, port.id, rule.match): (rule.action,
                                                   rule.bandwidth)
                 for infra in install.infras
                 for port, rule in infra.iter_flowrules()}
        change = sorted(_changed(placed, self._placed)
                        + _changed(rules, self._rules), key=str)
        self._messages += 1
        self._bytes += len(json.dumps(change))
        self._placed, self._rules = placed, rules
        self.latest = install

    def control_stats(self) -> tuple[int, int]:
        return self._messages, self._bytes


@dataclass
class Stack:
    """One set-up orchestrator with its installed population."""

    escape: Any
    testbed: Any = None
    #: service id -> (request spec, bandwidth scale, infra placement)
    installed: "OrderedDict[str, tuple[RequestSpec, float, dict]]" = field(
        default_factory=OrderedDict)

    def close(self) -> None:
        self.escape.cal.dispatcher.shutdown()


class Workload:
    """The closed-loop client; subclasses define the stack and the step."""

    name = ""
    population = 0
    sap_ids: tuple[str, ...] = ()
    #: fewest timed steps per run (p90 needs 100)
    min_steps = 100

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.requests = generate_requests(
            seed, self.population + REQUEST_POOL, self.sap_ids)
        self.digest = input_digest(self.name, self.requests,
                                   *self._extra_inputs())
        self._pending: Any = None

    def _extra_inputs(self) -> tuple:
        return ()

    # -- set-up ------------------------------------------------------------

    def build(self) -> Stack:
        raise NotImplementedError

    def setup(self) -> Stack:
        """Build the stack and install the starting population."""
        stack = self.build()
        for spec in self.requests[:self.population]:
            report = stack.escape.deploy(build_service(spec))
            if not report.success:
                raise RuntimeError(f"set-up deploy of {spec.service_id} "
                                   f"failed: {report.error}")
            stack.installed[spec.service_id] = (
                spec, 1.0, dict(report.mapping.nf_placement))
        return stack

    # -- the closed loop -----------------------------------------------------

    def prepare(self, stack: Stack, index: int) -> None:
        """Materialize step ``index``'s inputs (outside the timed call)."""
        self._pending = build_service(self.requests[self.population + index])

    def step(self, stack: Stack, index: int) -> list[CallResult]:
        """Deploy the prepared request, then tear down the oldest."""
        escape = stack.escape
        service, self._pending = self._pending, None
        spec = self.requests[self.population + index]
        deployed = escape.deploy(service)
        results = [_call_result(deployed)]
        if deployed.success:
            stack.installed[spec.service_id] = (
                spec, 1.0, dict(deployed.mapping.nf_placement))
        oldest = next(iter(stack.installed))
        removed = escape.teardown(oldest)
        results.append(_call_result(removed))
        if removed.success:
            del stack.installed[oldest]
        return results

    # -- end-of-run checks ---------------------------------------------------

    def check(self, stack: Stack) -> list[str]:
        """Compare the orchestrator against the harness's own record;
        returns the problems found ([] when every check passes)."""
        escape = stack.escape
        expected = set(stack.installed)
        problems: list[str] = []
        deployed = set(escape.deployed_services())
        if deployed != expected:
            problems.append(
                f"deployed_services() differs from the harness record: "
                f"missing {sorted(expected - deployed)[:5]}, "
                f"extra {sorted(deployed - expected)[:5]}")
        replayed = set(escape.journal.replay().state.get("services", {}))
        if replayed != expected:
            problems.append(
                f"journal replay differs from the harness record: "
                f"missing {sorted(expected - replayed)[:5]}, "
                f"extra {sorted(replayed - expected)[:5]}")
        for service_id in sorted(expected & deployed):
            spec, scale, _ = stack.installed[service_id]
            service, _ = escape.cal.snapshot_service(service_id)
            want = round(spec.bandwidth * scale, 6)
            got = sorted({hop.bandwidth for hop in service.sg_hops})
            if spec.template != "abstract-cpe" and got != [want]:
                problems.append(f"{service_id}: hop bandwidths {got}, "
                                f"expected [{want}]")
        cal = escape.cal
        index_problems = cal.substrate_index.verify(
            cal.resource_view(copy=False))
        if index_problems:
            problems.append(f"substrate index drifted: {index_problems[:3]}")
        problems.extend(self._check_domains(stack))
        return problems

    def _check_domains(self, stack: Stack) -> list[str]:
        return []


class _Fig1Workload(Workload):
    sap_ids = ("sap1", "sap2", "sap3")
    #: one block of the stratified mix (54 services): every seed
    #: installs the same chain shapes between the same endpoints
    population = block_size(sap_ids)

    def build(self) -> Stack:
        # five hosts per cloud leaf: at catalog sizes the population
        # uses 85 of the cloud's 160 vCPUs, about 7 free per host for
        # the next 4-vCPU transcoder VM (the check counts any boot that
        # finds no host)
        testbed = build_reference_multidomain(
            embedder=None, decomposition_library=None,
            use_default_decompositions=True, emu_switches=2,
            sdn_switches=2, cloud_leaves=2, cloud_hosts_per_leaf=5,
            vm_boot_delay_ms=1500.0, container_start_delay_ms=300.0)
        return Stack(escape=testbed.escape, testbed=testbed)

    def _check_domains(self, stack: Stack) -> list[str]:
        """Each domain's live NF inventory equals the NFs the harness's
        installed services placed there."""
        testbed = stack.testbed
        owner = {switch_id: "emu" for switch_id in testbed.emu.switches}
        owner[testbed.cloud.bisbis_id] = "cloud"
        owner[testbed.un.bisbis_id] = "un"
        want = {"emu": 0, "cloud": 0, "un": 0}
        for _, _, placement in stack.installed.values():
            for infra_id in placement.values():
                domain = owner.get(infra_id)
                if domain is not None:
                    want[domain] += 1
        adapters = testbed.escape.cal.adapters
        live = {
            "emu": adapters["emu"].orchestrator.deployed_nf_count(),
            "cloud": len(testbed.cloud.nova.list_instances()),
            "un": sum(1 for c in testbed.un.runtime.containers.values()
                      if c.state != ContainerState.STOPPED),
        }
        problems = [
            f"{domain}: {live[domain]} NFs live, {want[domain]} expected"
            for domain in want if live[domain] != want[domain]]
        # the cloud reports a VM it could not schedule only as a
        # notification, and the deploy still succeeds; catch every one,
        # also of services torn down before the end of the run
        failures = testbed.cloud.nova.scheduling_failures
        if failures:
            problems.append(f"cloud: {failures} VM boots found no valid "
                            f"host")
        return problems


class Fig1Churn(_Fig1Workload):
    name = "fig1-churn"


class Fig1Update(_Fig1Workload):
    """Round-robin in-place updates; the population never changes."""

    name = "fig1-update"
    #: two rounds over the population, so every service is updated
    #: equally often
    min_steps = 108

    def prepare(self, stack: Stack, index: int) -> None:
        service_id = list(stack.installed)[index % self.population]
        spec, scale, _ = stack.installed[service_id]
        new_scale = 1.05 if scale == 1.0 else 1.0
        self._pending = (service_id, new_scale,
                         build_service(spec, bandwidth_scale=new_scale))

    def step(self, stack: Stack, index: int) -> list[CallResult]:
        (service_id, scale, service), self._pending = self._pending, None
        report = stack.escape.update(service)
        if report.success:
            spec = stack.installed[service_id][0]
            stack.installed[service_id] = (
                spec, scale, dict(report.mapping.nf_placement))
        return [_call_result(report)]


class MeshChurn(Workload):
    name = "mesh-churn"
    population = 100
    sap_ids = ("sap1", "sap2")

    def __init__(self, seed: int) -> None:
        self.mesh = generate_mesh(seed)
        super().__init__(seed)

    def _extra_inputs(self) -> tuple:
        return (self.mesh,)

    def build(self) -> Stack:
        escape = EscapeOrchestrator(
            "escape-mesh",
            decomposition_library=default_decomposition_library())
        escape.add_domain(LatestOnlyAdapter("mesh", build_mesh(self.mesh)))
        return Stack(escape=escape)


WORKLOADS = {cls.name: cls for cls in (Fig1Churn, Fig1Update, MeshChurn)}
