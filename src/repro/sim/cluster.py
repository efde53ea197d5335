"""Cluster and network topology model for distributed-training simulation.

The paper's multi-node experiments (Figure 10) run on a 5-machine cluster with
2 V100 GPUs per machine, 40 Gbps NICs, and a leaf–spine topology with two ToR
and two core switches (§6.1).  This module reproduces that setup as a
read-only adjacency table (node -> ``{neighbour: Gbps}``) so the all-reduce
cost model can derive the bottleneck bandwidth between any pair of workers,
and so tests can verify topology properties (paths traverse ToR/core
switches, intra-machine traffic stays local, etc.); a fixed three-tier tree
needs no graph library.

Besides the topology, every cluster registers **named shared resources** — the
finite-bandwidth links and storage targets that concurrent jobs queue on
(:mod:`repro.sim.resources`).  Two granularities of fabric exist:

* the default flat :data:`Cluster.FABRIC` link, one queue for every
  multi-machine all-reduce, and
* with ``ClusterSpec(per_tor_fabric=True)``, **per-ToR uplinks plus a core
  fabric**: each machine maps to a ToR switch, rack-local traffic queues
  only on its own ToR's uplink, and cross-rack traffic additionally crosses
  the shared core — so *where* the scheduler places a job changes which
  resources it contends on (see :meth:`Cluster.links_crossed`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .resources import SharedResource

__all__ = ["GPUDevice", "Machine", "ClusterSpec", "Cluster", "paper_testbed_cluster"]


@dataclass(frozen=True)
class GPUDevice:
    """One GPU identified by ``(machine, local index)``."""

    machine: str
    index: int

    @cached_property
    def name(self) -> str:
        """Canonical ``machine:gpuN`` identifier used across the stack.

        Formatted once per device: the engine reads it for every worker of
        every iteration it resolves.  The cache lives in the instance
        ``__dict__``, outside the fields, so equality and hashing ignore it.
        """
        return f"{self.machine}:gpu{self.index}"


@dataclass
class Machine:
    """One server: GPUs, CPU cores and NIC bandwidth."""

    name: str
    num_gpus: int = 2
    cpu_cores: int = 40
    usable_cpu_cores: int = 12
    nic_gbps: float = 40.0
    pcie_gbps: float = 128.0

    def gpus(self) -> List[GPUDevice]:
        """The machine's GPUs in local-index order."""
        return [GPUDevice(self.name, i) for i in range(self.num_gpus)]


@dataclass
class ClusterSpec:
    """Counts, link speeds and resource disciplines describing a cluster.

    ``fabric_gbps``/``storage_gbps`` size the two default shared resources
    (the leaf–spine fabric crossed by multi-machine all-reduce and the
    checkpoint storage target); ``None`` derives them from the ToR uplink
    and NIC speeds respectively.  ``fabric_policy``/``storage_policy``
    select each resource's scheduling discipline (``"fifo"`` first-fit
    serialization or ``"fair"`` processor sharing, see
    :mod:`repro.sim.resources`).

    ``per_tor_fabric=True`` declares topology-aware fabric resources: one
    uplink per ToR switch (at ``tor_uplink_gbps`` each, under
    ``fabric_policy``) plus a shared core fabric (``core_gbps``; default
    ``tor_uplink_gbps * num_core_switches``).  The scheduler then routes
    each job's all-reduce through the links its placement actually crosses
    instead of the flat default fabric.
    """

    num_machines: int = 5
    gpus_per_machine: int = 2
    nic_gbps: float = 40.0
    tor_uplink_gbps: float = 100.0
    num_tor_switches: int = 2
    num_core_switches: int = 2
    fabric_gbps: Optional[float] = None
    storage_gbps: Optional[float] = None
    fabric_policy: str = "fifo"
    storage_policy: str = "fifo"
    per_tor_fabric: bool = False
    core_gbps: Optional[float] = None


class Cluster:
    """Leaf–spine cluster topology with bandwidth-annotated links.

    Besides the topology table, the cluster registers **named shared
    resources** — finite-bandwidth links and storage targets that concurrent
    jobs queue on (see :mod:`repro.sim.resources`).  Two defaults exist on
    every cluster: :data:`Cluster.FABRIC` (the leaf–spine fabric every
    multi-machine all-reduce crosses) and :data:`Cluster.CKPT_STORAGE` (the
    checkpoint target all jobs write snapshots to).  With
    ``ClusterSpec(per_tor_fabric=True)`` the fabric is additionally broken
    into per-ToR uplinks plus a core resource, and
    :meth:`links_crossed` reports which of them a worker set's all-reduce
    traverses — rack-local jobs never touch the core.

    The topology is **read-only after construction** (``MappingProxyType``
    all the way down): degraded links and ToR failures act on the shared
    resources' timelines, never on topology links, so every bandwidth query
    below is priced once and read from a table afterwards.
    """

    #: Default shared-link resource name (the flat leaf–spine fabric).
    FABRIC = "fabric"
    #: Default shared-storage resource name (the checkpoint target).
    CKPT_STORAGE = "ckpt-store"
    #: Shared core-fabric resource name (per-ToR topology mode only).
    CORE = "core"

    def __init__(self, spec: Optional[ClusterSpec] = None):
        """Build the topology table and register the default shared resources."""
        self.spec = spec or ClusterSpec()
        self.machines: List[Machine] = [
            Machine(name=f"node{i}", num_gpus=self.spec.gpus_per_machine, nic_gbps=self.spec.nic_gbps)
            for i in range(self.spec.num_machines)
        ]
        #: Machine name -> index of the ToR switch its NIC uplinks to.
        self._machine_tor: Dict[str, int] = {}
        #: Machine name -> NIC speed, the endpoint cap of storage transfers.
        self._machine_nic_gbps: Dict[str, float] = {}
        #: Bottleneck bandwidth per ordered node pair / ordered ring of
        #: worker names, filled on first use (the topology cannot change).
        self._path_gbps: Dict[Tuple[str, str], float] = {}
        self._ring_gbps: Dict[Tuple[str, ...], float] = {}
        #: Node -> ``{neighbour: link Gbps}`` and node -> kind (``"switch"``,
        #: ``"machine"`` or ``"gpu"``), both in build order and read-only.
        self._links, self._kinds = self._build_topology()
        self.resources: Dict[str, SharedResource] = {}
        self._build_default_resources()

    @staticmethod
    def tor_link_name(tor_index: int) -> str:
        """Resource name of one ToR switch's uplink (per-ToR topology mode)."""
        return f"tor{tor_index}-uplink"

    def _build_default_resources(self) -> None:
        """Register the default fabric/storage (and per-ToR) resources."""
        spec = self.spec

        def add_link(name: str, gbps: float) -> None:
            self.add_resource(SharedResource(name=name, bandwidth_gbps=gbps, kind="link",
                                             latency_seconds=50e-6, policy=spec.fabric_policy))

        add_link(self.FABRIC, spec.fabric_gbps if spec.fabric_gbps is not None else spec.tor_uplink_gbps)
        self.add_resource(SharedResource(
            name=self.CKPT_STORAGE,
            bandwidth_gbps=spec.storage_gbps if spec.storage_gbps is not None else spec.nic_gbps,
            kind="storage",
            latency_seconds=100e-6,
            policy=spec.storage_policy,
        ))
        if spec.per_tor_fabric:
            for tor_index in range(spec.num_tor_switches):
                add_link(self.tor_link_name(tor_index), spec.tor_uplink_gbps)
            add_link(self.CORE, spec.core_gbps if spec.core_gbps is not None
                     else spec.tor_uplink_gbps * spec.num_core_switches)

    def add_resource(self, resource: SharedResource) -> SharedResource:
        """Register a named shared resource (duplicate names are rejected)."""
        if resource.name in self.resources:
            raise ValueError(f"duplicate resource name {resource.name!r}")
        self.resources[resource.name] = resource
        return resource

    def _build_topology(self) -> Tuple[Mapping[str, Mapping[str, float]], Mapping[str, str]]:
        """Wire machines, ToR and core switches into the read-only bandwidth table."""
        spec = self.spec
        core_switches = [f"core{i}" for i in range(spec.num_core_switches)]
        tor_switches = [f"tor{i}" for i in range(spec.num_tor_switches)]
        kinds = dict.fromkeys(core_switches + tor_switches, "switch")
        edges = [(tor, core, spec.tor_uplink_gbps) for tor in tor_switches for core in core_switches]
        for index, machine in enumerate(self.machines):
            kinds[machine.name] = "machine"
            tor_index = index % len(tor_switches)
            self._machine_tor[machine.name] = tor_index
            self._machine_nic_gbps[machine.name] = machine.nic_gbps
            edges.append((machine.name, tor_switches[tor_index], machine.nic_gbps))
            for gpu in machine.gpus():
                kinds[gpu.name] = "gpu"
                edges.append((gpu.name, machine.name, machine.pcie_gbps))
        links: Dict[str, Dict[str, float]] = {node: {} for node in kinds}
        for u, v, gbps in edges:
            links[u][v] = links[v][u] = gbps
        return (MappingProxyType({node: MappingProxyType(nbrs) for node, nbrs in links.items()}),
                MappingProxyType(kinds))

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    @property
    def has_per_tor_fabric(self) -> bool:
        """Whether this cluster declares per-ToR fabric resources."""
        return self.spec.per_tor_fabric

    def tor_index(self, machine: str) -> int:
        """Index of the ToR switch ``machine`` uplinks to (``KeyError`` if unknown)."""
        machine = str(machine)
        if machine not in self._machine_tor:
            raise KeyError(f"unknown machine {machine!r}; known: {sorted(self._machine_tor)}")
        return self._machine_tor[machine]

    def machines_on_tor(self, tor_index: int) -> List[Machine]:
        """Machines uplinked to ToR switch ``tor_index``, in machine order.

        The rack is the correlated failure domain the fault model takes down
        atomically — a rack failure hits every GPU on these machines plus
        the ToR's uplink resource.  ``KeyError`` for an out-of-range index,
        matching :meth:`tor_index`'s contract.
        """
        tor_index = int(tor_index)
        if not 0 <= tor_index < self.spec.num_tor_switches:
            raise KeyError(f"unknown ToR index {tor_index!r}; cluster has "
                           f"{self.spec.num_tor_switches} ToR switches")
        return [machine for machine in self.machines
                if self._machine_tor[machine.name] == tor_index]

    def gpus_on_machine(self, machine: str) -> List[GPUDevice]:
        """GPUs resident on ``machine`` in local-index order (``KeyError`` if unknown)."""
        machine = str(machine)
        for candidate in self.machines:
            if candidate.name == machine:
                return candidate.gpus()
        raise KeyError(f"unknown machine {machine!r}; known: "
                       f"{sorted(m.name for m in self.machines)}")

    def links_crossed(self, workers: List[GPUDevice]) -> List[str]:
        """Per-ToR fabric resources a worker set's all-reduce traverses.

        Empty when the cluster has no per-ToR fabric or the workers share a
        single machine (intra-machine rings never touch the fabric).  A
        rack-local multi-machine ring crosses only its own ToR's uplink; a
        cross-rack ring crosses every involved ToR's uplink **plus** the
        shared core — so placement locality directly decides which queues a
        job's buckets wait in.
        """
        if not self.has_per_tor_fabric:
            return []
        machines = {w.machine for w in workers if isinstance(w, GPUDevice)}
        if len(machines) <= 1:
            return []
        tors = sorted({self.tor_index(machine) for machine in sorted(machines)})
        links = [self.tor_link_name(tor) for tor in tors]
        if len(tors) > 1:
            links.append(self.CORE)
        return links

    def all_gpus(self) -> List[GPUDevice]:
        """Every GPU in the cluster, in machine order."""
        return [gpu for machine in self.machines for gpu in machine.gpus()]

    def workers(self, num_machines: Optional[int] = None, gpus_per_machine: Optional[int] = None) -> List[GPUDevice]:
        """First ``num_machines x gpus_per_machine`` GPUs in placement order."""
        machines = self.machines[: num_machines or len(self.machines)]
        per_machine = gpus_per_machine or self.spec.gpus_per_machine
        return [gpu for machine in machines for gpu in machine.gpus()[:per_machine]]

    def path_bandwidth_gbps(self, a: str, b: str) -> float:
        """Bottleneck bandwidth along the shortest path between two nodes.

        Priced once per ordered ``(a, b)`` by a breadth-first walk (every
        shortest path in the tree crosses the same link classes); an unknown
        node raises ``KeyError`` (and is never remembered).
        """
        if a == b:
            return float("inf")
        gbps = self._path_gbps.get((a, b))
        if gbps is None:
            for node in (a, b):
                if node not in self._links:
                    raise KeyError(f"unknown topology node {node!r}; known kinds: "
                                   f"{self._node_kinds()}")
            bottleneck, queue = {a: float("inf")}, deque([a])
            while b not in bottleneck:
                if not queue:
                    raise ValueError(f"no path between {a!r} and {b!r}")
                node = queue.popleft()
                for neighbour, link_gbps in self._links[node].items():
                    if neighbour not in bottleneck:
                        bottleneck[neighbour] = min(bottleneck[node], link_gbps)
                        queue.append(neighbour)
            gbps = self._path_gbps[(a, b)] = bottleneck[b]
        return gbps

    def _node_kinds(self) -> str:
        """The topology's node kinds with one example each, for error messages."""
        examples: Dict[str, str] = {}
        for node, kind in self._kinds.items():
            examples.setdefault(kind, node)
        return ", ".join(f"{kind} (e.g. {node!r})" for kind, node in sorted(examples.items()))

    def worker_bottleneck_gbps(self, workers: List[GPUDevice]) -> float:
        """Bottleneck bandwidth across all pairs of the given workers.

        For ring all-reduce the slowest link on the ring bounds throughput;
        with a leaf–spine fabric that is the NIC (or the ToR uplink when
        oversubscribed).  Priced once per ordered ring.
        """
        if len(workers) <= 1:
            return float("inf")
        names = tuple(w.name for w in workers)
        bandwidth = self._ring_gbps.get(names)
        if bandwidth is None:
            bandwidth = float("inf")
            for a, b in zip(names, names[1:] + names[:1]):
                bandwidth = min(bandwidth, self.path_bandwidth_gbps(a, b))
            self._ring_gbps[names] = bandwidth
        return bandwidth

    def slowest_nic_gbps(self, workers: Optional[Sequence[object]]) -> Optional[float]:
        """Slowest NIC among the workers' machines (``None`` without any placed GPU).

        The endpoint-side cap of a storage transfer: a writer cannot outrun
        its own uplink.  Bare worker names carry no placement and are ignored.
        """
        caps = [self._machine_nic_gbps[w.machine] for w in workers or ()
                if isinstance(w, GPUDevice)]
        return min(caps) if caps else None

    def is_single_machine(self, workers: List[GPUDevice]) -> bool:
        """Whether every worker sits on the same machine."""
        return len({w.machine for w in workers}) <= 1

    def describe(self) -> Dict[str, object]:
        """Plain-data cluster summary (shape, links, registered resources)."""
        return {
            "machines": len(self.machines),
            "gpus": len(self.all_gpus()),
            "nic_gbps": self.spec.nic_gbps,
            "tor_uplink_gbps": self.spec.tor_uplink_gbps,
            "per_tor_fabric": self.spec.per_tor_fabric,
            "nodes": len(self._links),
            "links": sum(len(neighbours) for neighbours in self._links.values()) // 2,
            "resources": {name: res.as_dict() for name, res in sorted(self.resources.items())},
        }


def paper_testbed_cluster() -> Cluster:
    """The 5-node, 2xV100-per-node, 40 Gbps leaf–spine testbed of §6.1."""
    return Cluster(ClusterSpec(num_machines=5, gpus_per_machine=2, nic_gbps=40.0,
                               tor_uplink_gbps=100.0, num_tor_switches=2, num_core_switches=2))
