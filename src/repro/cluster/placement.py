"""Slurm-like rank placement: the deployment shapes of the paper's Table 1.

The paper evaluates three load shapes per rank count:

* **full load** — 48 ranks/node, 24 per socket (both sockets full);
* **half load, one socket** — 24 ranks/node, all on socket 0 (socket 1 idle);
* **half load, two sockets** — 24 ranks/node, 12 per socket.

``place_ranks`` turns a :class:`Layout` into an explicit rank → (node,
socket, core) map; the layouts for ranks ∈ {144, 576, 1296} reproduce
Table 1 row by row (``table1_layouts``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.cluster.machine import MachineSpec
from repro.cluster.topology import Core


class LoadShape(enum.Enum):
    """The three processor-load shapes of Table 1 / Figure 3."""

    FULL = "full"                      # c ranks/socket on both sockets
    HALF_ONE_SOCKET = "half-1socket"   # c ranks on socket 0, socket 1 idle
    HALF_TWO_SOCKETS = "half-2sockets" # c/2 ranks on each socket

    def ranks_per_socket(self, cores_per_socket: int) -> tuple[int, int]:
        if self is LoadShape.FULL:
            return (cores_per_socket, cores_per_socket)
        if self is LoadShape.HALF_ONE_SOCKET:
            return (cores_per_socket, 0)
        if cores_per_socket % 2:
            raise ValueError(
                f"{self} needs an even socket size, got {cores_per_socket}"
            )
        return (cores_per_socket // 2, cores_per_socket // 2)


@dataclass(frozen=True)
class Layout:
    """One Table 1 row: how many nodes, and the per-socket rank counts.

    ``tail_ranks`` > 0 marks a partially-filled last node (a Slurm
    allocation whose rank count does not divide the per-node capacity,
    e.g. the paper grid's p = 3188 on 48-core nodes: 66 full nodes plus
    20 ranks on a 67th).  Only DES paths opt into tail layouts — the
    analytic model assumes uniform nodes and keeps the strict invariant.
    """

    ranks: int
    nodes: int
    ranks_per_node: int
    ranks_per_socket: tuple[int, int]
    shape: LoadShape
    tail_ranks: int = 0

    def __post_init__(self):
        full_nodes = self.nodes - (1 if self.tail_ranks else 0)
        if self.ranks != full_nodes * self.ranks_per_node + self.tail_ranks:
            raise ValueError(
                f"{self.ranks} ranks != {full_nodes} nodes × "
                f"{self.ranks_per_node} ranks/node + {self.tail_ranks} tail"
            )
        if not 0 <= self.tail_ranks < self.ranks_per_node:
            raise ValueError(
                f"tail {self.tail_ranks} not in [0, {self.ranks_per_node})"
            )
        if sum(self.ranks_per_socket) != self.ranks_per_node:
            raise ValueError(
                f"socket split {self.ranks_per_socket} != "
                f"{self.ranks_per_node} ranks/node"
            )

    @property
    def sockets_used(self) -> int:
        return sum(1 for r in self.ranks_per_socket if r > 0)

    def socket_occupancies(self, sockets_per_node: int) -> list[tuple[int, ...]]:
        """Per-node ``(ranks on socket 0, ranks on socket 1, ...)`` tuples
        of the placement :class:`Placement` builds for this layout, without
        building it: full nodes carry ``ranks_per_socket`` (padded to
        ``sockets_per_node``), and the tail node is block-filled in shape
        order, as :class:`Placement` fills it."""
        if len(self.ranks_per_socket) > sockets_per_node:
            raise ValueError("layout uses more sockets than the machine has")
        pad = (0,) * (sockets_per_node - len(self.ranks_per_socket))
        full_nodes = self.nodes - (1 if self.tail_ranks else 0)
        occupancies = [tuple(self.ranks_per_socket) + pad] * full_nodes
        if self.tail_ranks:
            remaining = self.tail_ranks
            tail = []
            for count in self.ranks_per_socket:
                tail.append(min(count, remaining))
                remaining -= tail[-1]
            occupancies.append(tuple(tail) + pad)
        return occupancies

    def describe(self) -> str:
        tail = f" + {self.tail_ranks}-rank tail" if self.tail_ranks else ""
        return (f"{self.ranks} ranks on {self.nodes} nodes "
                f"({self.ranks_per_node}/node, "
                f"{self.ranks_per_socket[0]}+{self.ranks_per_socket[1]} "
                f"per socket{tail})")


def layout_for(ranks: int, shape: LoadShape, machine: MachineSpec,
               allow_tail: bool = False) -> Layout:
    """Build the Table 1 layout for a rank count and load shape.

    ``allow_tail=True`` accepts rank counts that do not divide the
    per-node capacity by placing the remainder on one extra node (DES
    paths only; the analytic closed forms assume uniform nodes).
    """
    per_socket = shape.ranks_per_socket(machine.cores_per_socket)
    ranks_per_node = sum(per_socket)
    tail = ranks % ranks_per_node
    if tail and not allow_tail:
        raise ValueError(
            f"{ranks} ranks not divisible by {ranks_per_node} ranks/node"
        )
    return Layout(
        ranks=ranks,
        nodes=ranks // ranks_per_node + (1 if tail else 0),
        ranks_per_node=ranks_per_node,
        ranks_per_socket=per_socket,
        shape=shape,
        tail_ranks=tail,
    )


#: The rank counts of Table 1 (square numbers, as IMe requires).
TABLE1_RANKS = (144, 576, 1296)


def table1_layouts(machine: MachineSpec,
                   ranks_list: tuple[int, ...] = TABLE1_RANKS) -> list[Layout]:
    """All nine Table 1 configurations (3 rank counts × 3 load shapes)."""
    return [
        layout_for(ranks, shape, machine)
        for ranks in ranks_list
        for shape in (LoadShape.FULL, LoadShape.HALF_ONE_SOCKET,
                      LoadShape.HALF_TWO_SOCKETS)
    ]


class Placement:
    """Explicit rank → core map for one layout on one machine."""

    def __init__(self, layout: Layout, machine: MachineSpec):
        self.layout = layout
        self.machine = machine
        self._assignments: list[Core] = []
        per_socket = layout.ranks_per_socket
        if max(per_socket) > machine.cores_per_socket:
            raise ValueError(
                f"socket split {per_socket} exceeds "
                f"{machine.cores_per_socket} cores/socket"
            )
        if len(per_socket) > machine.sockets_per_node:
            raise ValueError("layout uses more sockets than the machine has")
        full_nodes = layout.nodes - (1 if layout.tail_ranks else 0)
        for node_id in range(full_nodes):
            for socket_id, count in enumerate(per_socket):
                for core_index in range(count):
                    self._assignments.append(
                        Core(node_id=node_id, socket_id=socket_id,
                             index=core_index)
                    )
        # Partial tail node: block-fill sockets in shape order, the way
        # Slurm packs the last node of an indivisible allocation.
        remaining = layout.tail_ranks
        for socket_id, count in enumerate(per_socket):
            for core_index in range(min(count, remaining)):
                self._assignments.append(
                    Core(node_id=full_nodes, socket_id=socket_id,
                         index=core_index)
                )
            remaining -= min(count, remaining)
        assert len(self._assignments) == layout.ranks

    @property
    def n_ranks(self) -> int:
        return len(self._assignments)

    def core_of(self, rank: int) -> Core:
        return self._assignments[rank]

    def node_of(self, rank: int) -> int:
        return self._assignments[rank].node_id

    def socket_of(self, rank: int) -> int:
        return self._assignments[rank].socket_id

    def ranks_on_node(self, node_id: int) -> list[int]:
        return [r for r, core in enumerate(self._assignments)
                if core.node_id == node_id]

    def ranks_on_socket(self, node_id: int, socket_id: int) -> list[int]:
        return [r for r, core in enumerate(self._assignments)
                if core.node_id == node_id and core.socket_id == socket_id]

    def socket_occupancies(self) -> list[tuple[int, ...]]:
        """Per-node ``(ranks on socket 0, ranks on socket 1, ...)`` tuples,
        counted in one pass over the rank map (subclasses may rebind
        ranks, so this reads the map rather than the layout)."""
        counts = [[0] * self.machine.sockets_per_node
                  for _ in range(self.layout.nodes)]
        for core in self._assignments:
            counts[core.node_id][core.socket_id] += 1
        return [tuple(node) for node in counts]

    def active_sockets(self, node_id: int) -> list[int]:
        return sorted({core.socket_id for core in self._assignments
                       if core.node_id == node_id})


def place_ranks(ranks: int, shape: LoadShape, machine: MachineSpec,
                allow_tail: bool = False) -> Placement:
    """Convenience: layout + placement in one step."""
    return Placement(layout_for(ranks, shape, machine, allow_tail=allow_tail),
                     machine)
