"""2D mesh geometry: hop counts for unicast and multicast delivery.

The partition grid is a ``grid_rows x grid_cols`` mesh with the memory
port attached at the top-left corner, XY (row-first) routing, and one
extra hop for the port link itself.  Multicast along a grid row/column
is modelled as a path tree: the payload travels to the first partition
and is forwarded neighbour to neighbour, so each byte crosses each tree
link exactly once.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Tuple

from repro.errors import ReproError, ResilienceError
from repro.utils.validation import check_positive_int

Coord = Tuple[int, int]
Link = Tuple[Coord, Coord]


@dataclass(frozen=True)
class NocConfig:
    """Mesh parameters.

    ``link_bytes_per_cycle`` is the capacity of one mesh link (and of
    the memory port); ``energy_per_byte_hop`` is the transport energy
    for moving one byte across one link, in the same arbitrary units as
    :class:`repro.energy.params.EnergyParams` (default: 1/20 of a MAC, a
    common first-order figure for short on-chip hops).
    """

    link_bytes_per_cycle: float = 32.0
    energy_per_byte_hop: float = 0.05

    def __post_init__(self) -> None:
        if self.link_bytes_per_cycle <= 0:
            raise ReproError("link_bytes_per_cycle must be positive")
        if self.energy_per_byte_hop < 0:
            raise ReproError("energy_per_byte_hop must be non-negative")


class MeshNoc:
    """Hop arithmetic for one partition mesh."""

    def __init__(self, grid_rows: int, grid_cols: int):
        self.grid_rows = check_positive_int(grid_rows, "grid_rows")
        self.grid_cols = check_positive_int(grid_cols, "grid_cols")

    def _check(self, row: int, col: int) -> None:
        if not (0 <= row < self.grid_rows and 0 <= col < self.grid_cols):
            raise ReproError(
                f"partition ({row}, {col}) outside {self.grid_rows}x{self.grid_cols} grid"
            )

    def unicast_hops(self, row: int, col: int) -> int:
        """Links one byte crosses from the port to partition (row, col)."""
        self._check(row, col)
        return 1 + row + col  # port link + XY route

    def row_multicast_hops(self, row: int) -> int:
        """Links crossed delivering one byte to *every* partition in a
        grid row: down to the row, then across all its columns."""
        self._check(row, 0)
        return 1 + row + (self.grid_cols - 1)

    def col_multicast_hops(self, col: int) -> int:
        """Links crossed delivering one byte to every partition in a
        grid column: across to the column, then down all its rows."""
        self._check(0, col)
        return 1 + col + (self.grid_rows - 1)

    def mean_unicast_hops(self) -> float:
        """Average port-to-partition distance over the whole grid."""
        total = sum(
            self.unicast_hops(row, col)
            for row in range(self.grid_rows)
            for col in range(self.grid_cols)
        )
        return total / (self.grid_rows * self.grid_cols)

    @property
    def diameter(self) -> int:
        """Longest port-to-partition route."""
        return 1 + (self.grid_rows - 1) + (self.grid_cols - 1)


class DegradedMeshNoc(MeshNoc):
    """Mesh with down links: shortest surviving routes instead of XY.

    Dead *partitions* keep their routers alive (a partition whose
    compute is fused off can still forward flits), so only the links in
    ``dead_links`` are removed from the route graph.  Routes are
    breadth-first shortest paths from the port corner ``(0, 0)``; a
    partition cut off from the port entirely raises
    :class:`~repro.errors.ResilienceError` — the grid cannot be fed.
    """

    def __init__(self, grid_rows: int, grid_cols: int, dead_links: Iterable[Link] = ()):
        super().__init__(grid_rows, grid_cols)
        self.dead_links: FrozenSet[Link] = frozenset(
            tuple(sorted((tuple(a), tuple(b)))) for a, b in dead_links
        )
        for a, b in self.dead_links:
            self._check(*a)
            self._check(*b)
        self._distance = self._bfs_distances()

    def _bfs_distances(self) -> Dict[Coord, int]:
        dead = self.dead_links
        distance: Dict[Coord, int] = {(0, 0): 0}
        frontier = deque([(0, 0)])
        while frontier:
            node = frontier.popleft()
            row, col = node
            for nxt in ((row - 1, col), (row + 1, col), (row, col - 1), (row, col + 1)):
                if not (0 <= nxt[0] < self.grid_rows and 0 <= nxt[1] < self.grid_cols):
                    continue
                if nxt in distance:
                    continue
                if tuple(sorted((node, nxt))) in dead:
                    continue
                distance[nxt] = distance[node] + 1
                frontier.append(nxt)
        return distance

    def reachable(self, row: int, col: int) -> bool:
        """Whether any surviving route connects the port to (row, col)."""
        self._check(row, col)
        return (row, col) in self._distance

    def unicast_hops(self, row: int, col: int) -> int:
        """Port link + shortest surviving route to partition (row, col)."""
        self._check(row, col)
        if (row, col) not in self._distance:
            raise ResilienceError(
                f"partition ({row}, {col}) unreachable from the memory port: "
                f"dead links {sorted(self.dead_links)} disconnect it"
            )
        return 1 + self._distance[(row, col)]

    def row_multicast_hops(self, row: int) -> int:
        """Multicast trees are not rebuilt around faults; deliver
        row-wise payloads as per-partition unicasts instead."""
        self._check(row, 0)
        return sum(self.unicast_hops(row, col) for col in range(self.grid_cols))

    def col_multicast_hops(self, col: int) -> int:
        """Column-wise payloads degrade to per-partition unicasts too."""
        self._check(0, col)
        return sum(self.unicast_hops(row, col) for row in range(self.grid_rows))
