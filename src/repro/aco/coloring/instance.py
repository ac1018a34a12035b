"""Graph-coloring instances over networkx graphs."""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Sequence

import numpy as np

from repro.errors import InvalidColoringError

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["ColoringInstance"]


class ColoringInstance:
    """A vertex-coloring problem over a simple undirected graph.

    Vertices are relabelled to ``0 .. n-1`` internally; adjacency is held
    both as a networkx graph (algorithms, generators) and as a boolean
    matrix (fast conflict checks in the colony's inner loop).
    """

    def __init__(self, graph: nx.Graph, name: str = "coloring") -> None:
        if graph.number_of_nodes() == 0:
            raise InvalidColoringError("graph has no vertices")
        import networkx as nx

        g = nx.convert_node_labels_to_integers(graph)
        self.graph = g
        self.name = name
        n = g.number_of_nodes()
        adj = np.zeros((n, n), dtype=bool)
        for u, v in g.edges():
            if u == v:
                raise InvalidColoringError(f"self-loop at vertex {u}")
            adj[u, v] = adj[v, u] = True
        self._adj = adj
        self._adj.setflags(write=False)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def random_gnp(cls, n: int, p: float, seed: int = 0) -> "ColoringInstance":
        """Erdős–Rényi G(n, p) instance."""
        if n <= 0:
            raise InvalidColoringError(f"n must be positive, got {n}")
        if not 0.0 <= p <= 1.0:
            raise InvalidColoringError(f"p must be in [0, 1], got {p}")
        import networkx as nx

        return cls(nx.gnp_random_graph(n, p, seed=seed), name=f"gnp{n}-p{p}-s{seed}")

    @classmethod
    def cycle(cls, n: int) -> "ColoringInstance":
        """An n-cycle: chromatic number 2 (even n) or 3 (odd n) — an oracle."""
        if n < 3:
            raise InvalidColoringError(f"cycle needs >= 3 vertices, got {n}")
        import networkx as nx

        return cls(nx.cycle_graph(n), name=f"cycle{n}")

    @classmethod
    def complete(cls, n: int) -> "ColoringInstance":
        """K_n: chromatic number exactly n — the hard oracle."""
        if n < 1:
            raise InvalidColoringError(f"complete graph needs >= 1 vertex, got {n}")
        import networkx as nx

        return cls(nx.complete_graph(n), name=f"K{n}")

    @classmethod
    def queen(cls, n: int) -> "ColoringInstance":
        """The n x n queen graph, a classic DIMACS coloring family."""
        import networkx as nx

        g = nx.Graph()
        for r1 in range(n):
            for c1 in range(n):
                for r2 in range(n):
                    for c2 in range(n):
                        if (r1, c1) >= (r2, c2):
                            continue
                        if r1 == r2 or c1 == c2 or abs(r1 - r2) == abs(c1 - c2):
                            g.add_edge(r1 * n + c1, r2 * n + c2)
        return cls(g, name=f"queen{n}x{n}")

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of vertices."""
        return self.graph.number_of_nodes()

    @property
    def adjacency(self) -> np.ndarray:
        """Read-only boolean adjacency matrix."""
        return self._adj

    def neighbours(self, v: int) -> List[int]:
        """Neighbour list of vertex ``v``."""
        return list(self.graph.neighbors(v))

    def conflicts(self, colors: Sequence[int]) -> int:
        """Number of monochromatic edges under ``colors``."""
        c = self._validated(colors)
        u, v = np.nonzero(np.triu(self._adj))
        return int((c[u] == c[v]).sum())

    def is_proper(self, colors: Sequence[int]) -> bool:
        """True iff no edge is monochromatic."""
        return self.conflicts(colors) == 0

    def color_count(self, colors: Sequence[int]) -> int:
        """Number of distinct colors used."""
        return int(np.unique(self._validated(colors)).size)

    def greedy_chromatic_upper_bound(self) -> int:
        """Colors used by networkx's largest-first greedy — the baseline."""
        import networkx as nx

        coloring: Dict[int, int] = nx.greedy_color(self.graph, strategy="largest_first")
        return max(coloring.values()) + 1 if coloring else 1

    def _validated(self, colors: Sequence[int]) -> np.ndarray:
        arr = np.asarray(colors, dtype=np.int64)
        if arr.shape != (self.n,):
            raise InvalidColoringError(
                f"coloring must assign all {self.n} vertices, got shape {arr.shape}"
            )
        if (arr < 0).any():
            raise InvalidColoringError("colors must be non-negative integers")
        return arr

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ColoringInstance(name={self.name!r}, n={self.n}, "
            f"m={self.graph.number_of_edges()})"
        )
