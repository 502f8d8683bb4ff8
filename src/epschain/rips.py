"""The Rips complex of a cloud at a scale, truncated to dimension 2.

Simplices are the epsilon-bounded subsets of size <= 3: every vertex, every
close pair, and every triple whose three pairs are all close.  Homology is
taken over GF(2), which is all the homotopy engine needs: a nonzero class of
a loop is a sound certificate that the loop does not bound, and elementary
chain moves never change the class.  A zero class proves nothing and the
engine treats it as inconclusive.

Columns of the triangle boundary matrix are Python integers used as bit
vectors over the fixed (lexicographic) edge ordering; one column-echelon
reduction per skeleton is cached, after which every class query is a short
sequence of XORs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chain import Chain, components
from .space import PointCloud, as_scale


class RipsSkeleton:
    """Vertices, edges, and triangles of the Rips complex at one scale."""

    __slots__ = ("cloud", "scale", "edges", "edge_index", "triangles", "_pivots", "_1cache")

    def __init__(self, cloud: PointCloud, scale):
        self.cloud = cloud
        self.scale = as_scale(scale)
        bits = cloud.entourage_bits(self.scale)
        n = len(cloud)
        edges: list[tuple[int, int]] = []
        for i in range(n):
            m = bits[i] >> (i + 1)
            j = i + 1
            while m:
                step = (m & -m).bit_length() - 1
                j += step
                edges.append((i, j))
                m >>= step + 1
                j += 1
        self.edges = edges
        self.edge_index = {e: k for k, e in enumerate(edges)}
        triangles: list[tuple[int, int, int]] = []
        for (i, j) in edges:
            common = (bits[i] & bits[j]) >> (j + 1)
            k = j + 1
            while common:
                step = (common & -common).bit_length() - 1
                k += step
                triangles.append((i, j, k))
                common >>= step + 1
                k += 1
        triangles.sort()
        self.triangles = triangles
        self._pivots = None
        self._1cache = None

    def __repr__(self) -> str:
        return (f"RipsSkeleton(n={len(self.cloud)}, eps={self.scale.epsilon}, "
                f"E={len(self.edges)}, T={len(self.triangles)})")

    def boundary2_columns(self):
        """Per-triangle edge-index triples: column t of the triangle boundary."""
        ei = self.edge_index
        return [(ei[(i, j)], ei[(i, k)], ei[(j, k)]) for (i, j, k) in self.triangles]

    def _triangle_pivots(self) -> dict[int, int]:
        """Column-echelon pivots of the triangle boundary, keyed by low bit.

        Columns are processed in diameter order (then lexicographic), which
        keeps the reduction near-linear on geometric samples and makes the
        pivot set, hence every reduced residue, deterministic.
        """
        if self._pivots is None:
            d = self.cloud.distances()
            ei = self.edge_index
            order = sorted(self.triangles,
                           key=lambda t: (max(d[t[0], t[1]], d[t[0], t[2]], d[t[1], t[2]]), t))
            pivots: dict[int, int] = {}
            for (i, j, k) in order:
                col = (1 << ei[(i, j)]) | (1 << ei[(i, k)]) | (1 << ei[(j, k)])
                while col:
                    low = col.bit_length() - 1
                    p = pivots.get(low)
                    if p is None:
                        pivots[low] = col
                        break
                    col ^= p
            self._pivots = pivots
        return self._pivots

    def reduce_cycle(self, vector: int) -> int:
        """Reduce an edge-set bit vector modulo the triangle boundary image."""
        pivots = self._triangle_pivots()
        v = vector
        while v:
            p = pivots.get(v.bit_length() - 1)
            if p is None:
                break
            v ^= p
        return v

    def path_vector(self, chain: Chain) -> int:
        """GF(2) edge vector of any chain (unreduced); hops must be edges."""
        if chain.cloud is not self.cloud:
            raise ValueError("chain lives on a different cloud")
        if chain.scale != self.scale:
            raise ValueError(f"scale mismatch: chain at {chain.scale.epsilon}, "
                             f"skeleton at {self.scale.epsilon}")
        vec = 0
        ei = self.edge_index
        v = chain.vertices
        for a, b in zip(v, v[1:]):
            if a == b:
                continue
            e = (a, b) if a < b else (b, a)
            idx = ei.get(e)
            if idx is None:
                raise ValueError(f"hop {e} is not an edge at eps={self.scale.epsilon}")
            vec ^= 1 << idx
        return vec

    def loop_class(self, loop: Chain) -> "CycleClass":
        """Homology class of a closed chain, reduced modulo triangle boundaries."""
        if not loop.is_closed():
            raise ValueError("loop_class needs a closed chain")
        return CycleClass(self, self.reduce_cycle(self.path_vector(loop)))

    def betti1(self) -> int:
        """dim ker(edge boundary) - rank(triangle boundary) over GF(2)."""
        if self._1cache is None:
            n_comp = len(components(self.cloud, self.scale))
            rank1 = len(self.cloud) - n_comp
            self._1cache = len(self.edges) - rank1 - len(self._triangle_pivots())
        return self._1cache


@dataclass(frozen=True)
class CycleClass:
    """A reduced GF(2) cycle residue; nonzero means the loop does not bound."""

    skeleton: RipsSkeleton
    residue: int

    @property
    def is_zero(self) -> bool:
        return self.residue == 0

    def support(self) -> list[tuple[int, int]]:
        """Edges carrying the residue, in edge-index order."""
        out = []
        v = self.residue
        while v:
            idx = (v & -v).bit_length() - 1
            out.append(self.skeleton.edges[idx])
            v &= v - 1
        return out

    def __eq__(self, other) -> bool:
        return (isinstance(other, CycleClass) and self.skeleton is other.skeleton
                and self.residue == other.residue)


def build(cloud: PointCloud, scale) -> RipsSkeleton:
    """Build (or fetch the cached) skeleton of a cloud at a scale."""
    eps = as_scale(scale).epsilon
    skel = cloud._rips_cache.get(eps)
    if skel is None:
        skel = RipsSkeleton(cloud, eps)
        cloud._rips_cache[eps] = skel
    return skel


def is_bounded(cloud: PointCloud, subset, scale) -> bool:
    """True iff all pairs of the nonempty subset are within the entourage."""
    idx = [int(v) for v in subset]
    if not idx:
        raise ValueError("boundedness of the empty set is undefined here")
    d = cloud.distances()
    eps = as_scale(scale).epsilon
    return all(d[a, b] <= eps for x, a in enumerate(idx) for b in idx[x + 1:])
