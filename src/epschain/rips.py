"""The Rips complex of a cloud at a scale, truncated to dimension 2.

Simplices are the epsilon-bounded subsets of size <= 3: every vertex, every
close pair, and every triple whose three pairs are all close.  Homology is
taken over GF(2), which is all the homotopy engine needs: a nonzero class of
a loop is a sound certificate that the loop does not bound, and elementary
chain moves never change the class.  A zero class proves nothing and the
engine treats it as inconclusive.

Columns of the triangle boundary matrix are sets of indices into the fixed
(lexicographic) edge ordering, and a cycle is a Python integer used as a bit
vector over it; one column-echelon reduction per skeleton is cached, after
which every class query is a short sequence of XORs.  A pivot holds its
column's nonzeros below its key, so it costs their count, not its span.

The reduction takes columns in (diameter, lexicographic) order and never
builds one it can prove zero.  Each triangle t is owned by its longest
edge, and among tied longest edges by the one whose opposite vertex is
smallest; call that edge's length D and its opposite vertex c.  So every
vertex of t opposite an edge of length D is at least c.  Let l < c be a
vertex strictly nearer than D to each vertex of t.  Each other face of the
tetrahedron t + l is t with one vertex v replaced by l.  Its edges are the
edge of t opposite v and two edges at l, shorter than D, so its diameter is
below D unless the edge opposite v has length D.  Then v >= c > l, and the
face, being t with a vertex lowered, sorts lexicographically before t.
Either way the face's column comes first.  The boundary of a tetrahedron's
boundary is zero, so the column of t is the sum of those three earlier
columns and reduces to zero.  A zero column adds no pivot, so skipping it
leaves every pivot, hence every residue, as the full reduction has it.
Triangles are enumerated from their owning edges when reduced and never
stored.  For an owning edge of length D, the lowest vertex strictly nearer
than D to both of its ends is such an apex for every owned c above it and
strictly nearer than D to it, so those c are dropped as one set before the
rest are tested one by one: the prefilter is the apex rule applied to a set.

The owning edges are visited in one sweep over the edges in length order, a
group of equal lengths D at a time.  The edges and their lengths are the
cloud's close-pair list at the scale (:meth:`PointCloud.close_pairs`),
which is sorted by (length, i, j): the stable sort by length of the
lexicographic edges, with no distance matrix.  Two bitsets per vertex carry
the sets the rule names: ``lt[v]``, the vertices strictly nearer than D to
v, and ``le[v]``, those within D.  A group first adds its edges to ``le``
at both ends, then tests each of its edges, then lets ``lt`` catch up with
``le`` at its endpoints; so during the tests ``lt`` holds exactly the edges
of earlier groups and ``le`` those of this group too.  An edge, listed
once, joins the sets of both of its ends at once, which is right because a
distance and its transpose are the same float: a coordinate difference
negates exactly, and a distance matrix must be exactly symmetric.  The kept
columns are sorted at the end, so the order of the sweep never reaches the
pivots.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter

from .chain import Chain, _set_bits, components
from .space import PointCloud, as_scale


class RipsSkeleton:
    """Vertices and edges of the Rips complex at one scale; triangles on demand."""

    __slots__ = ("cloud", "scale", "edges", "edge_index", "_pivots", "_1cache")

    def __init__(self, cloud: PointCloud, scale):
        self.cloud = cloud
        self.scale = as_scale(scale)
        bits = cloud.entourage_bits(self.scale)
        self.edges = [(i, j) for i in range(len(cloud)) for j in _set_bits(bits[i], i + 1)]
        self.edge_index = {e: k for k, e in enumerate(self.edges)}
        self._pivots = None
        self._1cache = None

    def __repr__(self) -> str:
        return (f"RipsSkeleton(n={len(self.cloud)}, eps={self.scale.epsilon}, "
                f"E={len(self.edges)})")

    @property
    def triangles(self) -> list[tuple[int, int, int]]:
        """Every triangle (i, j, k), i < j < k, in lexicographic order (not stored)."""
        bits = self.cloud.entourage_bits(self.scale)
        return [(i, j, k) for i, j in self.edges for k in _set_bits(bits[i] & bits[j], j + 1)]

    def _columns(self) -> list[tuple[float, int, int, int]]:
        """The (diameter, i, j, k) columns, i < j < k, that the apex test of
        the module docstring keeps, sorted; found by one length-ordered sweep."""
        n = len(self.cloud)
        i, j, d = self.cloud.close_pairs(self.scale)
        below = [(1 << b) - 1 for b in range(n + 1)]
        lt, le = [0] * n, [0] * n
        cols = []
        for diam, run in groupby(zip(d.tolist(), i.tolist(), j.tolist()), key=itemgetter(0)):
            group = [(a, b) for _, a, b in run]
            for a, b in group:
                le[a] |= 1 << b
                le[b] |= 1 << a
            for a, b in group:
                lt_a, lt_b = lt[a], lt[b]
                eq_a, eq_b = le[a] ^ lt_a, le[b] ^ lt_b
                # third vertices c of the triangles that (a, b) owns: within
                # diam of a and b, and below b if (a, c) ties with (a, b), and
                # below a if (b, c) does, since those edges are opposite b and a
                strict = lt_a & lt_b
                owned = strict | (eq_a & lt_b & below[b]) | (eq_b & (lt_a | eq_a) & below[a])
                if strict:
                    # the lowest strict vertex is an apex for every owned c
                    # above it and strictly nearer than diam to it
                    low = (strict & -strict).bit_length() - 1
                    owned &= ~(lt[low] & ~below[low + 1])
                for c in _set_bits(owned, 0):
                    # an apex below c, strictly nearer than diam to a, b and c,
                    # makes the other faces of the tetrahedron earlier columns
                    apex = strict & below[c]
                    if not (apex and apex & lt[c]):
                        cols.append((diam, *sorted((a, b, c))))
            for a, b in group:
                lt[a], lt[b] = le[a], le[b]
        cols.sort()
        return cols

    def _triangle_pivots(self) -> dict[int, tuple[int, ...]]:
        """Column-echelon pivots of the triangle boundary, keyed by highest edge.

        The pivot keyed ``low`` is the tuple of its column's other edge
        indices, in no particular order.  Columns are processed in diameter
        order (then lexicographic), which keeps the reduction near-linear on
        geometric samples and makes the pivot set, hence every reduced
        residue, deterministic.  Columns that the apex test of the module
        docstring proves zero are never built.
        """
        if self._pivots is None:
            ei = self.edge_index
            pivots: dict[int, tuple[int, ...]] = {}
            for (_, i, j, k) in self._columns():
                # edges (i, j) < (i, k) < (j, k): the column's highest is (j, k)
                low = ei[(j, k)]
                p = pivots.get(low)
                if p is None:
                    pivots[low] = (ei[(i, j)], ei[(i, k)])
                    continue
                # both columns hold low, so their sum drops it: neither stores it
                col = {ei[(i, j)], ei[(i, k)]}
                col.symmetric_difference_update(p)
                while col:
                    low = max(col)
                    col.discard(low)
                    p = pivots.get(low)
                    if p is None:
                        pivots[low] = tuple(col)
                        break
                    col.symmetric_difference_update(p)
            self._pivots = pivots
        return self._pivots

    def reduce_cycle(self, vector: int) -> int:
        """Reduce an edge-set bit vector modulo the triangle boundary image."""
        pivots = self._triangle_pivots()
        v = vector
        while v:
            low = v.bit_length() - 1
            p = pivots.get(low)
            if p is None:
                break
            v ^= 1 << low
            for e in p:
                v ^= 1 << e
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
        return [self.skeleton.edges[idx] for idx in _set_bits(self.residue, 0)]


def build(cloud: PointCloud, scale) -> RipsSkeleton:
    """Build (or fetch the cached) skeleton of a cloud at a scale."""
    eps = as_scale(scale).epsilon
    skel = cloud._rips_cache.get(eps)
    if skel is None:
        skel = RipsSkeleton(cloud, eps)
        cloud._rips_cache[eps] = skel
    return skel
