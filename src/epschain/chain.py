"""Epsilon-chains and their elementary moves.

A chain is an ordered sequence of point indices asserted valid at a scale:
every consecutive pair must lie within the closed entourage.  The only ways
to deform a chain are the two elementary moves — inserting or deleting an
interior point — and both keep the endpoints fixed.  Chains store indices,
never coordinates, so chain identity is exact.
"""

from __future__ import annotations

import operator
from collections import deque
from dataclasses import dataclass

from .documents import SCHEMA_VERSION, DocumentError
from .space import PointCloud, Scale, as_scale


@dataclass(frozen=True)
class Insert:
    """Insert ``vertex`` at ``position`` (between old position-1 and position)."""

    position: int
    vertex: int


@dataclass(frozen=True)
class Delete:
    """Delete the vertex at interior ``position``."""

    position: int


Move = Insert | Delete


class Chain:
    """An ordered, nonempty vertex-index sequence with an asserted scale.

    The constructor checks only that each vertex is an integer index in
    bounds (``operator.index``, so 1.7 and "1" raise TypeError); whether
    every hop actually fits inside the entourage is reported by
    :meth:`is_valid`, so invalid chains can be represented and then rejected.
    """

    __slots__ = ("cloud", "vertices", "scale")

    def __init__(self, cloud: PointCloud, vertices, scale):
        verts = tuple(map(operator.index, vertices))
        if not verts:
            raise ValueError("a chain needs at least one vertex")
        n = len(cloud)
        for v in verts:
            if not 0 <= v < n:
                raise IndexError(f"vertex {v} out of range for cloud of size {n}")
        self.cloud = cloud
        self.vertices = verts
        self.scale = as_scale(scale)

    @classmethod
    def _trusted(cls, cloud: PointCloud, vertices: tuple[int, ...], scale: Scale) -> "Chain":
        """A chain over a nonempty tuple of in-range ints this package built
        itself, at a :class:`Scale`; skips the constructor's conversion and checks."""
        chain = object.__new__(cls)
        chain.cloud, chain.vertices, chain.scale = cloud, vertices, scale
        return chain

    def __len__(self) -> int:
        return len(self.vertices)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Chain) and self.cloud is other.cloud
                and self.vertices == other.vertices and self.scale == other.scale)

    def __hash__(self):
        return hash((id(self.cloud), self.vertices, self.scale))

    def __repr__(self) -> str:
        return f"Chain({list(self.vertices)}, eps={self.scale.epsilon})"

    @property
    def endpoints(self) -> tuple[int, int]:
        return self.vertices[0], self.vertices[-1]

    def is_valid(self) -> bool:
        """True iff every consecutive pair is within the chain's entourage."""
        return _is_walk(self.vertices, self.cloud.entourage_bits(self.scale))

    def is_closed(self) -> bool:
        return self.vertices[0] == self.vertices[-1]

    def concat(self, other: "Chain") -> "Chain":
        """Concatenate, dropping the duplicated junction vertex."""
        if self.cloud is not other.cloud:
            raise ValueError("chains live on different clouds")
        if self.scale != other.scale:
            raise ValueError(f"scale mismatch: {self.scale.epsilon} vs {other.scale.epsilon}")
        if self.vertices[-1] != other.vertices[0]:
            raise ValueError(f"junction mismatch: {self.vertices[-1]} vs {other.vertices[0]}")
        return Chain(self.cloud, self.vertices + other.vertices[1:], self.scale)

    def with_scale(self, scale) -> "Chain":
        return Chain._trusted(self.cloud, self.vertices, as_scale(scale))


def _is_walk(vertices: tuple[int, ...], bits: list[int]) -> bool:
    """Is every consecutive pair adjacent in the entourage bitsets ``bits``?"""
    return all(bits[a] >> b & 1 for a, b in zip(vertices, vertices[1:]))


def _set_bits(m: int, start: int) -> list[int]:
    """Ascending positions >= start of the set bits of m."""
    out = []
    m >>= start
    k = start
    while m:
        step = (m & -m).bit_length() - 1
        k += step
        out.append(k)
        m >>= step + 1
        k += 1
    return out


def collapse(vertices: tuple[int, ...]) -> tuple[int, ...]:
    out = [vertices[0]]
    for v in vertices[1:]:
        if v != out[-1]:
            out.append(v)
    return tuple(out)


def legal_moves(chain: Chain) -> list[Move]:
    """All elementary moves that keep the chain valid, in deterministic order.

    Deletes come first (by position), then inserts by (position, vertex),
    where any point of the cloud may be inserted.  The list is exhaustive.
    """
    bits = chain.cloud.entourage_bits(chain.scale)
    v = chain.vertices
    n = len(v)
    moves: list[Move] = []
    for pos in range(1, n - 1):
        if (bits[v[pos - 1]] >> v[pos + 1]) & 1:
            moves.append(Delete(pos))
    for pos in range(1, n):
        moves += [Insert(pos, p) for p in _set_bits(bits[v[pos - 1]] & bits[v[pos]], 0)]
    return moves


def apply_move(chain: Chain, move: Move) -> Chain:
    """Apply one elementary move, checking its legality on this chain."""
    bits = chain.cloud.entourage_bits(chain.scale)
    return Chain._trusted(chain.cloud, _moved(chain.vertices, move, bits), chain.scale)


def _moved(v: tuple[int, ...], move: Move, bits: list[int]) -> tuple[int, ...]:
    """The vertices after one move, which must be legal on ``v`` at the scale
    of the entourage bitsets ``bits``; bit j of ``bits[i]`` is d(i, j) <= eps."""
    if isinstance(move, Delete):
        pos = move.position
        if not 1 <= pos <= len(v) - 2:
            raise ValueError(f"delete position {pos} is not interior for length {len(v)}")
        if not bits[v[pos - 1]] >> v[pos + 1] & 1:
            raise ValueError(f"deleting position {pos} would break the chain")
        return v[:pos] + v[pos + 1:]
    if isinstance(move, Insert):
        pos, p = move.position, move.vertex
        if not 1 <= pos <= len(v) - 1:
            raise ValueError(f"insert position {pos} is not an interior gap for length {len(v)}")
        if not 0 <= p < len(bits):
            raise IndexError(f"vertex {p} out of range")
        p = operator.index(p)
        if not (bits[p] >> v[pos - 1] & 1 and bits[p] >> v[pos] & 1):
            raise ValueError(f"vertex {p} is not close to both sides of gap {pos}")
        return v[:pos] + (p,) + v[pos:]
    raise TypeError(f"not an elementary move: {move!r}")


def components(cloud: PointCloud, scale) -> list[list[int]]:
    """Blocks of the epsilon-neighborhood graph, each sorted, ordered by minimum."""
    bits = cloud.entourage_bits(scale)
    n = len(cloud)
    seen = [False] * n
    blocks = []
    for s in range(n):
        if seen[s]:
            continue
        block = []
        stack = [s]
        seen[s] = True
        while stack:
            u = stack.pop()
            block.append(u)
            for w in _set_bits(bits[u], 0):
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        blocks.append(sorted(block))
    return blocks


def find_chain(cloud: PointCloud, i: int, j: int, scale, banned=()) -> Chain | None:
    """Minimum-hop valid chain from i to j, or None if they are disconnected.

    Ties are broken toward the lexicographically smallest vertex sequence.
    ``banned`` vertices (never i or j themselves) are treated as absent.
    The hop counts come from a search out of j that stops once i is
    labelled, and :func:`_walk_back` reads the chain off them.  A search out
    of j that stops only once several vertices are labelled gives each of
    them this same chain, which is how a scan serves all pairs ending at j.
    """
    i, j = operator.index(i), operator.index(j)
    n = len(cloud)
    if not (0 <= i < n and 0 <= j < n):
        raise IndexError(f"point index out of range: ({i}, {j}) for n={n}")
    scale = as_scale(scale)
    if i == j:
        return Chain._trusted(cloud, (i,), scale)
    bits = cloud.entourage_bits(scale)
    banned_mask = 0
    for b in map(operator.index, banned):
        if b != i and b != j:
            banned_mask |= 1 << b
    dist = _hops_from(bits, j, n, banned_mask, stops=(i,))
    if dist[i] < 0:
        return None
    return Chain._trusted(cloud, _walk_back(bits, dist, i), scale)


def _walk_back(bits: list[int], dist: list[int], i: int) -> tuple[int, ...]:
    """The chain from i down the hop counts ``dist`` to their source (hop 0).

    Each step takes the smallest neighbour one hop nearer, which gives the
    lexicographically smallest shortest chain.  So the labels must be exact
    below i's level, and exact or -1 elsewhere: banned and unreached
    vertices read -1, which is never one hop nearer.
    """
    verts = [i]
    cur = i
    while dist[cur]:
        want = dist[cur] - 1
        m = bits[cur]
        while m:
            w = (m & -m).bit_length() - 1
            if dist[w] == want:
                break  # bits iterate low to high, so the first hit is smallest
            m &= m - 1
        cur = w
        verts.append(cur)
    return tuple(verts)


def _hops_from(bits: list[int], src: int, n: int, banned_mask: int = 0,
               stops=()) -> list[int]:
    """BFS hop counts from src over the bitset graph; -1 where unreachable.

    With ``stops``, the search ends as soon as every one of them is labelled
    (or the component is exhausted).  A breadth-first search labels a whole
    level before the next, so by then every vertex nearer to src than the
    farthest stop is labelled correctly; the others may read -1, and no
    label is ever wrong.
    """
    dist = [-1] * n
    dist[src] = 0
    pending = set(stops)
    pending.discard(src)
    if stops and not pending:
        return dist
    queue = deque([src])
    while queue:
        u = queue.popleft()
        m = bits[u] & ~banned_mask & ~(1 << u)
        while m:
            w = (m & -m).bit_length() - 1
            m &= m - 1
            if dist[w] < 0:
                dist[w] = dist[u] + 1
                if w in pending:
                    pending.discard(w)
                    if not pending:
                        return dist
                queue.append(w)
    return dist


# ---------------------------------------------------------------------------
# Chain documents
# ---------------------------------------------------------------------------

def chain_to_doc(chain: Chain) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "chain",
        "space": chain.cloud.name,
        "epsilon": chain.scale.epsilon,
        "vertices": list(chain.vertices),
    }


def chain_from_doc(doc: dict, cloud: PointCloud) -> Chain:
    if doc.get("space") not in ("", None) and cloud.name and doc["space"] != cloud.name:
        raise DocumentError(f"chain belongs to space {doc['space']!r}, not {cloud.name!r}")
    # Chain() takes any integer index, and bool is one: a document's false or
    # true is not a vertex, so it is excluded explicitly.
    verts, eps = doc.get("vertices"), doc.get("epsilon")
    if not isinstance(verts, list) or any(type(v) is bool for v in verts):
        raise DocumentError(f"bad chain document: vertices {verts!r} are not a list of integers")
    if type(eps) is bool or not isinstance(eps, (int, float)):
        raise DocumentError(f"bad chain document: epsilon {eps!r} is not a number")
    try:
        return Chain(cloud, verts, Scale(eps))
    except (TypeError, ValueError, IndexError) as exc:
        raise DocumentError(f"bad chain document: {exc}") from exc


def move_to_record(move: Move) -> dict:
    if isinstance(move, Insert):
        return {"op": "insert", "position": move.position, "vertex": move.vertex}
    return {"op": "delete", "position": move.position}
