"""Epsilon-chains and their elementary moves.

A chain is an ordered sequence of point indices asserted valid at a scale:
every consecutive pair must lie within the closed entourage.  The only ways
to deform a chain are the two elementary moves — inserting or deleting an
interior point — and both keep the endpoints fixed.  Chains store indices,
never coordinates, so chain identity is exact.
"""

from __future__ import annotations

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

    The constructor checks index bounds only; whether every hop actually
    fits inside the entourage is reported by :meth:`is_valid`, so invalid
    chains can be represented and then rejected.
    """

    __slots__ = ("cloud", "vertices", "scale")

    def __init__(self, cloud: PointCloud, vertices, scale):
        verts = tuple(int(v) for v in vertices)
        if not verts:
            raise ValueError("a chain needs at least one vertex")
        n = len(cloud)
        for v in verts:
            if not 0 <= v < n:
                raise IndexError(f"vertex {v} out of range for cloud of size {n}")
        self.cloud = cloud
        self.vertices = verts
        self.scale = as_scale(scale)

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
        d = self.cloud.distances()
        eps = self.scale.epsilon
        v = self.vertices
        return all(d[v[k], v[k + 1]] <= eps for k in range(len(v) - 1))

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

    def inverse(self) -> "Chain":
        return Chain(self.cloud, self.vertices[::-1], self.scale)

    def with_scale(self, scale) -> "Chain":
        return Chain(self.cloud, self.vertices, scale)


def collapse(vertices: tuple[int, ...]) -> tuple[int, ...]:
    out = [vertices[0]]
    for v in vertices[1:]:
        if v != out[-1]:
            out.append(v)
    return tuple(out)


def legal_moves(chain: Chain, candidates=None) -> list[Move]:
    """All elementary moves that keep the chain valid, in deterministic order.

    Deletes come first (by position), then inserts by (position, vertex).
    ``candidates`` optionally restricts which points may be inserted; the
    default is the whole cloud.  The list is exhaustive over that set.
    """
    bits = chain.cloud.entourage_bits(chain.scale)
    v = chain.vertices
    n = len(v)
    moves: list[Move] = []
    for pos in range(1, n - 1):
        if (bits[v[pos - 1]] >> v[pos + 1]) & 1:
            moves.append(Delete(pos))
    if candidates is None:
        cand_mask = (1 << len(chain.cloud)) - 1
    else:
        cand_mask = 0
        for c in candidates:
            cand_mask |= 1 << int(c)
    for pos in range(1, n):
        common = bits[v[pos - 1]] & bits[v[pos]] & cand_mask
        while common:
            p = (common & -common).bit_length() - 1
            moves.append(Insert(pos, p))
            common &= common - 1
    return moves


def apply_move(chain: Chain, move: Move) -> Chain:
    """Apply one elementary move, checking its legality on this chain."""
    v = chain.vertices
    d = chain.cloud.distances()
    eps = chain.scale.epsilon
    if isinstance(move, Delete):
        pos = move.position
        if not 1 <= pos <= len(v) - 2:
            raise ValueError(f"delete position {pos} is not interior for length {len(v)}")
        if d[v[pos - 1], v[pos + 1]] > eps:
            raise ValueError(f"deleting position {pos} would break the chain")
        return Chain(chain.cloud, v[:pos] + v[pos + 1:], chain.scale)
    if isinstance(move, Insert):
        pos, p = move.position, move.vertex
        if not 1 <= pos <= len(v) - 1:
            raise ValueError(f"insert position {pos} is not an interior gap for length {len(v)}")
        if not 0 <= p < len(chain.cloud):
            raise IndexError(f"vertex {p} out of range")
        if d[p, v[pos - 1]] > eps or d[p, v[pos]] > eps:
            raise ValueError(f"vertex {p} is not close to both sides of gap {pos}")
        return Chain(chain.cloud, v[:pos] + (p,) + v[pos:], chain.scale)
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
            m = bits[u]
            while m:
                w = (m & -m).bit_length() - 1
                m &= m - 1
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        blocks.append(sorted(block))
    return blocks


def find_chain(cloud: PointCloud, i: int, j: int, scale, banned=()) -> Chain | None:
    """Minimum-hop valid chain from i to j, or None if they are disconnected.

    Ties are broken toward the lexicographically smallest vertex sequence.
    ``banned`` vertices (never i or j themselves) are treated as absent.
    """
    n = len(cloud)
    if not (0 <= i < n and 0 <= j < n):
        raise IndexError(f"point index out of range: ({i}, {j}) for n={n}")
    scale = as_scale(scale)
    if i == j:
        return Chain(cloud, [i], scale)
    bits = cloud.entourage_bits(scale)
    banned_mask = 0
    for b in banned:
        if b != i and b != j:
            banned_mask |= 1 << int(b)
    dist = _hops_from(bits, j, n, banned_mask)
    if dist[i] < 0:
        return None
    verts = [i]
    cur = i
    while cur != j:
        m = bits[cur] & ~banned_mask & ~(1 << cur)
        best = -1
        while m:
            w = (m & -m).bit_length() - 1
            m &= m - 1
            if dist[w] == dist[cur] - 1:
                best = w
                break  # bits iterate low to high, so the first hit is smallest
        cur = best
        verts.append(cur)
    return Chain(cloud, verts, scale)


def _hops_from(bits: list[int], src: int, n: int, banned_mask: int = 0) -> list[int]:
    """BFS hop counts from src over the bitset graph; -1 where unreachable."""
    dist = [-1] * n
    dist[src] = 0
    queue = deque([src])
    while queue:
        u = queue.popleft()
        m = bits[u] & ~banned_mask & ~(1 << u)
        while m:
            w = (m & -m).bit_length() - 1
            m &= m - 1
            if dist[w] < 0:
                dist[w] = dist[u] + 1
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
    try:
        return Chain(cloud, doc["vertices"], Scale(doc["epsilon"]))
    except (KeyError, ValueError, IndexError, TypeError) as exc:
        raise DocumentError(f"bad chain document: {exc}") from exc


def move_to_record(move: Move) -> dict:
    if isinstance(move, Insert):
        return {"op": "insert", "position": move.position, "vertex": move.vertex}
    return {"op": "delete", "position": move.position}
