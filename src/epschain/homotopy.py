"""Deciding whether two chains are deformable into each other.

Two chains with equal endpoints are homotopic at a scale when a finite
sequence of elementary moves turns one into the other.  Deciding this in
general encodes the word problem of the complex's edge-path group, so every
answer here is one of three:

* ``homotopic`` — with a witness move sequence that replays, step by legal
  step, from the first chain to the second;
* ``not_homotopic`` — with a nonzero GF(2) cycle class of the loop
  ``c1 * inverse(c2)``, which no move sequence can change;
* ``unknown`` — the search budget ran out (the budget is echoed back).

Searches run over canonical states: vertex tuples with consecutive
duplicates collapsed.  A single-vertex chain is interchangeable with its
two-vertex constant realization (the chain ``[p, p]``); witnesses for loops
contracted to a point end at that realization.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass

from . import rips
from .chain import Chain, Delete, Insert, Move, apply_move, collapse, _hops_from
from .rips import CycleClass, RipsSkeleton
from .space import PointCloud


@dataclass(frozen=True)
class SearchBudget:
    """Caps for a homotopy search: raw chain length and stored states."""

    max_chain_length: int
    max_states: int

    def __post_init__(self):
        if self.max_chain_length < 1 or self.max_states < 1:
            raise ValueError("budget fields must be >= 1")

    def to_record(self) -> dict:
        return {"max_chain_length": self.max_chain_length,
                "max_states": self.max_states}


def default_budget(c1: Chain, c2: Chain) -> SearchBudget:
    return SearchBudget(max_chain_length=4 * max(len(c1), len(c2), 2),
                        max_states=10 ** 6)


@dataclass(frozen=True)
class HomotopyVerdict:
    outcome: str  # "homotopic" | "not_homotopic" | "unknown"
    witness: tuple[Move, ...] | None = None
    certificate: CycleClass | None = None
    budget: SearchBudget | None = None
    states_explored: int = 0

    @property
    def is_homotopic(self) -> bool:
        return self.outcome == "homotopic"

    @property
    def is_not_homotopic(self) -> bool:
        return self.outcome == "not_homotopic"

    @property
    def is_unknown(self) -> bool:
        return self.outcome == "unknown"

    @property
    def decided(self) -> bool:
        return self.outcome != "unknown"

    def to_record(self) -> dict:
        from .chain import move_to_record

        rec = {"outcome": self.outcome, "states_explored": self.states_explored}
        if self.witness is not None:
            rec["witness"] = [move_to_record(m) for m in self.witness]
        if self.certificate is not None:
            rec["certificate_support"] = [list(e) for e in self.certificate.support()]
        if self.budget is not None:
            rec["budget"] = self.budget.to_record()
        return rec


def replay(chain: Chain, moves) -> Chain:
    """Apply a move sequence; raises if any step is illegal on its chain."""
    cur = chain
    for m in moves:
        cur = apply_move(cur, m)
    return cur


# ---------------------------------------------------------------------------
# Canonical states and raw-consistent expansion
# ---------------------------------------------------------------------------
#
# A state is a collapsed vertex tuple.  Its raw form is the tuple itself,
# except the single-vertex state (p,) whose raw form is the constant chain
# [p, p] (states only shrink to one vertex when a loop trivializes).  Every
# expansion edge carries the raw move sequence realizing it, so a found path
# replays legally from end to end.

def _realize(chain: Chain) -> Chain:
    if len(chain) == 1:
        v = chain.vertices[0]
        return Chain(chain.cloud, (v, v), chain.scale)
    return chain


def _raw_of(state: tuple[int, ...]) -> tuple[int, ...]:
    return state if len(state) >= 2 else (state[0], state[0])


def _collapse_deletes(vertices: tuple[int, ...]) -> tuple[list[Delete], tuple[int, ...]]:
    """Legal deletes removing consecutive duplicates; [x, x] stays irreducible."""
    moves: list[Delete] = []
    v = list(vertices)
    pos = 1
    while pos < len(v):
        if v[pos] != v[pos - 1] or len(v) == 2:
            pos += 1
            continue
        at = pos if pos <= len(v) - 2 else pos - 1
        moves.append(Delete(at))
        del v[at]
        pos = max(1, at)
    return moves, tuple(v)


def _invert(move: Move, pre: tuple[int, ...]) -> Move:
    if isinstance(move, Insert):
        return Delete(move.position)
    return Insert(move.position, pre[move.position])


def _invert_sequence(start: tuple[int, ...], moves: list[Move]) -> list[Move]:
    """Moves undoing ``moves`` (which run forward from ``start``), in order."""
    pres = []
    cur = list(start)
    for m in moves:
        pres.append(tuple(cur))
        if isinstance(m, Insert):
            cur.insert(m.position, m.vertex)
        else:
            del cur[m.position]
    return [_invert(m, p) for m, p in zip(reversed(moves), reversed(pres))]


def _expand(state, bits, max_len):
    """Deterministic (move_seq, next_state) edges out of a canonical state."""
    work = _raw_of(state)
    n = len(work)
    out = []
    for pos in range(1, n - 1):
        u, w = work[pos - 1], work[pos + 1]
        if not (bits[u] >> w) & 1:
            continue
        raw = work[:pos] + work[pos + 1:]
        if u == w:
            if len(raw) == 2:
                out.append(([Delete(pos)], (u,)))
                continue
            at = pos if pos <= len(raw) - 2 else pos - 1
            out.append(([Delete(pos), Delete(at)], raw[:at] + raw[at + 1:]))
        else:
            out.append(([Delete(pos)], raw))
    if n + 1 <= max_len:
        for gap in range(1, n):
            u, w = work[gap - 1], work[gap]
            common = bits[u] & bits[w]
            while common:
                v = (common & -common).bit_length() - 1
                common &= common - 1
                if v == u or v == w:
                    continue
                out.append(([Insert(gap, v)], work[:gap] + (v,) + work[gap:]))
    return out


def _greedy_contract(source: tuple[int, ...], target: tuple[int, ...], bits):
    """Try to reach ``target`` (a subsequence of ``source``) by deletes only."""
    cur = list(source)
    moves: list[Delete] = []
    while tuple(cur) != target:
        emb = _pinned_embedding(cur, target)
        if emb is None:
            return None
        marked = set(emb)
        progressed = False
        for pos in range(1, len(cur) - 1):
            if pos in marked:
                continue
            if (bits[cur[pos - 1]] >> cur[pos + 1]) & 1:
                moves.append(Delete(pos))
                del cur[pos]
                progressed = True
                break
        if not progressed:
            return None
    return moves


def _pinned_embedding(cur: list[int], target: tuple[int, ...]):
    """Leftmost embedding of target into cur with both endpoints pinned."""
    if cur[0] != target[0] or cur[-1] != target[-1]:
        return None
    emb = [0]
    at = 1
    for t in target[1:-1]:
        while at < len(cur) - 1 and cur[at] != t:
            at += 1
        if at >= len(cur) - 1:
            return None
        emb.append(at)
        at += 1
    emb.append(len(cur) - 1)
    return emb


def _is_subsequence(needle: tuple[int, ...], hay: tuple[int, ...]) -> bool:
    it = iter(hay)
    return all(any(x == y for y in it) for x in needle)


# ---------------------------------------------------------------------------
# The decision engine
# ---------------------------------------------------------------------------

def are_homotopic(c1: Chain, c2: Chain, budget: SearchBudget | None = None,
                  skeleton: RipsSkeleton | None = None) -> HomotopyVerdict:
    """Three-valued homotopy decision for two chains with equal endpoints.

    The GF(2) certificate is checked before any search (cheap refutation);
    then a greedy contraction handles the common case of one chain refining
    the other; the general case is a bidirectional breadth-first search over
    canonical states, bounded by the budget.
    """
    if c1.cloud is not c2.cloud:
        raise ValueError("chains live on different clouds")
    if c1.scale != c2.scale:
        raise ValueError(f"scale mismatch: {c1.scale.epsilon} vs {c2.scale.epsilon}")
    if c1.endpoints != c2.endpoints:
        raise ValueError(f"endpoint mismatch: {c1.endpoints} vs {c2.endpoints}")
    if not (c1.is_valid() and c2.is_valid()):
        raise ValueError("both chains must be valid at their scale")
    if budget is None:
        budget = default_budget(c1, c2)

    c1r, c2r = _realize(c1), _realize(c2)
    prefix, r1 = _collapse_deletes(c1r.vertices)
    delback, r2 = _collapse_deletes(c2r.vertices)
    suffix = _invert_sequence(c2r.vertices, delback)
    s1, s2 = collapse(r1), collapse(r2)

    def done(middle, states):
        witness = tuple(prefix) + tuple(middle) + tuple(suffix)
        if replay(c1r, witness).vertices != c2r.vertices:
            raise RuntimeError("witness replay drifted")
        return HomotopyVerdict("homotopic", witness=witness, budget=budget,
                               states_explored=states)

    if s1 == s2:
        return done([], 0)

    skel = skeleton if skeleton is not None else rips.build(c1.cloud, c1.scale)
    vec = skel.path_vector(c1) ^ skel.path_vector(c2)
    residue = skel.reduce_cycle(vec)
    if residue:
        return HomotopyVerdict("not_homotopic", certificate=CycleClass(skel, residue),
                               budget=budget, states_explored=0)

    bits = c1.cloud.entourage_bits(c1.scale)
    if _is_subsequence(s2, s1):
        mid = _greedy_contract(r1, _raw_of(s2), bits)
        if mid is not None:
            return done(mid, 0)
    if _is_subsequence(s1, s2):
        back = _greedy_contract(r2, _raw_of(s1), bits)
        if back is not None:
            return done(_invert_sequence(r2, back), 0)

    mid, states = _bidir_search(s1, s2, c1.cloud, c1.scale, budget)
    if mid is None:
        return HomotopyVerdict("unknown", budget=budget, states_explored=states)
    return done(mid, states)


def _bidir_search(s1, s2, cloud: PointCloud, scale, budget: SearchBudget):
    """Bidirectional BFS between canonical states; returns (moves, states)."""
    bits = cloud.entourage_bits(scale)
    L = budget.max_chain_length
    fw: dict = {s1: None}
    bw: dict = {s2: None}
    fq, bq = deque([s1]), deque([s2])
    states = 2
    meet = s1 if s1 in bw else None
    while meet is None and (fq or bq):
        forward = len(fq) <= len(bq) if (fq and bq) else bool(fq)
        side, queue, other = (fw, fq, bw) if forward else (bw, bq, fw)
        u = queue.popleft()
        for seq, t in _expand(u, bits, L):
            if t in side:
                continue
            if states >= budget.max_states:
                return None, states
            side[t] = (u, seq)
            states += 1
            queue.append(t)
            if t in other:
                meet = t
                break
    if meet is None:
        return None, states
    fmoves: list[Move] = []
    cur = meet
    while fw[cur] is not None:
        parent, seq = fw[cur]
        fmoves[:0] = seq
        cur = parent
    bmoves: list[Move] = []
    cur = meet
    while bw[cur] is not None:
        parent, seq = bw[cur]
        bmoves[:0] = seq
        cur = parent
    return fmoves + _invert_sequence(_raw_of(s2), bmoves), states


def is_null(loop: Chain, budget: SearchBudget | None = None,
            skeleton: RipsSkeleton | None = None) -> HomotopyVerdict:
    """Is a closed chain contractible to its basepoint (relative endpoints)?"""
    if not loop.is_closed():
        raise ValueError("is_null needs a closed chain")
    p = loop.vertices[0]
    return are_homotopic(loop, Chain(loop.cloud, (p, p), loop.scale), budget, skeleton)


def is_short(c: Chain, budget: SearchBudget | None = None,
             skeleton: RipsSkeleton | None = None) -> HomotopyVerdict:
    """Is the chain homotopic to the two-point chain of its endpoints?

    The endpoints must themselves be within the chain's entourage, otherwise
    the two-point chain does not exist and this raises instead of answering.
    """
    x, y = c.endpoints
    if c.cloud.distance(x, y) > c.scale.epsilon:
        raise ValueError(f"endpoints {x}, {y} are farther apart than eps="
                         f"{c.scale.epsilon}; the chain [x, y] does not exist")
    return are_homotopic(c, Chain(c.cloud, (x, y), c.scale), budget, skeleton)


# ---------------------------------------------------------------------------
# Grouping and the brute-force oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Classification:
    """Partition of a chain list by decided homotopy verdicts."""

    blocks: tuple[tuple[int, ...], ...]
    unknown_pairs: tuple[tuple[int, int], ...]

    @property
    def fully_decided(self) -> bool:
        return not self.unknown_pairs


def classify(chains, budget: SearchBudget | None = None,
             skeleton: RipsSkeleton | None = None) -> Classification:
    """Group chains by pairwise verdicts; blocks join only on ``homotopic``."""
    chains = list(chains)
    if not chains:
        return Classification((), ())
    base = chains[0]
    for c in chains[1:]:
        if c.scale != base.scale or c.endpoints != base.endpoints:
            raise ValueError("classify needs chains sharing scale and endpoints")
    parent = list(range(len(chains)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    verdicts = {}
    unknown = []
    for a, b in itertools.combinations(range(len(chains)), 2):
        v = are_homotopic(chains[a], chains[b], budget, skeleton)
        verdicts[(a, b)] = v
        if v.is_homotopic:
            parent[find(a)] = find(b)
        elif v.is_unknown:
            unknown.append((a, b))
    groups: dict[int, list[int]] = {}
    for k in range(len(chains)):
        groups.setdefault(find(k), []).append(k)
    if any(v.is_not_homotopic and find(a) == find(b) for (a, b), v in verdicts.items()):
        raise RuntimeError("certificate contradicts a witness")
    blocks = tuple(tuple(sorted(g)) for g in sorted(groups.values(), key=min))
    flagged = tuple((a, b) for a, b in unknown if find(a) != find(b))
    return Classification(blocks, flagged)


def oracle_classes(cloud: PointCloud, i: int, j: int, scale, max_len: int,
                   guard: int = 500_000) -> list[list[tuple[int, ...]]]:
    """Exact homotopy classes of every valid chain from i to j up to a length.

    Brute force and independent of the search engine: enumerate all valid
    vertex sequences (consecutive repeats allowed) of length <= max_len,
    connect each chain to its single-deletion images and to its collapsed
    form, and read off connected components.  Classes bounded by length
    refine the true homotopy classes: chains split here may still merge via
    longer detours, but chains joined here are genuinely homotopic.
    """
    n = len(cloud)
    if not (0 <= i < n and 0 <= j < n):
        raise IndexError("endpoint out of range")
    bits = cloud.entourage_bits(scale)
    dist = _hops_from(bits, j, n)
    chains: list[tuple[int, ...]] = []
    if dist[i] < 0:
        return []
    stack = [(i,)]
    visited = 0
    while stack:
        c = stack.pop()
        visited += 1
        if visited > guard:
            raise RuntimeError(f"oracle enumeration exceeded guard of {guard} chains")
        if c[-1] == j:
            chains.append(c)
        if len(c) >= max_len:
            continue
        room = max_len - len(c) - 1
        m = bits[c[-1]]
        while m:
            w = (m & -m).bit_length() - 1
            m &= m - 1
            if 0 <= dist[w] <= room:
                stack.append(c + (w,))
    index = {c: k for k, c in enumerate(chains)}
    parent = list(range(len(chains)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for c, k in index.items():
        for pos in range(1, len(c) - 1):
            if (bits[c[pos - 1]] >> c[pos + 1]) & 1:
                union(k, index[c[:pos] + c[pos + 1:]])
        cc = collapse(c)
        if cc != c:
            union(k, index[cc])
    groups: dict[int, list[tuple[int, ...]]] = {}
    for c, k in index.items():
        groups.setdefault(find(k), []).append(c)
    out = [sorted(g, key=lambda t: (len(t), t)) for g in groups.values()]
    out.sort(key=lambda g: (len(g[0]), g[0]))
    return out
