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

import functools
import operator
import struct
import sys
from collections import deque
from dataclasses import dataclass

from . import rips
from .chain import (Chain, Delete, Insert, Move, collapse, move_to_record, _hops_from,
                    _is_walk, _moved, _set_bits)
from .rips import CycleClass
from .space import PointCloud


@dataclass(frozen=True)
class SearchBudget:
    """Caps for a homotopy search: raw chain length and stored states.

    A field left as None takes its default per query (:func:`are_homotopic`).
    """

    max_chain_length: int | None = None
    max_states: int | None = None

    def __post_init__(self):
        for name in ("max_chain_length", "max_states"):
            cap = getattr(self, name)
            if cap is None:
                continue
            try:
                cap = operator.index(cap)
            except TypeError:
                raise TypeError(f"budget field {name} must be an integer, not {cap!r}") from None
            if cap < 1:
                raise ValueError("budget fields must be >= 1")
            object.__setattr__(self, name, cap)

    def to_record(self) -> dict:
        """The fields that are set; a budget resolved for a query sets both."""
        rec = {"max_chain_length": self.max_chain_length, "max_states": self.max_states}
        return {k: v for k, v in rec.items() if v is not None}


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
        rec = {"outcome": self.outcome, "states_explored": self.states_explored}
        if self.witness is not None:
            rec["witness"] = [move_to_record(m) for m in self.witness]
        if self.certificate is not None:
            rec["certificate_support"] = [list(e) for e in self.certificate.support()]
        if self.budget is not None:
            rec["budget"] = self.budget.to_record()
        return rec


def replay(chain: Chain, moves) -> Chain:
    """Apply a move sequence; raises as :func:`apply_move` does if any step is
    illegal on its chain."""
    bits = chain.cloud.entourage_bits(chain.scale)
    v = chain.vertices
    for m in moves:
        v = _moved(v, m, bits)
    return Chain._trusted(chain.cloud, v, chain.scale)


# ---------------------------------------------------------------------------
# Canonical states, their successors, and moves along a found path
# ---------------------------------------------------------------------------
#
# A state is a collapsed vertex tuple.  Its raw form is the tuple itself,
# except the single-vertex state (p,) whose raw form is the constant chain
# [p, p] (states only shrink to one vertex when a loop trivializes).  The
# search walks states only: its edges carry no moves.  Once the frontiers
# meet, ``_step_moves`` derives the raw moves of each step on the found path
# from the first successor edge that reaches the step's child, so the path
# replays legally from end to end and the search stores nothing else.
#
# Inside one search a state is keyed by its code: the bytes of its vertices
# as fixed-width unsigned integers in native order, two bytes each up to
# 65,536 points and four above.  A ``bytes`` object caches its hash, so a
# new state is hashed once for the seen test, the store and the meeting
# test.  Successors are byte slices of the raw form's code.  The search
# also keeps a table from each gap (a, b) to the codes of the common
# neighbours of a and b other than a and b, in ascending order, built from
# ``bits[a] & bits[b]`` when the gap first occurs: a gap recurs in many
# states of one search.  Only the states on the meeting path are decoded
# back to tuples.

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


def _successors(key: bytes, code: str, gaps: dict, bits, max_len) -> list[bytes]:
    """Codes of the canonical states one edge away from the state coded ``key``.

    Deletes come by position, then inserts by (gap, vertex).  Deleting the
    middle of a backtrack ``u x u`` also deletes one ``u``, so the state
    stays collapsed.  ``gaps`` is the search's insert table.
    """
    work = memoryview(key).cast(code).tolist()
    if len(work) == 1:
        work *= 2
        key *= 2
    n = len(work)
    w = len(key) // n
    out = [key[:pos * w] + key[(pos + 1 + (work[pos - 1] == work[pos + 1])) * w:]
           for pos in range(1, n - 1) if (bits[work[pos - 1]] >> work[pos + 1]) & 1]
    if n < max_len:
        for gap in range(1, n):
            ends = work[gap - 1], work[gap]
            codes = gaps.get(ends)
            if codes is None:
                codes = gaps[ends] = _common_codes(bits, *ends, w)
            if codes:
                head, tail = key[:gap * w], key[gap * w:]
                out += [head + c + tail for c in codes]
    return out


def _common_codes(bits, a: int, b: int, w: int) -> tuple[bytes, ...]:
    common = bits[a] & bits[b] & ~((1 << a) | (1 << b))
    # from a list: a tuple grown from a generator may keep spare slots, and
    # the search caches one per gap
    return tuple([c.to_bytes(w, sys.byteorder) for c in _set_bits(common, 0)])


def _step_moves(state, child, bits, max_len) -> list[Move]:
    """Raw moves of the first edge, in successor order, from ``state`` to ``child``.

    Inserts and single deletes reach distinct children.  Only backtrack
    deletes collide (three positions of ``a b a b a`` give ``a b a``); the
    first position wins, being first in successor order.  A step no edge
    makes is an internal fault and raises ``RuntimeError``.
    """
    work = _raw_of(state)
    n = len(work)
    for pos in range(1, n - 1):
        u, w = work[pos - 1], work[pos + 1]
        if (bits[u] >> w) & 1 and work[:pos] + work[pos + 1 + (u == w):] == child:
            if u != w or n == 3:
                return [Delete(pos)]
            return [Delete(pos), Delete(pos if pos <= n - 3 else pos - 1)]
    if len(child) == n + 1 and n < max_len:
        for gap in range(1, n):
            u, v, w = work[gap - 1], child[gap], work[gap]
            if (v != u and v != w and (bits[u] & bits[w]) >> v & 1
                    and child[:gap] == work[:gap] and child[gap + 1:] == work[gap:]):
                return [Insert(gap, v)]
    raise RuntimeError(f"no search edge leads from {state} to {child}")


def _greedy_contract(source: tuple[int, ...], target: tuple[int, ...], bits):
    """Try to reach ``target`` by deletes only.

    None when ``target`` has no embedding in ``source`` with both endpoints
    pinned (so it is not a subsequence), or when the deletes stall.
    """
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


# ---------------------------------------------------------------------------
# The decision engine
# ---------------------------------------------------------------------------

def are_homotopic(c1: Chain, c2: Chain, budget: SearchBudget | None = None) -> HomotopyVerdict:
    """Three-valued homotopy decision for two chains with equal endpoints.

    The cheapest sound path runs first: a greedy contraction handles the
    common case of one chain refining the other, and needs no skeleton.  A
    witness it finds replays, so the loop bounds and its GF(2) residue is
    zero; trying it first changes no verdict.  Then the certificate refutes
    what it can before any search.  The general case is a bidirectional
    breadth-first search over canonical states, bounded by the budget.
    """
    if c1.cloud is not c2.cloud:
        raise ValueError("chains live on different clouds")
    if c1.scale != c2.scale:
        raise ValueError(f"scale mismatch: {c1.scale.epsilon} vs {c2.scale.epsilon}")
    if c1.endpoints != c2.endpoints:
        raise ValueError(f"endpoint mismatch: {c1.endpoints} vs {c2.endpoints}")
    bits = c1.cloud.entourage_bits(c1.scale)
    if not (_is_walk(c1.vertices, bits) and _is_walk(c2.vertices, bits)):
        raise ValueError("both chains must be valid at their scale")
    # an unset cap is 4 * max(len(c1), len(c2), 2) chain vertices or 10**6 states
    length, states = (budget.max_chain_length, budget.max_states) if budget else (None, None)
    if length is None or states is None:
        budget = _resolved_budget(length or 4 * max(len(c1), len(c2), 2), states or 10 ** 6)

    v1, v2 = _raw_of(c1.vertices), _raw_of(c2.vertices)
    prefix, r1 = _collapse_deletes(v1)
    delback, r2 = _collapse_deletes(v2)
    suffix = _invert_sequence(v2, delback)
    s1, s2 = collapse(r1), collapse(r2)  # r1, r2 are the raw forms of s1, s2

    def done(middle, states):
        witness = tuple(prefix) + tuple(middle) + tuple(suffix)
        if replay(Chain._trusted(c1.cloud, v1, c1.scale), witness).vertices != v2:
            raise RuntimeError("witness replay drifted")
        return HomotopyVerdict("homotopic", witness=witness, budget=budget,
                               states_explored=states)

    if s1 == s2:
        return done([], 0)

    mid = _greedy_contract(r1, r2, bits)
    if mid is not None:
        return done(mid, 0)
    back = _greedy_contract(r2, r1, bits)
    if back is not None:
        return done(_invert_sequence(r2, back), 0)

    skel = rips.build(c1.cloud, c1.scale)
    vec = skel.path_vector(c1) ^ skel.path_vector(c2)
    residue = skel.reduce_cycle(vec)
    if residue:
        return HomotopyVerdict("not_homotopic", certificate=CycleClass(skel, residue),
                               budget=budget, states_explored=0)

    mid, states = _bidir_search(s1, s2, bits, budget)
    if mid is None:
        return HomotopyVerdict("unknown", budget=budget, states_explored=states)
    return done(mid, states)


@functools.lru_cache(maxsize=64)
def _resolved_budget(length: int, states: int) -> SearchBudget:
    """The budget of a query whose caps are resolved to these ints; one per
    distinct pair, as a scan's queries repeat a few chain lengths."""
    return SearchBudget(length, states)


def _bidir_search(s1, s2, bits, budget: SearchBudget):
    """Bidirectional BFS between canonical states; returns (moves, states).

    Each side maps a state's code to the code of the state it was reached
    from.  The moves are derived only along the path through the meeting
    state.
    """
    L, cap = budget.max_chain_length, budget.max_states
    code = "H" if len(bits) <= 1 << 16 else "I"
    gaps: dict = {}
    k1, k2 = (struct.pack(f"{len(s)}{code}", *s) for s in (s1, s2))
    fw: dict = {k1: None}
    bw: dict = {k2: None}
    fq, bq = deque([k1]), deque([k2])
    states = 2
    meet = k1 if k1 in bw else None
    while meet is None and (fq or bq):
        forward = len(fq) <= len(bq) if (fq and bq) else bool(fq)
        side, queue, other = (fw, fq, bw) if forward else (bw, bq, fw)
        u = queue.popleft()
        for t in _successors(u, code, gaps, bits, L):
            if t in side:
                continue
            if states >= cap:
                return None, states
            side[t] = u
            states += 1
            queue.append(t)
            if t in other:
                meet = t
                break
    if meet is None:
        return None, states
    fmoves = _path_moves(fw, meet, code, bits, L)
    bmoves = _path_moves(bw, meet, code, bits, L)
    return fmoves + _invert_sequence(_raw_of(s2), bmoves), states


def _path_moves(parents: dict, key: bytes, code: str, bits, max_len) -> list[Move]:
    """Raw moves along the search path from the root of ``parents`` to ``key``."""
    keys = [key]
    while parents[keys[-1]] is not None:
        keys.append(parents[keys[-1]])
    path = [tuple(memoryview(k).cast(code)) for k in reversed(keys)]
    return [m for state, child in zip(path, path[1:])
            for m in _step_moves(state, child, bits, max_len)]


def is_null(loop: Chain, budget: SearchBudget | None = None) -> HomotopyVerdict:
    """Is a closed chain contractible to its basepoint (relative endpoints)?"""
    if not loop.is_closed():
        raise ValueError("is_null needs a closed chain")
    p = loop.vertices[0]
    return are_homotopic(loop, Chain._trusted(loop.cloud, (p, p), loop.scale), budget)


def is_short(c: Chain, budget: SearchBudget | None = None) -> HomotopyVerdict:
    """Is the chain homotopic to the two-point chain of its endpoints?

    The endpoints must themselves be within the chain's entourage, otherwise
    the two-point chain does not exist and this raises instead of answering.
    """
    x, y = c.endpoints
    if not c.cloud.entourage_bits(c.scale)[x] >> y & 1:
        raise ValueError(f"endpoints {x}, {y} are farther apart than eps="
                         f"{c.scale.epsilon}; the chain [x, y] does not exist")
    return are_homotopic(c, Chain._trusted(c.cloud, (x, y), c.scale), budget)


# ---------------------------------------------------------------------------
# The brute-force oracle
# ---------------------------------------------------------------------------

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
