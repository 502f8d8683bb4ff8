"""The state-only bidirectional search against a move-carrying reference.

``reference_search`` is the search as it was written before it stopped
storing moves: every expansion edge carries the raw moves that realize it,
and the witness is read off the stored edges.  The search under test keeps
parents only and derives the moves along the meeting path, so both must
return the same witness and explore the same number of states.
"""

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epschain import (Chain, Delete, Insert, PointCloud, SearchBudget, apply_move,
                      circle_cloud, collapse, legal_moves, replay)
from epschain.homotopy import _bidir_search, _invert_sequence, _raw_of, _step_moves


def reference_expand(state, bits, max_len):
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


def reference_search(s1, s2, bits, budget):
    fw, bw = {s1: None}, {s2: None}
    fq, bq = deque([s1]), deque([s2])
    states = 2
    meet = s1 if s1 in bw else None
    while meet is None and (fq or bq):
        forward = len(fq) <= len(bq) if (fq and bq) else bool(fq)
        side, queue, other = (fw, fq, bw) if forward else (bw, bq, fw)
        u = queue.popleft()
        for seq, t in reference_expand(u, bits, budget.max_chain_length):
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
    moves = []
    for parents in (fw, bw):
        seq, cur = [], meet
        while parents[cur] is not None:
            cur, step = parents[cur]
            seq[:0] = step
        moves.append(seq)
    return moves[0] + _invert_sequence(_raw_of(s2), moves[1]), states


def assert_same_search(cloud, eps, v1, v2, budget):
    bits = cloud.entourage_bits(eps)
    s1, s2 = collapse(tuple(v1)), collapse(tuple(v2))
    got = _bidir_search(s1, s2, bits, budget)
    assert got == reference_search(s1, s2, bits, budget)
    moves, _ = got
    if moves is not None:
        out = replay(Chain(cloud, _raw_of(s1), eps), moves)
        assert out.vertices == _raw_of(s2)
    return got


def random_walk(rng, bits, start, steps):
    walk = [start]
    for _ in range(steps):
        back = walk[-2] if len(walk) > 1 else walk[-1]
        nbrs = [w for w in range(bits[walk[-1]].bit_length())
                if (bits[walk[-1]] >> w) & 1 and w not in (walk[-1], back)]
        if not nbrs:
            break
        walk.append(nbrs[int(rng.integers(len(nbrs)))])
    return walk


def moved(rng, chain, count):
    for _ in range(count):
        moves = legal_moves(chain)
        if not moves:
            break
        chain = apply_move(chain, moves[int(rng.integers(len(moves)))])
    return chain


def jittered_grid(rng, side=9):
    cells = np.stack(np.meshgrid(np.arange(side), np.arange(side)), -1).reshape(-1, 2)
    return (cells + rng.uniform(-0.3, 0.3, size=cells.shape)) / side


def test_jittered_grids_at_the_search_quantile():
    rng = np.random.default_rng(11)
    budget = SearchBudget(max_chain_length=64, max_states=200_000)
    found = 0
    for _ in range(5):
        cloud = PointCloud(points=jittered_grid(rng))
        vals = np.sort(cloud.distances()[np.triu_indices(len(cloud), 1)])
        q = int(0.12 * len(vals))
        eps = float((vals[q] + vals[q + 1]) / 2)
        bits = cloud.entourage_bits(eps)
        for _ in range(5):
            c1 = Chain(cloud, random_walk(rng, bits, int(rng.integers(len(cloud))), 14), eps)
            c2 = moved(rng, c1, 4)
            moves, _ = assert_same_search(cloud, eps, c1.vertices, c2.vertices, budget)
            assert_same_search(cloud, eps, c2.vertices, c1.vertices, budget)
            found += moves is not None
    assert found >= 20


def test_twelve_gon_both_sides_and_budget_exhaustion():
    cloud = circle_cloud(12)
    eps = 1.01  # neighbours two steps away: the triangles fill a band, not the hole
    chains = [(0, 1, 2, 3, 4, 5, 6), (0, 2, 3, 5, 6), (0, 1, 3, 4, 6), (0, 2, 4, 6)]
    for a in chains:
        for b in chains:
            moves, _ = assert_same_search(cloud, eps, a, b, SearchBudget(12, 50_000))
            assert moves is not None
    # around the hole the search can only run out of room
    cw, ccw = (0, 1, 2, 3, 4, 5, 6), (0, 11, 10, 9, 8, 7, 6)
    for cap in (2, 3, 500, 4000):
        moves, states = assert_same_search(cloud, eps, cw, ccw, SearchBudget(10, cap))
        assert moves is None and states == cap


def test_loops_contracted_to_the_constant_realization():
    cloud = circle_cloud(12)
    loop = tuple(range(0, 12, 2)) + (0,)
    moves, _ = assert_same_search(cloud, 1.8, loop, (0,), SearchBudget(16, 50_000))
    assert moves is not None
    moves, _ = assert_same_search(cloud, 1.8, (0,), loop, SearchBudget(16, 50_000))
    assert moves is not None
    rng = np.random.default_rng(13)
    grid = PointCloud(points=jittered_grid(rng, side=5))
    bits = grid.entourage_bits(0.35)
    for _ in range(6):
        out = random_walk(rng, bits, 12, 3)
        loop = out + out[-2::-1]
        assert_same_search(grid, 0.35, loop, loop[:1], SearchBudget(12, 20_000))


def test_backtrack_delete_collision_takes_the_first_position():
    cloud = PointCloud(points=[(0.0, 0.0), (0.1, 0.0)])
    budget = SearchBudget(8, 1000)
    # deleting position 1, 2 or 3 of a b a b a gives a b a; position 1 wins
    moves, _ = assert_same_search(cloud, 0.5, (0, 1, 0, 1, 0), (0,), budget)
    assert moves[:2] == [Delete(1), Delete(1)]
    moves, _ = assert_same_search(cloud, 0.5, (0,), (0, 1, 0, 1, 0), budget)
    assert moves[-2:] == [Insert(1, 0), Insert(1, 1)]
    assert_same_search(cloud, 0.5, (1, 0, 1, 0, 1, 0, 1), (1, 0, 1), budget)


def test_a_step_that_no_edge_makes_is_an_internal_fault():
    bits = circle_cloud(12).entourage_bits(1.01)
    assert _step_moves((0, 1, 2), (0, 2), bits, 8) == [Delete(1)]
    with pytest.raises(RuntimeError, match="no search edge"):
        _step_moves((0, 1, 2), (0, 3, 2), bits, 8)  # 3 is not a neighbour of 0
    with pytest.raises(RuntimeError, match="no search edge"):
        _step_moves((0, 2), (0, 1, 2), bits, 2)  # the insert would break the length cap


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=3, max_size=10,
                unique=True),
       st.floats(0.2, 1.0), st.integers(0, 2 ** 32 - 1))
def test_random_walks_on_small_lattices(points, q, seed):
    cloud = PointCloud(points=points)
    vals = np.unique(cloud.distances())
    eps = float(vals[int(q * (len(vals) - 1))])
    rng = np.random.default_rng(seed)
    bits = cloud.entourage_bits(eps)
    c1 = Chain(cloud, random_walk(rng, bits, int(rng.integers(len(cloud))), 6), eps)
    c2 = moved(rng, c1, 3)
    budget = SearchBudget(max_chain_length=len(c1) + 4, max_states=3000)
    assert_same_search(cloud, eps, c1.vertices, c2.vertices, budget)


def test_vertex_codes_past_one_byte():
    cloud = circle_cloud(300)
    eps = 2 * np.sin(np.pi * 2.5 / 300)  # neighbours two steps away
    budget = SearchBudget(12, 50_000)
    evens, odds = (250, 252, 254, 256, 258, 260), (250, 251, 253, 255, 257, 259, 260)
    for a, b in ((evens, odds), (odds, evens)):
        moves, _ = assert_same_search(cloud, eps, a, b, budget)
        assert moves is not None
    for cap in (2, 3, 20):
        moves, states = assert_same_search(cloud, eps, evens, odds, SearchBudget(12, cap))
        assert moves is None and states == cap
    loop = (270, 271, 273, 272, 270)
    moves, _ = assert_same_search(cloud, eps, loop, (270,), budget)
    assert moves is not None
    moves, _ = assert_same_search(cloud, eps, (270,), loop, budget)
    assert moves is not None


def test_vertex_codes_past_two_bytes():
    # a small lattice relabelled to ids >= 2 ** 16; only the search needs bits
    cloud = PointCloud(points=[(x, y) for x in range(3) for y in range(3)])
    offset = 1 << 16
    bits = [0] * offset + [b << offset for b in cloud.entourage_bits(1.5)]
    budget = SearchBudget(10, 5000)
    for c1, c2 in (((0, 4, 8), (0, 1, 2, 5, 8)), ((0, 4, 8, 4, 0), (0,)), ((0,), (0, 1, 4, 0))):
        s1 = collapse(tuple(v + offset for v in c1))
        s2 = collapse(tuple(v + offset for v in c2))
        got = _bidir_search(s1, s2, bits, budget)
        assert got == reference_search(s1, s2, bits, budget)
        assert got[0] is not None


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=3, max_size=10,
                unique=True),
       st.floats(0.2, 1.0), st.integers(0, 2 ** 32 - 1))
def test_random_walks_on_small_lattices_past_one_byte(points, q, seed):
    # the lattice property with its points after 256 isolated padding points
    vals = np.unique(PointCloud(points=points).distances())
    eps = float(vals[int(q * (len(vals) - 1))])
    pad = [(100.0 + 10.0 * k, 100.0) for k in range(256)]
    cloud = PointCloud(points=pad + list(points))
    rng = np.random.default_rng(seed)
    bits = cloud.entourage_bits(eps)
    start = 256 + int(rng.integers(len(points)))
    c1 = Chain(cloud, random_walk(rng, bits, start, 6), eps)
    c2 = moved(rng, c1, 3)
    budget = SearchBudget(max_chain_length=len(c1) + 4, max_states=3000)
    assert_same_search(cloud, eps, c1.vertices, c2.vertices, budget)
