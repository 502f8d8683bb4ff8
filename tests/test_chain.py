import math

import numpy as np
import pytest

from epschain import (Chain, Delete, Insert, PointCloud, apply_move,
                      chain_from_doc, chain_to_doc, circle_cloud, components,
                      find_chain, legal_moves, parallel_lines_cloud, replay,
                      texas_pair, texas_sample)
from epschain.documents import DocumentError
from util import (brute_force_components, brute_force_shortest_hops,
                  enumerate_shortest_chains, random_cloud, random_scale,
                  random_walk_chain)


def vertical_cloud(*ys):
    return PointCloud(points=[(0.0, y) for y in ys])


def test_validate_examples():
    ok = vertical_cloud(0.0, 0.4, 0.8)
    assert Chain(ok, [0, 1, 2], 0.5).is_valid()
    bad = vertical_cloud(0.0, 0.6)
    assert not Chain(bad, [0, 1], 0.5).is_valid()


def test_validate_texas_pair_hop():
    cloud = texas_sample()
    pts = cloud.points
    x, y = texas_pair(2)
    xi = int(np.nonzero((pts[:, 0] == x[0]) & (pts[:, 1] == x[1]))[0][0])
    yi = int(np.nonzero((pts[:, 0] == y[0]) & (pts[:, 1] == y[1]))[0][0])
    assert Chain(cloud, [xi, yi], 1 / (2 * math.pi)).is_valid()


def test_constructor_errors():
    cloud = vertical_cloud(0.0, 0.1)
    with pytest.raises(ValueError):
        Chain(cloud, [], 0.5)
    with pytest.raises(IndexError):
        Chain(cloud, [0, 7], 0.5)
    # vertices are indices: neither truncated nor parsed
    circle = circle_cloud(12)
    with pytest.raises(TypeError):
        Chain(circle, [0, 1.7, 2], 1.0)
    with pytest.raises(TypeError):
        Chain(circle, ["0", "1"], 1.0)
    assert Chain(circle, np.arange(3), 1.0).vertices == (0, 1, 2)
    # and so are banned vertices: int() would ban vertex 1 for 1.7
    with pytest.raises(TypeError):
        find_chain(circle, 0, 3, 1.0, banned=[1.7])
    assert find_chain(circle, 0, 2, 0.6, banned=[np.int64(1)]).vertices == (0, *range(11, 1, -1))


def test_concat():
    cloud = vertical_cloud(0.0, 0.3, 0.6)
    a = Chain(cloud, [0, 1], 0.5)
    b = Chain(cloud, [1, 2], 0.5)
    assert a.concat(b).vertices == (0, 1, 2)
    with pytest.raises(ValueError):
        b.concat(a.with_scale(0.7))  # scale mismatch
    with pytest.raises(ValueError):
        a.concat(Chain(cloud, [0, 1], 0.5))  # junction mismatch


def test_legal_moves_two_point_cloud():
    cloud = vertical_cloud(0.0, 0.4)
    chain = Chain(cloud, [0, 1], 0.5)
    assert legal_moves(chain) == [Insert(1, 0), Insert(1, 1)]


def test_legal_moves_filled_triangle_delete():
    cloud = PointCloud(points=[(0.0, 0.0), (0.3, 0.0), (0.15, 0.2)])
    chain = Chain(cloud, [0, 1, 2], 0.5)
    assert Delete(1) in legal_moves(chain)


def test_legal_moves_hexagon_delete_illegal():
    cloud = circle_cloud(6)
    chain = Chain(cloud, [0, 1, 2], 1.01)
    moves = legal_moves(chain)
    assert Delete(1) not in moves
    assert cloud.distance(0, 2) > 1.01  # the chord that blocks it


def test_legal_moves_exhaustive_against_brute_force():
    rng = np.random.default_rng(11)
    for _ in range(200):
        cloud = random_cloud(rng, n_min=3, n_max=6)
        eps = random_scale(rng, cloud)
        chain = random_walk_chain(rng, cloud, eps, max_len=5)
        got = set(legal_moves(chain))
        expected = set()
        d = cloud.distances()
        v = chain.vertices
        for pos in range(1, len(v) - 1):
            if d[v[pos - 1], v[pos + 1]] <= eps:
                expected.add(Delete(pos))
        for pos in range(1, len(v)):
            for p in range(len(cloud)):
                if d[p, v[pos - 1]] <= eps and d[p, v[pos]] <= eps:
                    expected.add(Insert(pos, p))
        assert got == expected


def test_apply_insert_then_delete_roundtrip():
    cloud = PointCloud(points=[(0.0, 0.0), (0.3, 0.0), (0.15, 0.2)])
    chain = Chain(cloud, [0, 1], 0.5)
    grown = apply_move(chain, Insert(1, 2))
    assert grown.vertices == (0, 2, 1)
    assert apply_move(grown, Delete(1)) == chain


def test_apply_delete_example():
    cloud = PointCloud(points=[(0.0, 0.0), (0.3, 0.0), (0.15, 0.2)])
    chain = Chain(cloud, [0, 1, 2], 0.5)
    assert apply_move(chain, Delete(1)).vertices == (0, 2)


def test_apply_rejects_illegal_moves():
    cloud = circle_cloud(6)
    chain = Chain(cloud, [0, 1, 2], 1.01)
    with pytest.raises(ValueError):
        apply_move(chain, Delete(1))
    with pytest.raises(ValueError):
        apply_move(chain, Delete(0))
    with pytest.raises(ValueError):
        apply_move(chain, Insert(1, 3))


def test_apply_preserves_validity_and_endpoints():
    rng = np.random.default_rng(23)
    for _ in range(300):
        cloud = random_cloud(rng)
        eps = random_scale(rng, cloud)
        chain = random_walk_chain(rng, cloud, eps, max_len=5)
        moves = legal_moves(chain)
        if not moves:
            continue
        move = moves[int(rng.integers(len(moves)))]
        out = apply_move(chain, move)
        assert out.is_valid()
        assert out.endpoints == chain.endpoints
        assert out.scale == chain.scale


def test_components_parallel_lines():
    cloud = parallel_lines_cloud(gap=1.0)
    assert len(components(cloud, 0.5)) == 2
    assert len(components(cloud, 1.0)) == 1  # closed entourage includes the gap


def test_components_circle_360():
    assert len(components(circle_cloud(360), 0.1)) == 1


def test_components_match_union_find():
    rng = np.random.default_rng(5)
    for _ in range(300):
        cloud = random_cloud(rng)
        eps = random_scale(rng, cloud, lo_q=0.0)
        assert components(cloud, eps) == brute_force_components(cloud, eps)


def test_find_chain_identity():
    cloud = circle_cloud(6)
    assert find_chain(cloud, 2, 2, 0.1).vertices == (2,)


def test_find_chain_takes_numpy_integer_endpoints():
    # rows of 40 and 200 bits: NumPy ints must work with small and with big-int rows
    for n in (40, 200):
        cloud = circle_cloud(n)
        want = find_chain(cloud, 5, 8, 0.5)
        for i, j in ((np.int64(5), 8), (5, np.int64(8)), (np.int32(5), np.int64(8))):
            chain = find_chain(cloud, i, j, 0.5)
            assert chain == want
            assert all(type(v) is int for v in chain.vertices)
    assert find_chain(circle_cloud(6), np.int64(2), 2, 0.1).vertices == (2,)


def test_find_chain_absent_across_lines():
    cloud = parallel_lines_cloud(gap=1.0)
    labels = np.asarray(cloud.labels)
    lower = int(np.nonzero(labels == "lower")[0][0])
    upper = int(np.nonzero(labels == "upper")[0][0])
    assert find_chain(cloud, lower, upper, 0.5) is None


def test_find_chain_hexagon_antipodal():
    chain = find_chain(circle_cloud(6), 0, 3, 1.01)
    assert chain.vertices == (0, 1, 2, 3)  # three hops, lexicographically least


def test_find_chain_minimal_and_lexicographic():
    rng = np.random.default_rng(17)
    checked = 0
    while checked < 120:
        cloud = random_cloud(rng, n_min=3, n_max=7)
        eps = random_scale(rng, cloud)
        i = int(rng.integers(len(cloud)))
        j = int(rng.integers(len(cloud)))
        hops = brute_force_shortest_hops(cloud, i, j, eps)
        chain = find_chain(cloud, i, j, eps)
        if hops is None:
            assert chain is None
            continue
        assert chain.is_valid()
        assert len(chain) == hops + 1
        best = min(enumerate_shortest_chains(cloud, i, j, eps, hops))
        assert chain.vertices == best
        checked += 1


def test_find_chain_early_stop_keeps_the_walk():
    # find_chain stops its search once i is labelled; the lexicographic walk
    # over full hop counts must give the same chain
    from epschain.chain import _hops_from

    rng = np.random.default_rng(29)
    cloud = texas_sample(h=0.1, m_end=4.0)
    n = len(cloud)
    for eps in (0.15, 0.3):
        bits = cloud.entourage_bits(eps)
        for _ in range(40):
            i, j = (int(v) for v in rng.integers(n, size=2))
            banned = [int(v) for v in rng.integers(n, size=3) if v != i and v != j]
            mask = sum(1 << b for b in set(banned))
            dist = _hops_from(bits, j, n, mask)
            chain = find_chain(cloud, i, j, eps, banned=banned)
            if dist[i] < 0:
                assert chain is None
                continue
            walk = [i]
            while walk[-1] != j:
                cur = walk[-1]
                walk.append(min(w for w in range(n) if w != cur and not (mask >> w) & 1
                                and (bits[cur] >> w) & 1 and dist[w] == dist[cur] - 1))
            assert chain.vertices == tuple(walk)


def test_chain_valid_at_coarser_scale():
    rng = np.random.default_rng(29)
    for _ in range(200):
        cloud = random_cloud(rng)
        eps = random_scale(rng, cloud)
        chain = random_walk_chain(rng, cloud, eps)
        assert chain.with_scale(eps * float(rng.uniform(1.0, 3.0))).is_valid()


def test_chain_document_roundtrip():
    cloud = circle_cloud(8)
    chain = Chain(cloud, [0, 1, 2], 0.9)
    doc = chain_to_doc(chain)
    assert chain_from_doc(doc, cloud) == chain
    other = circle_cloud(8)
    other.name = "other_space"
    with pytest.raises(DocumentError):
        chain_from_doc(doc, other)


@pytest.mark.parametrize("move, error", [
    (Delete(0), ValueError), (Delete(2), ValueError),  # not interior
    (Delete(1), ValueError),  # d(0, 2) > eps: deleting breaks the chain
    (Insert(0, 1), ValueError), (Insert(3, 1), ValueError),  # no such gap
    (Insert(1, 6), IndexError), (Insert(1, -1), IndexError),  # no such vertex
    (Insert(1, 3), ValueError),  # vertex 3 is too far from both sides
    (Insert(1, 5), ValueError), (Insert(2, 3), ValueError),  # too far from one side
    ("delete 1", TypeError),  # not a move
])
def test_replay_rejects_what_apply_move_rejects(move, error):
    cloud = circle_cloud(6)
    chain = Chain(cloud, [0, 1, 2], 1.01)
    with pytest.raises(error) as applied:
        apply_move(chain, move)
    with pytest.raises(error) as replayed:
        replay(chain, [move])
    assert str(replayed.value) == str(applied.value)
    # the same move after a legal step that leaves the chain as it was
    with pytest.raises(error):
        replay(chain, [Insert(1, 1), Delete(1), move])


def test_legality_holds_at_the_closed_boundary():
    cloud = PointCloud(points=[(0.0, 0.0), (0.3, 0.7), (0.1, 0.2)])
    d01 = cloud.distance(0, 1)
    below = float(np.nextafter(d01, 0))
    assert Chain(cloud, [0, 1], d01).is_valid()
    assert not Chain(cloud, [0, 1], below).is_valid()
    # deleting 2 from [0, 2, 1] leaves the hop 0-1
    assert replay(Chain(cloud, [0, 2, 1], d01), [Delete(1)]).vertices == (0, 1)
    with pytest.raises(ValueError, match="break"):
        replay(Chain(cloud, [0, 2, 1], below), [Delete(1)])
