import math

import numpy as np
import pytest

from epschain import (Chain, PointCloud, apply_move, build, circle_cloud, legal_moves,
                      texas_sample)
from util import random_cloud, random_loop, random_scale


def filled_triangle():
    return PointCloud(points=[(0.0, 0.0), (0.3, 0.0), (0.15, 0.2)])


def test_build_filled_triangle():
    skel = build(filled_triangle(), 0.5)
    assert skel.edges == [(0, 1), (0, 2), (1, 2)]
    assert skel.triangles == [(0, 1, 2)]


def test_build_hexagon_no_triangles():
    cloud = circle_cloud(6)
    skel = build(cloud, 1.01)
    assert len(skel.edges) == 6
    assert skel.triangles == []
    # independent reason: every triple has a pair at distance >= sqrt(3)
    for i in range(6):
        for j in range(i + 1, 6):
            for k in range(j + 1, 6):
                diam = max(cloud.distance(i, j), cloud.distance(i, k),
                           cloud.distance(j, k))
                assert diam >= math.sqrt(3) - 1e-12


def test_texas_crest_window_has_no_cross_edges():
    cloud = texas_sample(h=0.05, m_end=3)
    skel = build(cloud, 0.5)
    labels = cloud.labels
    lo, hi = 1.2 * math.pi, 1.8 * math.pi
    for (i, j) in skel.edges:
        li, lj = labels[i], labels[j]
        if {li, lj} == {"graph", "axis"}:
            xi, xj = cloud.points[i][0], cloud.points[j][0]
            assert not (lo <= xi <= hi and lo <= xj <= hi)


def test_loop_class_triangle_boundary_is_zero():
    cloud = filled_triangle()
    skel = build(cloud, 0.5)
    assert skel.loop_class(Chain(cloud, [0, 1, 2, 0], 0.5)).is_zero


def test_loop_class_hexagon_cycle_is_nonzero():
    cloud = circle_cloud(6)
    skel = build(cloud, 1.01)
    cls = skel.loop_class(Chain(cloud, [0, 1, 2, 3, 4, 5, 0], 1.01))
    assert not cls.is_zero
    assert len(cls.support()) == 6


def test_loop_class_backtrack_cancels():
    cloud = filled_triangle()
    skel = build(cloud, 0.5)
    assert skel.loop_class(Chain(cloud, [0, 1, 0], 0.5)).is_zero


def test_loop_class_requires_closed_chain():
    cloud = filled_triangle()
    skel = build(cloud, 0.5)
    with pytest.raises(ValueError):
        skel.loop_class(Chain(cloud, [0, 1], 0.5))


def test_betti1_examples():
    assert build(filled_triangle(), 0.5).betti1() == 0
    assert build(circle_cloud(6), 1.01).betti1() == 1
    two = np.vstack([circle_cloud(6).points, circle_cloud(6).points + 100.0])
    assert build(PointCloud(points=two), 1.01).betti1() == 2


def test_boundary_squares_to_zero():
    rng = np.random.default_rng(13)
    for _ in range(50):
        cloud = random_cloud(rng)
        skel = build(cloud, random_scale(rng, cloud))
        ei = skel.edge_index
        for (i, j, k) in skel.triangles:
            e1, e2, e3 = ei[(i, j)], ei[(i, k)], ei[(j, k)]
            verts = []
            for e in (e1, e2, e3):
                verts.extend(skel.edges[e])
            # GF(2) sum of the three edge boundaries
            odd = {v for v in set(verts) if verts.count(v) % 2 == 1}
            assert odd == set()


def test_loop_class_is_move_invariant():
    rng = np.random.default_rng(41)
    done = 0
    while done < 300:
        cloud = random_cloud(rng)
        eps = random_scale(rng, cloud)
        loop = random_loop(rng, cloud, eps)
        if loop is None:
            continue
        skel = build(cloud, eps)
        before = skel.loop_class(loop)
        moves = legal_moves(loop)
        if not moves:
            continue
        move = moves[int(rng.integers(len(moves)))]
        after = skel.loop_class(apply_move(loop, move))
        assert after.residue == before.residue
        done += 1


def test_loop_times_inverse_is_zero():
    rng = np.random.default_rng(43)
    done = 0
    while done < 200:
        cloud = random_cloud(rng)
        eps = random_scale(rng, cloud)
        loop = random_loop(rng, cloud, eps)
        if loop is None or len(loop) < 2:
            continue
        skel = build(cloud, eps)
        assert skel.loop_class(loop.concat(Chain(cloud, loop.vertices[::-1], eps))).is_zero
        done += 1


def test_skeleton_monotone_in_scale():
    rng = np.random.default_rng(47)
    for _ in range(200):
        cloud = random_cloud(rng)
        e1 = random_scale(rng, cloud)
        e2 = e1 * float(rng.uniform(1.0, 2.0))
        s1, s2 = build(cloud, e1), build(cloud, e2)
        assert set(s1.edges) <= set(s2.edges)
        assert set(s1.triangles) <= set(s2.triangles)


def test_build_is_cached():
    cloud = circle_cloud(12)
    assert build(cloud, 0.7) is build(cloud, 0.7)
