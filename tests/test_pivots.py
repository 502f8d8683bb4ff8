"""The skeleton's pivot reduction against the plain column loop.

``reference_pivots`` enumerates the Rips complex by brute force and reduces
every triangle column in (diameter, lexicographic) order, skipping none.
The skeleton skips the columns its apex test proves zero, so the two must
agree on every pivot, hence on every residue.
"""

import hashlib
import math
import sys

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from epschain import PointCloud, build, circle_cloud, texas_sample


def reference_pivots(cloud, eps) -> dict[int, int]:
    d = cloud.distances()
    n = len(cloud)
    close = d <= eps
    edges = [(i, j) for i, j in np.argwhere(close).tolist() if i < j]
    ei = {e: k for k, e in enumerate(edges)}
    a, b, c = np.ogrid[:n, :n, :n]
    spans = close[:, :, None] & close[:, None, :] & close[None, :, :] & (a < b) & (b < c)
    triangles = [tuple(t) for t in np.argwhere(spans).tolist()]
    order = sorted(triangles, key=lambda t: (max(d[t[0], t[1]], d[t[0], t[2]], d[t[1], t[2]]), t))
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
    return pivots


def assert_same_pivots(cloud, eps):
    # the skeleton stores a column as its edges other than its key
    got = {low: sum(1 << e for e in (low, *p))
           for low, p in build(cloud, eps)._triangle_pivots().items()}
    want = reference_pivots(cloud, eps)
    assert list(got.items()) == list(want.items())


def jittered_grid(rng, side=9):
    cells = np.stack(np.meshgrid(np.arange(side), np.arange(side)), -1).reshape(-1, 2)
    return (cells + rng.uniform(-0.3, 0.3, size=cells.shape)) / side


def test_regular_polygons_with_tied_distances():
    for n in (6, 8, 12, 30, 60):
        cloud = circle_cloud(n)
        chords = np.unique(np.round(cloud.distances()[0, 1:], 12))
        for eps in chords[:5]:
            assert_same_pivots(cloud, float(eps) + 1e-9)


def test_jittered_grids_at_the_search_quantile():
    rng = np.random.default_rng(5)
    for _ in range(6):
        cloud = PointCloud(points=jittered_grid(rng))
        d = cloud.distances()
        vals = np.sort(d[np.triu_indices(len(cloud), 1)])
        q = int(0.12 * len(vals))
        for eps in (float((vals[q] + vals[q + 1]) / 2), float(vals[q])):
            assert_same_pivots(cloud, eps)


def test_integer_distance_matrices_tie_everywhere():
    rng = np.random.default_rng(7)
    for n in (6, 10, 16, 24):
        for lo in (1, 2, 3):
            # entries in [lo, 2*lo] always satisfy the triangle inequality
            m = rng.integers(lo, 2 * lo + 1, size=(n, n)).astype(float)
            m = np.triu(m, 1)
            m = m + m.T
            cloud = PointCloud(matrix=m)
            for eps in range(lo, 2 * lo + 1):
                assert_same_pivots(cloud, eps)
    # the hop metric of a cycle graph: every distance class is large
    n = 14
    hops = np.array([[min(abs(a - b), n - abs(a - b)) for b in range(n)] for a in range(n)],
                    dtype=float)
    for eps in (1, 2, 3, 4):
        assert_same_pivots(PointCloud(matrix=hops), eps)


def test_all_distances_tie():
    # every edge of every triangle is a longest edge
    for n in (5, 6, 7, 8):
        assert_same_pivots(PointCloud(matrix=np.ones((n, n)) - np.eye(n)), 1)


def test_pivot_columns_are_stored_from_their_lowest_bit():
    # a full-width column takes about (highest edge index) / 8 bytes, over
    # 1000 here on average; one stored from its lowest bit spans a few edges
    pivots = build(circle_cloud(1000), 0.1)._triangle_pivots()
    assert len(pivots) == 14000
    assert sum(map(sys.getsizeof, pivots.values())) <= 64 * len(pivots)


def test_small_texas_sample():
    assert_same_pivots(texas_sample(h=0.1, m_end=4.0), 0.5)


def test_coincident_points_make_zero_length_edges():
    # repeated points put a group of edges at length 0, below every other
    pts = [(0, 0), (0, 0), (0, 0), (1, 0), (1, 0), (0, 1), (1, 1), (1, 1)]
    for eps in (0, 1, 1.5):
        assert_same_pivots(PointCloud(points=pts), eps)
    rng = np.random.default_rng(17)
    for _ in range(20):
        cells = rng.integers(0, 4, size=(8, 2))
        cloud = PointCloud(points=np.vstack([cells, cells[rng.integers(0, 8, size=5)]]))
        for eps in np.unique(cloud.distances())[:4]:
            assert_same_pivots(cloud, float(eps))


def test_refinement_sample_pivots_are_pinned():
    # the texas report's refinement sample: every pivot, in insertion order
    cloud = texas_sample(h=(1 / (5 * math.pi)) / 1.6, m_end=8.0, n=2)
    digest = hashlib.sha256()
    for low, col in build(cloud, 0.5)._triangle_pivots().items():
        full = sum(1 << e for e in (low, *col))
        digest.update(low.to_bytes(8, "little"))
        digest.update(full.to_bytes((full.bit_length() + 7) // 8, "little"))
    assert digest.hexdigest()[:16] == "b1a8624921c576d3"


def test_refinement_sample_pivots_cost_their_nonzeros():
    # its pivots hold about three edges each, but span hundreds of edges
    cloud = texas_sample(h=(1 / (5 * math.pi)) / 1.6, m_end=8.0, n=2)
    pivots = build(cloud, 0.5)._triangle_pivots()
    assert sum(map(sys.getsizeof, pivots.values())) <= 64 * len(pivots)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=3, max_size=12,
                unique=True),
       st.floats(0.0, 1.0))
def test_random_lattice_points(points, q):
    # lattice points make tied distances common
    cloud = PointCloud(points=points)
    vals = np.unique(cloud.distances())
    assert_same_pivots(cloud, float(vals[int(q * (len(vals) - 1))]))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.integers(3, 11).flatmap(
           lambda n: st.lists(st.integers(2, 4), min_size=n * (n - 1) // 2,
                              max_size=n * (n - 1) // 2).map(lambda v: (n, v))),
       st.integers(2, 4))
def test_random_integer_matrices(nv, eps):
    n, values = nv
    m = np.zeros((n, n))
    m[np.triu_indices(n, 1)] = values
    assert_same_pivots(PointCloud(matrix=m + m.T), eps)
