import math
import os
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epschain import (Chain, PointCloud, Scale, as_scale, build, circle_cloud, components,
                      crest_height, generate, interval_cloud, load_cloud,
                      parallel_lines_cloud, save_cloud, texas_circle_cloud, texas_pair,
                      texas_sample)
from epschain import space
from epschain.documents import DocumentError
from epschain.joinability import _delta_pairs
from epschain.rips import RipsSkeleton
from epschain.space import _DIST_ROWS
from util import random_cloud, random_scale


def test_distance_3_4_5():
    cloud = PointCloud(points=[(0.0, 0.0), (3.0, 4.0)])
    assert cloud.distance(0, 1) == 5.0


def test_distance_is_zero_on_diagonal():
    rng = np.random.default_rng(1)
    cloud = random_cloud(rng)
    for i in range(len(cloud)):
        assert cloud.distance(i, i) == 0.0


def test_distances_equal_the_broadcast_formula_bitwise():
    # distances() works in row blocks to save memory; every float must stay
    # the one the (n, n, 2) broadcast gives, or thresholds at eps could flip
    rng = np.random.default_rng(3)
    clouds = [texas_sample(h=0.1), circle_cloud(97), PointCloud(points=np.zeros((0, 2)))]
    clouds += [PointCloud(points=rng.normal(size=(60, 2)) * 10.0 ** rng.uniform(-6, 6, (60, 1)))
               for _ in range(4)]
    # sizes on both sides of a row block's edge
    b = _DIST_ROWS
    clouds += [PointCloud(points=rng.uniform(-5, 5, size=(n, 2)))
               for n in (0, 1, b - 1, b, b + 1, 2 * b + 3)]
    for cloud in clouds:
        p = cloud.points
        want = np.sqrt(((p[:, None, :] - p[None, :, :]) ** 2).sum(-1))
        np.fill_diagonal(want, 0.0)
        assert cloud.distances().tobytes() == want.tobytes()


def test_distance_index_error():
    cloud = PointCloud(points=[(0.0, 0.0)])
    with pytest.raises(IndexError):
        cloud.distance(0, 1)


def test_texas_pair_distance():
    cloud = texas_sample()
    x, y = texas_pair(2)
    pts = cloud.points
    xi = int(np.nonzero((pts[:, 0] == x[0]) & (pts[:, 1] == x[1]))[0][0])
    yi = int(np.nonzero((pts[:, 0] == y[0]) & (pts[:, 1] == y[1]))[0][0])
    assert cloud.distance(xi, yi) == pytest.approx(1 / (2 * math.pi), abs=1e-15)


def test_entourage_is_closed():
    cloud = PointCloud(matrix=[[0.0, 0.5], [0.5, 0.0]])
    assert cloud.neighbors(0, 0.5) == [1]
    cloud2 = PointCloud(matrix=[[0.0, 0.5001], [0.5001, 0.0]])
    assert cloud2.neighbors(0, 0.5) == []


def test_entourage_zero_distance():
    cloud = PointCloud(points=[(1.0, 1.0), (1.0, 1.0)])
    assert cloud.neighbors(0, 0.0) == [1]


def test_neighbors_isolated_and_trio():
    cloud = PointCloud(points=[(0.0, 0.0), (0.1, 0.0), (0.0, 0.1), (50.0, 50.0)])
    assert cloud.neighbors(3, 1.0) == []
    assert cloud.neighbors(0, 1.0) == [1, 2]
    assert cloud.neighbors(1, 1.0) == [0, 2]


def test_neighbors_hexagon_adjacent_only():
    cloud = circle_cloud(6)
    # independent check: chord arithmetic over all pairs
    for i in range(6):
        expected = sorted(j for j in range(6) if j != i
                          and cloud.distance(i, j) <= 1.01)
        assert cloud.neighbors(i, 1.01) == expected
    assert cloud.neighbors(0, 1.01) == [1, 5]
    assert cloud.distance(0, 1) == pytest.approx(1.0, rel=1e-12)
    assert cloud.distance(0, 2) == pytest.approx(math.sqrt(3), rel=1e-12)


def test_generate_circle_n6():
    cloud = circle_cloud(6)
    assert len(cloud) == 6
    for i in range(6):
        assert cloud.distance(i, (i + 1) % 6) == pytest.approx(1.0, rel=1e-12)


def test_texas_crest_height():
    cloud = texas_sample(h=0.05, m_end=8)
    labels = np.asarray(cloud.labels)
    graph_pts = cloud.points[labels == "graph"]
    # independent evaluation of the curve on the same grid
    expected = np.max(np.sin(graph_pts[:, 0]) ** 2 + 1 / graph_pts[:, 0])
    assert graph_pts[:, 1].max() == pytest.approx(expected, abs=0)
    assert graph_pts[:, 1].max() == pytest.approx(1 + 2 / (3 * math.pi), abs=1e-3)


def test_texas_sample_structure():
    cloud = texas_sample(h=0.05, m_end=8)
    assert cloud.parts == ("graph", "axis", "segment")
    assert len(cloud) == 888
    # (pi, 0) belongs to the axis part only: no duplicate coordinates
    coords = {(p[0], p[1]) for p in cloud.points}
    assert len(coords) == len(cloud)


def test_parallel_lines_gap_exceeds_eps():
    cloud = parallel_lines_cloud(gap=1.0)
    labels = np.asarray(cloud.labels)
    lower = cloud.points[labels == "lower"]
    upper = cloud.points[labels == "upper"]
    d = np.sqrt(((lower[:, None, :] - upper[None, :, :]) ** 2).sum(-1))
    assert d.min() == 1.0  # never within eps = 0.5


def test_must_include_verbatim():
    x, y = texas_pair(2)
    cloud = texas_sample(n=2)
    pts = cloud.points
    assert ((pts[:, 0] == x[0]) & (pts[:, 1] == x[1])).any()
    assert ((pts[:, 0] == y[0]) & (pts[:, 1] == y[1])).any()
    # nearest-part labeling
    xi = int(np.nonzero((pts[:, 0] == x[0]) & (pts[:, 1] == x[1]))[0][0])
    yi = int(np.nonzero((pts[:, 0] == y[0]) & (pts[:, 1] == y[1]))[0][0])
    assert cloud.labels[xi] == "graph"
    assert cloud.labels[yi] == "axis"


def test_generate_deterministic():
    args = ("texas_circle", {"h": 0.1, "m_end": 4.0}, texas_pair(2))
    a, b = generate(*args), generate(*args)
    assert np.array_equal(a.points, b.points)
    assert a.labels == b.labels


def test_generate_validation():
    with pytest.raises(ValueError):
        generate("klein_bottle")
    with pytest.raises(ValueError):
        generate("texas_circle", {"h": -0.1})
    with pytest.raises(ValueError):
        generate("texas_circle", {"m_end": 1.0})
    with pytest.raises(ValueError):
        generate("parallel_lines", {"step": 0.0})
    # int() would truncate 2.7 to a 2-point circle, and 2.5*pi is no crest pair
    with pytest.raises(TypeError):
        circle_cloud(2.7)
    with pytest.raises(TypeError):
        texas_pair(2.5)
    assert len(circle_cloud(np.int64(5))) == 5
    assert texas_pair(np.int32(2)) == texas_pair(2)


def test_scale_validation():
    with pytest.raises(ValueError):
        Scale(-0.5)
    with pytest.raises(ValueError):
        Scale(float("nan"))
    assert Scale(0.0).epsilon == 0.0
    # float() would read "0.5" as 0.5 and True as 1.0
    cloud = circle_cloud(6)
    for eps in ("0.5", True, np.bool_(True)):
        with pytest.raises(TypeError):
            Scale(eps)
        with pytest.raises(TypeError):
            as_scale(eps)
    with pytest.raises(TypeError):
        build(cloud, "1.1")
    with pytest.raises(TypeError):
        Chain(cloud, [0, 1], "1.5")
    for eps in (np.float32(0.5), np.int64(1)):
        assert as_scale(eps).epsilon == float(eps)
        assert type(Scale(eps).epsilon) is float


def test_save_load_roundtrip(tmp_path):
    for cloud in (texas_sample(h=0.2, m_end=3), circle_cloud(17),
                  PointCloud(matrix=[[0.0, 1.0], [1.0, 0.0]], name="pair")):
        path = tmp_path / f"{cloud.name or 'm'}.json"
        save_cloud(cloud, path)
        back = load_cloud(path)
        if cloud.points is not None:
            assert np.array_equal(back.points, cloud.points)
        else:
            assert np.array_equal(back.matrix, cloud.matrix)
        assert back.labels == cloud.labels
        assert back.parts == cloud.parts
        assert back.name == cloud.name


def test_save_load_from_text():
    cloud = circle_cloud(5)
    text = save_cloud(cloud)
    back = load_cloud(text)
    assert np.array_equal(back.points, cloud.points)


def test_load_rejects_asymmetric_matrix():
    with pytest.raises((DocumentError, ValueError)):
        load_cloud('{"kind": "point_cloud", "schema_version": 1, "name": "bad", '
                   '"matrix": [[0.0, 1.0], [2.0, 0.0]]}')


def test_matrix_triangle_inequality_checked():
    with pytest.raises(ValueError):
        PointCloud(matrix=[[0, 1, 3], [1, 0, 1], [3, 1, 0]])


def test_triangle_slack_is_relative_to_the_legs():
    # d(0, 2) = 3 > 1 + 1 breaks the inequality at every scale
    for scale in (1e-12, 1e-6, 1.0, 1e9):
        with pytest.raises(ValueError, match="triangle inequality"):
            PointCloud(matrix=scale * np.array([[0, 1, 3], [1, 0, 1], [3, 1, 0]]))
    # a rounding-sized excess is forgiven at every scale
    for scale in (1e-12, 1.0, 1e9):
        over = np.nextafter(2 * scale, np.inf)
        PointCloud(matrix=[[0, scale, over], [scale, 0, scale], [over, scale, 0]])
        eps = 2 * scale * (1 + 1e-12)
        PointCloud(matrix=[[0, scale, eps], [scale, 0, scale], [eps, scale, 0]])


@pytest.mark.parametrize("n", [40, 50])
def test_triangle_check_reaches_the_last_row_block_and_tile_edges(n):
    # all distances 2, except d(a, b) = 3 with legs of 1 via the points in
    # ks: the only violations, at the edges of 16-point tiles
    for a, b in ((n - 2, n - 1), (n - 1, 0)):
        for ks in ((15,), (16,), (31,), (32,), (n - 3,), (32, 16)):
            mat = np.full((n, n), 2.0)
            np.fill_diagonal(mat, 0.0)
            mat[a, b] = mat[b, a] = 3.0
            for k in ks:
                mat[a, k] = mat[k, a] = mat[k, b] = mat[b, k] = 1.0
            with pytest.raises(ValueError, match=f"via point {min(ks)}$"):
                PointCloud(matrix=mat)
            mat[a, b] = mat[b, a] = 2.0
            PointCloud(matrix=mat)


def test_empty_cloud_roundtrip():
    cloud = PointCloud(points=[], name="empty")
    assert len(cloud) == 0
    assert cloud.entourage_bits(1.0) == [] and components(cloud, 1.0) == []
    back = load_cloud(save_cloud(cloud))
    assert len(back) == 0


def test_label_part_invariant():
    with pytest.raises(ValueError):
        PointCloud(points=[(0.0, 0.0)], labels=["left"], parts=("right",))


def test_coordinates_distances_and_names_must_have_their_types():
    # converting with dtype=float would read "1" as 1.0 and True as 1.0, and
    # str() would read the label 1 as "1"; a row that mixes booleans with
    # numbers makes a float array, so only its elements show the booleans
    for points in ([["0", "0"], ["1", "0"]], [[True, False], [False, False]],
                   [[None, 0.0], [1.0, 0.0]], [[True, 1.5], [0, 0]],
                   [np.array([0.5, 1.5]), np.array([np.True_, np.False_])]):
        with pytest.raises(TypeError):
            PointCloud(points=points)
    for matrix in ([["0", "1"], ["1", "0"]], [[False, True], [True, False]],
                   [[0, True], [1, 0]]):
        with pytest.raises(TypeError):
            PointCloud(matrix=matrix)
    pair = [[0.0, 0.0], [1.0, 0.0]]
    with pytest.raises(TypeError):
        PointCloud(points=pair, labels=[1, 2])
    with pytest.raises(TypeError):
        PointCloud(points=pair, labels=["a", "b"], parts=["a", "b", 3])
    for points in ([[0, 0], [1, 0]], np.array([[0, 0], [1, 0]], dtype=np.int32),
                   np.array(pair, dtype=np.float32)):
        cloud = PointCloud(points=points, labels=np.array(["a", "b"]))
        assert cloud.points.dtype == np.float64
        assert cloud.points.tolist() == pair
        assert cloud.labels == ("a", "b") and type(cloud.labels[0]) is str
    assert PointCloud(matrix=[[0, 1], [1, 0]]).distance(0, 1) == 1.0
    with pytest.raises(DocumentError):
        load_cloud('{"schema_version": 1, "kind": "point_cloud", '
                   '"points": [[true, false], [false, false]]}')


def test_entourage_symmetry_and_monotonicity():
    rng = np.random.default_rng(7)
    for _ in range(300):
        cloud = random_cloud(rng)
        e1 = random_scale(rng, cloud)
        e2 = e1 * float(rng.uniform(1.0, 2.0))
        i = int(rng.integers(len(cloud)))
        j = int(rng.integers(len(cloud)))
        assert (j in cloud.neighbors(i, e1)) == (i in cloud.neighbors(j, e1))
        assert set(cloud.neighbors(i, e1)) <= set(cloud.neighbors(i, e2))


def test_spec_rejects_input_the_family_ignores():
    with pytest.raises(ValueError, match="'circle'"):
        generate("circle", must_include=texas_pair(2))
    with pytest.raises(ValueError, match="'circle'"):
        generate("circle", {"h": 0.1})
    with pytest.raises(ValueError, match="'texas_circle'"):
        generate("texas_circle", {"n": 5})


def test_sampler_parameters_must_be_numbers():
    # float() would read "0.5" as 0.5 and True as 1.0
    for make in (lambda: parallel_lines_cloud(gap="0.5"),
                 lambda: parallel_lines_cloud(step=True),
                 lambda: parallel_lines_cloud(length=np.bool_(True)),
                 lambda: interval_cloud(length="2"),
                 lambda: interval_cloud(step=b"1"),
                 lambda: texas_circle_cloud(h="0.1", m_end=4),
                 lambda: texas_circle_cloud(h_segment=True),
                 lambda: texas_circle_cloud(m_end="4"),
                 lambda: generate("interval", {"length": "2"}),
                 lambda: generate("parallel_lines", {"gap": True}),
                 lambda: texas_sample(h="0.1"),
                 lambda: texas_circle_cloud(must_include=[("3.5", 0.0)]),
                 lambda: parallel_lines_cloud(must_include=[(0.5, True)]),
                 lambda: generate("texas_circle", must_include=[(np.bool_(True), 0.0)])):
        with pytest.raises(TypeError):
            make()
    # NumPy and integer numbers still pass, and give the same sample
    assert np.array_equal(interval_cloud(length=np.float32(2), step=np.int64(1)).points,
                          interval_cloud(length=2.0, step=1.0).points)


def test_samplers_count_their_points_against_the_cap(monkeypatch):
    # the count is taken from the parameters, must_include points included;
    # a small cap keeps a broken check from laying out many points here
    monkeypatch.setattr(space, "MAX_POINTS", 41)
    assert len(interval_cloud(length=2)) == 41
    with pytest.raises(ValueError, match="more than 41 points"):
        interval_cloud(length=2.1)
    monkeypatch.setattr(space, "MAX_POINTS", 252)
    assert len(parallel_lines_cloud(gap=0.5)) == 252
    with pytest.raises(ValueError):
        parallel_lines_cloud(gap=0.5, must_include=[(0.01, 0.02)])
    assert len(circle_cloud(252)) == 252
    with pytest.raises(ValueError):
        circle_cloud(253)
    # 95 curve, 95 axis and 4 segment points, one of them twice: the cap
    # counts the grid before duplicates are dropped
    monkeypatch.setattr(space, "MAX_POINTS", 194)
    assert len(texas_circle_cloud(h=0.1, m_end=4)) == 193
    with pytest.raises(ValueError):
        texas_sample(h=0.1, m_end=4)


_CAPPED_CALLS = """
from epschain import space
calls = ["interval_cloud(step=1e-8)", "interval_cloud(length=1e308, step=1e-308)",
         "parallel_lines_cloud(step=1e-7)", "texas_circle_cloud(h=1e-300)",
         "texas_circle_cloud(h_segment=1e-9)", "circle_cloud(10**6 + 1)",
         "generate('interval', {'step': 1e-8})"]
for call in calls:
    try:
        eval("space." + call)
    except ValueError as exc:
        print(call, "->", exc)
"""


def _run_memory_capped(*args):
    # under a 512 MB address-space cap, a sampler that laid out 10^7 points
    # or more would end in MemoryError instead of taking the host's memory
    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (512 * 2**20, 512 * 2**20))

    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-c", *args], env=env, preexec_fn=cap_memory,
                          capture_output=True, text=True, timeout=60)


def test_samplers_refuse_more_than_max_points():
    run = _run_memory_capped(_CAPPED_CALLS)
    assert run.returncode == 0, run.stderr
    assert run.stdout.count("-> the sample would have more than 1000000 points") == 7


def test_generate_above_the_point_cap_exits_2_before_it_allocates():
    # without the cap this run exits 4 with MemoryError
    run = _run_memory_capped("from epschain.cli import main; main()",
                             "generate", "--family", "interval", "--step", "1e-8")
    assert run.returncode == 2, run.stderr
    assert "more than 1000000 points" in run.stderr


def test_rounding_decides_the_pairs_the_list_keeps():
    # step = sigma puts every hop at sigma in exact arithmetic; rounding
    # keeps some hops and drops others, leaving 90 components where exact
    # arithmetic gives 2, and the pair list must keep exactly those hops
    assert len(components(parallel_lines_cloud(step=0.05), 0.05)) == 90


def _bits_from_matrix(d, eps):
    return [int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little")
            for row in d <= eps]


@st.composite
def clouds_with_duplicates(draw):
    # lattice coordinates make tied and zero distances; sizes reach past a
    # row block of the sweep
    coordinate = st.one_of(st.integers(-3, 3).map(float),
                           st.floats(-3, 3, allow_nan=False, allow_infinity=False))
    base = draw(st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=_DIST_ROWS + 6))
    copies = draw(st.lists(st.integers(0, len(base) - 1), max_size=12))
    pts = base + [base[k] for k in copies]
    order = draw(st.permutations(range(len(pts))))
    return PointCloud(points=[pts[k] for k in order])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(clouds_with_duplicates(), st.data())
def test_pair_list_gives_what_the_distance_matrix_gives(cloud, data):
    d = cloud.distances()
    n = len(cloud)
    upper = np.triu_indices(n, 1)
    lengths = np.unique(np.append(d[upper], 0.0))
    # scales on distances, so ties sit at eps, asked in any order, so that
    # lists are both rebuilt and read as prefixes
    scale = st.one_of(st.sampled_from(lengths.tolist()), st.floats(0, 9))
    for eps in data.draw(st.lists(scale, min_size=1, max_size=4)):
        assert cloud.entourage_bits(eps) == _bits_from_matrix(d, eps)
        want = [(i, j, float(d[i, j])) for i, j in zip(*np.nonzero(np.triu(d <= eps, 1)))]
        got, policy = _delta_pairs(cloud, eps, seed=0)
        assert policy == "all"
        assert np.array(got).tobytes() == np.array(want).reshape(-1, 3).tobytes()
        # the sweep's length order is the stable sort of the matrix's lengths
        # of the lexicographic edges, the order the reduction read them in
        skel = RipsSkeleton(cloud, eps)
        ends = np.array(skel.edges, dtype=np.intp).reshape(-1, 2)
        edge_lengths = d[ends[:, 0], ends[:, 1]]
        order = np.argsort(edge_lengths, kind="stable")
        i, j, dist = cloud.close_pairs(eps)
        assert np.array_equal(np.column_stack((i, j)), ends[order])
        assert dist.tobytes() == edge_lengths[order].tobytes()
        # and a matrix cloud, whose pairs are the matrix's own entries
        assert skel._columns() == RipsSkeleton(PointCloud(matrix=d), eps)._columns()
    every = np.array([cloud.distance(i, j) for i in range(n) for j in range(n)])
    assert every.tobytes() == d.tobytes()


def test_entourage_bits_build_no_square_array():
    rng = np.random.default_rng(11)
    n = 3000
    cloud = PointCloud(points=rng.uniform(0.0, 10.0, size=(n, 2)))
    tracemalloc.start()
    try:
        bits = cloud.entourage_bits(0.05)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8 / 4
    assert sum(b.bit_count() for b in bits) == n + 2 * len(cloud.close_pairs(0.05)[0])
