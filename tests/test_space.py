import math

import numpy as np
import pytest

from epschain import (PointCloud, Scale, SpaceSpec, circle_cloud, crest_height,
                      generate, interval_cloud, load_cloud, parallel_lines_cloud,
                      save_cloud, texas_pair, texas_sample)
from epschain.documents import DocumentError
from util import random_cloud, random_scale


def test_distance_3_4_5():
    cloud = PointCloud(points=[(0.0, 0.0), (3.0, 4.0)])
    assert cloud.distance(0, 1) == 5.0


def test_distance_is_zero_on_diagonal():
    rng = np.random.default_rng(1)
    cloud = random_cloud(rng)
    for i in range(len(cloud)):
        assert cloud.distance(i, i) == 0.0


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
    assert cloud.in_entourage(0, 1, 0.5)
    cloud2 = PointCloud(matrix=[[0.0, 0.5001], [0.5001, 0.0]])
    assert not cloud2.in_entourage(0, 1, 0.5)


def test_entourage_zero_distance():
    cloud = PointCloud(points=[(1.0, 1.0), (1.0, 1.0)])
    assert cloud.in_entourage(0, 1, 0.0)


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
    spec = SpaceSpec("texas_circle", {"h": 0.1, "m_end": 4.0},
                     must_include=texas_pair(2))
    a, b = generate(spec), generate(spec)
    assert np.array_equal(a.points, b.points)
    assert a.labels == b.labels


def test_generate_validation():
    with pytest.raises(ValueError):
        SpaceSpec("klein_bottle")
    with pytest.raises(ValueError):
        generate(SpaceSpec("texas_circle", {"h": -0.1}))
    with pytest.raises(ValueError):
        generate(SpaceSpec("texas_circle", {"m_end": 1.0}))
    with pytest.raises(ValueError):
        generate(SpaceSpec("parallel_lines", {"step": 0.0}))


def test_scale_validation():
    with pytest.raises(ValueError):
        Scale(-0.5)
    with pytest.raises(ValueError):
        Scale(float("nan"))
    assert Scale(0.0).epsilon == 0.0


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


def test_empty_cloud_roundtrip():
    cloud = PointCloud(points=[], name="empty")
    assert len(cloud) == 0
    back = load_cloud(save_cloud(cloud))
    assert len(back) == 0


def test_label_part_invariant():
    with pytest.raises(ValueError):
        PointCloud(points=[(0.0, 0.0)], labels=["left"], parts=("right",))


def test_entourage_symmetry_and_monotonicity():
    rng = np.random.default_rng(7)
    for _ in range(300):
        cloud = random_cloud(rng)
        e1 = random_scale(rng, cloud)
        e2 = e1 * float(rng.uniform(1.0, 2.0))
        i = int(rng.integers(len(cloud)))
        j = int(rng.integers(len(cloud)))
        assert cloud.in_entourage(i, j, e1) == cloud.in_entourage(j, i, e1)
        assert set(cloud.neighbors(i, e1)) <= set(cloud.neighbors(i, e2))


def test_spec_rejects_input_the_family_ignores():
    with pytest.raises(ValueError, match="'circle'"):
        SpaceSpec("circle", must_include=texas_pair(2))
    with pytest.raises(ValueError, match="'circle'"):
        SpaceSpec("circle", {"h": 0.1})
    with pytest.raises(ValueError, match="'texas_circle'"):
        SpaceSpec("texas_circle", {"n": 5})
