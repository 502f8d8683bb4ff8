import math

import numpy as np
import pytest

from epschain import (Chain, PointCloud, RefinementFailure, ScaleFiltration,
                      build_generalized_path, circle_cloud, crest_gap_check,
                      export_neighborhood_graph, halving_filtration,
                      interval_cloud, is_short, local_joinability_scan,
                      parallel_lines_cloud, refine_chain, replay,
                      texas_crest_loop, texas_dichotomy,
                      texas_obstruction_report, texas_pair, texas_sample,
                      weakly_chained_probe)
from epschain.joinability import _locate_exact


def lshape_cloud():
    """A 2 x 0.5 open rectangle: the only fine route between the two left
    corners runs around three legs; its ladder cells stay open at 0.502."""
    pts = []
    for k in range(33):
        pts.append((k / 16, 0.0))
    for j in range(1, 8):
        pts.append((2.0, j / 16))
    for k in range(33):
        pts.append((2.0 - k / 16, 0.5))
    return PointCloud(points=pts, name="lshape")


def test_filtration_validation():
    with pytest.raises(ValueError):
        ScaleFiltration((0.5,))
    with pytest.raises(ValueError):
        ScaleFiltration((0.25, 0.5))
    with pytest.raises(ValueError):
        ScaleFiltration((0.5, 0.0))
    assert halving_filtration(0.5, 3).scales == (0.5, 0.25, 0.125)


def test_refine_single_hop_on_segment():
    cloud = interval_cloud(length=1.0, step=0.0625)
    hop = Chain(cloud, [0, 10], 0.625)
    fine = refine_chain(hop, 0.625, 0.0625)
    assert fine.vertices == tuple(range(11))
    assert fine.scale.epsilon == 0.0625
    assert is_short(fine.with_scale(0.625)).is_homotopic


def test_refine_single_vertex_chain():
    cloud = interval_cloud(length=1.0, step=0.0625)
    c = Chain(cloud, [3], 0.5)
    out = refine_chain(c, 0.5, 0.1)
    assert out.vertices == (3,)


def test_refine_scale_ordering():
    cloud = interval_cloud(length=1.0, step=0.0625)
    with pytest.raises(ValueError):
        refine_chain(Chain(cloud, [0, 1], 0.5), 0.1, 0.5)


def test_refine_failure_no_fine_chain():
    cloud = circle_cloud(6)
    hop = Chain(cloud, [0, 1], 1.01)
    with pytest.raises(RefinementFailure) as info:
        refine_chain(hop, 1.01, 0.9)  # no edges at all below the chord length
    assert info.value.hop_index == 0
    assert info.value.outcomes == ()


def test_refine_failure_certified_on_lshape():
    cloud = lshape_cloud()
    u, w = 0, len(cloud) - 1
    assert cloud.distance(u, w) == 0.5
    hop = Chain(cloud, [u, w], 0.502)
    with pytest.raises(RefinementFailure) as info:
        refine_chain(hop, 0.502, 0.12)
    exc = info.value
    assert exc.hop_index == 0
    assert len(exc.outcomes) >= 1
    assert all(v.is_not_homotopic for _, v in exc.outcomes)


def test_build_gp_small_circle_accepted():
    cloud = circle_cloud(60)
    gp = build_generalized_path(cloud, 0, 30, (0.6, 0.3, 0.15))
    assert gp.accepted
    assert len(gp.chains) == 3
    assert all(v.is_homotopic for v in gp.compatibility)
    # compatibility witnesses replay: level i+1 -> level i at scale eps_i
    for i, verdict in enumerate(gp.compatibility):
        upper = gp.chains[i + 1].with_scale(gp.filtration[i])
        assert replay(upper, verdict.witness).vertices == gp.chains[i].vertices
    assert gp.shortness_at_coarsest is None  # antipodal pair: check inapplicable


def test_build_gp_same_point_accepted():
    cloud = circle_cloud(60)
    gp = build_generalized_path(cloud, 7, 7, (0.6, 0.3, 0.15))
    assert gp.accepted
    assert all(c.vertices == (7,) for c in gp.chains)
    assert gp.shortness_at_coarsest.is_homotopic


def test_build_gp_disconnected_raises():
    cloud = parallel_lines_cloud(gap=1.0)
    labels = np.asarray(cloud.labels)
    lower = int(np.nonzero(labels == "lower")[0][0])
    upper = int(np.nonzero(labels == "upper")[0][0])
    with pytest.raises(ValueError):
        build_generalized_path(cloud, lower, upper, (0.5, 0.25))


def test_build_gp_shortness_failure_on_lshape():
    cloud = lshape_cloud()
    u, w = 0, len(cloud) - 1
    gp = build_generalized_path(cloud, u, w, (0.502, 0.2, 0.12))
    assert not gp.accepted
    assert gp.failure is not None
    assert gp.failure.kind == "shortness"
    assert gp.failure.level == 1


def test_build_gp_refinement_failure_on_lshape():
    cloud = lshape_cloud()
    u, w = 0, len(cloud) - 1
    gp = build_generalized_path(cloud, u, w, (0.502, 0.5, 0.12))
    assert not gp.accepted
    assert gp.shortness_at_coarsest.is_homotopic  # level 1 is the direct hop
    f = gp.failure
    assert f is not None and f.kind == "refinement"
    assert f.level == 2
    assert all(v.is_not_homotopic for _, v in f.candidate_outcomes)
    doc = gp.to_doc()
    assert doc["accepted"] is False
    assert doc["failure"]["level"] == 2


def test_scan_circle_passes():
    cloud = circle_cloud(60)
    report = local_joinability_scan(cloud, 0.5, 0.25, 0.12)
    assert report.passed
    assert report.counts()["passed"] == len(report.pairs) > 0


def test_scan_parallel_lines_passes_vacuously_across():
    cloud = parallel_lines_cloud(gap=1.0)
    report = local_joinability_scan(cloud, 0.5, 0.2, 0.05)
    assert report.passed
    labels = cloud.labels
    assert all(labels[p.i] == labels[p.j] for p in report.pairs)


def test_scan_texas_pair_fails():
    sigma = 1 / (5 * math.pi)
    cloud = texas_sample(h=sigma / 1.6)
    xi = _locate_exact(cloud, texas_pair(2)[0])
    yi = _locate_exact(cloud, texas_pair(2)[1])
    report = local_joinability_scan(cloud, 0.5, 1 / (2 * math.pi), sigma,
                                    pairs=[(xi, yi)])
    assert not report.passed
    (rec,) = report.pairs
    assert rec.outcome == "refuted"
    assert all(out == "not_homotopic" for _, out in rec.candidates)


def test_scan_parameter_ordering():
    cloud = circle_cloud(12)
    with pytest.raises(ValueError):
        local_joinability_scan(cloud, 0.5, 0.6, 0.05)
    with pytest.raises(ValueError):
        local_joinability_scan(cloud, 0.5, 0.2, 0.2)


def test_scan_pair_sampling_is_seeded():
    cloud = circle_cloud(40)
    a = local_joinability_scan(cloud, 0.9, 0.5, 0.2, seed=5,
                               pair_threshold=10, sample_cap=6)
    b = local_joinability_scan(cloud, 0.9, 0.5, 0.2, seed=5,
                               pair_threshold=10, sample_cap=6)
    assert len(a.pairs) == 6
    assert [(p.i, p.j) for p in a.pairs] == [(p.i, p.j) for p in b.pairs]
    assert a.parameters["pair_policy"] == "seeded_sample_6"
    assert a.to_doc() == b.to_doc()


def test_probe_circle_subset_passes():
    cloud = circle_cloud(60)
    pairs = [(0, 1), (10, 12), (30, 31)]
    report = weakly_chained_probe(cloud, 0.6, 0.3, [0.2, 0.15, 0.12], pairs=pairs)
    assert report.passed
    assert len(report.pairs) == len(pairs) * 3
    assert {p.sigma for p in report.pairs} == {0.2, 0.15, 0.12}


def test_probe_identical_points_pass_all_scales():
    cloud = circle_cloud(60)
    report = weakly_chained_probe(cloud, 0.6, 0.3, [0.2, 0.1], pairs=[(4, 4)])
    assert report.passed


def test_probe_ordering_validation():
    cloud = circle_cloud(12)
    with pytest.raises(ValueError):
        weakly_chained_probe(cloud, 0.5, 0.2, [0.05, 0.1])
    with pytest.raises(ValueError):
        weakly_chained_probe(cloud, 0.5, 0.2, [])


def test_crest_gap_small_sample():
    cloud = texas_sample(h=0.05, m_end=3)
    assert crest_gap_check(cloud, 0.5)
    assert not crest_gap_check(cloud, 1.25)  # max height ~1.2122 < 1.25
    assert crest_gap_check(cloud, 0.0)


def test_dichotomy_small_sample():
    cloud = texas_sample(h=0.05, m_end=6)
    assert texas_dichotomy(cloud, 2, 4)
    assert not texas_dichotomy(cloud, 2, 4, delete_segment=False)
    assert not texas_dichotomy(cloud, 2, 2)  # direct hop survives both deletions


def test_dichotomy_coverage_precondition():
    cloud = texas_sample(h=0.05, m_end=6)
    with pytest.raises(ValueError):
        texas_dichotomy(cloud, 2, 6)
    plain = texas_sample(h=0.05, m_end=6, n=3)
    with pytest.raises(ValueError):
        texas_dichotomy(plain, 2, 4)  # pair at 2*pi not forced into this sample


def test_crest_loop_is_valid_and_closed():
    cloud = texas_sample(h=0.05, m_end=3)
    loop = texas_crest_loop(cloud, 0.5)
    assert loop.is_closed()
    assert loop.is_valid()


def test_exported_edges_recheck_the_dichotomy():
    cloud = texas_sample(h=0.05, m_end=6)
    sigma = 1 / (4 * math.pi)
    doc = export_neighborhood_graph(cloud, sigma)
    assert doc["kind"] == "edge_list"
    assert doc["vertex_count"] == len(cloud)
    # replay the dichotomy cut with a from-scratch BFS over the edge list
    xi = _locate_exact(cloud, texas_pair(2)[0])
    yi = _locate_exact(cloud, texas_pair(2)[1])
    labels = cloud.labels
    threshold = 3 * math.pi  # (mprime - 1) * pi for mprime = 4
    keep = {v for v in range(len(cloud))
            if labels[v] != "segment" and cloud.points[v][0] < threshold}
    keep |= {xi, yi}
    adj = {v: set() for v in keep}
    for i, j in doc["edges"]:
        if i in keep and j in keep:
            adj[i].add(j)
            adj[j].add(i)
    seen, stack = {xi}, [xi]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    assert (yi not in seen) == texas_dichotomy(cloud, 2, 4)


def test_export_writes_document(tmp_path):
    import json

    cloud = circle_cloud(8)
    path = tmp_path / "edges.json"
    doc = export_neighborhood_graph(cloud, 0.8, path)
    assert json.loads(path.read_text()) == doc


def test_obstruction_report_small():
    report = texas_obstruction_report(n=2, mprime=4, h=0.05, eps=0.5, m_end=6)
    assert report["crest_gap"]["holds"]
    assert report["dichotomy"]["holds"]
    assert not report["dichotomy"]["control_with_segment"]
    assert report["refinement"]["accepted"] is False
    assert report["reproduced"]


def test_drifting_refinement_witness_raises_runtime_error(monkeypatch):
    from epschain import joinability

    cloud = interval_cloud(length=1.0, step=0.0625)
    monkeypatch.setattr(joinability, "replay", lambda chain, moves: chain)
    with pytest.raises(RuntimeError, match="drifted"):
        refine_chain(Chain(cloud, [0, 10], 0.625), 0.625, 0.0625)


def test_scan_is_the_single_sigma_probe():
    cloud = circle_cloud(12)
    # neighbours on the 12-gon are 0.518 apart, so no pair is within delta = 0.5
    # on its own; these pairs give a refuted, a passed and a refuted record
    pairs = [(0, 1), (2, 2), (3, 5)]
    doc = local_joinability_scan(cloud, 0.9, 0.5, 0.2, pairs=pairs).to_doc()
    assert doc["kind"] == "joinability_report"
    assert doc["parameters"]["sigma"] == 0.2
    assert "sigmas" not in doc["parameters"]
    assert all("sigma" not in rec for rec in doc["pairs"])
    probe = weakly_chained_probe(cloud, 0.9, 0.5, [0.2], pairs=pairs).to_doc()
    assert probe["pairs"][0]["sigma"] == 0.2

    def key(rec):
        return rec["i"], rec["j"], rec["outcome"], rec["chain"], rec["candidates"]

    assert [key(r) for r in doc["pairs"]] == [key(r) for r in probe["pairs"]]
    assert [r["outcome"] for r in doc["pairs"]] == ["refuted", "passed", "refuted"]
