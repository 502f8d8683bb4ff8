import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epschain import (Chain, PointCloud, RefinementFailure, ScaleFiltration,
                      SearchBudget, build_generalized_path, circle_cloud,
                      crest_gap_check, find_chain, homotopy, interval_cloud,
                      is_short, local_joinability_scan,
                      parallel_lines_cloud, refine_chain, replay,
                      texas_crest_loop, texas_dichotomy,
                      texas_obstruction_report, texas_pair, texas_sample,
                      weakly_chained_probe)
from epschain.chain import _hops_from
from epschain.documents import dumps_doc
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
    for scales in ((math.nan, 0.1), (math.inf, 0.5), (0.5, math.nan)):
        with pytest.raises(ValueError, match="finite"):
            ScaleFiltration(scales)
    # float() would read "0.5" as 0.5 and True as 1.0
    for scales in (("0.5", 0.1), (True, 0.5), (0.5, np.bool_(True))):
        with pytest.raises(TypeError):
            ScaleFiltration(scales)
    assert ScaleFiltration((np.int64(1), np.float32(0.5))).scales == (1.0, 0.5)


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


def test_scan_pair_sampling_is_seeded(monkeypatch):
    from epschain import joinability

    monkeypatch.setattr(joinability, "PAIR_THRESHOLD", 10)
    monkeypatch.setattr(joinability, "SAMPLE_CAP", 6)
    cloud = circle_cloud(40)
    a = local_joinability_scan(cloud, 0.9, 0.5, 0.2, seed=5)
    b = local_joinability_scan(cloud, 0.9, 0.5, 0.2, seed=5)
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


def reference_dichotomy(cloud, n, mprime, delete_segment):
    """The dichotomy as a BFS over the whole cloud's sigma-graph, the deleted
    points banned by a mask."""
    sigma = 1.0 / (mprime * math.pi)
    xi = _locate_exact(cloud, texas_pair(n)[0])
    yi = _locate_exact(cloud, texas_pair(n)[1])
    keep = cloud.points[:, 0] < (mprime - 1) * math.pi
    if delete_segment:
        keep &= np.asarray(cloud.labels) != "segment"
    keep[xi] = keep[yi] = True
    kept = int.from_bytes(np.packbits(keep, bitorder="little").tobytes(), "little")
    hops = _hops_from(cloud.entourage_bits(sigma), xi, len(cloud), ~kept)
    return hops[yi] < 0


def test_dichotomy_matches_the_full_graph_bfs():
    seen = set()
    for n in (2, 3):
        cloud = texas_sample(h=0.05, m_end=7, n=n)
        for mprime in (2, 4, 5):
            for delete_segment in (True, False):
                want = reference_dichotomy(cloud, n, mprime, delete_segment)
                assert texas_dichotomy(cloud, n, mprime,
                                       delete_segment=delete_segment) == want
                seen.add(want)
    assert seen == {True, False}


def test_crest_gap_matches_the_full_matrix_block():
    cloud = texas_sample(h=0.05, m_end=3)
    labels = np.asarray(cloud.labels)
    x = cloud.points[:, 0]
    seen = set()
    for lo, hi in ((1.2 * math.pi, 1.8 * math.pi), (1.8 * math.pi, 2.2 * math.pi)):
        in_win = (x >= lo) & (x <= hi)
        gi = np.flatnonzero(in_win & (labels == "graph"))
        ai = np.flatnonzero(in_win & (labels == "axis"))
        block = cloud.distances()[np.ix_(gi, ai)]
        # the nearest cross pair decides at its own distance and just below it
        nearest = float(block.min())
        for eps in (0.0, 0.5, 1.25, nearest, float(np.nextafter(nearest, 0))):
            want = not bool((block <= eps).any())
            assert crest_gap_check(cloud, eps, window=(lo, hi)) == want
            seen.add(want)
    assert seen == {True, False}


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
    edges = np.argwhere(np.triu(cloud.distances() <= sigma, 1)).tolist()
    # replay the dichotomy cut with a from-scratch BFS over the edge list
    xi = _locate_exact(cloud, texas_pair(2)[0])
    yi = _locate_exact(cloud, texas_pair(2)[1])
    labels = cloud.labels
    threshold = 3 * math.pi  # (mprime - 1) * pi for mprime = 4
    keep = {v for v in range(len(cloud))
            if labels[v] != "segment" and cloud.points[v][0] < threshold}
    keep |= {xi, yi}
    adj = {v: set() for v in keep}
    for i, j in edges:
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


def test_scan_takes_numpy_integer_pairs():
    cloud = parallel_lines_cloud(length=1.0)
    want = dumps_doc(local_joinability_scan(cloud, 0.5, 0.2, 0.05, pairs=[(1, 2)]).to_doc())
    got = local_joinability_scan(cloud, 0.5, 0.2, 0.05, pairs=[(np.int64(1), 2)]).to_doc()
    assert dumps_doc(got) == want


def test_greedy_decided_runs_build_no_skeleton():
    # greedy contraction decides every shortness verdict of these runs, so
    # none of them needs the Rips skeleton or its reduction
    circle = circle_cloud(360)
    assert build_generalized_path(circle, 0, 180, (0.5, 0.25, 0.1)).accepted
    assert circle._rips_cache == {}
    lines = parallel_lines_cloud(length=5)
    assert local_joinability_scan(lines, 0.5, 0.2, 0.05).passed
    assert lines._rips_cache == {}


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_probe_first_candidates_are_find_chains(data):
    # two clusters on a 0.15 grid, more than every sigma apart; eps covers
    # the whole cloud, so every given pair may be checked for shortness
    spot = st.tuples(st.integers(0, 6), st.integers(0, 6))
    left = data.draw(st.lists(spot, min_size=2, max_size=12, unique=True))
    right = data.draw(st.lists(spot, min_size=1, max_size=6, unique=True))
    pts = [(0.15 * x, 0.15 * y) for x, y in left] + \
          [(2.0 + 0.15 * x, 0.15 * y) for x, y in right]
    cloud = PointCloud(points=pts)
    n = len(pts)
    index = st.integers(0, n - 1)
    drawn = data.draw(st.lists(st.tuples(index, index), max_size=16))
    # i == j, i > j, a repeated pair, and a pair split across the clusters
    pairs = drawn + [(0, 0), (1, 0), (0, 1), (0, 1), (0, len(left))]
    sigmas = [0.35, 0.22, 0.16]
    report = weakly_chained_probe(cloud, 10.0, 5.0, sigmas, pairs=pairs)
    records = iter(report.pairs)
    for i, j in pairs:
        for s in sigmas:
            rec = next(records)
            assert (rec.i, rec.j, rec.sigma) == (i, j, s)
            want = find_chain(cloud, i, j, s)
            if want is None:
                assert rec.candidates == ((None, "no_sigma_chain"),)
            else:
                assert rec.candidates[0][0] == want.vertices
    assert next(records, None) is None


def test_hops_from_with_several_stops_agrees_below_the_farthest():
    rng = np.random.default_rng(31)
    cloud = texas_sample(h=0.1, m_end=4.0)
    n = len(cloud)
    for eps in (0.15, 0.3):
        bits = cloud.entourage_bits(eps)
        for _ in range(40):
            src = int(rng.integers(n))
            stops = {int(v) for v in rng.integers(n, size=int(rng.integers(1, 6)))}
            full = _hops_from(bits, src, n)
            part = _hops_from(bits, src, n, stops=stops)
            if any(full[s] < 0 for s in stops):
                assert part == full  # the search ran out of its component
                continue
            farthest = max(full[s] for s in stops)
            for v in range(n):
                if full[v] < farthest or v in stops:
                    assert part[v] == full[v]
                else:
                    assert part[v] in (-1, full[v])


def test_probe_report_bytes_are_pinned():
    # a two-sigma probe whose records include refuted pairs, pairs with
    # alternatives and pairs with no sigma-chain; the digest was taken with
    # one find_chain search per (pair, sigma)
    report = weakly_chained_probe(texas_sample(n=2, h=0.1, m_end=4.0), 0.5, 0.2,
                                  [0.15, 0.12])
    assert report.counts() == {"passed": 494, "refuted": 76, "unknown": 0}
    candidates = [p.candidates for p in report.pairs]
    assert ((None, "no_sigma_chain"),) in candidates
    assert any(len(c) > 1 for c in candidates)
    digest = hashlib.sha256(dumps_doc(report.to_doc()).encode()).hexdigest()[:16]
    assert digest == "3c69b650bac3df09"


def test_a_scan_builds_one_budget_per_chain_length(monkeypatch):
    # a query without a full budget resolves its caps to ints and reuses the
    # budget of the same caps, instead of building and checking a new one
    built = []
    check = SearchBudget.__post_init__

    def counted(budget):
        built.append((budget.max_chain_length, budget.max_states))
        check(budget)

    monkeypatch.setattr(SearchBudget, "__post_init__", counted)
    homotopy._resolved_budget.cache_clear()
    report = local_joinability_scan(parallel_lines_cloud(length=2), 0.5, 0.2, 0.05)
    lengths = {max(len(vs), 2) for p in report.pairs for vs, _ in p.candidates}
    assert len(report.pairs) == 458
    assert 1 <= len(built) <= len(lengths)
    assert len(set(built)) == len(built)
