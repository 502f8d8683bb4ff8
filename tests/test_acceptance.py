"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Budgets and tolerances are pinned here, not configurable.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

import epschain as ec
from util import brute_force_components, random_cloud, random_loop, random_scale

# generated once; shared by criteria 1 and 2
_DEFAULT_TEXAS = ec.texas_sample(h=0.05, m_end=8, n=2)


@contextmanager
def criterion(number, name, limit_s):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {name}: FAIL ({time.perf_counter() - t0:.1f}s)")
        raise
    dt = time.perf_counter() - t0
    verdict = "PASS" if dt < limit_s else "FAIL (over time limit)"
    print(f"ACCEPTANCE {number} {name}: {verdict} ({dt:.1f}s, limit {limit_s:.0f}s)")
    assert dt < limit_s, f"criterion {number} exceeded {limit_s}s ({dt:.1f}s)"


def test_criterion_1_crest_gap():
    with criterion(1, "crest-gap reproduction", 5.0):
        assert ec.crest_gap_check(_DEFAULT_TEXAS, eps=0.5) is True
        assert ec.crest_gap_check(_DEFAULT_TEXAS, eps=1.25) is False


def test_criterion_2_non_shortness_at_half():
    with criterion(2, "non-shortness at scale 1/2", 10.0):
        loop = ec.texas_crest_loop(_DEFAULT_TEXAS, scale=0.5, n=2)
        assert loop.is_valid()
        verdict = ec.is_null(loop)
        assert verdict.is_not_homotopic
        assert verdict.certificate is not None
        assert not verdict.certificate.is_zero


def test_criterion_3_dichotomy():
    with criterion(3, "two-case dichotomy", 10.0):
        cloud = ec.texas_sample(h=0.02, m_end=8, n=2)
        assert ec.texas_dichotomy(cloud, n=2, mprime=5) is True
        assert ec.texas_dichotomy(cloud, n=2, mprime=5,
                                  delete_segment=False) is False


def test_criterion_4a_circle_refinement_accepted():
    with criterion(4, "refinement schedule on the circle", 30.0):
        cloud = ec.circle_cloud(360)
        gp = ec.build_generalized_path(cloud, 0, 180, (0.5, 0.25, 0.1))
        assert gp.accepted
        assert len(gp.chains) == 3
        assert all(v.is_homotopic for v in gp.compatibility)
        for i, verdict in enumerate(gp.compatibility):
            upper = gp.chains[i + 1].with_scale(gp.filtration[i])
            replayed = ec.replay(upper, verdict.witness)
            assert replayed.vertices == gp.chains[i].vertices


def test_criterion_4b_texas_refinement_fails():
    with criterion(4, "refinement failure on the texas pair", 30.0):
        sigma = 1 / (5 * math.pi)
        # the default step 0.05 leaves the curve disconnected at sigma, so the
        # refinement stage runs on a sample fine enough for the finest scale
        cloud = ec.texas_sample(h=sigma / 1.6, m_end=8, n=2)
        pts = cloud.points
        x, y = ec.texas_pair(2)
        xi = int(np.nonzero((pts[:, 0] == x[0]) & (pts[:, 1] == x[1]))[0][0])
        yi = int(np.nonzero((pts[:, 0] == y[0]) & (pts[:, 1] == y[1]))[0][0])
        gp = ec.build_generalized_path(cloud, xi, yi,
                                       (0.5, 1 / (2 * math.pi), sigma))
        assert not gp.accepted
        assert gp.failure is not None
        assert gp.failure.kind == "refinement"
        assert gp.failure.level == 2
        assert gp.failure.candidate_outcomes  # candidates were found and refuted
        assert all(v.is_not_homotopic for _, v in gp.failure.candidate_outcomes)


def test_criterion_5_oracle_equivalence():
    with criterion(5, "oracle equivalence", 60.0):
        rng = np.random.default_rng(20260810)
        clouds_done = 0
        decided = 0
        checked = 0
        attempts = 0
        while clouds_done < 200 and attempts < 2000:
            attempts += 1
            n = int(rng.integers(3, 11))
            cloud = ec.PointCloud(points=rng.uniform(0, 1, size=(n, 2)))
            d = cloud.distances()
            vals = np.sort(d[np.triu_indices(n, 1)])
            eps = float(vals[int(rng.integers(len(vals) // 4, len(vals)))])
            blocks = [b for b in ec.components(cloud, eps) if len(b) >= 2]
            if not blocks:
                continue
            block = blocks[int(rng.integers(len(blocks)))]
            i, j = sorted(rng.choice(block, size=2, replace=False).tolist())
            shortest = ec.find_chain(cloud, i, j, eps)
            max_len = min(len(shortest) + 2, 6 if n > 7 else 7)
            try:
                classes = ec.oracle_classes(cloud, i, j, eps, max_len,
                                            guard=120_000)
            except RuntimeError:
                continue
            if not classes:
                continue
            lookup = {c: k for k, cls in enumerate(classes) for c in cls}
            reps = [cls[0] for cls in classes[:4]]
            for cls in classes[:2]:
                if len(cls) > 1:
                    reps.append(cls[1])
            if len(reps) < 2:
                continue
            budget = ec.SearchBudget(max_chain_length=max_len, max_states=50_000)
            for a in range(len(reps)):
                for b in range(a + 1, len(reps)):
                    c1 = ec.Chain(cloud, reps[a], eps)
                    c2 = ec.Chain(cloud, reps[b], eps)
                    v = ec.are_homotopic(c1, c2, budget)
                    checked += 1
                    same_class = lookup[reps[a]] == lookup[reps[b]]
                    if v.is_homotopic:
                        assert same_class, (reps[a], reps[b], eps)
                        decided += 1
                    elif v.is_not_homotopic:
                        assert not same_class, (reps[a], reps[b], eps)
                        decided += 1
            clouds_done += 1
        assert clouds_done >= 200
        assert checked >= 200
        assert decided >= checked // 2  # the suite must actually decide things


def _invariant_cases(seed, count, want):
    """Yield ``count`` prepared cases; ``want`` builds one from (rng, cloud, eps)."""
    rng = np.random.default_rng(seed)
    made = 0
    while made < count:
        cloud = random_cloud(rng, n_min=3, n_max=7)
        eps = random_scale(rng, cloud)
        case = want(rng, cloud, eps)
        if case is None:
            continue
        yield case
        made += 1


def test_criterion_6_invariant_suite():
    cases = 1000
    with criterion(6, "invariant suite", 300.0):
        # moves preserve validity, endpoints, and scale
        def moved(rng, cloud, eps):
            from util import random_walk_chain

            chain = random_walk_chain(rng, cloud, eps, max_len=5)
            moves = ec.legal_moves(chain)
            if not moves:
                return None
            return chain, moves[int(rng.integers(len(moves)))]

        for chain, move in _invariant_cases(101, cases, moved):
            out = ec.apply_move(chain, move)
            assert out.is_valid()
            assert out.endpoints == chain.endpoints
            assert out.scale == chain.scale

        # loop classes never change under legal moves
        def looped(rng, cloud, eps):
            loop = random_loop(rng, cloud, eps)
            if loop is None:
                return None
            moves = ec.legal_moves(loop)
            if not moves:
                return None
            return cloud, eps, loop, moves[int(rng.integers(len(moves)))]

        for cloud, eps, loop, move in _invariant_cases(103, cases, looped):
            skel = ec.build(cloud, eps)
            assert (skel.loop_class(ec.apply_move(loop, move)).residue
                    == skel.loop_class(loop).residue)

        # homotopic witnesses replay exactly; constructed-homotopic pairs are
        # never refuted (a refutation would contradict the replayed witness)
        def pair(rng, cloud, eps):
            from util import random_walk_chain

            c1 = random_walk_chain(rng, cloud, eps, max_len=4)
            if len(c1) < 2:
                return None
            c2 = c1
            for _ in range(int(rng.integers(1, 4))):
                moves = ec.legal_moves(c2)
                if not moves:
                    break
                c2 = ec.apply_move(c2, moves[int(rng.integers(len(moves)))])
            return c1, c2

        budget = ec.SearchBudget(max_chain_length=24, max_states=200_000)
        for c1, c2 in _invariant_cases(107, cases, pair):
            v = ec.are_homotopic(c1, c2, budget)
            assert not v.is_not_homotopic  # never both homotopic and refuted
            assert v.is_homotopic
            assert ec.replay(c1, v.witness).vertices == c2.vertices

        # chain validity and homotopy verdicts survive coarsening
        def coarse_case(rng, cloud, eps):
            from util import random_walk_chain

            chain = random_walk_chain(rng, cloud, eps, max_len=5)
            return chain, eps * float(rng.uniform(1.0, 3.0))

        for chain, coarse in _invariant_cases(109, cases, coarse_case):
            assert chain.is_valid()
            assert chain.with_scale(coarse).is_valid()

        for c1, c2 in _invariant_cases(113, cases, pair):
            v = ec.are_homotopic(c1, c2, budget)
            if not v.is_homotopic:
                continue
            coarse = c1.scale.epsilon * 1.5
            out = ec.replay(c1.with_scale(coarse), v.witness)
            assert out.vertices == c2.vertices

        # components agree with plain union-find over all close pairs
        def comp_case(rng, cloud, eps):
            return cloud, eps

        for cloud, eps in _invariant_cases(127, cases, comp_case):
            assert ec.components(cloud, eps) == brute_force_components(cloud, eps)

        # every triangle's boundary of boundaries cancels over GF(2)
        for cloud, eps in _invariant_cases(131, cases, comp_case):
            skel = ec.build(cloud, eps)
            ei = skel.edge_index
            for (i, j, k) in skel.triangles:
                verts = (i, j, i, k, j, k)
                assert all(verts.count(v) % 2 == 0 for v in set(verts))
                # column t of the triangle boundary, as edge indices
                ends = [v for e in (ei[(i, j)], ei[(i, k)], ei[(j, k)]) for v in skel.edges[e]]
                assert all(ends.count(v) % 2 == 0 for v in set(ends))


def test_criterion_7_parallel_lines_contrast():
    with criterion(7, "parallel-lines contrast", 5.0):
        cloud = ec.parallel_lines_cloud(gap=1.0)
        assert len(ec.components(cloud, 0.5)) == 2
        report = ec.local_joinability_scan(cloud, 0.5, 0.2, 0.05)
        assert report.passed
        assert len(report.pairs) > 0
