import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from epschain import (Chain, Delete, PointCloud, SearchBudget, apply_move,
                      are_homotopic, circle_cloud, collapse, components, find_chain,
                      interval_cloud, is_null, is_short, legal_moves, oracle_classes,
                      replay)
from util import random_cloud, random_scale, random_walk_chain


def filled_triangle():
    return PointCloud(points=[(0.0, 0.0), (0.3, 0.0), (0.15, 0.2)])


def test_identical_chains_homotopic_with_empty_witness():
    cloud = circle_cloud(6)
    c = Chain(cloud, [0, 1, 2], 1.01)
    v = are_homotopic(c, c)
    assert v.is_homotopic and v.witness == ()


def test_triangle_contraction_single_delete():
    cloud = filled_triangle()
    v = are_homotopic(Chain(cloud, [0, 1, 2], 0.5), Chain(cloud, [0, 2], 0.5))
    assert v.is_homotopic
    assert v.witness == (Delete(1),)
    assert replay(Chain(cloud, [0, 1, 2], 0.5), v.witness).vertices == (0, 2)


def test_hexagon_cw_ccw_not_homotopic():
    cloud = circle_cloud(6)
    cw = Chain(cloud, [0, 1, 2, 3], 1.01)
    ccw = Chain(cloud, [0, 5, 4, 3], 1.01)
    v = are_homotopic(cw, ccw)
    assert v.is_not_homotopic
    assert not v.certificate.is_zero
    assert len(v.certificate.support()) == 6  # the full hexagon cycle


def test_is_null_small_loop():
    cloud = filled_triangle()
    v = is_null(Chain(cloud, [0, 1, 0], 0.5))
    assert v.is_homotopic
    assert replay(Chain(cloud, [0, 1, 0], 0.5), v.witness).vertices == (0, 0)


def test_is_null_hexagon_cycle_both_scales():
    cloud = circle_cloud(6)
    loop = Chain(cloud, [0, 1, 2, 3, 4, 5, 0], 1.01)
    assert is_null(loop).is_not_homotopic
    v = is_null(loop.with_scale(2.0))
    assert v.is_homotopic  # every triple is bounded at 2.0: cone it off
    assert replay(loop.with_scale(2.0), v.witness).vertices == (0, 0)


def test_is_null_requires_closed_chain():
    cloud = filled_triangle()
    with pytest.raises(ValueError):
        is_null(Chain(cloud, [0, 1], 0.5))


def test_is_short_trivial_hop():
    cloud = filled_triangle()
    v = is_short(Chain(cloud, [0, 1], 0.5))
    assert v.is_homotopic and v.witness == ()


def test_is_short_subdivided_segment():
    cloud = interval_cloud(length=0.625, step=0.0625)
    c = Chain(cloud, range(11), 0.625)
    v = is_short(c)
    assert v.is_homotopic
    assert replay(c, v.witness).vertices == (0, 10)


def test_is_short_rejects_far_endpoints():
    cloud = interval_cloud(length=1.0, step=0.0625)
    with pytest.raises(ValueError):
        is_short(Chain(cloud, range(17), 0.0625))


def test_precondition_errors():
    cloud = circle_cloud(6)
    a = Chain(cloud, [0, 1], 1.01)
    with pytest.raises(ValueError):
        are_homotopic(a, Chain(cloud, [0, 2], 1.8))  # scale mismatch
    with pytest.raises(ValueError):
        are_homotopic(a, Chain(cloud, [0, 5], 1.01))  # endpoint mismatch
    with pytest.raises(ValueError):
        are_homotopic(Chain(cloud, [0, 3], 1.01), Chain(cloud, [0, 3], 1.01))


def test_budget_fields_are_positive_integers():
    for field in ("max_chain_length", "max_states"):
        with pytest.raises(ValueError, match="budget fields must be >= 1"):
            SearchBudget(**{field: 0})
        budget = SearchBudget(**{field: np.int64(7)})
        assert type(getattr(budget, field)) is int
    # a fractional cap is not a length or a state count
    with pytest.raises(TypeError, match="max_states"):
        SearchBudget(max_states=2.5)
    with pytest.raises(TypeError, match="max_chain_length"):
        SearchBudget(max_chain_length=1.5)


def test_unknown_echoes_budget():
    cloud = circle_cloud(6)
    cw = Chain(cloud, [0, 1, 2, 3], 2.0)
    ccw = Chain(cloud, [0, 5, 4, 3], 2.0)
    budget = SearchBudget(max_chain_length=8, max_states=2)
    v = are_homotopic(cw, ccw, budget)
    assert v.is_unknown
    assert v.budget is budget
    assert v.states_explored >= 2
    # with room to search, the same pair is decided homotopic
    roomy = are_homotopic(cw, ccw, SearchBudget(max_chain_length=8, max_states=5000))
    assert roomy.is_homotopic
    assert replay(cw, roomy.witness).vertices == ccw.vertices


def test_single_vertex_realization():
    cloud = circle_cloud(6)
    v = are_homotopic(Chain(cloud, [2], 1.01), Chain(cloud, [2, 2], 1.01))
    assert v.is_homotopic and v.witness == ()


def test_backtrack_collapse_witness():
    cloud = filled_triangle()
    c1 = Chain(cloud, [0, 1, 1, 2], 0.5)  # duplicate interior vertex
    c2 = Chain(cloud, [0, 1, 2], 0.5)
    v = are_homotopic(c1, c2)
    assert v.is_homotopic
    assert replay(c1, v.witness).vertices == (0, 1, 2)


def test_oracle_two_point_cloud_single_class():
    cloud = PointCloud(points=[(0.0, 0.0), (0.3, 0.0)])
    classes = oracle_classes(cloud, 0, 1, 0.5, 4)
    assert len(classes) == 1
    assert (0, 1) in classes[0]
    assert (0, 0, 1, 1) in classes[0]


def test_oracle_filled_triangle_single_class():
    classes = oracle_classes(filled_triangle(), 0, 2, 0.5, 3)
    assert len(classes) == 1


def test_oracle_hexagon_antipodal_two_classes():
    classes = oracle_classes(circle_cloud(6), 0, 3, 1.01, 7)
    assert len(classes) == 2
    sides = sorted(cls[0] for cls in classes)
    assert sides == [(0, 1, 2, 3), (0, 5, 4, 3)]


def test_oracle_guard_fires():
    cloud = circle_cloud(10)
    with pytest.raises(RuntimeError):
        oracle_classes(cloud, 0, 5, 2.0, 12, guard=50)


def test_symmetry_of_decided_outcomes():
    rng = np.random.default_rng(59)
    done = 0
    while done < 150:
        cloud = random_cloud(rng, n_max=6)
        eps = random_scale(rng, cloud)
        c1 = random_walk_chain(rng, cloud, eps, max_len=4)
        c2 = random_walk_chain(rng, cloud, eps, max_len=4)
        if c1.endpoints != c2.endpoints:
            continue
        budget = SearchBudget(max_chain_length=10, max_states=3000)
        a = are_homotopic(c1, c2, budget)
        b = are_homotopic(c2, c1, budget)
        if a.decided and b.decided:
            assert a.outcome == b.outcome
        done += 1


def test_homotopic_witness_survives_coarser_scale():
    rng = np.random.default_rng(61)
    done = 0
    while done < 150:
        cloud = random_cloud(rng, n_max=6)
        eps = random_scale(rng, cloud)
        c1 = random_walk_chain(rng, cloud, eps, max_len=4)
        c2 = random_walk_chain(rng, cloud, eps, max_len=4)
        if c1.endpoints != c2.endpoints or len(c1) == 1:
            continue
        v = are_homotopic(c1, c2, SearchBudget(12, 3000))
        if not v.is_homotopic:
            continue
        coarse = eps * float(rng.uniform(1.0, 2.0))
        out = replay(c1.with_scale(coarse), v.witness)
        assert collapse(out.vertices) == collapse(c2.vertices)
        done += 1


def test_drifting_witness_raises_runtime_error(monkeypatch):
    # the replay check must survive python -O, so it cannot be an assert
    from epschain import homotopy

    cloud = circle_cloud(6)
    monkeypatch.setattr(homotopy, "replay", lambda chain, moves: chain)
    with pytest.raises(RuntimeError, match="drifted"):
        are_homotopic(Chain(cloud, [0, 1, 2], 2.0), Chain(cloud, [0, 2], 2.0))


def test_guards_hold_under_python_O():
    # -O strips assert statements; the internal-fault guards must not depend on them
    here = Path(__file__).resolve().parent
    guards = ("test_drifting_witness_raises_runtime_error"
              " or test_drifting_refinement_witness_raises_runtime_error"
              " or test_a_step_that_no_edge_makes_is_an_internal_fault")
    files = [str(here / f) for f in ("test_homotopy.py", "test_joinability.py", "test_search.py")]
    run = subprocess.run([sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          *files, "-k", guards],
                         cwd=here.parent, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stdout + run.stderr
    assert "3 passed" in run.stdout, run.stdout


# ---------------------------------------------------------------------------
# The engine against the brute-force oracle
# ---------------------------------------------------------------------------

# four or more points of the 3x3 lattice: at eps = 1 every unit square is a hole
lattice_clouds = st.integers(0, 2 ** 9 - 1).filter(lambda m: m.bit_count() >= 4).map(
    lambda m: PointCloud(points=[divmod(k, 3) for k in range(9) if (m >> k) & 1]))

# a unit square (a hole at eps = 1) with some more points of the 3x4 lattice
holed_clouds = st.integers(0, 2 ** 12 - 1).map(lambda m: PointCloud(points=sorted(
    {(0, 0), (0, 1), (1, 0), (1, 1)} | {divmod(k, 4) for k in range(12) if (m >> k) & 1})))


def lattice_scale(cloud, k):
    """The k-th smallest nonzero distance of the cloud, or its largest."""
    vals = np.unique(cloud.distances())
    return float(vals[min(k, len(vals) - 1)])


def oracle_case(data, cloud, k):
    """A scale, an endpoint pair, a length bound and the oracle's classes."""
    eps = lattice_scale(cloud, k)
    blocks = [b for b in components(cloud, eps) if len(b) >= 2]
    assume(blocks)
    i, j = data.draw(st.permutations(data.draw(st.sampled_from(blocks))))[:2]
    max_len = min(len(find_chain(cloud, i, j, eps)) + 2, 6)
    try:
        classes = oracle_classes(cloud, i, j, eps, max_len, guard=20_000)
    except RuntimeError:
        assume(False)
    return eps, classes, SearchBudget(max_chain_length=max_len, max_states=5000)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(st.one_of(lattice_clouds, holed_clouds), st.integers(1, 3), st.data())
def test_oracle_joined_pairs_are_never_refuted(cloud, k, data):
    eps, classes, budget = oracle_case(data, cloud, k)
    joined = [cls for cls in classes if len(cls) >= 2]
    assume(joined)
    cls = data.draw(st.sampled_from(joined))
    a, b = data.draw(st.permutations(cls))[:2]
    c1, c2 = Chain(cloud, a, eps), Chain(cloud, b, eps)
    v = are_homotopic(c1, c2, budget)
    assert not v.is_not_homotopic
    if v.is_homotopic:
        assert replay(c1, v.witness).vertices == c2.vertices


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(holed_clouds, st.integers(1, 2), st.data())
def test_refuted_pairs_lie_in_different_oracle_classes(cloud, k, data):
    eps, classes, budget = oracle_case(data, cloud, k)
    assume(len(classes) >= 2)
    k1, k2 = (data.draw(st.integers(0, len(classes) - 1)) for _ in range(2))

    def pick(cls):
        return Chain(cloud, data.draw(st.sampled_from(cls)), eps)

    v = are_homotopic(pick(classes[k1]), pick(classes[k2]), budget)
    if v.is_not_homotopic:
        assert k1 != k2
        # the GF(2) class is a homotopy invariant: the whole oracle classes are refuted
        for _ in range(3):
            assert are_homotopic(pick(classes[k1]), pick(classes[k2]), budget).is_not_homotopic


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.one_of(lattice_clouds, holed_clouds), st.integers(1, 3), st.data())
def test_one_legal_move_keeps_the_homotopy_class(cloud, k, data):
    eps = lattice_scale(cloud, k)
    walk = [data.draw(st.integers(0, len(cloud) - 1))]
    for _ in range(data.draw(st.integers(1, 6))):
        nbrs = cloud.neighbors(walk[-1], eps)
        assume(nbrs)
        walk.append(data.draw(st.sampled_from(nbrs)))
    c1 = Chain(cloud, walk, eps)
    c2 = apply_move(c1, data.draw(st.sampled_from(legal_moves(c1))))
    v = are_homotopic(c1, c2)
    assert v.is_homotopic
    assert replay(c1, v.witness).vertices == c2.vertices
