import math

import numpy as np
import pytest

from epschain import (Chain, Delete, HomotopyVerdict, PointCloud, SearchBudget,
                      are_homotopic, circle_cloud, classify, collapse,
                      interval_cloud, is_null, is_short, oracle_classes, replay)
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


def test_classify_duplicates_one_block():
    cloud = circle_cloud(6)
    c = Chain(cloud, [0, 1, 2, 3], 1.01)
    res = classify([c, c, c])
    assert res.blocks == ((0, 1, 2),)
    assert res.fully_decided


def test_classify_hexagon_two_blocks():
    cloud = circle_cloud(6)
    cw = Chain(cloud, [0, 1, 2, 3], 1.01)
    ccw = Chain(cloud, [0, 5, 4, 3], 1.01)
    res = classify([cw, ccw])
    assert res.blocks == ((0,), (1,))
    assert res.fully_decided


def test_classify_flags_unknown_pairs():
    cloud = circle_cloud(6)
    a = Chain(cloud, [0, 1, 2, 3], 2.0)
    b = Chain(cloud, [0, 5, 4, 3], 2.0)
    budget = SearchBudget(max_chain_length=8, max_states=2)
    res = classify([a, b], budget)
    assert res.blocks == ((0,), (1,))
    assert res.unknown_pairs == ((0, 1),)
    assert not res.fully_decided


def test_classify_mixed_endpoints_rejected():
    cloud = circle_cloud(6)
    with pytest.raises(ValueError):
        classify([Chain(cloud, [0, 1], 1.01), Chain(cloud, [1, 2], 1.01)])


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


def test_classify_contradiction_raises_runtime_error(monkeypatch):
    from epschain import homotopy

    cloud = circle_cloud(6)
    chains = [Chain(cloud, v, 2.0) for v in ([0, 2], [0, 1, 2], [0, 3, 2])]

    def contradicting(c1, c2, budget=None, skeleton=None):
        refuted = c1 is chains[0] and c2 is chains[2]
        return HomotopyVerdict("not_homotopic" if refuted else "homotopic")

    monkeypatch.setattr(homotopy, "are_homotopic", contradicting)
    with pytest.raises(RuntimeError, match="contradicts"):
        classify(chains)
