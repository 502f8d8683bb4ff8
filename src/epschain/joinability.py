"""Multi-scale joinability: refinement schedules, scans, and the obstruction runs.

The constructions here follow one pattern: build a chain at a fine scale,
certify it *short* (homotopic to the plain two-point chain of its endpoints)
at a coarser scale, and iterate down a finite, strictly decreasing scale
filtration.  A finite filtration stands in for the full entourage basis, so
an ACCEPTED approximation is evidence of joinability at the recorded scales,
not a proof about the underlying continuum; reports always embed the scales
and budgets they were computed with.

The texas_circle experiments reproduce, at desk scale, why the oscillating
curve-plus-axis space admits no such construction below its crests: the
crest-gap check, the two-case reachability dichotomy, and the refinement
failure between the curve/axis pair at x = n*pi.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field

import numpy as np

from . import rips
from .chain import Chain, Move, _hops_from, chain_to_doc, find_chain
from .documents import SCHEMA_VERSION
from .homotopy import HomotopyVerdict, SearchBudget, is_short, replay
from .space import (PointCloud, Scale, _row_bits, as_scale, texas_circle_cloud,
                    texas_pair, texas_sample)

# candidate fine chains tried per hop or pair: the shortest, then
# vertex-disjoint alternatives
MAX_ALTERNATIVES = 3


@dataclass(frozen=True)
class ScaleFiltration:
    """Strictly decreasing positive scales, coarsest first; at least two."""

    scales: tuple[float, ...]

    def __post_init__(self):
        eps = tuple(float(e) for e in self.scales)
        if len(eps) < 2:
            raise ValueError("a filtration needs at least two scales")
        if any(e <= 0 for e in eps):
            raise ValueError("all scales must be positive")
        if any(a <= b for a, b in zip(eps, eps[1:])):
            raise ValueError(f"scales must strictly decrease, got {eps}")
        object.__setattr__(self, "scales", eps)

    def __len__(self) -> int:
        return len(self.scales)

    def __getitem__(self, k: int) -> float:
        return self.scales[k]


def as_filtration(value) -> ScaleFiltration:
    if isinstance(value, ScaleFiltration):
        return value
    return ScaleFiltration(tuple(float(e) for e in value))


def halving_filtration(eps: float, levels: int = 3) -> ScaleFiltration:
    """Default schedule: eps, eps/2, eps/4, ..."""
    return ScaleFiltration(tuple(float(eps) / 2 ** k for k in range(levels)))


class RefinementFailure(Exception):
    """No hop replacement certified short within budget; carries the evidence."""

    def __init__(self, hop_index: int, endpoints: tuple[int, int], reason: str,
                 outcomes=()):
        self.hop_index = hop_index
        self.endpoints = endpoints
        self.reason = reason
        self.outcomes = tuple(outcomes)  # (vertex tuple, HomotopyVerdict) pairs
        tried = ", ".join(v.outcome for _, v in self.outcomes) or "none"
        super().__init__(
            f"hop {hop_index} {endpoints}: {reason} (candidate verdicts: {tried})")


def _hop_candidates(cloud: PointCloud, u: int, w: int, fine: Scale):
    """Shortest fine chain for a hop, then vertex-disjoint alternatives."""
    banned: set[int] = set()
    for _ in range(MAX_ALTERNATIVES):
        cand = find_chain(cloud, u, w, fine, banned=banned)
        if cand is None:
            return
        yield cand
        interior = set(cand.vertices[1:-1])
        if not interior:
            return  # the direct hop has no interior; nothing distinct remains
        banned |= interior


def _shift_moves(moves, offset: int) -> list[Move]:
    from .chain import Delete, Insert

    return [Insert(m.position + offset, m.vertex) if isinstance(m, Insert)
            else Delete(m.position + offset) for m in moves]


def _refine_with_witness(c: Chain, short_scale: Scale, fine_scale: Scale,
                         budget: SearchBudget | None):
    """Refine every hop; returns (fine chain, witness back to c at short_scale)."""
    cloud = c.cloud
    skel = rips.build(cloud, short_scale)
    pieces: list[Chain] = []
    piece_witnesses: list[tuple[Move, ...]] = []
    v = c.vertices
    for hop, (u, w) in enumerate(zip(v, v[1:])):
        outcomes = []
        chosen = None
        for cand in _hop_candidates(cloud, u, w, fine_scale):
            verdict = is_short(cand.with_scale(short_scale), budget, skeleton=skel)
            outcomes.append((cand.vertices, verdict))
            if verdict.is_homotopic:
                chosen = (cand, verdict.witness)
                break
        if chosen is None:
            reason = "no fine chain joins the hop" if not outcomes else \
                "no candidate fine chain is short at the coarse scale"
            raise RefinementFailure(hop, (u, w), reason, outcomes)
        pieces.append(chosen[0])
        piece_witnesses.append(chosen[1])
    if not pieces:  # single-vertex chain: nothing to refine
        return c.with_scale(fine_scale), ()
    refined = pieces[0]
    for piece in pieces[1:]:
        refined = refined.concat(piece)
    offsets = []
    at = 0
    for piece in pieces:
        offsets.append(at)
        at += len(piece) - 1
    witness: list[Move] = []
    for t in range(len(pieces) - 1, -1, -1):
        witness.extend(_shift_moves(piece_witnesses[t], offsets[t]))
    if replay(refined.with_scale(short_scale), witness).vertices != v:
        raise RuntimeError("composed refinement witness drifted")
    return refined, tuple(witness)


def refine_chain(c: Chain, short_scale, fine_scale,
                 budget: SearchBudget | None = None) -> Chain:
    """Replace each hop with a fine chain certified short at the coarse scale.

    Raises :class:`RefinementFailure` (naming the first failing hop and the
    candidate verdicts) when no replacement is found within the budget.
    """
    short_scale, fine_scale = as_scale(short_scale), as_scale(fine_scale)
    if not fine_scale.epsilon < short_scale.epsilon:
        raise ValueError("fine_scale must be strictly below short_scale")
    refined, _ = _refine_with_witness(c, short_scale, fine_scale, budget)
    return refined


@dataclass(frozen=True)
class ConstructionFailure:
    """Where and why a generalized-path construction stopped."""

    kind: str  # "no_chain" | "shortness" | "refinement"
    level: int
    detail: str
    hop_index: int | None = None
    hop_endpoints: tuple[int, int] | None = None
    candidate_outcomes: tuple = ()


@dataclass(frozen=True)
class GeneralizedPathApprox:
    """A finite-filtration approximation of a generalized path.

    ``chains[i]`` is the level-(i+1) chain, built one scale finer than its
    level; ``compatibility[i]`` certifies chains[i+1] ~ chains[i] at scale
    ``filtration[i]``.  Accepted means the construction completed and every
    recorded verdict is homotopic.
    """

    filtration: ScaleFiltration
    endpoints: tuple[int, int]
    chains: tuple[Chain, ...]
    compatibility: tuple[HomotopyVerdict, ...]
    shortness_at_coarsest: HomotopyVerdict | None
    failure: ConstructionFailure | None

    @property
    def accepted(self) -> bool:
        return (self.failure is None
                and len(self.chains) == len(self.filtration)
                and all(v.is_homotopic for v in self.compatibility)
                and (self.shortness_at_coarsest is None
                     or self.shortness_at_coarsest.is_homotopic))

    def to_doc(self) -> dict:
        doc = {
            "schema_version": SCHEMA_VERSION,
            "kind": "generalized_path",
            "endpoints": list(self.endpoints),
            "filtration": list(self.filtration.scales),
            "accepted": self.accepted,
            "levels": [chain_to_doc(c) for c in self.chains],
            "compatibility": [v.to_record() for v in self.compatibility],
        }
        if self.shortness_at_coarsest is not None:
            doc["shortness_at_coarsest"] = self.shortness_at_coarsest.to_record()
        if self.failure is not None:
            f = self.failure
            doc["failure"] = {
                "kind": f.kind, "level": f.level, "detail": f.detail,
                "hop_index": f.hop_index,
                "hop_endpoints": list(f.hop_endpoints) if f.hop_endpoints else None,
                "candidates": [{"vertices": list(vs), "verdict": v.outcome}
                               for vs, v in f.candidate_outcomes],
            }
        return doc


def build_generalized_path(cloud: PointCloud, x: int, y: int, filtration,
                           budget: SearchBudget | None = None) -> GeneralizedPathApprox:
    """Run the inductive refinement schedule between two vertices.

    Level 1 is a shortest chain at the second scale, checked short at the
    coarsest scale whenever the endpoints are close enough for that check to
    make sense.  Level i+1 refines level i's hops with chains two scales
    finer (clamped at the last scale), certified short at scale i.  Any
    failure is recorded with its level and returned, not raised.
    """
    filtration = as_filtration(filtration)
    eps = filtration.scales
    k = len(eps)
    if find_chain(cloud, x, y, eps[0]) is None:
        raise ValueError(f"{x} and {y} are not chain-connected at eps={eps[0]}")

    def partial(chains, compat, shortness, failure):
        return GeneralizedPathApprox(filtration, (x, y), tuple(chains),
                                     tuple(compat), shortness, failure)

    c1 = find_chain(cloud, x, y, eps[1])
    if c1 is None:
        return partial((), (), None,
                       ConstructionFailure("no_chain", 1,
                                           f"no chain at level scale eps={eps[1]}"))
    shortness = None
    if cloud.distance(x, y) <= eps[0]:
        shortness = is_short(c1.with_scale(eps[0]), budget)
        if not shortness.is_homotopic:
            return partial((c1,), (), shortness,
                           ConstructionFailure("shortness", 1,
                                               f"level-1 chain not certified short at "
                                               f"eps={eps[0]}: {shortness.outcome}"))
    chains = [c1]
    compat: list[HomotopyVerdict] = []
    for i in range(1, k):
        short_eps = eps[i - 1]
        fine_eps = eps[min(i + 1, k - 1)]
        try:
            refined, witness = _refine_with_witness(chains[-1], Scale(short_eps),
                                                    Scale(fine_eps), budget)
        except RefinementFailure as exc:
            return partial(chains, compat, shortness,
                           ConstructionFailure("refinement", i + 1, str(exc),
                                               exc.hop_index, exc.endpoints,
                                               exc.outcomes))
        chains.append(refined)
        compat.append(HomotopyVerdict("homotopic", witness=witness, budget=budget))
    return partial(chains, compat, shortness, None)


# ---------------------------------------------------------------------------
# Joinability scans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PairOutcome:
    i: int
    j: int
    distance: float
    outcome: str  # "passed" | "refuted" | "unknown"
    chain: tuple[int, ...] | None = None
    candidates: tuple = ()  # (vertex tuple or None, outcome str) per candidate
    sigma: float | None = None  # set by the multi-scale probe

    def to_record(self) -> dict:
        rec = {
            "i": self.i, "j": self.j, "distance": self.distance,
            "outcome": self.outcome,
            "chain": list(self.chain) if self.chain is not None else None,
            "candidates": [{"vertices": None if vs is None else list(vs),
                            "verdict": out} for vs, out in self.candidates],
        }
        if self.sigma is not None:
            rec["sigma"] = self.sigma
        return rec


@dataclass(frozen=True)
class JoinabilityReport:
    space: str
    parameters: dict
    pairs: tuple[PairOutcome, ...]
    kind: str = "joinability_report"
    notes: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return all(p.outcome == "passed" for p in self.pairs)

    def counts(self) -> dict:
        out = {"passed": 0, "refuted": 0, "unknown": 0}
        for p in self.pairs:
            out[p.outcome] += 1
        return out

    def to_doc(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": self.kind,
            "space": self.space,
            "parameters": dict(self.parameters),
            "summary": {**self.counts(), "all_passed": self.passed},
            "pairs": [p.to_record() for p in self.pairs],
            "notes": list(self.notes),
        }


def _short_chain_for_pair(cloud, i, j, sigma: Scale, eps: Scale, budget, skel,
                          record_sigma: float | None) -> PairOutcome:
    dist = cloud.distance(i, j)
    tried = []
    for cand in _hop_candidates(cloud, i, j, sigma):
        verdict = is_short(cand.with_scale(eps), budget, skeleton=skel)
        tried.append((cand.vertices, verdict.outcome))
        if verdict.is_homotopic:
            return PairOutcome(i, j, dist, "passed", cand.vertices, tuple(tried),
                               record_sigma)
    if not tried:
        return PairOutcome(i, j, dist, "refuted", None,
                           ((None, "no_sigma_chain"),), record_sigma)
    outcome = "refuted" if all(o == "not_homotopic" for _, o in tried) else "unknown"
    return PairOutcome(i, j, dist, outcome, None, tuple(tried), record_sigma)


def _delta_pairs(cloud: PointCloud, delta: float, seed: int,
                 pair_threshold: int, sample_cap: int):
    d = cloud.distances()
    iu, ju = np.nonzero(np.triu(d <= delta, 1))
    pairs = list(zip(iu.tolist(), ju.tolist()))
    policy = "all"
    if len(cloud) > pair_threshold and len(pairs) > sample_cap:
        rng = np.random.default_rng(seed)
        pick = rng.choice(len(pairs), size=sample_cap, replace=False)
        pairs = [pairs[k] for k in sorted(pick.tolist())]
        policy = f"seeded_sample_{sample_cap}"
    return pairs, policy


def local_joinability_scan(cloud: PointCloud, eps, delta, sigma, pairs=None,
                           budget: SearchBudget | None = None, seed: int = 0,
                           pair_threshold: int = 2000,
                           sample_cap: int = 500) -> JoinabilityReport:
    """Two-scale surrogate of local joinability at (eps, delta, sigma).

    For every pair at distance <= delta, search sigma-chains (shortest, then
    vertex-disjoint alternatives) for one that is eps-short.  REFUTED pairs
    had every candidate certified non-short; UNKNOWN pairs exhausted the
    budget somewhere.  This is :func:`weakly_chained_probe` at the single
    fine scale sigma, reported as a ``joinability_report``.
    """
    return _probe(cloud, eps, delta, [sigma], pairs, budget, seed,
                  pair_threshold, sample_cap, single=True)


def weakly_chained_probe(cloud: PointCloud, eps, delta, sigmas, pairs=None,
                         budget: SearchBudget | None = None, seed: int = 0,
                         pair_threshold: int = 2000,
                         sample_cap: int = 500) -> JoinabilityReport:
    """Do delta-close pairs admit eps-short chains at every listed fine scale?

    One outcome per (pair, sigma); the probe passes only if every such
    combination found a short chain.
    """
    return _probe(cloud, eps, delta, sigmas, pairs, budget, seed,
                  pair_threshold, sample_cap, single=False)


def _probe(cloud, eps, delta, sigmas, pairs, budget, seed, pair_threshold,
           sample_cap, single: bool) -> JoinabilityReport:
    # a single-sigma probe is a scan: its report names the one sigma in its
    # parameters instead of in every pair record
    eps, delta = as_scale(eps), as_scale(delta)
    sig = [as_scale(s) for s in sigmas]
    if not sig:
        raise ValueError("need at least one fine scale")
    if any(a.epsilon <= b.epsilon for a, b in zip(sig, sig[1:])):
        raise ValueError("fine scales must strictly decrease")
    if not sig[0].epsilon < delta.epsilon <= eps.epsilon:
        raise ValueError("need sigma < delta <= eps")
    policy = "given"
    if pairs is None:
        pairs, policy = _delta_pairs(cloud, delta.epsilon, seed, pair_threshold,
                                     sample_cap)
    skel = rips.build(cloud, eps)
    records = tuple(_short_chain_for_pair(cloud, i, j, s, eps, budget, skel,
                                          None if single else s.epsilon)
                    for i, j in pairs for s in sig)
    params = {"eps": eps.epsilon, "delta": delta.epsilon, "seed": seed,
              "pair_policy": policy, "max_alternatives": MAX_ALTERNATIVES,
              "budget": None if budget is None else budget.to_record()}
    if single:
        params["sigma"] = sig[0].epsilon
        return JoinabilityReport(cloud.name, params, records)
    params["sigmas"] = [s.epsilon for s in sig]
    return JoinabilityReport(cloud.name, params, records, kind="weakly_chained_report")


# ---------------------------------------------------------------------------
# texas_circle experiments
# ---------------------------------------------------------------------------

def export_neighborhood_graph(cloud: PointCloud, scale, path=None) -> dict:
    """Edge list of the closed entourage graph at a scale.

    Third-party graph tools can re-run any reachability claim made here
    (components, the dichotomy cut) directly on this document.
    """
    skel = rips.build(cloud, scale)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "edge_list",
        "space": cloud.name,
        "eps": skel.scale.epsilon,
        "vertex_count": len(cloud),
        "edges": [list(e) for e in skel.edges],
    }
    if path is not None:
        from .documents import write_doc

        write_doc(doc, path)
    return doc


def _locate_exact(cloud: PointCloud, xy: tuple[float, float]) -> int:
    if cloud.points is None:
        raise ValueError("this experiment needs a coordinate cloud")
    hits = np.nonzero((cloud.points[:, 0] == xy[0]) & (cloud.points[:, 1] == xy[1]))[0]
    if len(hits) == 0:
        raise ValueError(f"point {xy} is not in the sample; "
                         "generate it with the pair in must_include")
    return int(hits[0])


def crest_gap_check(cloud: PointCloud, eps=0.5,
                    window=(1.2 * math.pi, 1.8 * math.pi)) -> bool:
    """No curve-to-axis edge at this scale inside the first-crest window?"""
    if cloud.labels is None or cloud.points is None:
        raise ValueError("crest_gap_check needs a labeled texas_circle sample")
    eps = as_scale(eps).epsilon
    pts = cloud.points
    lo, hi = window
    in_win = (pts[:, 0] >= lo) & (pts[:, 0] <= hi)
    labels = np.asarray(cloud.labels)
    gi = np.nonzero(in_win & (labels == "graph"))[0]
    ai = np.nonzero(in_win & (labels == "axis"))[0]
    if len(gi) == 0 or len(ai) == 0:
        return True
    d = cloud.distances()
    return not bool((d[np.ix_(gi, ai)] <= eps).any())


def texas_dichotomy(cloud: PointCloud, n: int, mprime: int, sigma=None,
                    delete_segment: bool = True) -> bool:
    """Does every sigma-chain from the pair at n*pi avoid-the-segment force a
    trip to x >= (mprime-1)*pi?

    Concretely: delete all segment-part vertices (unless ``delete_segment``
    is off, the sanity control) and every vertex with x-coordinate at or
    beyond (mprime-1)*pi — keeping the query pair itself — and report whether
    the pair becomes disconnected in the sigma-neighborhood graph.
    """
    if cloud.labels is None or cloud.points is None:
        raise ValueError("texas_dichotomy needs a labeled texas_circle sample")
    sigma = as_scale(1.0 / (mprime * math.pi) if sigma is None else sigma)
    px, py = texas_pair(n)
    xi, yi = _locate_exact(cloud, px), _locate_exact(cloud, py)
    maxx = float(cloud.points[:, 0].max())
    if (mprime + 1) * math.pi > maxx + 1e-9:
        raise ValueError(f"sample ends at x={maxx:.3f}; need coverage past "
                         f"(mprime+1)*pi = {(mprime + 1) * math.pi:.3f}")
    labels = np.asarray(cloud.labels)
    keep = cloud.points[:, 0] < (mprime - 1) * math.pi
    if delete_segment:
        keep &= labels != "segment"
    keep[xi] = keep[yi] = True
    hops = _hops_from(cloud.entourage_bits(sigma), xi, len(cloud), ~_row_bits(keep))
    return hops[yi] < 0


def texas_crest_loop(cloud: PointCloud, scale=0.5, n: int = 2) -> Chain:
    """The loop around the first n-1 crests: curve out, hop down, axis back,
    segment up.  Valid at the default sample density for eps = 1/2."""
    if cloud.labels is None:
        raise ValueError("texas_crest_loop needs a labeled texas_circle sample")
    px, py = texas_pair(n)
    xi, yi = _locate_exact(cloud, px), _locate_exact(cloud, py)
    pts = cloud.points
    labels = np.asarray(cloud.labels)
    xmax = n * math.pi
    def part_sorted(name, descending=False):
        idx = np.nonzero((labels == name) & (pts[:, 0] <= xmax + 1e-12))[0]
        idx = [int(v) for v in idx if v not in (xi, yi)]
        key = (lambda v: -pts[v, 0]) if descending else (lambda v: pts[v, 0])
        return sorted(idx, key=key)

    graph = part_sorted("graph")
    axis = part_sorted("axis", descending=True)
    seg = sorted((int(v) for v in np.nonzero(labels == "segment")[0]),
                 key=lambda v: pts[v, 1])
    verts = graph + [xi, yi] + axis + seg + [graph[0]]
    return Chain(cloud, verts, scale)


def texas_obstruction_report(n: int = 2, mprime: int = 5, h: float = 0.02,
                             eps: float = 0.5, m_end: float = 8.0,
                             budget: SearchBudget | None = None) -> dict:
    """The full desk-scale obstruction: crest gap, dichotomy, failed refinement.

    Three stages on three tuned samples of the same space: the crest-gap
    check on the default-density sample, the reachability dichotomy on a
    step-``h`` sample, and the generalized-path refinement on a sample fine
    enough to stay connected at the finest scale of the filtration
    (eps, 1/(n*pi), 1/(mprime*pi)).
    """
    sigma = 1.0 / (mprime * math.pi)
    default_h = inspect.signature(texas_circle_cloud).parameters["h"].default
    default_cloud = texas_sample(m_end=m_end, n=n)
    crest = crest_gap_check(default_cloud, eps=eps)

    dichotomy_cloud = texas_sample(h=h, m_end=m_end, n=n)
    dichotomy = texas_dichotomy(dichotomy_cloud, n, mprime)
    control = texas_dichotomy(dichotomy_cloud, n, mprime, delete_segment=False)

    # the curve's slope bound is |sin 2x - 1/x^2| <= 1 + 1/pi^2, so this step
    # keeps consecutive samples within sigma of each other
    h_refine = sigma / 1.6
    refine_cloud = texas_sample(h=h_refine, m_end=m_end, n=n)
    px, py = texas_pair(n)
    xi = _locate_exact(refine_cloud, px)
    yi = _locate_exact(refine_cloud, py)
    filtration = ScaleFiltration((eps, 1.0 / (n * math.pi), sigma))
    gp = build_generalized_path(refine_cloud, xi, yi, filtration, budget)

    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "texas_report",
        "parameters": {"n": n, "mprime": mprime, "h": h, "eps": eps,
                       "m_end": m_end, "sigma": sigma, "h_refine": h_refine,
                       "default_h": default_h},
        "crest_gap": {"eps": eps, "holds": crest},
        "dichotomy": {"n": n, "mprime": mprime, "sigma": sigma, "h": h,
                      "holds": dichotomy, "control_with_segment": control},
        "refinement": gp.to_doc(),
        "reproduced": bool(crest and dichotomy and not control and not gp.accepted),
    }
