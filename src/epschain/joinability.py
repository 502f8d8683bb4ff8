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
import operator
from dataclasses import dataclass, replace

import numpy as np

from .chain import Chain, Move, _hops_from, _walk_back, chain_to_doc, find_chain
from .documents import SCHEMA_VERSION
from .homotopy import HomotopyVerdict, SearchBudget, is_short, replay
from .space import (PointCloud, Scale, as_scale, texas_circle_cloud, texas_pair,
                    texas_sample)

# candidate fine chains tried per hop or pair: the shortest, then
# vertex-disjoint alternatives
MAX_ALTERNATIVES = 3
# a scan of a cloud above PAIR_THRESHOLD points with more than SAMPLE_CAP
# delta-close pairs checks a seeded sample of SAMPLE_CAP of them
PAIR_THRESHOLD = 2000
SAMPLE_CAP = 500


@dataclass(frozen=True)
class ScaleFiltration:
    """Strictly decreasing positive scales, coarsest first; at least two."""

    scales: tuple[float, ...]

    def __post_init__(self):
        eps = tuple(Scale(e).epsilon for e in self.scales)
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


def _short_candidates(first: Chain | None, coarse: Scale,
                      budget: SearchBudget | None) -> list[tuple[Chain, HomotopyVerdict]]:
    """Fine chains between the ends of ``first``, each with its shortness
    verdict at the coarse scale.

    ``first`` is the shortest fine chain, :func:`find_chain`'s, or None when
    its ends are disconnected, which gives an empty list.  Vertex-disjoint
    alternatives follow, at most MAX_ALTERNATIVES chains in all; the list
    ends at the first chain that is short.
    """
    tried = []
    banned: set[int] = set()
    cand = first
    while cand is not None:
        verdict = is_short(cand.with_scale(coarse), budget)
        tried.append((cand, verdict))
        interior = cand.vertices[1:-1]
        if verdict.is_homotopic or not interior or len(tried) == MAX_ALTERNATIVES:
            break  # a direct hop leaves no interior to ban, so nothing new remains
        banned.update(interior)
        cand = find_chain(first.cloud, *first.endpoints, first.scale, banned=banned)
    return tried


def _refine_with_witness(c: Chain, short_scale: Scale, fine_scale: Scale,
                         budget: SearchBudget | None):
    """Refine every hop; returns (fine chain, witness back to c at short_scale)."""
    v = c.vertices
    refined = [v[0]]
    piece_witnesses: list[list[Move]] = []
    for hop, (u, w) in enumerate(zip(v, v[1:])):
        tried = _short_candidates(find_chain(c.cloud, u, w, fine_scale), short_scale, budget)
        if not tried or not tried[-1][1].is_homotopic:
            reason = "no fine chain joins the hop" if not tried else \
                "no candidate fine chain is short at the coarse scale"
            raise RefinementFailure(hop, (u, w), reason,
                                    [(cand.vertices, verdict) for cand, verdict in tried])
        piece, verdict = tried[-1]
        offset = len(refined) - 1
        piece_witnesses.append([replace(m, position=m.position + offset)
                                for m in verdict.witness])
        refined += piece.vertices[1:]
    fine = Chain(c.cloud, refined, fine_scale)
    witness = tuple(m for moves in reversed(piece_witnesses) for m in moves)
    if replay(fine.with_scale(short_scale), witness).vertices != v:
        raise RuntimeError("composed refinement witness drifted")
    return fine, witness


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
    if not isinstance(filtration, ScaleFiltration):
        filtration = ScaleFiltration(filtration)
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
    if cloud.entourage_bits(eps[0])[x] >> y & 1:
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
            "notes": [],
        }


def _short_chain_for_pair(first: Chain | None, i, j, dist: float, eps: Scale, budget,
                          record_sigma: float | None) -> PairOutcome:
    tried = _short_candidates(first, eps, budget)
    if not tried:
        return PairOutcome(i, j, dist, "refuted", None,
                           ((None, "no_sigma_chain"),), record_sigma)
    records = tuple((cand.vertices, verdict.outcome) for cand, verdict in tried)
    last, verdict = tried[-1]
    if verdict.is_homotopic:
        return PairOutcome(i, j, dist, "passed", last.vertices, records, record_sigma)
    outcome = "refuted" if all(v.is_not_homotopic for _, v in tried) else "unknown"
    return PairOutcome(i, j, dist, outcome, None, records, record_sigma)


def _first_chains(cloud: PointCloud, scale: Scale, pairs) -> list[Chain | None]:
    """``find_chain(cloud, i, j, scale)`` for each (i, j, distance) of pairs.

    find_chain searches out of j until i is labelled, then walks back from
    i.  Here one search out of each target j runs until every i paired with
    j is labelled, and each walk back reads only the levels below its own
    i, which that search has labelled in full, so each pair gets the chain
    find_chain returns.
    """
    bits = cloud.entourage_bits(scale)
    by_target: dict[int, list[int]] = {}
    for k, (_, j, _) in enumerate(pairs):
        by_target.setdefault(j, []).append(k)
    out: list[Chain | None] = [None] * len(pairs)
    for j, ks in by_target.items():
        hops = _hops_from(bits, j, len(cloud), stops={pairs[k][0] for k in ks})
        for k in ks:
            i = pairs[k][0]
            if hops[i] >= 0:
                out[k] = Chain._trusted(cloud, _walk_back(bits, hops, i), scale)
    return out


def _delta_pairs(cloud: PointCloud, delta: float, seed: int):
    """The (i, j, distance) triples of the delta-close pairs i < j, and their policy."""
    i, j, d = cloud.close_pairs(delta)
    order = np.lexsort((j, i))
    pairs = list(zip(i[order].tolist(), j[order].tolist(), d[order].tolist()))
    policy = "all"
    if len(cloud) > PAIR_THRESHOLD and len(pairs) > SAMPLE_CAP:
        rng = np.random.default_rng(seed)
        pick = rng.choice(len(pairs), size=SAMPLE_CAP, replace=False)
        pairs = [pairs[k] for k in sorted(pick.tolist())]
        policy = f"seeded_sample_{SAMPLE_CAP}"
    return pairs, policy


def local_joinability_scan(cloud: PointCloud, eps, delta, sigma, pairs=None,
                           budget: SearchBudget | None = None,
                           seed: int = 0) -> JoinabilityReport:
    """Two-scale surrogate of local joinability at (eps, delta, sigma).

    For every pair at distance <= delta, search sigma-chains (shortest, then
    vertex-disjoint alternatives) for one that is eps-short.  REFUTED pairs
    had every candidate certified non-short; UNKNOWN pairs exhausted the
    budget somewhere.  This is :func:`weakly_chained_probe` at the single
    fine scale sigma, reported as a ``joinability_report``.
    """
    return _probe(cloud, eps, delta, [sigma], pairs, budget, seed, single=True)


def weakly_chained_probe(cloud: PointCloud, eps, delta, sigmas, pairs=None,
                         budget: SearchBudget | None = None,
                         seed: int = 0) -> JoinabilityReport:
    """Do delta-close pairs admit eps-short chains at every listed fine scale?

    One outcome per (pair, sigma); the probe passes only if every such
    combination found a short chain.
    """
    return _probe(cloud, eps, delta, sigmas, pairs, budget, seed, single=False)


def _probe(cloud, eps, delta, sigmas, pairs, budget, seed,
           single: bool) -> JoinabilityReport:
    """Both scans' shared body.  Each (pair, sigma) starts from the chain
    find_chain gives, taken from one multi-stop search per target
    (:func:`_first_chains`).  A single-sigma probe is a scan: its report
    names the one sigma in its parameters instead of in every pair record.
    """
    eps, delta = as_scale(eps), as_scale(delta)
    sig = [as_scale(s) for s in sigmas]
    if not sig:
        raise ValueError("need at least one fine scale")
    if any(a.epsilon <= b.epsilon for a, b in zip(sig, sig[1:])):
        raise ValueError("fine scales must strictly decrease")
    if not sig[0].epsilon < delta.epsilon <= eps.epsilon:
        raise ValueError("need sigma < delta <= eps")
    # eps is the largest scale read here (by every shortness test), so its
    # pair list, built first, is the one list that delta and sigma read too
    cloud.close_pairs(eps)
    if pairs is None:
        pairs, policy = _delta_pairs(cloud, delta.epsilon, seed)
    else:
        pairs = [(operator.index(i), operator.index(j)) for i, j in pairs]
        pairs, policy = [(i, j, cloud.distance(i, j)) for i, j in pairs], "given"
    firsts = [_first_chains(cloud, s, pairs) for s in sig]
    records = tuple(_short_chain_for_pair(first[k], i, j, dist, eps, budget,
                                          None if single else s.epsilon)
                    for k, (i, j, dist) in enumerate(pairs)
                    for s, first in zip(sig, firsts))
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
    # the window's own cloud gives the same distance floats as the whole one;
    # its curve points come first, so a curve-to-axis pair is i < len(gi) <= j
    window_cloud = PointCloud(points=pts[np.concatenate((gi, ai))])
    i, j, _ = window_cloud.close_pairs(eps)
    return not bool(np.any((i < len(gi)) & (j >= len(gi))))


def texas_dichotomy(cloud: PointCloud, n: int, mprime: int,
                    delete_segment: bool = True) -> bool:
    """Does every sigma-chain from the pair at n*pi avoid-the-segment force a
    trip to x >= (mprime-1)*pi, at sigma = 1/(mprime*pi)?

    Concretely: delete all segment-part vertices (unless ``delete_segment``
    is off, the sanity control) and every vertex with x-coordinate at or
    beyond (mprime-1)*pi — keeping the query pair itself — and report whether
    the pair becomes disconnected in the sigma-neighborhood graph.
    """
    if cloud.labels is None or cloud.points is None:
        raise ValueError("texas_dichotomy needs a labeled texas_circle sample")
    sigma = as_scale(1.0 / (mprime * math.pi))
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
    # the kept points' own cloud has their coordinates, hence the same
    # distance floats, so its sigma-graph is the subgraph that the whole
    # cloud's induces on them, and the deleted points' rows are never built
    idx = np.flatnonzero(keep)
    kept = PointCloud(points=cloud.points[idx])
    sx, sy = np.searchsorted(idx, (xi, yi)).tolist()
    hops = _hops_from(kept.entourage_bits(sigma), sx, len(kept), stops=(sy,))
    return hops[sy] < 0


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
    (eps, 1/(n*pi), 1/(mprime*pi)), which needs mprime > n.
    """
    if mprime <= n:
        raise ValueError(f"need mprime > n, got n={n} and mprime={mprime}: the "
                         "filtration needs 1/(n*pi) > 1/(mprime*pi)")
    px, py = texas_pair(n)
    sigma = 1.0 / (mprime * math.pi)
    filtration = ScaleFiltration((eps, 1.0 / (n * math.pi), sigma))
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
    xi = _locate_exact(refine_cloud, px)
    yi = _locate_exact(refine_cloud, py)
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
