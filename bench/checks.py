"""Independent checkers for the benchmark's outputs.

Nothing here imports epschain.  Every property is recomputed from point
coordinates and the JSON documents the program wrote, with plain numpy and
Python, so a fault in one of the program's answer paths cannot also hide in
the check that reads its answer.

Distances use the same float expression as a user would write,
``sqrt(dx*dx + dy*dy)``, because the entourage test is closed: a hop that
lies exactly at epsilon must be judged the same way bit for bit.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np


class CheckFailure(Exception):
    """An output of the program failed an independent check."""


def require(condition, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


class Metric:
    """Euclidean distances between the rows of a coordinate array."""

    def __init__(self, points):
        self.points = np.asarray(points, dtype=float)
        self._xy = [(float(x), float(y)) for x, y in self.points]

    def __len__(self) -> int:
        return len(self._xy)

    def d(self, i: int, j: int) -> float:
        (xi, yi), (xj, yj) = self._xy[i], self._xy[j]
        dx, dy = xi - xj, yi - yj
        return math.sqrt(dx * dx + dy * dy)

    def row(self, i: int) -> np.ndarray:
        return np.sqrt(((self.points - self.points[i]) ** 2).sum(1))


# ---------------------------------------------------------------------------
# Chains and witness moves
# ---------------------------------------------------------------------------

def check_chain(metric: Metric, vertices, eps: float, endpoints=None) -> None:
    """Every hop within eps (closed), every index in range, endpoints as given."""
    v = [int(x) for x in vertices]
    require(v, "empty chain")
    n = len(metric)
    require(all(0 <= x < n for x in v), f"chain index out of range: {v}")
    if endpoints is not None:
        require((v[0], v[-1]) == tuple(endpoints),
                f"chain runs {v[0]}->{v[-1]}, expected {endpoints[0]}->{endpoints[1]}")
    for k, (a, b) in enumerate(zip(v, v[1:])):
        require(metric.d(a, b) <= eps,
                f"hop {k} ({a}, {b}) has length {metric.d(a, b)!r} > eps={eps!r}")


def replay_witness(metric: Metric, start, moves, eps: float) -> tuple[int, ...]:
    """Replay witness move records, checking each move's legality; return the end.

    Insert(position p, vertex v) needs 1 <= p <= len-1 and v within eps of
    both neighbours of the gap; Delete(position p) needs 1 <= p <= len-2 and
    the two neighbours of p within eps of each other.
    """
    cur = [int(x) for x in start]
    n = len(metric)
    for k, m in enumerate(moves):
        op = m.get("op")
        pos = m.get("position")
        require(isinstance(pos, int), f"move {k} has no integer position: {m}")
        if op == "insert":
            v = m.get("vertex")
            require(isinstance(v, int) and 0 <= v < n, f"move {k} inserts a bad vertex: {m}")
            require(1 <= pos <= len(cur) - 1, f"move {k} inserts outside a gap: {m}")
            require(metric.d(v, cur[pos - 1]) <= eps and metric.d(v, cur[pos]) <= eps,
                    f"move {k} inserts {v} not within eps of both sides of gap {pos}")
            cur.insert(pos, v)
        elif op == "delete":
            require(1 <= pos <= len(cur) - 2, f"move {k} deletes a non-interior vertex: {m}")
            require(metric.d(cur[pos - 1], cur[pos + 1]) <= eps,
                    f"move {k} deletion at {pos} would break the chain")
            del cur[pos]
        else:
            raise CheckFailure(f"move {k} is neither insert nor delete: {m}")
    return tuple(cur)


def check_witness(metric: Metric, start, target, moves, eps: float) -> None:
    end = replay_witness(metric, start, moves, eps)
    require(end == tuple(int(x) for x in target),
            f"witness ends at {list(end)}, expected {list(target)}")


# ---------------------------------------------------------------------------
# Loops on a circle
# ---------------------------------------------------------------------------

def winding_number(points, loop) -> int:
    """Turns of a closed chain around the origin, from its coordinates.

    Each hop must turn by less than half a circle, which holds for any chain
    whose hops are shorter than the circle's diameter.
    """
    ang = [math.atan2(float(points[v][1]), float(points[v][0])) for v in loop]
    total = 0.0
    for a, b in zip(ang, ang[1:]):
        step = (b - a + math.pi) % (2 * math.pi) - math.pi
        require(abs(step) < math.pi - 1e-9, "hop turns by half a circle; winding is undefined")
        total += step
    w = total / (2 * math.pi)
    require(abs(w - round(w)) < 1e-6, f"loop is not closed: {w} turns")
    return int(round(w))


# ---------------------------------------------------------------------------
# Reachability and pair counts
# ---------------------------------------------------------------------------

def reachable(metric: Metric, src: int, dst: int, eps: float, keep: np.ndarray) -> bool:
    """Plain BFS from src to dst over points marked in ``keep``, hops <= eps."""
    seen = np.zeros(len(metric), dtype=bool)
    seen[src] = True
    queue = deque([src])
    while queue:
        u = queue.popleft()
        if u == dst:
            return True
        nxt = np.flatnonzero((metric.row(u) <= eps) & keep & ~seen)
        seen[nxt] = True
        queue.extend(int(w) for w in nxt)
    return False


def close_pairs_on_lines(points, delta: float) -> set[tuple[int, int]]:
    """Pairs i < j on one horizontal line with |x_i - x_j| <= delta."""
    pts = np.asarray(points, dtype=float)
    out = set()
    for y in np.unique(pts[:, 1]):
        idx = np.flatnonzero(pts[:, 1] == y)
        idx = idx[np.argsort(pts[idx, 0], kind="stable")]
        xs = pts[idx, 0]
        for a in range(len(idx)):
            b = a + 1
            while b < len(idx) and xs[b] - xs[a] <= delta:
                i, j = int(idx[a]), int(idx[b])
                out.add((min(i, j), max(i, j)))
                b += 1
    return out


# ---------------------------------------------------------------------------
# Report checks
# ---------------------------------------------------------------------------

def crest_gap_holds(points, labels, eps: float, window) -> bool:
    """No graph-to-axis pair within eps among points whose x lies in the window."""
    pts = np.asarray(points, dtype=float)
    lab = np.asarray(labels)
    lo, hi = window
    inside = (pts[:, 0] >= lo) & (pts[:, 0] <= hi)
    graph = np.flatnonzero(inside & (lab == "graph"))
    axis = pts[inside & (lab == "axis")]
    for g in graph:
        if (np.sqrt(((axis - pts[g]) ** 2).sum(1)) <= eps).any():
            return False
    return True


def check_texas_report(report: dict, crest_own: bool, dichotomy_own: bool,
                       control_own: bool) -> None:
    """The obstruction report agrees with the benchmark's own crest gap and BFS."""
    require(report.get("kind") == "texas_report", "not a texas report")
    require(crest_own, "own check: the crest gap does not hold at eps")
    require(dichotomy_own, "own BFS: the pair stays connected without the segment")
    require(not control_own, "own BFS: the pair is disconnected even with the segment")
    require(report["crest_gap"]["holds"] is True, "report: crest gap not reported")
    require(report["dichotomy"]["holds"] is True, "report: dichotomy not reported")
    require(report["dichotomy"]["control_with_segment"] is False,
            "report: control with segment should be connected")
    ref = report["refinement"]
    require(ref["accepted"] is False, "report: refinement accepted")
    failure = ref.get("failure")
    require(failure is not None, "report: refinement has no failure record")
    require(failure["kind"] == "refinement" and failure["level"] == 2,
            f"report: failure is {failure['kind']} at level {failure['level']}")
    cands = failure["candidates"]
    require(cands, "report: no refinement candidates were tried")
    bad = [c["verdict"] for c in cands if c["verdict"] != "not_homotopic"]
    require(not bad, f"report: refinement candidates not refuted: {bad}")
    require(report["reproduced"] is True, "report: reproduced is false")


def check_generalized_path(metric: Metric, doc: dict, endpoints) -> None:
    """Accepted, every level chain valid, every compatibility witness replays."""
    require(doc.get("kind") == "generalized_path", "not a generalized path")
    require(doc["accepted"] is True, f"path {endpoints} not accepted")
    require(tuple(doc["endpoints"]) == tuple(endpoints), "endpoints differ")
    filt = doc["filtration"]
    levels = doc["levels"]
    require(len(levels) == len(filt), "one chain per filtration level expected")
    for lv in levels:
        check_chain(metric, lv["vertices"], lv["epsilon"], endpoints)
    compat = doc["compatibility"]
    require(len(compat) == len(levels) - 1, "one compatibility verdict per refinement")
    for i, rec in enumerate(compat):
        require(rec["outcome"] == "homotopic", f"level {i + 2} not compatible")
        check_witness(metric, levels[i + 1]["vertices"], levels[i]["vertices"],
                      rec["witness"], filt[i])


def check_scan_report(metric: Metric, doc: dict, sigma: float,
                      expected_pairs: set) -> None:
    """Every pair passed with a valid sigma-chain; the pairs are exactly the
    same-line pairs within delta."""
    pairs = doc["pairs"]
    seen = set()
    for p in pairs:
        key = (p["i"], p["j"])
        require(p["outcome"] == "passed", f"pair {key} is {p['outcome']}")
        require(p["chain"] is not None, f"pair {key} passed without a chain")
        check_chain(metric, p["chain"], sigma, key)
        seen.add(key)
    require(len(seen) == len(pairs), "a pair is reported twice")
    require(len(pairs) == len(expected_pairs),
            f"{len(pairs)} pairs reported, own recount gives {len(expected_pairs)}")
    require(seen == expected_pairs, "reported pairs differ from the own recount")
    require(doc["summary"]["all_passed"] is True, "summary says not all passed")
