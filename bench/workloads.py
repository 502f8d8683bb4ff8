"""The benchmark's four workloads.

Each workload builds its inputs from the seed in ``__init__`` (the set-up
that ``setup_s`` times), then runs passes.  A pass repeats the same
operations on freshly loaded clouds, as each CLI call is for a user, and
hands every operation to ``op(key, fn)`` so the runner can time it.  The
first pass's outputs are checked by ``check`` with the benchmark's own
computations (``checks.py``); later passes must reproduce them exactly.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import checks
from checks import Metric, require
from epschain import chain, cli, documents, homotopy, joinability, rips, space
from epschain.homotopy import SearchBudget


def _points_of(path) -> np.ndarray:
    """Coordinates of a cloud document, read with plain json."""
    with open(path, encoding="utf-8") as fh:
        return np.asarray(json.load(fh)["points"], dtype=float)


class CliWorkload:
    """Operations that are CLI commands run in process, each writing a report."""

    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        self.commands: list[tuple[str, list[str], Path, str]] = []

    def _command(self, key: str, argv: list[str], kind: str) -> None:
        out = self.workdir / f"{key}.json"
        self.commands.append((key, argv + ["--out", str(out)], out, kind))

    def run_pass(self, op) -> dict:
        outputs = {}
        for key, argv, out, kind in self.commands:
            outputs[key] = op(key, lambda: (cli.run(argv), documents.read_doc(out, kind)))
        return outputs

    def fingerprint(self, outputs) -> tuple:
        """Report bytes and exit codes; equal across passes when reports are stable."""
        return tuple((key, outputs[key][0], out.read_bytes())
                     for key, _, out, _ in self.commands)

    def failed(self, outputs) -> list[str]:
        return [f"{key}: exit 3 (unknown)" for key, (rc, _) in outputs.items() if rc == 3]


class TexasReport(CliWorkload):
    """``epschain texas`` at its defaults: the paper's counterexample, end to end.

    The input is fixed by the paper's construction, so the seed does not
    change it.
    """

    name = "texas-report"

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self._command("texas", ["texas"], "texas_report")

    def check(self, outputs) -> None:
        rc, rep = outputs["texas"]
        require(rc == 0, f"texas exited {rc}")
        p = rep["parameters"]
        require((p["n"], p["mprime"], p["h"], p["eps"], p["m_end"]) == (2, 5, 0.02, 0.5, 8.0),
                f"texas ran with {p}, not its defaults")
        n, mprime, eps, sigma = p["n"], p["mprime"], p["eps"], 1.0 / (p["mprime"] * math.pi)
        x = n * math.pi
        pair = [(x, 1.0 / x), (x, 0.0)]

        crest = space.texas_sample(h=p["default_h"], m_end=p["m_end"], n=n)
        crest_own = checks.crest_gap_holds(crest.points, crest.labels, eps,
                                           (1.2 * math.pi, 1.8 * math.pi))

        dcloud = space.texas_sample(h=p["h"], m_end=p["m_end"], n=n)
        pts, labels = dcloud.points, np.asarray(dcloud.labels)
        xi, yi = (int(np.flatnonzero((pts[:, 0] == a) & (pts[:, 1] == b))[0]) for a, b in pair)
        # cut everything at or beyond (mprime-1)*pi, then also the segment;
        # the query pair itself always stays
        with_segment = pts[:, 0] < (mprime - 1) * math.pi
        without_segment = with_segment & (labels != "segment")
        with_segment[[xi, yi]] = without_segment[[xi, yi]] = True
        metric = Metric(pts)
        dichotomy_own = not checks.reachable(metric, xi, yi, sigma, without_segment)
        control_own = not checks.reachable(metric, xi, yi, sigma, with_segment)
        checks.check_texas_report(rep, crest_own, dichotomy_own, control_own)

        refine = space.texas_sample(h=p["h_refine"], m_end=p["m_end"], n=n)
        rmetric = Metric(refine.points)
        ref = rep["refinement"]
        for lv in ref["levels"]:
            checks.check_chain(rmetric, lv["vertices"], lv["epsilon"], ref["endpoints"])
        fail = ref["failure"]
        for cand in fail["candidates"]:
            checks.check_chain(rmetric, cand["vertices"], sigma, fail["hop_endpoints"])
        b1 = rips.build(refine, eps).betti1()
        require(b1 == int(p["m_end"]) - 1,
                f"betti1 at eps={eps} is {b1}, expected the crest count {int(p['m_end']) - 1}")


class CircleGP(CliWorkload):
    """``epschain gp`` between antipodes of a 360-point circle, filtration 0.5/0.25/0.1."""

    name = "circle-gp"
    N = 360
    FILTRATION = (0.5, 0.25, 0.1)
    PATHS = 3

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        rng = np.random.default_rng([seed, 1])
        self.doc = workdir / "circle.json"
        space.save_cloud(space.circle_cloud(self.N), self.doc)
        starts = sorted(rng.choice(self.N // 2, size=self.PATHS, replace=False).tolist())
        self.ends = {}
        for k, s in enumerate(starts):
            key = f"gp{k}"
            self.ends[key] = (s, s + self.N // 2)
            self._command(key, ["gp", "--space", str(self.doc), "--from", str(s),
                                "--to", str(s + self.N // 2), "--filtration",
                                ",".join(str(e) for e in self.FILTRATION)],
                          "generalized_path")

    def check(self, outputs) -> None:
        metric = Metric(_points_of(self.doc))
        for key, (rc, doc) in outputs.items():
            require(rc == 0, f"{key} exited {rc}")
            require(tuple(doc["filtration"]) == self.FILTRATION, f"{key}: wrong filtration")
            checks.check_generalized_path(metric, doc, self.ends[key])
        b1 = rips.build(space.load_cloud(self.doc), self.FILTRATION[0]).betti1()
        require(b1 == 1, f"betti1 of the circle at eps={self.FILTRATION[0]} is {b1}")


class LinesScan(CliWorkload):
    """``epschain scan`` at (0.5, 0.2, 0.05) on two length-20 parallel-lines samples.

    The seed sets each sample's gap and one extra point on each line, off the
    grid; the gap stays above delta, so every close pair lies on one line.
    """

    name = "lines-scan"
    EPS, DELTA, SIGMA = 0.5, 0.2, 0.05
    LENGTH = 20.0
    DOCS = 2

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        rng = np.random.default_rng([seed, 2])
        self.docs = {}
        for k in range(self.DOCS):
            gap = float(rng.uniform(0.8, 1.6))
            x_low, x_up = (float(0.04 * int(rng.integers(1, 500)) + 0.04 * rng.uniform(0.2, 0.8))
                           for _ in range(2))
            cloud = space.parallel_lines_cloud(gap=gap, length=self.LENGTH,
                                               must_include=((x_low, 0.0), (x_up, gap)),
                                               name=f"lines{k}")
            path = workdir / f"lines{k}.json"
            space.save_cloud(cloud, path)
            key = f"scan{k}"
            self.docs[key] = path
            self._command(key, ["scan", "--space", str(path), "--eps", str(self.EPS),
                                "--delta", str(self.DELTA), "--sigma", str(self.SIGMA)],
                          "joinability_report")

    def check(self, outputs) -> None:
        for key, (rc, doc) in outputs.items():
            require(rc == 0, f"{key} exited {rc}")
            pts = _points_of(self.docs[key])
            expected = checks.close_pairs_on_lines(pts, self.DELTA)
            gap = float(np.unique(pts[:, 1]).max())
            require(gap > self.DELTA, "lines closer than delta")
            checks.check_scan_report(Metric(pts), doc, self.SIGMA, expected)


class SearchMoves:
    """Library ``are_homotopic`` where the bidirectional search does the work.

    * Jittered-grid planar clouds: each pair is a random walk and its image
      under two random legal inserts and two deletes, kept only when neither
      collapsed chain is a subsequence of the other, so neither the
      certificate nor greedy contraction can decide it.
    * Loops threaded by ``find_chain`` through seeded waypoints on a circle,
      paired so their windings differ by an odd number: the GF(2)
      certificate refutes them.  One more odd loop per pass comes from the
      joinability layer: a coarse loop through close waypoints, refined to
      the circle's scale by ``refine_chain``.
    * The 24-hop boundary loop of the filled 7x7 grid at eps=1.5 against the
      constant loop, under a fixed budget.  It is null by construction, but
      today's search ends ``unknown``: one failed operation per pass.
    """

    name = "search-moves"
    CLOUDS, PAIRS_PER_CLOUD, GRID_SIDE = 40, 20, 9
    WALK, MOVES = 20, ("insert", "insert", "delete", "delete")
    PAIR_BUDGET = SearchBudget(max_chain_length=64, max_states=200_000)
    CIRCLE_N, LOOPS, LAPS_SPLIT = 150, 40, 4
    GRID_BUDGET = SearchBudget(max_chain_length=100, max_states=20_000)

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 3])
        self.workdir = workdir
        self.out = workdir / "verdicts.json"
        self.clouds = {}  # name -> (path, eps)
        self.pairs = []   # (cloud name, c1, c2)
        for k in range(self.CLOUDS):
            pts = _jittered_grid(rng, self.GRID_SIDE)
            dist = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
            d = np.sort(dist[np.triu_indices(len(pts), 1)])
            q = int(0.12 * len(d))
            eps = float((d[q] + d[q + 1]) / 2)  # halfway between two distances: no ties
            bits = [int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little")
                    for row in dist <= eps]
            name = f"planar{k}"
            self.clouds[name] = (self._save(space.PointCloud(points=pts, name=name)), eps)
            made = 0
            while made < self.PAIRS_PER_CLOUD:
                pair = _moved_pair(rng, bits, self.WALK, self.MOVES)
                if pair is not None:
                    self.pairs.append((name, *pair))
                    made += 1

        n = self.CIRCLE_N
        ceps = 2 * math.sin(math.pi * 3.5 / n)  # neighbours up to three steps away
        self.clouds["circle"] = (self._save(space.circle_cloud(n, name="circle")), ceps)
        self.loops = []  # (waypoints of loop a, waypoints of loop b)
        for _ in range(self.LOOPS):
            base = int(rng.integers(n))
            odd, even = int(rng.choice([1, 3])), int(rng.choice([0, 2]))
            laps = (odd, even) if rng.random() < 0.5 else (even, odd)
            self.loops.append(tuple(self._waypoints(rng, base, w) for w in laps))
        # one lap in hops of at most 7 steps, inside the coarse scale
        base = int(rng.integers(n))
        coarse, at = [base], 0
        while n - at > 7:
            at += int(rng.integers(4, 8))
            coarse.append((base + at) % n)
        coarse.append(base)
        self.coarse_loop = coarse
        self.coarse_eps = 2 * math.sin(math.pi * 7.5 / n)
        self.coarse_partner = self._waypoints(rng, base, int(rng.choice([0, 2])))

        grid = [(float(x), float(y)) for x in range(7) for y in range(7)]
        self.clouds["grid"] = (self._save(space.PointCloud(points=grid, name="grid")), 1.5)
        ring = ([(x, 0) for x in range(6)] + [(6, y) for y in range(6)]
                + [(x, 6) for x in range(6, 0, -1)] + [(0, y) for y in range(6, 0, -1)]
                + [(0, 0)])
        self.grid_loop = [7 * x + y for x, y in ring]

    def _save(self, cloud) -> Path:
        path = self.workdir / f"{cloud.name}.json"
        space.save_cloud(cloud, path)
        return path

    def _waypoints(self, rng, base: int, laps: int) -> list[int]:
        n, q = self.CIRCLE_N, self.LAPS_SPLIT
        pts = [base]
        for _ in range(laps):
            for k in range(1, q + 1):
                jitter = 0 if k == q else int(rng.integers(-n // 20, n // 20 + 1))
                pts.append((base + k * n // q + jitter) % n)
        return pts

    def run_pass(self, op) -> dict:
        clouds = {name: space.load_cloud(path) for name, (path, _) in self.clouds.items()}
        queries = []  # (kind, cloud name, c1, c2, budget)
        for name, v1, v2 in self.pairs:
            eps = self.clouds[name][1]
            queries.append(("moved", name, chain.Chain(clouds[name], v1, eps),
                            chain.Chain(clouds[name], v2, eps), self.PAIR_BUDGET))
        circle, ceps = clouds["circle"], self.clouds["circle"][1]
        for wa, wb in self.loops:
            queries.append(("winding", "circle", _thread(circle, wa, ceps),
                            _thread(circle, wb, ceps), None))
        coarse = chain.Chain(circle, self.coarse_loop, self.coarse_eps)
        queries.append(("winding", "circle",
                        joinability.refine_chain(coarse, self.coarse_eps, ceps),
                        _thread(circle, self.coarse_partner, ceps), None))
        grid = clouds["grid"]
        queries.append(("grid", "grid", chain.Chain(grid, self.grid_loop, 1.5),
                        chain.Chain(grid, self.grid_loop[:1] * 2, 1.5), self.GRID_BUDGET))

        records = []
        for k, (kind, name, c1, c2, budget) in enumerate(queries):
            verdict = op(f"q{k:03d}", lambda: homotopy.are_homotopic(c1, c2, budget))
            records.append({"kind": kind, "space": name, "eps": c1.scale.epsilon,
                            "c1": list(c1.vertices), "c2": list(c2.vertices),
                            "verdict": verdict.to_record()})
        documents.write_doc({"schema_version": 1, "kind": "homotopy_batch",
                             "queries": records}, self.out)
        return documents.read_doc(self.out, "homotopy_batch")

    def fingerprint(self, outputs) -> bytes:
        return self.out.read_bytes()

    def failed(self, outputs) -> list[str]:
        return [f"q{k:03d} ({q['kind']} on {q['space']}): unknown after "
                f"{q['verdict']['states_explored']} states, budget {q['verdict']['budget']}"
                for k, q in enumerate(outputs["queries"]) if q["verdict"]["outcome"] == "unknown"]

    def check(self, outputs) -> None:
        metrics = {name: Metric(_points_of(path)) for name, (path, _) in self.clouds.items()}
        queries = outputs["queries"]
        require(len(queries) == len(self.pairs) + len(self.loops) + 2, "queries missing")
        for k, q in enumerate(queries):
            metric, eps, v = metrics[q["space"]], q["eps"], q["verdict"]
            where = f"q{k:03d} ({q['kind']})"
            c1, c2 = q["c1"], q["c2"]
            ends = (c1[0], c1[-1])
            checks.check_chain(metric, c1, eps, ends)
            checks.check_chain(metric, c2, eps, ends)
            if q["kind"] == "winding":
                pts = metric.points
                parity = (checks.winding_number(pts, c1) - checks.winding_number(pts, c2)) % 2
                require(parity == 1, f"{where}: windings do not differ by an odd number")
                require(v["outcome"] == "not_homotopic", f"{where}: odd winding pair is {v['outcome']}")
                support = v.get("certificate_support") or []
                require(support, f"{where}: refuted with a zero residue")
                require(all(metric.d(a, b) <= eps for a, b in support),
                        f"{where}: certificate support holds a non-edge")
                continue
            # moved pairs and the grid loop are homotopic by construction
            require(v["outcome"] != "not_homotopic", f"{where}: homotopic pair refuted")
            if v["outcome"] == "homotopic":
                checks.check_witness(metric, c1, c2, v["witness"], eps)
            else:
                budget = self.GRID_BUDGET if q["kind"] == "grid" else self.PAIR_BUDGET
                require(v.get("budget") == {"max_chain_length": budget.max_chain_length,
                                            "max_states": budget.max_states},
                        f"{where}: unknown without echoing its budget")


def _moved_pair(rng, bits: list[int], walk: int, moves: tuple[str, ...]):
    """A random walk and its image under random legal moves, or None.

    ``bits[v]`` has bit w set iff w is within eps of v (v itself included).
    The walk never steps straight back.  ``moves`` names the kinds of move
    to make ("insert" or "delete"); they run in random order, each drawn
    uniformly from the legal moves of its kind.  Fixing the mix of kinds
    keeps the pairs' difficulty, hence the run's timings, alike from seed to
    seed.  None when the walk or a move gets stuck, or when one collapsed
    chain is a subsequence of the other (greedy contraction would decide the
    pair).
    """
    c = [int(rng.integers(len(bits)))]
    for _ in range(walk):
        back = c[-2] if len(c) > 1 else c[-1]
        nbrs = [w for w in _members(bits[c[-1]]) if w != c[-1] and w != back]
        if not nbrs:
            return None
        c.append(nbrs[int(rng.integers(len(nbrs)))])
    c2 = list(c)
    for kind in rng.permutation(moves):
        if kind == "delete":
            legal = [(p,) for p in range(1, len(c2) - 1) if bits[c2[p - 1]] >> c2[p + 1] & 1]
        else:
            legal = [(p, v) for p in range(1, len(c2))
                     for v in _members(bits[c2[p - 1]] & bits[c2[p]])]
        if not legal:
            return None
        move = legal[int(rng.integers(len(legal)))]
        if kind == "delete":
            del c2[move[0]]
        else:
            c2.insert(*move)
    s1, s2 = _collapse(c), _collapse(c2)
    if _subsequence(s1, s2) or _subsequence(s2, s1):
        return None
    return tuple(c), tuple(c2)


def _members(mask: int) -> list[int]:
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return out


def _collapse(vertices) -> tuple[int, ...]:
    return tuple(v for k, v in enumerate(vertices) if k == 0 or v != vertices[k - 1])


def _jittered_grid(rng, side: int) -> np.ndarray:
    """side x side points of the unit grid, each moved by up to 0.3 of a cell."""
    cells = np.stack(np.meshgrid(np.arange(side), np.arange(side)), -1).reshape(-1, 2)
    return (cells + rng.uniform(-0.3, 0.3, size=cells.shape)) / side


def _subsequence(needle, hay) -> bool:
    it = iter(hay)
    return all(any(x == y for y in it) for x in needle)


def _thread(cloud, waypoints, eps) -> "chain.Chain":
    """A loop through the waypoints, each leg a shortest chain from find_chain."""
    verts = [waypoints[0]]
    for a, b in zip(waypoints, waypoints[1:]):
        verts.extend(chain.find_chain(cloud, a, b, eps).vertices[1:])
    if len(verts) == 1:
        verts.append(verts[0])
    return chain.Chain(cloud, verts, eps)


WORKLOADS = {w.name: w for w in (TexasReport, CircleGP, LinesScan, SearchMoves)}
