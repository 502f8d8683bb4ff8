"""Self-tests of the benchmark's checkers: each must reject a corrupted output.

    python3 bench/selftest.py

Runs one pass of every workload (smaller inputs where the size does not
matter), confirms that the untouched outputs pass their checks, then
corrupts one thing at a time and confirms that the check rejects it.
Exits 0 when every corruption is caught.
"""

from __future__ import annotations

import copy
import shutil
import sys
import tempfile
from pathlib import Path

import run

workloads = run.import_program()
from checks import CheckFailure  # noqa: E402  (importable once run.py set the path)


def one_pass(cls, workdir: Path):
    wl = cls(7, workdir)
    return wl, wl.run_pass(lambda key, fn: fn())


def expect_pass(wl, outputs, label: str) -> None:
    wl.check(outputs)
    print(f"ok    {label}: untouched output passes")


def expect_reject(wl, outputs, corrupt, label: str) -> bool:
    bad = copy.deepcopy(outputs)
    corrupt(bad)
    try:
        wl.check(bad)
    except CheckFailure as exc:
        print(f"ok    {label}: rejected ({exc})")
        return True
    print(f"FAIL  {label}: corrupted output was accepted")
    return False


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.OUT))
    results = []
    try:
        wl, out = one_pass(workloads.TexasReport, tmp)
        expect_pass(wl, out, "texas-report")

        def flip_candidate(o):
            o["texas"][1]["refinement"]["failure"]["candidates"][0]["verdict"] = "homotopic"
        results.append(expect_reject(wl, out, flip_candidate,
                                     "texas: one refuted candidate flipped to passed"))

        def break_candidate_hop(o):
            cand = o["texas"][1]["refinement"]["failure"]["candidates"][0]["vertices"]
            cand[len(cand) // 2] = (cand[len(cand) // 2] + 500) % 1000
        results.append(expect_reject(wl, out, break_candidate_hop,
                                     "texas: one broken hop in a refuted candidate"))

        def flip_control(o):
            o["texas"][1]["dichotomy"]["control_with_segment"] = True
        results.append(expect_reject(wl, out, flip_control,
                                     "texas: dichotomy control flipped against the own BFS"))

        wl, out = one_pass(workloads.CircleGP, tmp)
        expect_pass(wl, out, "circle-gp")

        def drop_move(o):
            o["gp0"][1]["compatibility"][0]["witness"].pop()
        results.append(expect_reject(wl, out, drop_move, "circle-gp: one witness move missing"))

        def far_insert(o):
            start = o["gp0"][1]["endpoints"][0]
            o["gp0"][1]["compatibility"][0]["witness"][0] = {
                "op": "insert", "position": 1, "vertex": (start + 180) % 360}
        results.append(expect_reject(wl, out, far_insert,
                                     "circle-gp: one witness move inserting a far vertex"))

        def break_level_hop(o):
            v = o["gp1"][1]["levels"][-1]["vertices"]
            v[len(v) // 2] = (v[len(v) // 2] + 90) % 360
        results.append(expect_reject(wl, out, break_level_hop, "circle-gp: one broken hop"))

        workloads.LinesScan.LENGTH = 5.0
        wl, out = one_pass(workloads.LinesScan, tmp)
        expect_pass(wl, out, "lines-scan")

        def break_pair_hop(o):
            c = next(p for p in o["scan0"][1]["pairs"] if len(p["chain"]) > 2)["chain"]
            c[1] = c[-1] + 3
        results.append(expect_reject(wl, out, break_pair_hop, "lines-scan: one broken hop"))

        def drop_pair(o):
            o["scan1"][1]["pairs"].pop()
        results.append(expect_reject(wl, out, drop_pair, "lines-scan: one pair missing"))

        def refute_pair(o):
            p = o["scan0"][1]["pairs"][0]
            p["outcome"], p["chain"] = "refuted", None
        results.append(expect_reject(wl, out, refute_pair, "lines-scan: one pair refuted"))

        workloads.SearchMoves.CLOUDS = 3
        wl, out = one_pass(workloads.SearchMoves, tmp)
        expect_pass(wl, out, "search-moves")

        def alter_search_move(o):
            q = next(q for q in o["queries"] if q["verdict"]["outcome"] == "homotopic")
            q["verdict"]["witness"][len(q["verdict"]["witness"]) // 2]["position"] = 0
        results.append(expect_reject(wl, out, alter_search_move,
                                     "search-moves: one altered witness move"))

        def refute_moved(o):
            q = next(q for q in o["queries"] if q["kind"] == "moved")
            q["verdict"] = {"outcome": "not_homotopic", "states_explored": 0,
                            "certificate_support": [[q["c1"][0], q["c1"][1]]]}
        results.append(expect_reject(wl, out, refute_moved,
                                     "search-moves: homotopic-by-construction pair refuted"))

        def pass_winding(o):
            q = next(q for q in o["queries"] if q["kind"] == "winding")
            q["verdict"] = {"outcome": "homotopic", "states_explored": 0, "witness": []}
        results.append(expect_reject(wl, out, pass_winding,
                                     "search-moves: odd winding pair flipped to homotopic"))

        def zero_residue(o):
            q = next(q for q in o["queries"] if q["kind"] == "winding")
            q["verdict"]["certificate_support"] = []
        results.append(expect_reject(wl, out, zero_residue,
                                     "search-moves: refutation with a zero residue"))

        def even_winding(o):
            q = next(q for q in o["queries"] if q["kind"] == "winding")
            q["c2"] = q["c1"]
        results.append(expect_reject(wl, out, even_winding,
                                     "search-moves: loops whose windings differ evenly"))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    missed = results.count(False)
    print(f"{len(results) - missed} of {len(results)} corruptions rejected")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
