"""The benchmark's reports, pinned: a change to the program that moves a byte
of what the benchmark writes fails here, not only in a benchmark run."""

import hashlib
from pathlib import Path


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


def test_benchmark_reports_are_pinned(tmp_path, monkeypatch):
    # bench/workloads.py builds each workload's inputs from its seed; one pass
    # runs every operation once and writes its reports
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import workloads

    (tmp_path / "scan").mkdir()
    scan = workloads.LinesScan(0, tmp_path / "scan")
    scan.run_pass(lambda key, fn: fn())
    assert [_digest(out) for _, _, out, _ in scan.commands] == [
        "0d594ba61c30e314", "69f8db51dde8b12d"]

    (tmp_path / "moves").mkdir()
    moves = workloads.SearchMoves(1, tmp_path / "moves")
    moves.run_pass(lambda key, fn: fn())
    assert _digest(moves.out) == "243a03c777f79868"
