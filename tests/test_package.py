"""The package's public names, the attributes the benchmark's tracer patches,
and the benchmark's own checkers."""

import re
import subprocess
import sys
from pathlib import Path

import epschain


def test_public_names_and_traced_attributes_exist(monkeypatch):
    names = epschain.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(epschain, name) is not None
    # bench/spans.py wraps named functions in several modules from outside;
    # deleting one of them would pass every other test and break only a
    # traced benchmark run
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    from spans import Tracer

    before = epschain.are_homotopic
    tracer = Tracer()
    tracer.install(epschain)
    try:
        assert epschain.are_homotopic is not before
    finally:
        tracer.uninstall()
    assert epschain.are_homotopic is before


def test_benchmark_checkers_reject_every_corruption():
    # bench/selftest.py checks one pass of each workload, then corrupts its
    # outputs one at a time; the texas-report and circle-gp checks compute
    # betti1() with this package, so they also check its reduction
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "bench/selftest.py"], cwd=root,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert re.fullmatch(r"(\d+) of \1 corruptions rejected", proc.stdout.splitlines()[-1])
