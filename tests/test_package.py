"""The package's public names, and the attributes the benchmark's tracer patches."""

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
