import hashlib
import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from epschain import (Chain, PointCloud, chain_to_doc, circle_cloud, generate,
                      interval_cloud, load_cloud, parallel_lines_cloud, save_cloud,
                      texas_circle_cloud)
from epschain.cli import run
from epschain.documents import dumps_doc, write_doc
from epschain.svgfig import cloud_figure


def write_chain(path, chain):
    write_doc(chain_to_doc(chain), path)


def test_generate_circle_document(tmp_path):
    out = tmp_path / "hex.json"
    assert run(["generate", "--family", "circle", "--n", "6",
                "--out", str(out)]) == 0
    cloud = load_cloud(out)
    assert len(cloud) == 6
    assert cloud.name == "circle"


def test_generate_to_stdout(capsys):
    assert run(["generate", "--family", "circle", "--n", "4"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "point_cloud"
    assert len(doc["points"]) == 4


def test_generate_texas_with_pair(tmp_path):
    out = tmp_path / "texas.json"
    assert run(["generate", "--family", "texas_circle", "--h", "0.1",
                "--m-end", "4", "--include-pair-at", "2",
                "--out", str(out)]) == 0
    cloud = load_cloud(out)
    assert cloud.parts == ("graph", "axis", "segment")


def test_components_report(tmp_path):
    space = tmp_path / "lines.json"
    save_cloud(parallel_lines_cloud(gap=1.0), space)
    out = tmp_path / "components.json"
    assert run(["components", "--space", str(space), "--eps", "0.5",
                "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["count"] == 2


def test_chain_found_and_absent(tmp_path):
    space = tmp_path / "hex.json"
    save_cloud(circle_cloud(6), space)
    out = tmp_path / "chain.json"
    assert run(["chain", "--space", str(space), "--eps", "1.01",
                "--from", "0", "--to", "3", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["vertices"] == [0, 1, 2, 3]
    assert run(["chain", "--space", str(space), "--eps", "0.9",
                "--from", "0", "--to", "3", "--out", str(out)]) == 1
    assert json.loads(out.read_text())["found"] is False


def test_homotopy_exit_codes(tmp_path):
    cloud = circle_cloud(6)
    space = tmp_path / "hex.json"
    save_cloud(cloud, space)
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    write_chain(a, Chain(cloud, [0, 1, 2, 3], 1.01))
    write_chain(b, Chain(cloud, [0, 5, 4, 3], 1.01))
    report = tmp_path / "verdict.json"
    assert run(["homotopy", "--space", str(space), "--c1", str(a),
                "--c2", str(b), "--out", str(report)]) == 1
    doc = json.loads(report.read_text())
    assert doc["verdict"]["outcome"] == "not_homotopic"
    assert doc["verdict"]["certificate_support"]
    assert run(["homotopy", "--space", str(space), "--c1", str(a),
                "--c2", str(a), "--out", str(report)]) == 0


def test_homotopy_unknown_exit_code(tmp_path):
    cloud = circle_cloud(6)
    space = tmp_path / "hex.json"
    save_cloud(cloud, space)
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    write_chain(a, Chain(cloud, [0, 1, 2, 3], 2.0))
    write_chain(b, Chain(cloud, [0, 5, 4, 3], 2.0))
    assert run(["homotopy", "--space", str(space), "--c1", str(a),
                "--c2", str(b), "--budget-states", "2"]) == 3


@pytest.mark.parametrize("flags", [[], ["--budget-states", "1000000"], ["--budget-len", "28"],
                                   ["--budget-len", "28", "--budget-states", "1000000"]])
def test_an_unset_budget_flag_takes_the_per_query_default(tmp_path, flags):
    # the default chain-length cap is 4 * max(len(c1), len(c2), 2) = 28 here,
    # whichever other flag is given
    cloud = circle_cloud(12)
    space = tmp_path / "c12.json"
    save_cloud(cloud, space)
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    write_chain(a, Chain(cloud, [0, 2, 4, 6, 8, 10, 0], 1.8))
    write_chain(b, Chain(cloud, [0, 0], 1.8))
    report = tmp_path / "verdict.json"
    run(["homotopy", "--space", str(space), "--c1", str(a), "--c2", str(b),
         *flags, "--out", str(report)])
    budget = json.loads(report.read_text())["verdict"]["budget"]
    assert budget == {"max_chain_length": 28, "max_states": 1000000}


@pytest.mark.parametrize("flag", ["--budget-len", "--budget-states"])
def test_zero_budget_is_a_usage_error(tmp_path, capsys, flag):
    cloud = circle_cloud(6)
    space = tmp_path / "hex.json"
    save_cloud(cloud, space)
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    write_chain(a, Chain(cloud, [0, 1, 2, 3], 2.0))
    write_chain(b, Chain(cloud, [0, 5, 4, 3], 2.0))
    assert run(["homotopy", "--space", str(space), "--c1", str(a),
                "--c2", str(b), flag, "0"]) == 2
    assert "budget fields must be >= 1" in capsys.readouterr().err


def test_internal_fault_exits_4(tmp_path, monkeypatch, capsys):
    # a drifting witness is a fault of the program, not a mathematical answer
    from epschain import homotopy

    cloud = circle_cloud(6)
    space = tmp_path / "hex.json"
    save_cloud(cloud, space)
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    write_chain(a, Chain(cloud, [0, 1, 2], 2.0))
    write_chain(b, Chain(cloud, [0, 2], 2.0))
    monkeypatch.setattr(homotopy, "replay", lambda chain, moves: chain)
    assert run(["homotopy", "--space", str(space), "--c1", str(a),
                "--c2", str(b)]) == 4
    err = capsys.readouterr().err
    assert "internal error" in err and "drifted" in err
    assert len(err.strip().splitlines()) == 1


def test_short_command(tmp_path):
    cloud = circle_cloud(60)
    space = tmp_path / "circle.json"
    save_cloud(cloud, space)
    cpath = tmp_path / "c.json"
    write_chain(cpath, Chain(cloud, [0, 1, 2], 0.5))
    assert run(["short", "--space", str(space), "--chain", str(cpath)]) == 0
    # endpoints farther apart than the scale: usage error, not a verdict
    write_chain(cpath, Chain(cloud, list(range(0, 31)), 0.2))
    assert run(["short", "--space", str(space), "--chain", str(cpath)]) == 2


def test_scan_command_and_determinism(tmp_path):
    space = tmp_path / "lines.json"
    save_cloud(parallel_lines_cloud(gap=1.0, length=2.0), space)
    out1 = tmp_path / "scan1.json"
    out2 = tmp_path / "scan2.json"
    args = ["scan", "--space", str(space), "--eps", "0.5", "--delta", "0.2",
            "--sigma", "0.05"]
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    # an unset --seed is the scan's own default, 0
    assert run(args + ["--seed", "0", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    assert doc["summary"]["all_passed"] is True
    assert doc["parameters"]["eps"] == 0.5


def test_gp_command(tmp_path):
    space = tmp_path / "circle.json"
    save_cloud(circle_cloud(60), space)
    out = tmp_path / "gp.json"
    assert run(["gp", "--space", str(space), "--from", "0", "--to", "30",
                "--filtration", "0.6,0.3,0.15", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["accepted"] is True
    assert len(doc["levels"]) == 3


def test_gp_disconnected_is_usage_error(tmp_path):
    cloud = parallel_lines_cloud(gap=1.0)
    upper = cloud.labels.index("upper")
    space = tmp_path / "lines.json"
    save_cloud(cloud, space)
    assert run(["gp", "--space", str(space), "--from", "0", "--to", str(upper),
                "--filtration", "0.5,0.25"]) == 2


def test_texas_command(tmp_path):
    out = tmp_path / "texas.json"
    code = run(["texas", "--n", "2", "--mprime", "4", "--h", "0.05",
                "--eps", "0.5", "--m-end", "6", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["reproduced"] is True
    assert doc["crest_gap"]["holds"] is True
    assert doc["dichotomy"]["holds"] is True
    assert doc["refinement"]["accepted"] is False
    # parameters embedded for reproducibility
    assert doc["parameters"]["mprime"] == 4


def test_plot_command(tmp_path):
    cloud = circle_cloud(12)
    space = tmp_path / "circle.json"
    save_cloud(cloud, space)
    cpath = tmp_path / "c.json"
    write_chain(cpath, Chain(cloud, [0, 1, 2, 3], 0.8))
    out = tmp_path / "fig.svg"
    assert run(["plot", "--space", str(space), "--chain", str(cpath),
                "--out", str(out)]) == 0
    root = ET.fromstring(out.read_text())
    assert root.tag.endswith("svg")
    tags = [el.tag.split("}")[-1] for el in root.iter()]
    assert tags.count("circle") == 12
    assert "polyline" in tags
    # an unset --width is the figure's own default, 900
    wide = tmp_path / "fig900.svg"
    assert run(["plot", "--space", str(space), "--chain", str(cpath),
                "--width", "900", "--out", str(wide)]) == 0
    assert out.read_bytes() == wide.read_bytes()


@pytest.mark.parametrize("width", ["-5", "0", "10", "40"])
def test_plot_width_must_exceed_the_margins(tmp_path, capsys, width):
    space = tmp_path / "circle.json"
    save_cloud(circle_cloud(12), space)
    out = tmp_path / "fig.svg"
    assert run(["plot", "--space", str(space), "--width", width, "--out", str(out)]) == 2
    assert "width" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(ValueError):
        cloud_figure(circle_cloud(12), width=int(width))
    assert run(["plot", "--space", str(space), "--width", "41", "--out", str(out)]) == 0


def test_svg_rejects_matrix_cloud():
    from epschain import PointCloud

    with pytest.raises(ValueError):
        cloud_figure(PointCloud(matrix=[[0.0, 1.0], [1.0, 0.0]]))


def test_usage_errors(tmp_path):
    assert run(["generate", "--family", "moebius"]) == 2
    assert run(["generate", "--family", "explicit"]) == 2
    # no curve/axis pair at x = 0, and a dichotomy cut at or below the pair
    assert run(["texas", "--n", "0"]) == 2
    assert run(["texas", "--mprime", "0"]) == 2
    assert run(["generate", "--family", "texas_circle", "--include-pair-at", "0"]) == 2
    assert run(["components", "--space", str(tmp_path / "absent.json"),
                "--eps", "0.5"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["components", "--space", str(bad), "--eps", "0.5"]) == 2
    # cloud documents with a field of the wrong shape or type; "ab" is not two
    # labels, and strings or booleans are not coordinates or distances
    for fields in ({"labels": 5}, {"parts": 5}, {"labels": "ab"}, {"points": {"a": 1}},
                   {"points": [["0", "0"], ["1", "0"]]},
                   {"points": [[True, False], [False, False]]},
                   {"points": [[True, 1.5], [0, 0]]},
                   {"labels": [1, 2]}, {"labels": ["a", "b"], "parts": [1, "a", "b"]}):
        write_doc({"schema_version": 1, "kind": "point_cloud", "name": "pair",
                   "points": [[0.0, 0.0], [1.0, 0.0]], **fields}, bad)
        assert run(["components", "--space", str(bad), "--eps", "0.5"]) == 2
    for matrix in ([["0", "1"], ["1", "0"]], [[False, True], [True, False]],
                   [[0, True], [1, 0]]):
        write_doc({"schema_version": 1, "kind": "point_cloud", "name": "pair",
                   "matrix": matrix}, bad)
        assert run(["components", "--space", str(bad), "--eps", "0.5"]) == 2
    # chain documents that int() would misread: [0, 1.7, 2.2, 3] as [0, 1, 2, 3],
    # "01" at eps true as [0, 1] at 1.0, and [false, 3] as [0, 3]
    space, good = tmp_path / "circle.json", tmp_path / "good.json"
    assert run(["generate", "--family", "circle", "--n", "12", "--out", str(space)]) == 0
    write_chain(good, Chain(load_cloud(space), [0, 3], 1.5))
    for vertices, eps in (([0, 1.7, 2.2, 3], 1.5), ("01", True), ([False, 3], 1.5)):
        write_doc({"schema_version": 1, "kind": "chain", "space": "circle",
                   "epsilon": eps, "vertices": vertices}, bad)
        assert run(["short", "--space", str(space), "--chain", str(bad)]) == 2
        assert run(["homotopy", "--space", str(space), "--c1", str(bad),
                    "--c2", str(good)]) == 2
    # non-finite sampling parameters, refused before any grid is laid out
    for argv in (["generate", "--family", "parallel_lines", "--length", "inf"],
                 ["generate", "--family", "interval", "--length", "inf"],
                 ["generate", "--family", "texas_circle", "--m-end", "inf"],
                 ["texas", "--m-end", "inf"],
                 ["generate", "--family", "texas_circle", "--h", "inf"],
                 ["generate", "--family", "texas_circle", "--hseg", "inf"],
                 ["generate", "--family", "parallel_lines", "--step", "inf"],
                 ["generate", "--family", "interval", "--step", "nan"]):
        assert run(argv) == 2


@pytest.mark.parametrize("argv, digest", [
    (["texas"], "65d7d91748265f83"),
    (["texas", "--mprime", "4", "--h", "0.05", "--m-end", "6"], "b646b564a867fc88"),
    (["components", "--space", "{circle}", "--eps", "0.2"], "e2b5a53cd21591e5"),
    (["chain", "--space", "{circle}", "--eps", "0.2", "--from", "0", "--to", "30"],
     "e79746941634ca9d"),
    (["gp", "--space", "{circle360}", "--from", "0", "--to", "180",
      "--filtration", "0.5,0.25,0.1"], "098241a37bb9f694"),
    (["homotopy", "--space", "{hexagon}", "--c1", "{c1}", "--c2", "{c2}",
      "--budget-len", "8", "--budget-states", "5000"], "9c927a4beaaf09e8"),
    (["scan", "--space", "{lines}", "--eps", "0.5", "--delta", "0.2", "--sigma", "0.05"],
     "916385673c5ebea0"),
    (["generate", "--family", "circle", "--n", "60"], "aa64bc067acd7dbf"),
    (["generate", "--family", "circle"], "fa45db0d48ed7d73"),
    (["generate", "--family", "texas_circle", "--include-pair-at", "2"], "ae66a8ceb0693ef6"),
    (["generate", "--family", "parallel_lines"], "035d6683f23f5f3b"),
    (["generate", "--family", "interval"], "aa58517559fc7e88"),
    (["homotopy", "--space", "{hexagon}", "--c1", "{c1}", "--c2", "{c2}"], "4a6104079c888bf3"),
    (["homotopy", "--space", "{hexagon}", "--c1", "{c1}", "--c2", "{c1}"], "97c80b366c1ffdc8"),
    (["plot", "--space", "{circle}"], "9afea381d8eeb098"),
])
def test_report_bytes_are_pinned(tmp_path, argv, digest):
    # sha256 prefixes of reports whose bytes must not change; the spaces are
    # `generate --family circle` with --n 60, the default 360 points and --n 6,
    # and `generate --family parallel_lines --length 2` (458 close pairs, all
    # passed), and the hexagon chains [0, 1, 2, 3] and [0, 5, 4, 3] at eps = 2
    # leave the certificate and greedy contraction to the search
    files = {name: tmp_path / f"{name}.json"
             for name in ("circle", "circle360", "hexagon", "lines", "c1", "c2")}
    for name, n in (("circle", ["--n", "60"]), ("circle360", []), ("hexagon", ["--n", "6"])):
        assert run(["generate", "--family", "circle", *n, "--out", str(files[name])]) == 0
    assert run(["generate", "--family", "parallel_lines", "--length", "2",
                "--out", str(files["lines"])]) == 0
    assert hashlib.sha256(files["lines"].read_bytes()).hexdigest()[:16] == "879920999fc76b24"
    hexagon = load_cloud(files["hexagon"])
    write_chain(files["c1"], Chain(hexagon, [0, 1, 2, 3], 2.0))
    write_chain(files["c2"], Chain(hexagon, [0, 5, 4, 3], 2.0))
    out = tmp_path / "report.json"
    assert run([a.format(**files) for a in argv] + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest()[:16] == digest


def test_reports_need_no_distance_matrix(tmp_path, monkeypatch):
    # coordinate clouds answer every closeness test from their close-pair
    # list; a command that built the full matrix would exit 4 here
    spaces = {name: tmp_path / f"{name}.json" for name in ("circle360", "lines")}
    assert run(["generate", "--family", "circle", "--out", str(spaces["circle360"])]) == 0
    assert run(["generate", "--family", "parallel_lines", "--length", "2",
                "--out", str(spaces["lines"])]) == 0

    def refuse(cloud):
        raise AssertionError("the full distance matrix was built")

    monkeypatch.setattr(PointCloud, "distances", refuse)
    out = tmp_path / "report.json"
    for argv, digest in (
            (["texas"], "65d7d91748265f83"),
            (["scan", "--space", "{lines}", "--eps", "0.5", "--delta", "0.2",
              "--sigma", "0.05"], "916385673c5ebea0"),
            (["gp", "--space", "{circle360}", "--from", "0", "--to", "180",
              "--filtration", "0.5,0.25,0.1"], "098241a37bb9f694")):
        assert run([a.format(**spaces) for a in argv] + ["--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest()[:16] == digest


def test_report_documents_are_canonical(tmp_path):
    # identical inputs, identical bytes, regardless of dict construction order
    doc = {"b": 1, "a": [2, 3]}
    assert dumps_doc(doc) == dumps_doc({"a": [2, 3], "b": 1})


@pytest.mark.parametrize("family, sampler", [
    ("circle", circle_cloud), ("texas_circle", texas_circle_cloud),
    ("parallel_lines", parallel_lines_cloud), ("interval", interval_cloud)])
def test_generate_defaults_are_the_samplers(tmp_path, family, sampler):
    out = tmp_path / "cloud.json"
    assert run(["generate", "--family", family, "--out", str(out)]) == 0
    expected = sampler().points
    assert np.array_equal(load_cloud(out).points, expected)
    assert np.array_equal(generate(family).points, expected)


def test_generated_parallel_lines_pass_the_scan(tmp_path):
    space = tmp_path / "lines.json"
    assert run(["generate", "--family", "parallel_lines", "--out", str(space)]) == 0
    out = tmp_path / "scan.json"
    assert run(["scan", "--space", str(space), "--eps", "0.5", "--delta", "0.2",
                "--sigma", "0.05", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["summary"]["refuted"] == 0


@pytest.mark.parametrize("flags", [["--include-pair-at", "2"], ["--must-include", "0,0"],
                                   ["--h", "0.1"]])
def test_generate_rejects_flags_the_family_ignores(capsys, flags):
    assert run(["generate", "--family", "circle"] + flags) == 2
    assert "'circle'" in capsys.readouterr().err
