import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from epschain import (Chain, SpaceSpec, chain_to_doc, circle_cloud, generate,
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


def test_svg_rejects_matrix_cloud():
    from epschain import PointCloud

    with pytest.raises(ValueError):
        cloud_figure(PointCloud(matrix=[[0.0, 1.0], [1.0, 0.0]]))


def test_usage_errors(tmp_path):
    assert run(["generate", "--family", "moebius"]) == 2
    assert run(["components", "--space", str(tmp_path / "absent.json"),
                "--eps", "0.5"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["components", "--space", str(bad), "--eps", "0.5"]) == 2


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
    assert np.array_equal(generate(SpaceSpec(family)).points, expected)


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
