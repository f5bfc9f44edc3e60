import functools
import hashlib
import importlib.util
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

import sdgdyn
from sdgdyn import format_sdg, load_fds, save_fds
from sdgdyn.cli import main
from sdgdyn.fds import BLOCK_CELLS, fds_document, fds_to_dict, json_pieces

import helpers


# Two domains; caps from 26 to 130 (candidate tables plus systems) trip on
# the second, after the first domain's systems were yielded.
TWO_DOMAIN_GRAPH = sdgdyn.SignedDigraph.from_arcs(
    [("1", "2", "+"), ("1", "3", "-"), ("2", "3", "+")]
)


@pytest.fixture()
def eight_vertex_file(tmp_path):
    path = tmp_path / "example.sdg"
    path.write_text(format_sdg(helpers.eight_vertex_example()))
    return str(path)


@pytest.fixture()
def double_loop_file(tmp_path):
    path = tmp_path / "loops.sdg"
    path.write_text(format_sdg(helpers.double_loop_example()))
    return str(path)


def test_analyze_reports_lambda_beta(eight_vertex_file, capsys):
    assert main(["analyze", "--graph", eight_vertex_file]) == 0
    out = capsys.readouterr().out
    assert "lambda: 3" in out
    assert "beta: 1" in out
    assert "initial components: {1,2,3} {4,5} {6}" in out


def test_analyze_json(eight_vertex_file, capsys):
    assert main(["analyze", "--graph", eight_vertex_file, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["lambda"] == 3 and report["beta"] == 1
    assert report["cycles"]["total"] == len(
        __import__("sdgdyn").enumerate_cycles(helpers.eight_vertex_example())
    )


def test_analyze_cycle_cap_trips_one_past_the_count(eight_vertex_file, capsys):
    # Six descriptors, counted as the search yields them: a cap of five
    # trips on the sixth, a cap of six prints what no cap prints.
    analyze = ["analyze", "--graph", eight_vertex_file]
    for form in ([], ["--json"]):
        assert main([*analyze, "--cap", "5", *form]) == 4
        assert capsys.readouterr() == ("", "error: more than 5 cycles\n")
        assert main([*analyze, "--cap", "6", *form]) == 0
        capped = capsys.readouterr()
        assert main([*analyze, *form]) == 0
        assert capsys.readouterr() == capped
        if not form:
            assert capped.out == (
                "vertices: 8\narcs: 15\nlambda: 3\nbeta: 1\nstrong components: 4\n"
                "initial components: {1,2,3} {4,5} {6}\nbasic: no\nsources: 6\nsinks: -\n"
                "isolated: -\ncycles: 6 (3 positive, 3 negative)\n"
            )
    assert json.loads(capped.out)["cycles"] == {"total": 6, "positive": 3, "negative": 3}


def test_synth_nilpotent_double_loop(double_loop_file, tmp_path, capsys):
    out = tmp_path / "loops.fds.json"
    code = main(
        ["synth-nilpotent", "--graph", double_loop_file, "--out", str(out)]
    )
    assert code == 0
    text = capsys.readouterr().out
    assert "nilpotent, index 2" in text
    doc = json.loads(out.read_text())
    assert doc["intervals"] == [[0, 2]]
    assert doc["tables"] == [[0, 2, 0]]
    cert = json.loads((tmp_path / "loops.fds.cert.json").read_text())
    assert cert["lambda"] == 1 and cert["beta"] == 1
    assert cert["xi"] == [0]


def test_synth_then_verify_roundtrip(eight_vertex_file, tmp_path, capsys):
    out = tmp_path / "f.json"
    assert main(["synth-nilpotent", "--graph", eight_vertex_file, "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["verify", "--graph", eight_vertex_file, "--fds", str(out)]) == 0
    text = capsys.readouterr().out
    assert "PASS: interaction graph matches" in text
    assert "PASS: degree bounds hold" in text
    assert "PASS: certificate verifies" in text
    assert "nilpotency index: 4" in text


def test_verify_with_the_graph_alone_checks_the_graph_file(eight_vertex_file, capsys):
    assert main(["verify", "--graph", eight_vertex_file]) == 0
    assert capsys.readouterr() == ("PASS: graph file well-formed\n", "")


def test_verify_names_only_the_checks_it_ran(tmp_path, capsys):
    # A subsystem whose domain is not inside the system's: the nesting
    # fails, and the image and agreement checks are never run.
    gpath, fpath, hpath = tmp_path / "g.sdg", tmp_path / "f.json", tmp_path / "h.json"
    gpath.write_text("sdg v1\narc 1 2 +\narc 2 1 -\n")
    fpath.write_text(json.dumps({"version": "fds.v1", "intervals": [[0, 1], [0, 1]],
                                 "tables": [[1, 0, 1, 0], [0, 0, 1, 1]]}))
    hpath.write_text(json.dumps({"version": "fds.v1", "intervals": [[0, 2], [0, 1]],
                                 "tables": [[0] * 6, [0] * 6]}))
    argv = ["verify", "--graph", str(gpath), "--fds", str(fpath), "--sub", str(hpath), "--steps", "1"]
    assert main(argv) == 1
    assert capsys.readouterr().out == (
        "PASS: interaction graph matches\nPASS: degree bounds hold\n"
        "FAIL: converges toward subsystem in 1 steps "
        "(subsystem domain is not contained in the system domain)\n"
        "nilpotency index: None\nfixed points: 0\n"
    )


def test_verify_detects_corruption(eight_vertex_file, tmp_path, capsys):
    # The flipped entry adds negative arcs into 1: the graph line names
    # them, and the certificate line only what the structure lines do not.
    out = tmp_path / "f.json"
    main(["synth-nilpotent", "--graph", eight_vertex_file, "--out", str(out)])
    capsys.readouterr()
    written = load_fds(str(out))
    doc = json.loads(out.read_text())
    doc["tables"][0][0] = 1 - doc["tables"][0][0]  # flip one entry
    out.write_text(json.dumps(doc))
    assert main(["verify", "--graph", eight_vertex_file, "--fds", str(out)]) == 1
    extra = [(str(v), "1", "-") for v in (1, 3, 4, 5, 6, 7, 8)]
    assert capsys.readouterr().out.splitlines()[:3] == [
        f"FAIL: interaction graph matches (extra arcs {extra})",
        "PASS: degree bounds hold",
        "FAIL: certificate verifies (iterates do not collapse to the target within 4 steps)",
    ]

    # Three more values on top of X_1, which the tables never reach: only
    # the degree line fails, and the certificate line does not repeat it.
    save_fds(__import__("test_synthesis")._widened(written, 0, 3), str(out))
    assert main(["verify", "--graph", eight_vertex_file, "--fds", str(out)]) == 1
    assert capsys.readouterr().out.splitlines()[:3] == [
        "PASS: interaction graph matches",
        "FAIL: degree bounds hold (violations at [0])",
        "PASS: certificate verifies",
    ]


def test_synth_converge_cli(tmp_path, capsys):
    g, cycle = __import__("test_synthesis").fig_case1_instance()
    from sdgdyn import cycle_subsystem

    sub, h = cycle_subsystem(g, [cycle])
    gpath = tmp_path / "g.sdg"
    gpath.write_text(format_sdg(g))
    hpath = tmp_path / "h.json"
    save_fds(h, str(hpath))
    fpath = tmp_path / "f.json"
    code = main(
        [
            "synth-converge",
            "--graph", str(gpath),
            "--sub", str(hpath),
            "--out", str(fpath),
        ]
    )
    assert code == 0
    assert "converges toward subsystem in at most 4 steps" in capsys.readouterr().out
    capsys_out = main(
        [
            "verify",
            "--graph", str(gpath),
            "--fds", str(fpath),
            "--sub", str(hpath),
            "--steps", "4",
        ]
    )
    assert capsys_out == 0
    assert "PASS: converges toward subsystem in 4 steps" in capsys.readouterr().out


def test_synth_fixed_points_cli(tmp_path, capsys):
    from sdgdyn import SignedDigraph

    g = SignedDigraph.from_arcs([("1", "2", "+"), ("2", "1", "-"), ("1", "3", "+")])
    gpath = tmp_path / "g.sdg"
    gpath.write_text(format_sdg(g))
    assert main(["synth-fixed-points", "--graph", str(gpath), "--cycles", "0"]) == 0
    assert "0 fixed points" in capsys.readouterr().out

    g2 = SignedDigraph.from_arcs([("1", "2", "+"), ("2", "1", "+"), ("1", "3", "+")])
    g2path = tmp_path / "g2.sdg"
    g2path.write_text(format_sdg(g2))
    assert main(["synth-fixed-points", "--graph", str(g2path), "--cycles", "1"]) == 0
    assert "2 fixed points" in capsys.readouterr().out

    # More cycles than vertices: the search for them ends at once.
    names = [str(v) for v in range(1, 8)]
    dense = SignedDigraph.from_arcs([(a, b, "+") for a in names for b in names])
    dense_path = tmp_path / "dense.sdg"
    dense_path.write_text(format_sdg(dense))
    assert main(["synth-fixed-points", "--graph", str(dense_path), "--cycles", "10"]) == 3
    assert "graph has no 10 vertex-disjoint positive cycles" in capsys.readouterr().err


def test_precondition_violation_exit_code(tmp_path, capsys):
    from sdgdyn import SignedDigraph, constant_fds, IntervalProduct
    from sdgdyn.fds import Fds
    import numpy as np

    # the arc-removal impossibility pattern: exit status 3
    g = SignedDigraph.from_arcs([("1", "2", "+"), ("2", "3", "+")])
    sub_h = Fds(
        IntervalProduct(((0, 1), (0, 1), (0, 0))),
        (
            np.zeros(4, dtype=np.int64),
            np.array([0, 0, 1, 1], dtype=np.int64),
            np.zeros(4, dtype=np.int64),
        ),
    )
    gpath = tmp_path / "g.sdg"
    gpath.write_text(format_sdg(g))
    hpath = tmp_path / "h.json"
    save_fds(sub_h, str(hpath))
    code = main(["synth-converge", "--graph", str(gpath), "--sub", str(hpath)])
    assert code == 3
    assert "error" in capsys.readouterr().err


def test_parse_error_exit_code(double_loop_file, tmp_path, monkeypatch, capsys):
    bad = tmp_path / "bad.sdg"
    bad.write_text("not a graph\n")
    assert main(["analyze", "--graph", str(bad)]) == 2
    assert main(["analyze", "--graph", str(tmp_path / "missing.sdg")]) == 2

    not_json = tmp_path / "bad.json"
    not_json.write_text("{not json")
    assert main(["verify", "--graph", double_loop_file, "--fds", str(not_json)]) == 2
    assert main(["synth-converge", "--graph", double_loop_file,
                 "--sub", str(not_json)]) == 2
    # Floats, strings and booleans are not integers, although int() takes
    # them, and an entry beyond int64 has no table: of these documents only
    # the first, the double loop's own system, loads, and the two-row one
    # without booleans, which fails on the graph's arity (exit 3).
    system = tmp_path / "g.json"
    for want, intervals, tables in (
        (0, [[0, 2]], [[0, 2, 0]]),
        (2, [[0, 2.9]], [[0.0, 2, "0"]]),
        (2, [[0, 2]], [[0.0, 2.0, 0.0]]),
        (2, [[0, 2]], [["0", "2", "0"]]),
        (2, [[0, 2]], [[False, True, False]]),
        (2, [[0, 1]], [[1, True]]),
        (2, [[0, 1], [0, 1]], [[0, 1, 0, 1], [1, 0, True, 0]]),
        (3, [[0, 1], [0, 1]], [[0, 1, 0, 1], [1, 0, 1, 0]]),
        (2, [[0, "2"]], [[0, 2, 0]]),
        (2, [[False, 2]], [[0, 2, 0]]),
        (2, [[0, 2]], [[0, 2**63, 0]]),
    ):
        system.write_text(json.dumps({"version": "fds.v1", "intervals": intervals, "tables": tables}))
        assert main(["verify", "--graph", double_loop_file, "--fds", str(system)]) == want

    out = tmp_path / "f.json"
    assert main(["synth-nilpotent", "--graph", double_loop_file, "--out", str(out)]) == 0
    cert = tmp_path / "f.cert.json"
    valid = json.loads(cert.read_text())
    for key, value in (("xi", [0.0]), ("xi", ["0"]), ("lambda", 1.0), ("lambda", "1"), ("beta", True)):
        cert.write_text(json.dumps({**valid, key: value}))
        assert main(["verify", "--graph", double_loop_file, "--fds", str(out)]) == 2
    cert.write_text(json.dumps(valid))
    assert main(["verify", "--graph", double_loop_file, "--fds", str(out)]) == 0
    cert.write_text("{not json")
    assert main(["verify", "--graph", double_loop_file, "--fds", str(out)]) == 2
    cert.write_text('{"representatives": [], "layers": [], "xi": [], "lambda": 1}')
    assert main(["verify", "--graph", double_loop_file, "--fds", str(out)]) == 2
    for reps in ('[["1"]]', '[[[], "1"]]'):
        cert.write_text(
            f'{{"representatives": {reps}, "layers": [], "xi": [], "lambda": 1, "beta": 0}}'
        )
        assert main(["verify", "--graph", double_loop_file, "--fds", str(out)]) == 2

    for cap in ("0", "-5"):
        assert main(["analyze", "--graph", double_loop_file, "--cap", cap]) == 2
        assert main(["enumerate", "--graph", double_loop_file, "--cap", cap]) == 2

    for cap in ("abc", "0", "-5"):
        monkeypatch.setenv("SDG_CAP", cap)
        assert main(["analyze", "--graph", double_loop_file]) == 2
        assert main(["enumerate", "--graph", double_loop_file]) == 2

    # only analyze and enumerate take --cap; argparse rejects it elsewhere
    for argv in (["synth-nilpotent"], ["verify", "--fds", str(out)], ["export-dot"]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--graph", double_loop_file, "--cap", "1"])
        assert exc.value.code == 2


def test_cap_exit_code(eight_vertex_file, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SDG_CAP", "100")
    code = main(["synth-nilpotent", "--graph", eight_vertex_file])
    assert code == 4
    monkeypatch.delenv("SDG_CAP")


# The exit-code contract: one row per subcommand and code it can return
# (all seven subcommands; 1 only from verify, 4 from --cap and from SDG_CAP).
# A row is (SDG_CAP, argv, exit code), where {name} is a file of ``cli_bundle``.
EXIT_CODES = [
    (None, "analyze --graph {eight}", 0),
    (None, "analyze --graph {bad_sdg}", 2),
    (None, "analyze --graph {empty}", 3),
    (None, "analyze --graph {eight} --cap 1", 4),
    ("1", "analyze --graph {eight}", 4),
    (None, "synth-nilpotent --graph {eight}", 0),
    (None, "synth-nilpotent --graph {missing}", 2),
    (None, "synth-nilpotent --graph {eight} --cap 5", 2),
    (None, "synth-nilpotent --graph {neg2}", 3),
    ("100", "synth-nilpotent --graph {eight}", 4),
    (None, "synth-converge --graph {conv} --sub {h}", 0),
    (None, "synth-converge --graph {conv} --sub {bad_json}", 2),
    (None, "synth-converge --graph {path} --sub {h}", 3),
    ("1", "synth-converge --graph {conv} --sub {h}", 4),
    (None, "synth-fixed-points --graph {neg2} --cycles 0", 0),
    (None, "synth-fixed-points --graph {bad_sdg} --cycles 0", 2),
    (None, "synth-fixed-points --graph {neg2}", 3),
    (None, "synth-fixed-points --graph {neg2} --cycles -1", 3),
    ("1", "synth-fixed-points --graph {neg2} --cycles 0", 4),
    (None, "verify --graph {eight}", 0),
    (None, "verify --graph {eight} --fds {f}", 0),
    (None, "verify --graph {eight} --fds {constant}", 1),
    (None, "verify --graph {eight} --fds {bad_json}", 2),
    (None, "verify --graph {eight} --sub {h}", 3),
    (None, "verify --graph {eight} --fds {f} --steps 2", 3),
    (None, "verify --graph {conv} --fds {h} --sub {h}", 3),
    (None, "verify --graph {conv} --fds {h} --sub {h} --steps -1", 3),
    ("1", "verify --graph {eight} --fds {f}", 4),
    (None, "enumerate --graph {path}", 0),
    (None, "enumerate --graph {path} --cap 0", 2),
    (None, "enumerate --graph {eight} --cap 1", 4),
    ("1", "enumerate --graph {eight}", 4),
    (None, "export-dot --graph {eight}", 0),
    (None, "export-dot --graph {bad_sdg}", 2),
]

# The message on stderr for the rows that must name their fault.
EXIT_MESSAGES = {
    "synth-fixed-points --graph {neg2} --cycles -1": "k must be positive",
    "verify --graph {eight} --sub {h}": "--sub requires --fds",
    "verify --graph {eight} --fds {f} --steps 2": "--steps requires --sub",
    "verify --graph {conv} --fds {h} --sub {h}": "--sub requires --steps",
    "verify --graph {conv} --fds {h} --sub {h} --steps -1": "step count must be nonnegative",
}


@pytest.fixture(scope="module")
def cli_bundle(tmp_path_factory):
    from sdgdyn import SignedDigraph, constant_fds, construct_nilpotent, cycle_subsystem

    root = tmp_path_factory.mktemp("bundle")
    files = {name: str(root / name) for name in ("missing", "bad_sdg", "bad_json")}
    (root / "bad_sdg").write_text("not a graph\n")
    (root / "bad_json").write_text("{not json")
    eight = helpers.eight_vertex_example()
    conv, cycle = __import__("test_synthesis").fig_case1_instance()
    graphs = {
        "eight": eight,
        "empty": SignedDigraph((), frozenset()),
        "neg2": SignedDigraph.from_arcs([("1", "2", "+"), ("2", "1", "-")]),
        "path": SignedDigraph.from_arcs([("1", "2", "+")]),
        "conv": conv,
    }
    for name, g in graphs.items():
        files[name] = str(root / f"{name}.sdg")
        (root / f"{name}.sdg").write_text(format_sdg(g))
    f, _ = construct_nilpotent(eight)
    systems = {
        "f": f,
        "constant": constant_fds(f.domain, f.domain.lows),
        "h": cycle_subsystem(conv, [cycle])[1],
    }
    for name, system in systems.items():
        files[name] = str(root / f"{name}.json")
        save_fds(system, files[name])
    return files


@pytest.mark.parametrize("cap, argv, code", EXIT_CODES)
def test_exit_code_table(cli_bundle, cap, argv, code, monkeypatch, capsys):
    if cap is None:
        monkeypatch.delenv("SDG_CAP", raising=False)
    else:
        monkeypatch.setenv("SDG_CAP", cap)
    try:
        got = main([word.format(**cli_bundle) for word in argv.split()])
    except SystemExit as exc:  # argparse rejects the command line
        got = exc.code
    err = capsys.readouterr().err
    assert got == code, err
    assert "Traceback" not in err
    assert EXIT_MESSAGES.get(argv, "") in err


def test_enumerate_cli(tmp_path, capsys):
    from sdgdyn import SignedDigraph

    g = SignedDigraph.from_arcs([("1", "2", "+"), ("2", "1", "-")])
    gpath = tmp_path / "cycle.sdg"
    gpath.write_text(format_sdg(g))
    assert main(["enumerate", "--graph", str(gpath), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["count"] == 1
    assert report["systems"][0]["fixed_points"] == 0
    assert report["systems"][0]["nilpotency_index"] is None


def test_enumerate_cap_matches_library(tmp_path, capsys):
    from sdgdyn import ResourceCapError, enumerate_degree_bounded_systems

    g = TWO_DOMAIN_GRAPH
    gpath = tmp_path / "g.sdg"
    gpath.write_text(format_sdg(g))
    raised = []
    for cap in range(1, 140):
        try:
            list(enumerate_degree_bounded_systems(g, table_cap=cap))
        except ResourceCapError:
            raised.append(True)
        else:
            raised.append(False)
        code = main(["enumerate", "--graph", str(gpath), "--cap", str(cap)])
        assert code == (4 if raised[-1] else 0), cap
    assert raised[0] and not raised[-1]
    assert main(["enumerate", "--graph", str(gpath)]) == 0


def _until_cap(systems):
    """The items of ``systems`` yielded before it raises ResourceCapError."""
    got = []
    with pytest.raises(sdgdyn.ResourceCapError):
        for item in systems:
            got.append(item)
    return got


def test_library_enumerators_yield_a_domain_before_a_later_domain_trips_the_cap():
    from sdgdyn import enumerate_degree_bounded_systems, enumerate_system_summaries

    # The count pass is the CLI's alone: the library stays lazy.
    g = TWO_DOMAIN_GRAPH
    first = [f for f in enumerate_degree_bounded_systems(g) if f.domain.shape == (2, 2, 2)]
    summaries = [(f.domain.shape, f.nilpotency_index() or -1, len(f.fixed_points())) for f in first]
    assert 0 < len(first) < len(list(enumerate_degree_bounded_systems(g)))
    for cap in range(26, 131):
        assert _until_cap(enumerate_degree_bounded_systems(g, table_cap=cap)) == first
        got = [
            (sizes, k, n)
            for sizes, index, fixed in _until_cap(enumerate_system_summaries(g, table_cap=cap))
            for k, n in zip(index.tolist(), fixed.tolist())
        ]
        assert got == summaries


def _expected_reports(g):
    """The ``enumerate`` stdout of ``g`` in JSON and in text form, built from
    the per-system summaries."""
    from test_fds import flat_summaries

    systems = [
        {"sizes": list(sizes), "nilpotency_index": index, "fixed_points": fixed}
        for sizes, index, fixed in flat_summaries(g)
    ]
    report = {"count": len(systems), "systems": systems, "seed": 0}
    lines = [f"degree-bounded systems: {len(systems)}"] + [
        f"sizes={s['sizes']} index={s['nilpotency_index']} fixed_points={s['fixed_points']}"
        for s in systems
    ]
    return json.dumps(report, indent=2) + "\n", "\n".join(lines) + "\n"


def _assert_same_text(out, want, *context):
    """``out == want``; on a difference, name the first differing line
    (pytest's own diff of two long texts takes minutes)."""
    if out != want:
        got, exp = out.splitlines(), want.splitlines()
        i = next((i for i, pair in enumerate(zip(got, exp)) if pair[0] != pair[1]),
                 min(len(got), len(exp)))
        pytest.fail(f"{context} line {i} differs: {got[i:i + 1]} != {exp[i:i + 1]} "
                    f"({len(got)} vs {len(exp)} lines)")


def test_enumerate_writes_nothing_past_a_cap_and_the_whole_report_under_it(tmp_path, capsys):
    from sdgdyn import enumerate_system_summaries
    from sdgdyn.fds import DEFAULT_TABLE_CAP
    from test_fds import _random_graphs

    exits = set()
    for g in [TWO_DOMAIN_GRAPH] + _random_graphs(12, 30):
        gpath = tmp_path / "g.sdg"
        gpath.write_text(format_sdg(g))
        want_json, want_text = _expected_reports(g)
        for cap in (1, 10, 100, 1_000, None):
            try:
                list(enumerate_system_summaries(g, cap or DEFAULT_TABLE_CAP))
            except sdgdyn.ResourceCapError:
                tripped = True
            else:
                tripped = False
            argv = ["enumerate", "--graph", str(gpath)] + (["--cap", str(cap)] if cap else [])
            for form, want in (([], want_text), (["--json"], want_json)):
                code = main(argv + form)
                out, err = capsys.readouterr()
                exits.add(code)
                assert code == (4 if tripped else 0), (g, cap, form)
                if tripped:
                    assert out == "" and f"exceeds cap of {cap} " in err
                else:
                    assert err == ""
                    _assert_same_text(out, want, g, cap, form)
    assert exits == {0, 4}


# Blocks that mix systems with no constant iterate (index None) with
# two-digit nilpotency indices (up to 10, on sizes (3, 2, 2, 2)) and with
# two-digit fixed-point counts (up to 11, on sizes (2, 3, 3)): a summary code
# that let two (index, fixed) pairs of a block collide, or that was read back
# in the wrong radix, would show in the rendered entries.
MIXED_SUMMARY_GRAPHS = [
    sdgdyn.SignedDigraph.from_arcs(
        [("1", "1", "+"), ("1", "2", "-"), ("2", "3", "-"), ("3", "4", "-"), ("4", "1", "+")]
    ),
    sdgdyn.SignedDigraph.from_arcs(
        [("1", "1", "+"), ("2", "1", "+"), ("2", "2", "+"), ("3", "2", "+"), ("3", "3", "+")]
    ),
]


def test_enumerate_renders_each_summary_code_as_its_pair(tmp_path, capsys):
    from sdgdyn import enumerate_system_summaries

    mixed = set()
    for g in MIXED_SUMMARY_GRAPHS:
        for sizes, index, fixed in enumerate_system_summaries(g):
            if (index < 0).any():
                mixed |= {(sizes, "index")} if index.max() >= 10 else set()
                mixed |= {(sizes, "fixed")} if fixed.max() >= 10 else set()
        gpath = tmp_path / "g.sdg"
        gpath.write_text(format_sdg(g))
        want_json, want_text = _expected_reports(g)
        for form, want in (([], want_text), (["--json"], want_json)):
            assert main(["enumerate", "--graph", str(gpath), *form]) == 0
            _assert_same_text(capsys.readouterr().out, want, g, form)
    assert mixed == {((3, 2, 2, 2), "index"), ((2, 3, 3), "fixed")}


def _bench_inputs():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "inputs.py")
    spec = importlib.util.spec_from_file_location("bench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_enumerate_text_on_every_family_graph_is_pinned(tmp_path, capsys):
    # bench/pool.json pins the --json form of enumerate on the 392 graphs of
    # the criterion-8b (looped) and 8c (two-cycle) families; this pins the
    # text form, by one digest of every report in pool order.
    inputs = _bench_inputs()
    graphs = inputs.looped_family() + inputs.two_cycle_family()
    gpath = tmp_path / "g.sdg"
    digest = hashlib.sha256()
    for names, arcs in graphs:
        gpath.write_text(inputs.sdg_text(names, arcs))
        assert main(["enumerate", "--graph", str(gpath)]) == 0
        digest.update(capsys.readouterr().out.encode())
    assert len(graphs) == 392
    assert digest.hexdigest() == "769f33bc53f6778a3178f9486ce85d66586e3b5df40019b1f424ca1fa745783c"


@pytest.mark.parametrize("form", [[], ["--json"]])
def test_enumerate_writes_each_block_as_soon_as_it_is_built(form, tmp_path, monkeypatch):
    from sdgdyn import fds
    from test_fds import MULTI_BLOCK_GRAPH

    gpath = tmp_path / "g.sdg"
    gpath.write_text(format_sdg(MULTI_BLOCK_GRAPH))
    events = []
    offset_blocks = fds._offset_blocks

    def recording(parts, size):
        for block in offset_blocks(parts, size):
            events.append(("block",))
            yield block

    class Stdout:
        def write(self, text):
            events.append(("write", text))
            return len(text)

        def flush(self):
            pass

    monkeypatch.setattr(fds, "_offset_blocks", recording)
    monkeypatch.setattr(sys, "stdout", Stdout())
    assert main(["enumerate", "--graph", str(gpath), *form]) == 0
    monkeypatch.undo()
    first_system = next(i for i, e in enumerate(events) if "sizes" in e[-1])
    last_block = max(i for i, e in enumerate(events) if e == ("block",))
    assert first_system < last_block


def test_enumerate_cap_counts_systems_before_building_them(tmp_path, capsys, monkeypatch):
    from sdgdyn import IntervalProduct, ResourceCapError, SignedDigraph, fds

    # Few candidate tables per component, but 31,360 systems on the domain
    # (3, 3, 2, 2) and far more on later ones.
    g = SignedDigraph.from_arcs(
        [("1", "2", "+"), ("1", "2", "-"), ("1", "3", "+"), ("1", "4", "+"),
         ("2", "1", "+"), ("2", "1", "-"), ("2", "3", "-"), ("3", "1", "+")],
        vertices=["1", "2", "3", "4"],
    )
    built = []

    def record(parts, size):
        built.append(math.prod(len(part) for part in parts))
        return iter(())

    monkeypatch.setattr(fds, "_offset_blocks", record)
    domain = IntervalProduct(((0, 2), (0, 2), (0, 1), (0, 1)))
    with pytest.raises(ResourceCapError):
        list(fds._local_table_systems(g, [domain], 20_000))
    assert built == []
    list(fds._local_table_systems(g, [domain], 10**6))
    assert built == [31_360]

    built.clear()
    gpath = tmp_path / "g.sdg"
    gpath.write_text(format_sdg(g))
    assert main(["enumerate", "--graph", str(gpath), "--cap", "20000"]) == 4
    assert sum(built) <= 20_000
    assert "exceeds cap of 20000" in capsys.readouterr().err


def test_export_dot_cli(eight_vertex_file, tmp_path, capsys):
    out = tmp_path / "g.dot"
    assert main(["export-dot", "--graph", eight_vertex_file, "--out", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("digraph")
    assert "color=green" in text and "color=red" in text


def test_output_roundtrip_identical_verdicts(double_loop_file, tmp_path, capsys):
    out = tmp_path / "f.json"
    main(["synth-nilpotent", "--graph", double_loop_file, "--out", str(out)])
    capsys.readouterr()
    f = load_fds(str(out))
    save_fds(f, str(out))  # rewrite, then verify again
    assert main(["verify", "--graph", double_loop_file, "--fds", str(out)]) == 0


def test_certificate_roundtrip_with_comma_in_vertex_name(tmp_path, capsys):
    from sdgdyn import SignedDigraph

    g = SignedDigraph.from_arcs(
        [("a,b", "c", "+"), ("c", "a,b", "-"), ("c", "c", "+")], vertices=["a,b", "c"]
    )
    gpath = tmp_path / "comma.sdg"
    gpath.write_text(format_sdg(g))
    out = tmp_path / "f.json"
    assert main(["synth-nilpotent", "--graph", str(gpath), "--out", str(out)]) == 0
    cert = json.loads((tmp_path / "f.cert.json").read_text())
    assert cert["representatives"] == [[["a,b", "c"], "a,b"]]
    capsys.readouterr()
    assert main(["verify", "--graph", str(gpath), "--fds", str(out)]) == 0
    assert "PASS: certificate verifies" in capsys.readouterr().out


def test_certificate_in_the_map_form_still_verifies(eight_vertex_file, tmp_path, capsys):
    out = tmp_path / "f.json"
    assert main(["synth-nilpotent", "--graph", eight_vertex_file, "--out", str(out)]) == 0
    cert_path = tmp_path / "f.cert.json"
    cert = json.loads(cert_path.read_text())
    cert["representatives"] = {",".join(comp): rep for comp, rep in cert["representatives"]}
    cert_path.write_text(json.dumps(cert))
    capsys.readouterr()
    assert main(["verify", "--graph", eight_vertex_file, "--fds", str(out)]) == 0
    assert "PASS: certificate verifies" in capsys.readouterr().out


def test_certificate_in_the_map_form_names_a_vertex_with_a_comma(tmp_path, capsys):
    # A map key that joins an initial component names it, commas and all;
    # a key that joins none is split on commas, and its names checked.
    gpath = tmp_path / "comma.sdg"
    gpath.write_text("sdg v1\nvertex a,b\nvertex c\narc a,b c +\narc c a,b -\narc c c +\n")
    out, cert = tmp_path / "f.json", tmp_path / "f.cert.json"
    assert main(["synth-nilpotent", "--graph", str(gpath), "--out", str(out)]) == 0
    doc = json.loads(cert.read_text())
    for representatives, code, err in (
        ({"a,b,c": "a,b"}, 0, ""),
        ({"c,a,b": "a,b"}, 2, "error: malformed certificate: unknown vertex 'a'\n"),
    ):
        doc["representatives"] = representatives
        cert.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", "--graph", str(gpath), "--fds", str(out)]) == code
        captured = capsys.readouterr()
        assert captured.err == err
        if not code:
            assert "PASS: certificate verifies" in captured.out


def test_certificate_naming_an_unknown_vertex_is_malformed(tmp_path, capsys):
    # A name outside the graph, in the last layer, in a representative or
    # in the first layer, makes the certificate malformed: exit 2 before
    # any check line.
    gpath = tmp_path / "g.sdg"
    gpath.write_text("sdg v1\narc 1 2 +\narc 2 3 -\narc 3 1 +\narc 1 3 +\n")
    out, cert = tmp_path / "f.json", tmp_path / "f.cert.json"
    assert main(["synth-nilpotent", "--graph", str(gpath), "--out", str(out)]) == 0
    valid = cert.read_text()
    for edit in (
        lambda doc: doc["layers"][-1].append("zzz"),
        lambda doc: doc["representatives"].append([["zzz"], "zzz"]),
        lambda doc: doc["layers"][0].append("zzz"),
    ):
        doc = json.loads(valid)
        edit(doc)
        cert.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", "--graph", str(gpath), "--fds", str(out)]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: malformed certificate: unknown vertex 'zzz'\n")


def test_interval_ends_past_int64_are_a_precondition(tmp_path, capsys):
    # Ends at the top of the 64-bit integers: the nilpotent block is
    # translated past them (first graph), or an extension step grows the
    # tail's interval past them (second graph).  Each run exits 3 with one
    # error line, and no warning (warnings are errors here); a system file
    # with such an end is a parse error.
    from sdgdyn import Fds, IntervalProduct

    top = 2**63 - 1
    one = IntervalProduct(((top, top), (0, 0)))
    dom = IntervalProduct(((top - 1, top), (0, 1), (0, 1), (0, 1)))
    states = list(dom.states())
    two = [[top - 1] * 16, [int(x[0] == top) for x in states], [x[3] for x in states], [0] * 16]
    gpath, hpath = tmp_path / "g.sdg", tmp_path / "h.json"
    for graph, h, lo in (
        ("arc 1 2 +\n", Fds(one, [[top], [0]]), top),
        ("vertex 1\nvertex 2\nvertex 3\nvertex 4\narc 1 2 +\narc 4 3 +\narc 1 3 +\n",
         Fds(dom, two), top - 1),
    ):
        gpath.write_text("sdg v1\n" + graph)
        save_fds(h, str(hpath))
        capsys.readouterr()
        assert main(["synth-converge", "--graph", str(gpath), "--sub", str(hpath)]) == 3
        captured = capsys.readouterr()
        want = f"error: interval [{lo},{top + 1}] leaves the 64-bit integers\n"
        assert (captured.out, captured.err) == ("", want)

    hpath.write_text(json.dumps({"version": "fds.v1", "intervals": [[top + 1] * 2], "tables": [[0]]}))
    assert main(["verify", "--graph", str(gpath), "--fds", str(hpath)]) == 2
    assert capsys.readouterr().err == f"error: interval [{top + 1},{top + 1}] leaves the 64-bit integers\n"


def test_repeated_main_calls_share_no_state(tmp_path, capsys):
    from sdgdyn import SignedDigraph, enumerate_degree_bounded_systems

    g = SignedDigraph.from_arcs([("1", "2", "+"), ("1", "3", "-"), ("2", "3", "+")])
    gpath = tmp_path / "g.sdg"
    gpath.write_text(format_sdg(g))
    assert main(["enumerate", "--graph", str(gpath), "--cap", "1"]) == 4
    capsys.readouterr()
    assert main(["enumerate", "--graph", str(gpath), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["count"] == len(list(enumerate_degree_bounded_systems(g))) > 1
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--graph", str(gpath), "--steps", "1"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(["enumerate", "--graph", str(gpath)]) == 0
    assert capsys.readouterr().out.startswith(f"degree-bounded systems: {report['count']}\n")


def test_enumerate_json_in_a_fresh_process(tmp_path):
    from sdgdyn import SignedDigraph

    g = SignedDigraph.from_arcs([("1", "2", "+"), ("2", "1", "-"), ("1", "1", "+")])
    gpath = tmp_path / "g.sdg"
    gpath.write_text(format_sdg(g))
    src = os.path.dirname(os.path.dirname(os.path.abspath(sdgdyn.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "sdgdyn.cli", "enumerate", "--graph", str(gpath), "--json"],
        capture_output=True, text=True, check=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert json.loads(proc.stdout)["count"] > 1
    assert proc.stdout == json.dumps(json.loads(proc.stdout), indent=2) + "\n"


@pytest.mark.parametrize("form", [[], ["--json"]])
def test_enumerate_into_a_closed_pipe_exits_1_without_a_traceback(tmp_path, form):
    from sdgdyn import SignedDigraph

    # 26,744 systems: about 1 MB of text and 3 MB of JSON, far past the
    # 64 KiB a pipe holds, so the writer is still blocked on the report
    # when the reader goes.
    g = SignedDigraph.from_arcs([("1", "1", "+"), ("1", "1", "-"), ("1", "2", "+"), ("2", "1", "+")])
    gpath = tmp_path / "g.sdg"
    gpath.write_text(format_sdg(g))
    src = os.path.dirname(os.path.dirname(os.path.abspath(sdgdyn.__file__)))
    proc = subprocess.Popen(
        [sys.executable, "-m", "sdgdyn.cli", "enumerate", "--graph", str(gpath), *form],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=src),
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert first == (b"{\n" if form else b"degree-bounded systems: 26744\n")
    assert proc.returncode == 1 and err == b"", err.decode()


def test_a_broken_pipe_off_stdout_is_not_taken_for_a_closed_reader(monkeypatch):
    # Only a failed write to stdout means that the reader went; any other
    # BrokenPipeError propagates with its traceback.
    import sdgdyn.cli as cli

    def broken(path):
        raise BrokenPipeError("not stdout")

    monkeypatch.setattr(cli, "load_sdg", broken)
    with pytest.raises(BrokenPipeError, match="not stdout"):
        main(["enumerate", "--graph", "g.sdg"])


@pytest.mark.parametrize("graph", ["multi-block", "lone vertex", "double loop", "empty graph"])
def test_enumerate_report_bytes_match_the_per_system_summaries(graph, tmp_path, capsys):
    from sdgdyn import SignedDigraph, enumerate_degree_bounded_systems
    from test_fds import MULTI_BLOCK_GRAPH, flat_summaries

    g = {
        "multi-block": MULTI_BLOCK_GRAPH,
        "lone vertex": SignedDigraph.from_arcs([], vertices=["1"]),
        "double loop": SignedDigraph.from_arcs([("1", "1", "+"), ("1", "1", "-")]),
        "empty graph": SignedDigraph((), frozenset()),
    }[graph]
    gpath = tmp_path / "g.sdg"
    gpath.write_text(format_sdg(g))
    summaries = list(flat_summaries(g))
    assert summaries == [
        (f.domain.shape, f.nilpotency_index(), len(f.fixed_points()))
        for f in enumerate_degree_bounded_systems(g)
    ]
    want_json, want_text = _expected_reports(g)
    assert main(["enumerate", "--graph", str(gpath), "--json"]) == 0
    _assert_same_text(capsys.readouterr().out, want_json, "--json")
    assert main(["enumerate", "--graph", str(gpath)]) == 0
    _assert_same_text(capsys.readouterr().out, want_text, "text")


def test_synth_nilpotent_json_in_a_fresh_process(tmp_path):
    gpath, out = tmp_path / "g.sdg", tmp_path / "f.json"
    gpath.write_text(format_sdg(helpers.eight_vertex_example()))
    src = os.path.dirname(os.path.dirname(os.path.abspath(sdgdyn.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "sdgdyn.cli", "synth-nilpotent", "--graph", str(gpath),
         "--out", str(out), "--json"],
        capture_output=True, text=True, check=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=src),
    )
    report = json.loads(proc.stdout)
    assert proc.stdout == json.dumps(report, indent=2) + "\n"
    text = out.read_text()
    assert text == json.dumps(json.loads(text)) + "\n"
    assert report["system"] == json.loads(text)


def test_synthesis_output_is_the_same_without_debug_checks(tmp_path):
    # -O removes asserts and the code under `if __debug__:`; the library
    # has neither, so a converging and a fixed-point synthesis write the
    # same bytes with and without it.
    from sdgdyn import SignedDigraph, cycle_subsystem

    g, cycle = __import__("test_synthesis").fig_case1_instance()
    gpath, hpath = tmp_path / "g.sdg", tmp_path / "h.json"
    gpath.write_text(format_sdg(g))
    save_fds(cycle_subsystem(g, [cycle])[1], str(hpath))
    arcs = [("1", "2", "+"), ("2", "1", "+"), ("2", "3", "-"), ("3", "4", "+"),
            ("4", "3", "+"), ("4", "1", "-"), ("1", "1", "-")]
    fpath = tmp_path / "fp.sdg"
    fpath.write_text(format_sdg(SignedDigraph.from_arcs(arcs)))
    src = os.path.dirname(os.path.dirname(os.path.abspath(sdgdyn.__file__)))
    outputs = []
    for flags in ([], ["-O"]):
        runs = []
        for name, argv in (
            ("converge", ["synth-converge", "--graph", str(gpath), "--sub", str(hpath), "--json"]),
            ("fixed", ["synth-fixed-points", "--graph", str(fpath), "--cycles", "2"]),
        ):
            out = tmp_path / f"{name}.json"
            proc = subprocess.run(
                [sys.executable, *flags, "-m", "sdgdyn.cli", *argv, "--out", str(out)],
                capture_output=True, check=True, timeout=120,
                env=dict(os.environ, PYTHONPATH=src),
            )
            runs.append((proc.stdout, proc.stderr, out.read_bytes()))
        outputs.append(runs)
    assert outputs[0] == outputs[1]
    assert b"4 fixed points" in outputs[0][1][0]


def test_extension_result_is_checked_without_debug_checks():
    # No part of an extension's self-check is a debug check: under -O a
    # step that writes a wrong row still raises, naming its arcs, and a
    # step made on the anchor plane also names the postcondition it breaks.
    script = """
from sdgdyn import InternalInvariantError, SignedDigraph, extend_all, synthesis
import test_synthesis as t
for arc, extended in ((("1", "3", "-"), t._mutate_written_plane(t._set_row_cell)),
                      (("2", "3", "-"), t._flip_direction)):
    base, h = t._two_step_base()
    synthesis._extended_tables = extended
    try:
        extend_all(SignedDigraph(base.vertices, base.arcs | {arc}), base, h)
    except InternalInvariantError as exc:
        print(__debug__, exc)
"""
    src = os.path.dirname(os.path.dirname(os.path.abspath(sdgdyn.__file__)))
    path = os.pathsep.join([src, os.path.dirname(os.path.abspath(__file__))])
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True,
        check=True, timeout=120, env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.stdout.splitlines() == [
        "False extension failed self-check: extra arcs [('1', '2', '-'), ('2', '2', '+')]",
        "False extension failed self-check: missing arcs [('2', '3', '-')]; "
        "extra arcs [('2', '3', '+')]; component 2 deviates from the base on anchored states",
    ], proc.stdout


def test_system_json_renders_tables_like_stdlib():
    for f in helpers.rendering_systems():
        report = {"system": fds_document(f), "verdict": "ok", "seed": 0}
        want = {**report, "system": fds_to_dict(f)}
        # compared outside the assert, so that a failure is not a diff of
        # megabytes of text
        same_file = "".join(json_pieces(fds_document(f), f.tables)) == json.dumps(fds_to_dict(f))
        same_report = "".join(json_pieces(report, f.tables, indent=2)) == json.dumps(want, indent=2)
        assert same_file and same_report, f.domain


def test_a_synth_report_reaches_stdout_one_block_at_a_time(monkeypatch):
    import argparse

    import sdgdyn.cli as cli

    f = helpers.rendering_systems()[-1]  # tables of several blocks
    pieces = []
    monkeypatch.setattr(cli, "_write", lambda text, end="\n": pieces.append(text + end))
    cli._write_synth_output(argparse.Namespace(out=None, json=True, seed=0), f, verdict="ok")
    want = {"system": fds_to_dict(f), "verdict": "ok", "seed": 0}
    same = "".join(pieces) == json.dumps(want, indent=2) + "\n"
    # a block's text: its rows as a list at the depth of the report's tables
    rows = max(1, BLOCK_CELLS // f.domain.size)
    block = max(
        len(json.dumps(f.tables[r : r + rows].tolist(), indent=2).replace("\n", "\n    "))
        for r in range(0, f.n, rows)
    )
    assert same and len(pieces) > 1
    assert max(map(len, pieces)) <= block


def test_synth_json_into_a_closed_pipe_exits_1_without_a_traceback(tmp_path):
    # The eight-vertex system's report is about 150 KB, far past the 64 KiB
    # a pipe holds, so the writer is still blocked on it when the reader goes.
    gpath = tmp_path / "g.sdg"
    gpath.write_text(format_sdg(helpers.eight_vertex_example()))
    src = os.path.dirname(os.path.dirname(os.path.abspath(sdgdyn.__file__)))
    proc = subprocess.Popen(
        [sys.executable, "-m", "sdgdyn.cli", "synth-nilpotent", "--graph", str(gpath), "--json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=src),
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert first == b"{\n"
    assert proc.returncode == 1 and err == b"", err.decode()


# Every run of EXIT_CODES that prints a report (export-dot prints DOT text).
JSON_RUNS = [
    argv for cap, argv, code in EXIT_CODES
    if cap is None and code in (0, 1) and not argv.startswith("export-dot")
]


@pytest.mark.parametrize("argv", JSON_RUNS)
def test_json_reports_are_the_bytes_of_stdlib_indent2(cli_bundle, argv, monkeypatch, capsys):
    monkeypatch.delenv("SDG_CAP", raising=False)
    main([word.format(**cli_bundle) for word in argv.split()] + ["--json"])
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


# Every file argument of every subcommand, given a directory ({dir}) or, for
# a file that is read, bytes that are not UTF-8 ({binary}); {cert} and
# {f_cert} are files whose certificate path is a directory.
FILE_FAULTS = [
    "analyze --graph {dir}",
    "analyze --graph {binary}",
    "synth-nilpotent --graph {dir}",
    "synth-nilpotent --graph {binary}",
    "synth-nilpotent --graph {eight} --out {dir}",
    "synth-nilpotent --graph {eight} --out {cert}",
    "synth-converge --graph {dir} --sub {h}",
    "synth-converge --graph {binary} --sub {h}",
    "synth-converge --graph {conv} --sub {dir}",
    "synth-converge --graph {conv} --sub {binary}",
    "synth-converge --graph {conv} --sub {h} --out {dir}",
    "synth-fixed-points --graph {dir} --cycles 0",
    "synth-fixed-points --graph {binary} --cycles 0",
    "synth-fixed-points --graph {neg2} --cycles 0 --out {dir}",
    "verify --graph {dir}",
    "verify --graph {binary}",
    "verify --graph {eight} --fds {dir}",
    "verify --graph {eight} --fds {binary}",
    "verify --graph {eight} --fds {f_cert}",
    "verify --graph {conv} --fds {h} --sub {dir} --steps 1",
    "verify --graph {conv} --fds {h} --sub {binary} --steps 1",
    "enumerate --graph {dir}",
    "enumerate --graph {binary}",
    "export-dot --graph {dir}",
    "export-dot --graph {binary}",
    "export-dot --graph {eight} --out {dir}",
]


@pytest.mark.parametrize("argv", FILE_FAULTS)
def test_unreadable_and_unwritable_files_exit_2(cli_bundle, argv, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("SDG_CAP", raising=False)
    files = dict(cli_bundle, dir=str(tmp_path), binary=str(tmp_path / "binary"),
                 cert=str(tmp_path / "c.json"), f_cert=str(tmp_path / "f.json"))
    (tmp_path / "binary").write_bytes(b"sdg v1\nvertex \xff\n")
    (tmp_path / "c.cert.json").mkdir()
    (tmp_path / "f.cert.json").mkdir()
    shutil.copy(cli_bundle["f"], files["f_cert"])
    assert main([word.format(**files) for word in argv.split()]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err


def test_unwritable_certificate_leaves_no_system_file(eight_vertex_file, tmp_path, capsys):
    # The certificate is written before the system file, so a later verify
    # never finds the system without the certificate that goes with it.
    out = tmp_path / "c.json"
    (tmp_path / "c.cert.json").mkdir()
    assert main(["synth-nilpotent", "--graph", eight_vertex_file, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err
    assert "Traceback" not in err
    assert not out.exists()


def test_each_command_computes_a_verdict_once(eight_vertex_file, tmp_path, monkeypatch, capsys):
    # The certificate check and the verdict line share one image chain, and
    # the construction and the verdict line share one fixed-point search.
    from sdgdyn import fds as fds_mod

    chains = []
    image_chains = fds_mod.image_chains
    monkeypatch.setattr(
        fds_mod, "image_chains", lambda succ: chains.append(len(succ)) or image_chains(succ)
    )
    searches = []
    fixed_offsets = fds_mod.Fds._fixed_offsets.func
    counted = functools.cached_property(lambda f: searches.append(f) or fixed_offsets(f))
    counted.__set_name__(fds_mod.Fds, "_fixed_offsets")
    monkeypatch.setattr(fds_mod.Fds, "_fixed_offsets", counted)

    out = str(tmp_path / "f.json")
    assert main(["synth-nilpotent", "--graph", eight_vertex_file, "--out", out]) == 0
    assert chains == [1]
    assert main(["verify", "--graph", eight_vertex_file, "--fds", out]) == 0
    assert chains == [1, 1] and len(searches) == 1
    assert "PASS: certificate verifies" in capsys.readouterr().out

    g = sdgdyn.SignedDigraph.from_arcs([("1", "2", "+"), ("2", "1", "+"), ("1", "3", "+")])
    gpath = tmp_path / "g.sdg"
    gpath.write_text(format_sdg(g))
    assert main(["synth-fixed-points", "--graph", str(gpath), "--cycles", "1"]) == 0
    assert "2 fixed points" in capsys.readouterr().out
    assert len(searches) == 2


def test_every_enum_families_item_keeps_its_recorded_digest(tmp_path, monkeypatch):
    # Runs the 392 enumerate items of the benchmark pool in this process and
    # compares exit codes and output digests with bench/pool.json, which is
    # only read.
    import check_pool

    with open(os.path.join(check_pool.ROOT, "bench", "pool.json"), encoding="utf-8") as fh:
        recorded = json.load(fh)["enum-families"]
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("SDG_CAP", raising=False)
    assert check_pool.differing("enum-families", recorded) == []
