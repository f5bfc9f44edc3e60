import collections
import hashlib
import json
import random
import re

import numpy as np
import pytest

from sdgdyn import (
    InternalInvariantError,
    NEGATIVE,
    POSITIVE,
    PreconditionError,
    ResourceCapError,
    SdgError,
    SignedDigraph,
    check_extension_postconditions,
    check_nilpotency_certificate,
    classify_vertices,
    component_structure,
    constant_fds,
    construct_2k_fixed_points,
    construct_converging,
    construct_nilpotent,
    construct_no_fixed_point,
    converges_toward,
    cycle_subsystem,
    enumerate_cycles,
    extend_all,
    extend_by_arc,
    fds_to_dict,
    find_disjoint_positive_cycles,
    is_signed_cycle,
    underlying_cycle_order,
)
from sdgdyn import synthesis
from sdgdyn.fds import Fds, IntervalProduct
from sdgdyn.synthesis import (
    ExtensionState,
    _ab_sets,
    _component_qualifies,
    _structure_problems,
    certificate_from_dict,
)

import helpers


# ---------------------------------------------------------------------------
# nilpotent construction: golden examples
# ---------------------------------------------------------------------------


def test_double_loop_golden():
    g = helpers.double_loop_example()
    f, cert = construct_nilpotent(g)
    assert f.domain.intervals == ((0, 2),)
    assert f.tables[0].tolist() == [0, 2, 0]
    assert f.nilpotency_index() == 2
    assert cert.lam + cert.beta == 2
    assert not check_nilpotency_certificate(g, f, cert)


def test_pseudo_cycle_golden():
    g = helpers.pseudo_cycle_example()
    f, cert = construct_nilpotent(g)
    assert f.domain.intervals == ((0, 1), (0, 1), (0, 2))
    assert {f.iterate(s, 4) for s in f.domain.states()} == {(0, 0, 2)}
    assert f.nilpotency_index() == 4
    assert cert.lam == 3 and cert.beta == 1
    # The explicit stepwise rules: f1 = [x3 == 1], f2 = [x1 == 1], f3 = 2[x2 == 0].
    for s in f.domain.states():
        x1, x2, x3 = s
        assert f.evaluate(s) == (int(x3 == 1), int(x1 == 1), 2 * int(x2 == 0))


def test_eight_vertex_golden():
    g = helpers.eight_vertex_example()
    f, cert = construct_nilpotent(g)
    assert dict(cert.representatives) == {
        ("1", "2", "3"): "1",
        ("4", "5"): "4",
        ("6",): "6",
    }
    assert f.domain.shape == (2, 4, 3, 2, 3, 2, 3, 2)
    assert cert.target == (0, 1, 0, 1, 1, 0, 0, 1)
    assert cert.layers == (("1", "4", "6"), ("2", "5", "7", "8"), ("3",))
    assert f.nilpotency_index() == 4
    # every one of the 1728 states reaches the target in four steps
    target_off = f.domain.offset(cert.target)
    offs = np.arange(f.domain.size)
    for _ in range(4):
        offs = np.unique(f.successor_offsets[offs])
    assert offs.tolist() == [target_off]
    assert not check_nilpotency_certificate(g, f, cert)


def test_trivial_graph():
    g = SignedDigraph.from_arcs([], vertices=["v"])
    f, cert = construct_nilpotent(g)
    assert f.domain.intervals == ((0, 0),)
    assert f.nilpotency_index() == 1
    assert cert.lam == 1 and cert.beta == 0


def test_signed_cycle_rejected():
    g = SignedDigraph.from_arcs([("1", "2", "+"), ("2", "1", "-")])
    with pytest.raises(PreconditionError):
        construct_nilpotent(g)
    loop = SignedDigraph.from_arcs([("v", "v", "+")])
    with pytest.raises(PreconditionError):
        construct_nilpotent(loop)
    with pytest.raises(PreconditionError):
        construct_nilpotent(SignedDigraph((), frozenset()))


def test_disconnected_graph_handled_per_component():
    g = SignedDigraph.from_arcs(
        [("1", "2", "+"), ("a", "a", "+"), ("a", "a", "-")],
        vertices=["1", "2", "a"],
    )
    f, cert = construct_nilpotent(g)
    cs = component_structure(g)
    assert cert.lam == cs.lam and cert.beta == cs.beta
    idx = f.nilpotency_index()
    assert idx is not None and idx <= cert.lam + cert.beta
    assert not check_nilpotency_certificate(g, f, cert)


def test_nilpotent_property_random():
    rng = random.Random(41)
    for _ in range(120):
        g = helpers.random_non_cycle_connected_sdg(rng, 7)
        f, cert = construct_nilpotent(g)
        assert f.interaction_graph(g.vertices).arcs == g.arcs
        ok, _ = f.is_degree_bounded()
        assert ok
        idx = f.nilpotency_index()
        assert idx is not None and idx <= cert.lam + cert.beta
        sources, _, _ = classify_vertices(g)
        for v in sources:
            k = g.index(v)
            assert cert.target[k] == f.domain.intervals[k][0]


# SHA-256 of the outputs below, recorded before the nilpotent planner was
# rewritten; any change to a system, a certificate or an error type shows.
NILPOTENT_OUTPUTS_DIGEST = (
    "3a133386ea421e8786e72ec304f4460de279417e56236e5522185fb121e840ed"
)
# The same for the graphs of helpers.mixed_components_sdg, recorded before
# the planner covered every non-cycle component in one pass.
MIXED_NILPOTENT_OUTPUTS_DIGEST = (
    "0413f45084ad98bd00029f84ec83c8c5baf64650987fb9c3179f156d3eb45efa"
)


def _nilpotent_output(g: SignedDigraph) -> str:
    try:
        f, cert = construct_nilpotent(g)
        return json.dumps([fds_to_dict(f), cert.to_dict()])
    except PreconditionError as exc:  # a component is a signed cycle
        return type(exc).__name__


def test_construct_nilpotent_output_is_pinned():
    seen = collections.Counter()

    def count(g):
        comps = [helpers.induced(g, c) for c in g.weak_components()]
        seen["lone vertex, disconnected"] += len(comps) > 1 and bool(classify_vertices(g)[2])
        seen["cycle carrying both signs"] += any(
            underlying_cycle_order(c) is not None and not is_signed_cycle(c) for c in comps
        )

    rng = random.Random(20221)
    digest = hashlib.sha256()
    for k in range(300):
        g = helpers.random_connected_sdg(rng, 7)
        if k % 10 == 0:  # a disconnected graph: a second component follows
            other = helpers.random_connected_sdg(rng, 4)
            rename = {v: f"b{v}" for v in other.vertices}
            g = SignedDigraph.from_arcs(
                sorted(g.arcs) + [(rename[s], rename[t], sg) for s, t, sg in other.arcs],
                vertices=list(g.vertices) + [rename[v] for v in other.vertices],
            )
        count(g)
        digest.update(_nilpotent_output(g).encode() + b"\n")
    assert digest.hexdigest() == NILPOTENT_OUTPUTS_DIGEST

    rng = random.Random(20261)
    digest = hashlib.sha256()
    for _ in range(60):
        g = helpers.mixed_components_sdg(rng)
        count(g)
        digest.update(_nilpotent_output(g).encode() + b"\n")
    assert digest.hexdigest() == MIXED_NILPOTENT_OUTPUTS_DIGEST
    assert min(seen.values()) >= 10, seen


def test_certificate_json_roundtrip_and_tampering():
    g = helpers.pseudo_cycle_example()
    f, cert = construct_nilpotent(g)
    doc = json.loads(json.dumps(cert.to_dict()))
    restored = certificate_from_dict(doc, g)
    assert not check_nilpotency_certificate(g, f, restored)

    bad = dict(doc)
    bad["xi"] = [1, 0, 2]
    assert check_nilpotency_certificate(g, f, certificate_from_dict(bad, g))

    # the collapse is read off the nilpotency index, so a huge lambda costs
    # no more steps than the true one
    huge = certificate_from_dict({**doc, "lambda": 10**12}, g)
    assert check_nilpotency_certificate(g, f, huge) == [
        f"lambda mismatch: certificate {10**12}, graph {cert.lam}"
    ]

    tampered_tables = list(t.copy() for t in f.tables)
    tampered_tables[0][0] = 1
    tampered = Fds(f.domain, tuple(tampered_tables))
    assert check_nilpotency_certificate(g, tampered, cert)


def test_certificate_reads_back_equal_to_the_one_written():
    # The component {1, 4} has the first vertex, but its representative 4
    # comes after the representative 2 of {2}: both sides order the pairs
    # by representative.
    g = SignedDigraph.from_arcs(
        [("1", "4", "+"), ("4", "1", "+"), ("1", "3", "+"), ("2", "3", "+")],
        vertices=["1", "2", "3", "4"],
    )
    _, cert = construct_nilpotent(g)
    assert cert.to_dict()["representatives"] == [[["2"], "2"], [["1", "4"], "4"]]
    assert certificate_from_dict(json.loads(json.dumps(cert.to_dict())), g) == cert

    rng = random.Random(3110)
    seen = reordered = 0
    for k in range(200):
        g = helpers.random_connected_sdg(rng, 7) if k % 2 else helpers.mixed_components_sdg(rng)
        try:
            _, cert = construct_nilpotent(g)
        except PreconditionError:  # a component is a signed cycle
            continue
        if len(cert.representatives) < 2:
            continue
        assert certificate_from_dict(json.loads(json.dumps(cert.to_dict())), g) == cert
        by_component = sorted(cert.representatives, key=lambda item: g.index(item[0][0]))
        seen += 1
        reordered += by_component != list(cert.representatives)
    assert seen >= 50 and reordered >= 10, (seen, reordered)


def test_certificate_problems_come_in_vertex_order():
    # Sources b and a, listed b first: both targets are off their interval
    # minimum, and the problems name them in vertex order.
    g = SignedDigraph.from_arcs(
        [("b", "c", "+"), ("a", "c", "+")], vertices=["b", "a", "c"]
    )
    f, cert = construct_nilpotent(g)
    bad = certificate_from_dict({**cert.to_dict(), "xi": [1, 1, cert.target[2]]}, g)
    assert check_nilpotency_certificate(g, f, bad) == [
        "target at source b is not the interval minimum",
        "target at source a is not the interval minimum",
        f"iterates do not collapse to the target within {cert.lam + cert.beta} steps",
    ]


# a <-> b -> c: the representative a of the initial component {a, b} has
# the in-neighbour b, and the layers are [a], [b], [c].
LAYERED = SignedDigraph.from_arcs([("a", "b", "+"), ("b", "a", "+"), ("b", "c", "+")])


@pytest.mark.parametrize(
    "edit, expected",
    [
        ({"layers": [["a"], ["b"]]}, "layers do not partition the vertex set"),
        ({"layers": [["a", "b"], ["c"]]}, "first layer differs from the representative set"),
        (
            {"representatives": [[["a"], "a"]]},
            "representative keys differ from the initial components",
        ),
        ({"representatives": [[["a", "b"], "c"]]}, "representative c outside its component"),
        ({"layers": [["a"], ["c"], ["b"]]}, "vertex c in layer 2 has no in-neighbor in layer 1"),
        # b, an in-neighbour of a in the graph, sits in the layer before a,
        # but layers ignore the arcs into representatives.
        ({"layers": [["b"], ["a", "c"]]}, "vertex a in layer 2 has no in-neighbor in layer 1"),
        ({"xi": [0, 0, 7]}, "target state outside the domain"),
        ("arity", "system arity differs from graph order"),
    ],
)
def test_certificate_check_names_each_tampering(edit, expected):
    f, cert = construct_nilpotent(LAYERED)
    assert not check_nilpotency_certificate(LAYERED, f, cert)
    if edit == "arity":
        f = construct_nilpotent(helpers.double_loop_example())[0]
    else:
        cert = certificate_from_dict({**cert.to_dict(), **edit}, LAYERED)
    assert expected in check_nilpotency_certificate(LAYERED, f, cert)


# ---------------------------------------------------------------------------
# the structure check
# ---------------------------------------------------------------------------

def _oracle_structure(f, g):
    """The arcs of ``g`` that ``f`` does not realize and the arcs ``f``
    realizes that ``g`` lacks, each sorted by tail index, head index, then
    ``+`` before ``-``, and the components that break the degree bound, from
    the brute-force interaction arcs and the bound as stated: ``|X_i| = 2``
    at a sink with in-arcs, otherwise ``|X_i| <= out-degree + 1``."""
    arcs = helpers.brute_force_interaction_arcs(f, g.vertices)
    bad = []
    for i, (v, size) in enumerate(zip(g.vertices, f.domain.shape)):
        dout = sum(1 for s, _, _ in arcs if s == v)
        din = sum(1 for _, t, _ in arcs if t == v)
        if not (size == 2 if dout == 0 and din > 0 else size <= dout + 1):
            bad.append(i)
    rank = {v: k for k, v in enumerate(g.vertices)}

    def ordered(diff):
        return sorted(diff, key=lambda a: (rank[a[0]], rank[a[1]], a[2] == NEGATIVE))

    return ordered(g.arcs - arcs), ordered(arcs - g.arcs), tuple(bad)


def _widened(f, i, extra):
    """``f`` with ``extra`` more values on top of component ``i``'s interval;
    every table repeats its values at the old top there, so no arc appears or
    disappears and only ``|X_i|`` grows."""
    cube = f.tables.reshape((f.n,) + f.domain.shape)
    cube = np.concatenate([cube, np.take(cube, [-1] * extra, axis=i + 1)], axis=i + 1)
    intervals = list(f.domain.intervals)
    intervals[i] = (intervals[i][0], intervals[i][1] + extra)
    return Fds(IntervalProduct(tuple(intervals)), cube.reshape(f.n, -1))


STRUCTURE_CASES = ("match", "missing arc", "extra arc", "flipped sign", "degree", "degree and arcs")


def _structure_case(rng, case):
    """A system and a graph that differ from the system's own interaction
    graph as ``case`` says, or None when this draw cannot make the case."""
    g = helpers.random_connected_sdg(rng, 4)
    if rng.random() < 0.3:  # and a lone vertex
        g = SignedDigraph(g.vertices + ("lone",), g.arcs)
    f = helpers.random_system_on(rng, g)
    if case.startswith("degree"):
        i = rng.randrange(g.n)
        v = g.vertices[i]
        dout = g.out_degree(v)
        size = dout + 2 if dout else (3 if g.in_degree(v) else 2)  # one above the bound
        f = _widened(f, i, size - f.domain.shape[i])
    arcs = set(g.arcs)
    edit = rng.choice(STRUCTURE_CASES[1:4]) if case == "degree and arcs" else case
    if edit == "missing arc":  # the graph names an arc f does not realize
        absent = [(s, t, sg) for s in g.vertices for t in g.vertices for sg in "+-"]
        absent = [a for a in absent if a not in arcs]
        if not absent:
            return None
        arcs.add(rng.choice(absent))
    elif edit in ("extra arc", "flipped sign"):  # f realizes an arc the graph lacks
        if not arcs:
            return None
        s, t, sign = rng.choice(sorted(arcs))
        arcs.remove((s, t, sign))
        if edit == "flipped sign":
            flipped = (s, t, NEGATIVE if sign == POSITIVE else POSITIVE)
            if flipped in arcs:
                return None
            arcs.add(flipped)
    return f, SignedDigraph(g.vertices, frozenset(arcs))


def test_structure_check_matches_a_brute_force_oracle(tmp_path, capsys):
    from sdgdyn import format_sdg, save_fds
    from sdgdyn.cli import main

    rng = random.Random(1212)
    seen = dict.fromkeys(STRUCTURE_CASES, 0)
    gpath, fpath = tmp_path / "g.sdg", tmp_path / "f.json"
    for k in range(330):
        case = STRUCTURE_CASES[k % len(STRUCTURE_CASES)]
        drawn = _structure_case(rng, case)
        if drawn is None:
            continue
        f, g = drawn
        missing, extra, bad = _oracle_structure(f, g)
        same = not missing and not extra
        arcs = [f"missing arcs {missing}"] * bool(missing) + [f"extra arcs {extra}"] * bool(extra)
        want = arcs + [f"degree bound violated at components {bad}"] * bool(bad)
        assert _structure_problems(f, g) == want, (case, g, f.domain)
        assert (same, bool(bad)) == (case in ("match", "degree"), case.startswith("degree"))
        if case in ("missing arc", "extra arc", "flipped sign"):
            assert (bool(missing), bool(extra)) == (case != "extra arc", case != "missing arc")
        seen[case] += 1

        # verify prints one PASS/FAIL line per check, in the same terms: the
        # graph line names the arcs, the degree line the components
        gpath.write_text(format_sdg(g))
        save_fds(f, str(fpath))
        code = main(["verify", "--graph", str(gpath), "--fds", str(fpath)])
        lines = [
            f"FAIL: interaction graph matches ({'; '.join(arcs)})" if arcs
            else "PASS: interaction graph matches",
            f"FAIL: degree bounds hold (violations at {list(bad)})" if bad
            else "PASS: degree bounds hold",
        ]
        out = capsys.readouterr().out.splitlines()
        assert [line for line in out if line[:5] in ("PASS:", "FAIL:")] == lines
        assert code == (1 if want else 0)
    assert min(seen.values()) >= 10 and sum(seen.values()) >= 300, seen


def test_structure_verdict_is_judged_once_per_system_and_graph(monkeypatch):
    # The verdict is kept on the system, keyed on the graph's vertices and
    # arcs: an equal graph built anew reuses it, another graph is judged
    # afresh, and every call returns a new list (extend_all appends to it).
    judged = []
    arc_problems = synthesis._arc_problems
    monkeypatch.setattr(
        synthesis, "_arc_problems", lambda f, g: judged.append(g) or arc_problems(f, g)
    )
    g = helpers.eight_vertex_example()
    built, _ = construct_nilpotent(g)
    f = Fds(built.domain, built.tables)  # a new system: no verdict kept yet
    judged.clear()
    first = _structure_problems(f, g)
    first.append("appended by a caller")
    assert _structure_problems(f, SignedDigraph(g.vertices, frozenset(g.arcs))) == []
    assert len(judged) == 1
    arc = g.sorted_arcs()[0]
    fewer = SignedDigraph(g.vertices, g.arcs - {arc})
    want = [f"extra arcs {[arc]}"]
    assert _structure_problems(f, fewer) == want and _structure_problems(f, fewer) == want
    assert len(judged) == 2 and _structure_problems(built, fewer) == want


def test_graph_structure_is_derived_once_per_graph(monkeypatch):
    from sdgdyn import sdg, synthesis

    runs = []
    strong_components = sdg._strong_components

    def counting(g, vertices):
        runs.append(g)
        return strong_components(g, vertices)

    monkeypatch.setattr(sdg, "_strong_components", counting)
    monkeypatch.setattr(synthesis, "_strong_components", counting)
    g = helpers.eight_vertex_example()
    f, _ = construct_nilpotent(g)  # the planner and the certificate check
    assert len(runs) == 1

    built = []
    init = SignedDigraph.__post_init__
    monkeypatch.setattr(SignedDigraph, "__post_init__", lambda self: built.append(self) or init(self))
    assert _structure_problems(f, g) == []
    assert built == []


def test_nilpotent_planner_derives_strong_components_once(monkeypatch):
    from sdgdyn import sdg

    runs = []
    strong_components = sdg._strong_components

    def counting(g, vertices):
        runs.append(g)
        return strong_components(g, vertices)

    monkeypatch.setattr(sdg, "_strong_components", counting)
    monkeypatch.setattr(synthesis, "_strong_components", counting)
    # Three lone vertices, a two-cycle carrying both signs on one step and a
    # general component, their vertices interleaved.
    g = SignedDigraph.from_arcs(
        [
            ("c1", "c2", "+"), ("c2", "c1", "+"), ("c2", "c1", "-"),
            ("1", "2", "+"), ("2", "3", "-"), ("3", "1", "+"), ("3", "4", "-"),
        ],
        vertices=["lone1", "1", "c1", "lone2", "2", "3", "c2", "4", "lone3"],
    )
    f, cert = construct_nilpotent(g)
    assert len(runs) == 1
    assert not check_nilpotency_certificate(g, f, cert)


# ---------------------------------------------------------------------------
# arc-by-arc extension
# ---------------------------------------------------------------------------


def test_extend_all_identity_when_nothing_missing():
    g = helpers.pseudo_cycle_example()
    f, _ = construct_nilpotent(g)
    assert extend_all(g, g, f) is f


def test_extend_single_arc_gap():
    # base: 1 -> 2; target adds 2 -> 3 (head 3 already fed? no: make 3 fed
    # by the base so the head is not isolated).
    base = SignedDigraph.from_arcs(
        [("1", "2", "+"), ("1", "3", "+")], vertices=["1", "2", "3"]
    )
    target = SignedDigraph.from_arcs(
        [("1", "2", "+"), ("1", "3", "+"), ("2", "3", "-")],
        vertices=["1", "2", "3"],
    )
    h = helpers.random_system_on(random.Random(0), base)
    f = extend_all(target, base, h)
    assert f.interaction_graph(target.vertices).arcs == target.arcs
    ok, _ = f.is_degree_bounded()
    assert ok


def test_extend_all_postconditions_on_eight_vertex_example():
    g = helpers.eight_vertex_example()
    reps = {"1", "4", "6"}
    base = g.without_arcs([a for a in g.arcs if a[1] in reps])
    h, cert = construct_nilpotent(base)
    anchor = cert.target
    f = extend_all(g, base, h, anchor=anchor)
    assert f.interaction_graph(g.vertices).arcs == g.arcs
    ok, _ = f.is_degree_bounded()
    assert ok
    # final-state postconditions against (base, h, anchor)
    state = ExtensionState.start(g, f, anchor)
    assert not check_extension_postconditions(state, base, h)


def _tampered_extension_state(edits) -> list[str]:
    """Problems of a hand-made extension step whose system has ``edits``.

    Base: loop 1 -> 1 and arc 1 -> 2 on Y = [0,1]^2, with h = (x1, 0).
    Current graph: the base plus the loop 2 -> 2, so 2 gained an output
    (anchored at 0) and no vertex gained inputs.  The current system on
    X = [0,1] x [0,2] is f = (x1, 0), which agrees with h; ``edits`` maps
    (component, state) to a new value of f before the check.
    """
    base = SignedDigraph.from_arcs([("1", "1", "+"), ("1", "2", "+")])
    graph = SignedDigraph(base.vertices, base.arcs | {("2", "2", "+")})
    h = Fds(IntervalProduct(((0, 1), (0, 1))), ([0, 0, 1, 1], [0, 0, 0, 0]))
    X = IntervalProduct(((0, 1), (0, 2)))
    tables = [[x1 for x1, _ in X.states()], [0] * X.size]
    for (k, s), value in edits.items():
        tables[k][X.offset(s)] = value
    state = ExtensionState.start(graph, Fds(X, tuple(tables)), (0, 0))
    assert _ab_sets(base, graph) == (frozenset(), {"2"})
    return check_extension_postconditions(state, base, h)


@pytest.mark.parametrize(
    "edits, expected",
    [
        ({}, []),
        # f_2 = 2 outside Y: outside [0,1] and outside h_2(Y) = {0}.
        (
            {(1, (1, 2)): 2},
            [
                "image of component 1 leaves the base domain",
                "image of component 1 leaves the base image",
            ],
        ),
        ({(1, (1, 2)): 1}, ["image of component 1 leaves the base image"]),
        # f_1 changes at an anchored state of Y (x2 = 0); 1 reads no new output.
        (
            {(0, (0, 0)): 1},
            [
                "component 0 deviates from the base on anchored states",
                "component 0 depends on no new output yet deviates on the base domain",
            ],
        ),
        # Only the first deviating component is named for the anchored states.
        (
            {(0, (0, 0)): 1, (1, (1, 0)): 1},
            [
                "image of component 1 leaves the base image",
                "component 0 deviates from the base on anchored states",
                "component 0 depends on no new output yet deviates on the base domain",
            ],
        ),
        # f_1 changes on Y off the anchor (x2 = 1).
        (
            {(0, (0, 1)): 1},
            ["component 0 depends on no new output yet deviates on the base domain"],
        ),
    ],
)
def test_extension_postconditions_name_each_broken_guarantee(edits, expected):
    assert _tampered_extension_state(edits) == expected


def test_extension_postconditions_require_the_base_domain_inside():
    # Y = [0,1]^2 is not inside X = [0,1] x [1,2]: no restriction of f to Y.
    base = SignedDigraph.from_arcs([("1", "1", "+"), ("1", "2", "+")])
    h = Fds(IntervalProduct(((0, 1), (0, 1))), ([0, 0, 1, 1], [0, 0, 0, 0]))
    X = IntervalProduct(((0, 1), (1, 2)))
    f = Fds(X, ([x1 for x1, _ in X.states()], [1] * X.size))
    state = ExtensionState.start(base, f, (0, 0))
    with pytest.raises(PreconditionError, match="^domain is not contained in the target domain$"):
        check_extension_postconditions(state, base, h)


def test_extend_by_arc_case3_two_level_step():
    # Base: 1 -> 2, 3 -> 4; adding (3, 1, +) hits a non-isolated source head
    # whose constant sits at its interval bottom: a two-level step appears.
    base = SignedDigraph.from_arcs(
        [("1", "2", "+"), ("3", "4", "+")], vertices=["1", "2", "3", "4"]
    )
    target = SignedDigraph.from_arcs(
        [("1", "2", "+"), ("3", "4", "+"), ("3", "1", "+")],
        vertices=["1", "2", "3", "4"],
    )
    rng = random.Random(5)
    while True:
        h = helpers.random_system_on(rng, base)
        if h.tables[0][0] == h.domain.intervals[0][0]:  # constant of 1 at min
            break
    f = extend_all(target, base, h)
    c = int(h.tables[0][0])
    top = f.domain.intervals[f.domain.n - 2][1]
    hi_of_1 = h.domain.intervals[0][1]
    for s in f.domain.states():
        expect = hi_of_1 if s[2] == top else c
        assert f.evaluate(s)[0] == expect


def test_extend_by_arc_state_bookkeeping():
    # Step the extension by hand and watch the gained-input/lost-output sets.
    base = SignedDigraph.from_arcs(
        [("1", "2", "+"), ("1", "3", "+")], vertices=["1", "2", "3"]
    )
    h = helpers.random_system_on(random.Random(3), base)
    state = ExtensionState.start(base, h, (0, 0, 0))
    arc = ("2", "3", "-")  # tail 2 was a sink of the base
    new = extend_by_arc(state, arc, h)
    assert arc in new.graph.arcs
    assert new.anchor == state.anchor
    # 2 stopped being a sink; no vertex gained inputs
    assert _ab_sets(base, new.graph) == (frozenset(), {"2"})
    assert new.system.interaction_graph(base.vertices).arcs == new.graph.arcs
    with pytest.raises(PreconditionError):
        extend_by_arc(new, arc, h)  # already present


def test_extend_by_arc_grows_singleton_sink_tail():
    # An isolated base vertex serving as a tail gets a two-level interval
    # before the step function is installed.
    base = SignedDigraph.from_arcs([("1", "2", "+")], vertices=["1", "2", "3"])
    target = SignedDigraph.from_arcs(
        [("1", "2", "+"), ("3", "2", "-")], vertices=["1", "2", "3"]
    )
    h = helpers.random_system_on(random.Random(4), base)
    assert h.domain.shape[2] == 1
    f = extend_all(target, base, h)
    assert f.domain.shape[2] == 2
    assert f.interaction_graph(target.vertices).arcs == target.arcs


def test_extend_rejects_bad_bases():
    base = SignedDigraph.from_arcs([("1", "2", "+")], vertices=["1", "2", "3"])
    # vertex 3 is base-isolated and would gain an out-arc in the target
    target = SignedDigraph.from_arcs(
        [("1", "2", "+"), ("3", "1", "+")], vertices=["1", "2", "3"]
    )
    h = helpers.random_system_on(random.Random(1), base)
    with pytest.raises(PreconditionError):
        extend_all(target, base, h)

    # arc from a base sink to a base source
    target2 = SignedDigraph.from_arcs(
        [("1", "2", "+"), ("2", "1", "+")], vertices=["1", "2", "3"]
    )
    h2 = helpers.random_system_on(random.Random(2), base)
    with pytest.raises(PreconditionError):
        extend_all(target2, base, h2)


# The base 1 -> 2 with 3 isolated, and each target or argument that
# extend_all must refuse.
EXTEND_BASE = SignedDigraph.from_arcs([("1", "2", "+")], vertices=["1", "2", "3"])


def _with_base_arcs(*arcs):
    return SignedDigraph.from_arcs([("1", "2", "+"), *arcs], vertices=["1", "2", "3"])


@pytest.mark.parametrize(
    "target, system, kwargs, expected",
    [
        (
            SignedDigraph.from_arcs([("1", "2", "+")]), None, {},
            "base graph is not a spanning subgraph of the target",
        ),
        (
            _with_base_arcs(), "constant", {},
            "base system's structure does not fit the base graph: "
            "missing arcs [('1', '2', '+')]; degree bound violated at components (0, 1)",
        ),
        (
            _with_base_arcs(("2", "1", "+")), None, {},
            "target arc (2,1) runs from a base sink to a base source",
        ),
        (
            _with_base_arcs(("1", "3", "+"), ("3", "2", "+")), None, {},
            "target arc (1,3) enters a base-isolated non-sink vertex",
        ),
        (_with_base_arcs(), None, {"anchor": (0, 0, 1)}, "anchor state outside the base domain"),
        (
            _with_base_arcs(("1", "3", "+")), None, {"order": []},
            "order must list each missing arc exactly once",
        ),
        (
            _with_base_arcs(("1", "3", "+")), "wide", {},
            "base system's structure does not fit the base graph: "
            "degree bound violated at components (0,)",
        ),
    ],
)
def test_extend_all_names_each_precondition(target, system, kwargs, expected):
    h = helpers.random_system_on(random.Random(1), EXTEND_BASE)
    if system == "constant":
        h = constant_fds(h.domain, h.domain.lows)
    elif system == "wide":  # realizes 1 -> 2, but X_1 = {0, 1, 2}: f_2 = [x_1 >= 1]
        h = Fds(IntervalProduct(((0, 2), (0, 1), (0, 0))), [[0] * 6, [0, 0, 1, 1, 1, 1], [0] * 6])
    with pytest.raises(PreconditionError) as info:
        extend_all(target, EXTEND_BASE, h, **kwargs)
    assert str(info.value) == expected


# ---------------------------------------------------------------------------
# convergence construction
# ---------------------------------------------------------------------------


def fig_case1_instance():
    arcs_g = [
        ("6", "4", "-"), ("4", "5", "-"), ("4", "5", "+"), ("5", "6", "+"),
        ("6", "5", "+"), ("3", "1", "-"), ("1", "2", "-"), ("1", "3", "-"),
        ("2", "3", "+"), ("3", "2", "+"), ("1", "6", "+"), ("3", "6", "+"),
        ("4", "1", "-"), ("4", "3", "+"),
    ]
    g = SignedDigraph.from_arcs(arcs_g, vertices=["1", "2", "3", "4", "5", "6"])
    keep = [c for c in enumerate_cycles(g) if c.vertex_set() == frozenset("456")]
    return g, keep[0]


def test_construct_converging_case1_instance():
    g, cycle = fig_case1_instance()
    sub, h = cycle_subsystem(g, [cycle])
    f, w = construct_converging(g, sub, h)
    assert w.valid and w.steps == 4  # three isolated-only vertices
    assert sorted(f.fixed_points()) == sorted(h.fixed_points())
    assert f.interaction_graph(g.vertices).arcs == g.arcs


def test_construct_converging_case2_instance():
    arcs_g = [
        ("1", "4", "+"), ("4", "1", "+"), ("2", "1", "-"), ("4", "5", "+"),
        ("2", "3", "+"), ("3", "2", "+"), ("5", "6", "+"), ("6", "5", "-"),
    ]
    g = SignedDigraph.from_arcs(arcs_g, vertices=["1", "2", "3", "4", "5", "6"])
    keep = [c for c in enumerate_cycles(g) if c.vertex_set() == frozenset("14")]
    sub, h = cycle_subsystem(g, keep)
    f, w = construct_converging(g, sub, h)
    assert w.valid and w.steps == 5  # isolated-only set {2, 3, 5, 6}
    assert sorted(f.fixed_points()) == sorted(h.fixed_points())
    assert len(h.fixed_points()) == 2


def test_construct_converging_whole_graph_subgraph():
    g = helpers.pseudo_cycle_example()
    h, _ = construct_nilpotent(g)
    f, w = construct_converging(g, g, h)
    assert w.valid and w.steps == 1
    assert f == h


def test_construct_converging_checks_preconditions():
    # Removing 2 -> 3 from the path 1 -> 2 -> 3 leaves 2 a subgraph sink
    # that is not a graph sink: rejected.
    g = SignedDigraph.from_arcs([("1", "2", "+"), ("2", "3", "+")])
    sub = g.without_arcs([("2", "3", "+")])
    h = constant_fds(
        IntervalProduct(((0, 1), (0, 1), (0, 0))), (0, 0, 0)
    )
    h = Fds(
        h.domain,
        (
            np.zeros(4, dtype=np.int64),
            np.array([0, 0, 1, 1], dtype=np.int64),  # follows x1
            np.zeros(4, dtype=np.int64),
        ),
    )
    assert h.interaction_graph(g.vertices).arcs == sub.arcs
    with pytest.raises(PreconditionError):
        construct_converging(g, sub, h)


def _converging_case(arcs, keep):
    g = SignedDigraph.from_arcs(arcs)
    sub = g.spanning(keep)
    return g, sub, helpers.random_system_on(random.Random(3), sub)


@pytest.mark.parametrize(
    "case, expected",
    [
        ("spanning", "subgraph is not a spanning subgraph of the graph"),
        ("arity", "subsystem arity differs from the graph order"),
        ("fit", "subsystem does not fit the subgraph: missing arcs [('1', '2', '+')]"),
        ("source", "vertex 2 is a source of the subgraph but not of the graph"),
        ("sink", "vertex 2 is a sink of the subgraph but not of the graph"),
        ("cycle", "component ('1', '2') is a signed cycle inside the isolated set"),
    ],
)
def test_construct_converging_names_each_precondition(case, expected):
    path = [("1", "2", "+"), ("2", "3", "+")]
    g, sub, h = _converging_case(path, path[:1])
    if case == "spanning":
        sub = SignedDigraph.from_arcs(path[:1])
    elif case == "arity":
        h = constant_fds(IntervalProduct(((0, 0),)), (0,))
    elif case == "fit":
        h = constant_fds(h.domain, h.domain.lows)
    elif case == "source":  # 1 is isolated in the subgraph, 2 becomes its source
        g, sub, h = _converging_case(path, path[1:])
    elif case == "cycle":  # the whole two-cycle is isolated in the subgraph
        g, sub, h = _converging_case([("1", "2", "+"), ("2", "1", "-")], [])
    with pytest.raises(PreconditionError) as info:
        construct_converging(g, sub, h)
    assert str(info.value).startswith(expected)


def test_direct_path_result_is_degree_checked(monkeypatch):
    # Both extension stages of the direct path add no arc here (the block
    # 3 -> 4 is glued on whole), so extend_all checks no result.  Growing
    # vertex 4's interval by a duplicated plane keeps every arc and must
    # still be refused: in the glued base by the direct path's own check of
    # it (an internal error, not a precondition of extend_all), and in the
    # last extension's result by construct_converging's final structure
    # check, the only check that sees it there.
    g = SignedDigraph.from_arcs([("1", "2", "+"), ("2", "1", "+"), ("3", "4", "+")])
    cycle = next(c for c in enumerate_cycles(g) if c.vertex_set() == {"1", "2"})
    sub, h = cycle_subsystem(g, [cycle])
    plan = synthesis.convergence_plan(g, sub)
    assert plan.isolated == ("3", "4") and not plan.closed
    assert g.spanning(sub.arcs | plan.block_graph.arcs) == g
    assert construct_converging(g, sub, h)[1].valid

    def widen(f):
        return Fds(*synthesis._extended_tables(f.domain, f.tables, g.index("4"), 1))

    glue, extend = synthesis._glue, synthesis.extend_all

    def last_extension_widened(*args, **kwargs):
        f = extend(*args, **kwargs)
        return widen(f) if "order" in kwargs else f  # the second stage only

    for name, faulty, what in (
        ("_glue", lambda *args: widen(glue(*args)), "glued block"),
        ("extend_all", last_extension_widened, "converging construction"),
    ):
        with monkeypatch.context() as patch:
            patch.setattr(synthesis, name, faulty)
            with pytest.raises(InternalInvariantError) as info:
                construct_converging(g, sub, h)
        assert str(info.value) == (
            f"{what} failed self-check: degree bound violated at components (3,)"
        )


def _direct_path_cases(seed):
    """Seeded ``(g, sub, h)`` triples of ``helpers.random_subsystem_triple``,
    then the cycle subsystems of seeded fixed-point constructions."""
    rng = random.Random(seed)
    for _ in range(150):
        trip = helpers.random_subsystem_triple(rng, 6)
        if trip is not None:
            yield trip
    for k in range(150):
        g = helpers.random_connected_sdg(rng, 7)
        if k % 3:
            cycles = find_disjoint_positive_cycles(g, k % 3)
        else:
            cycles = [c for c in enumerate_cycles(g) if c.sign == NEGATIVE][:1]
        if cycles:
            yield g, *cycle_subsystem(g, cycles)


def test_an_arc_less_block_is_the_identity(monkeypatch):
    # On the direct path a block graph without arcs puts a lone vertex,
    # constant 0 on (0, 0), at each isolated vertex; mirrored and placed at
    # h's lows, the glue gives h back.  So construct_converging builds no
    # nilpotent system for such a plan.
    calls = []
    nilpotent = synthesis.construct_nilpotent
    monkeypatch.setattr(
        synthesis, "construct_nilpotent", lambda q: calls.append(q) or nilpotent(q)
    )
    plans = mirrored = 0
    for g, sub, h in _direct_path_cases(5):
        plan = synthesis.convergence_plan(g, sub)
        if plan.closed or not plan.isolated or plan.block_graph.arcs:
            continue
        rows = [g.index(v) for v in plan.isolated]
        block = synthesis._placed_block(plan.block_graph, h.domain.lows, plan.mirrored)
        assert synthesis._glue(h, block, rows) == h
        calls.clear()
        assert construct_converging(g, sub, h)[1].valid
        assert calls == []
        plans += 1
        mirrored += bool(plan.mirrored)
    assert plans >= 30 and mirrored >= 5, (plans, mirrored)


def test_construct_converging_random_triples():
    rng = random.Random(71)
    done = 0
    while done < 60:
        trip = helpers.random_subsystem_triple(rng, 6)
        if trip is None:
            continue
        g, sub, h = trip
        f, w = construct_converging(g, sub, h)
        assert w.valid
        assert f.interaction_graph(g.vertices).arcs == g.arcs
        ok, _ = f.is_degree_bounded()
        assert ok
        assert sorted(f.fixed_points()) == sorted(h.fixed_points())
        done += 1


# SHA-256 of the outputs below, recorded before the extension step was
# folded into one function; any change to a system or an error shows.
CONVERGING_OUTPUTS_DIGEST = (
    "f3d5d946f503110a66d1e13ec70d1c5059b635fd8ddb8f7173205914b4cf0de6"
)


def _step_kind(state: ExtensionState, arc) -> str:
    """Which of the six kinds of extension step ``arc`` makes on ``state``."""
    j, i, _ = arc
    cur = state.graph
    if cur.in_degree(i) == 0:
        if cur.out_degree(i) == 0:
            return "isolated head"
        return "source-head loop" if j == i else "source head"
    if cur.out_degree(j) == 0:
        return f"sink tail of width {state.system.domain.shape[cur.index(j)]}"
    return "varying head"


def test_construct_converging_output_is_pinned(monkeypatch):
    steps = collections.Counter()
    step = synthesis.extend_by_arc

    def counting(state, arc, *args, **kwargs):
        steps[_step_kind(state, arc)] += 1
        return step(state, arc, *args, **kwargs)

    monkeypatch.setattr(synthesis, "extend_by_arc", counting)
    paths = collections.Counter()
    direct, split = synthesis._pipeline_direct, synthesis._pipeline_split

    def counting_direct(g, sub, h, plan):
        paths["direct"] += 1
        paths["mirrored block"] += bool(plan.mirrored)
        return direct(g, sub, h, plan)

    def counting_split(*args):
        paths["split"] += 1
        return split(*args)

    monkeypatch.setattr(synthesis, "_pipeline_direct", counting_direct)
    monkeypatch.setattr(synthesis, "_pipeline_split", counting_split)
    digest = hashlib.sha256()

    def record(build):
        try:
            out = json.dumps(fds_to_dict(build()))
        except SdgError as exc:
            out = f"{type(exc).__name__}: {exc}"
        digest.update(out.encode() + b"\n")

    rng = random.Random(1)
    done = 0
    while done < 400:
        trip = helpers.random_subsystem_triple(rng, 6)
        if trip is not None:
            g, sub, h = trip
            record(lambda: construct_converging(g, sub, h)[0])
            done += 1
    for k in range(400):
        g = helpers.random_connected_sdg(rng, 7)
        if k % 3:
            record(lambda: construct_2k_fixed_points(g, k % 3))
        else:
            record(lambda: construct_no_fixed_point(g))
    assert digest.hexdigest() == CONVERGING_OUTPUTS_DIGEST
    assert len(steps) == 6 and min(steps.values()) >= 10, steps
    assert len(paths) == 3 and min(paths.values()) >= 10, paths


def test_each_step_check_agrees_with_the_full_checks(monkeypatch):
    # extend_all checks only its result.  Every intermediate step must be
    # sound too: on every step of seeded converging and fixed-point
    # constructions, of all six kinds, the full checks accept the step's
    # system against its own graph and against the base (whose graph is the
    # base system's cached interaction graph, which extend_all checked).
    kinds = collections.Counter()
    step = synthesis.extend_by_arc

    def checked(state, arc, base_system, *args, **kwargs):
        kind = _step_kind(state, arc)
        new = step(state, arc, base_system, *args, **kwargs)
        base_graph = base_system.interaction_graph(new.graph.vertices)
        assert _structure_problems(new.system, new.graph) == [], (kind, arc)
        assert new.in_degrees == tuple(map(new.graph.in_degree, new.graph.vertices))
        assert new.out_degrees == tuple(map(new.graph.out_degree, new.graph.vertices))
        assert check_extension_postconditions(new, base_graph, base_system) == [], (kind, arc)
        kinds[kind] += 1
        return new

    monkeypatch.setattr(synthesis, "extend_by_arc", checked)
    rng = random.Random(8)
    for k in range(120):
        trip = helpers.random_subsystem_triple(rng, 6)
        if trip is not None:
            construct_converging(*trip)
        g = helpers.random_connected_sdg(rng, 7)
        try:
            construct_2k_fixed_points(g, k % 3) if k % 3 else construct_no_fixed_point(g)
        except PreconditionError:
            pass
    assert len(kinds) == 6 and min(kinds.values()) >= 5, kinds


def _two_step_base():
    """Base 1 -> 2 +, 1 -> 3 + on [0,1]^3 with h = (0, x1, x1), anchored at
    the lows.  Adding 1 -> 3 - grows the source tail 1 to [0,2] and writes
    3 = 0 on the plane x1 = 2; adding 2 -> 3 - writes 3 = 0 on the second
    plane x2 = 1 of the sink tail 2."""
    base = SignedDigraph.from_arcs([("1", "2", "+"), ("1", "3", "+")])
    Y = IntervalProduct(((0, 1),) * 3)
    h = Fds(Y, [[0] * 8, [s[0] for s in Y.states()], [s[0] for s in Y.states()]])
    return base, h


# Three arcs that extend_all adds to the base of _two_step_base, one step each.
THREE_ARCS = frozenset({("1", "3", "-"), ("2", "3", "-"), ("3", "3", "+")})


_EXTENDED_TABLES = synthesis._extended_tables


def _flip_direction(dom, tables, axis, direction, grow=True, head=None, value=0):
    # A second-plane step made on the anchor plane instead.
    if not grow:
        direction = -direction
    return _EXTENDED_TABLES(dom, tables, axis, direction, grow, head, value)


def _mutate_written_plane(edit):
    """An ``_extended_tables`` whose head-writing call hands ``edit`` the
    ``(n, *shape)`` cube, the head and the index of the written plane."""

    def extended(dom, tables, axis, direction, grow=True, head=None, value=0):
        dom, tables = _EXTENDED_TABLES(dom, tables, axis, direction, grow, head, value)
        if head is not None:
            cube = tables.reshape((len(tables),) + dom.shape)
            edit(cube, head, (slice(None),) * axis + (-1 if direction > 0 else 0,))
        return dom, tables

    return extended


def _set_row_cell(cube, head, at):
    cube[(1,) + at][0] = 0  # component 2 reads 1 on the plane x1 = 2


def _set_head(value):
    def edit(cube, head, at):
        cube[(head,) + at] = value

    return edit


def _copy_neighbour(cube, head, at):
    near = at[:-1] + (-2 if at[-1] == -1 else 1,)
    cube[(head,) + at] = cube[(head,) + near]


@pytest.mark.parametrize(
    "arc, extended, named",
    [
        # component 2 reads 0 at (2, 0, 0): it falls into the written plane
        # x1 = 2 and rises along x2 there
        pytest.param(
            ("1", "3", "-"), _mutate_written_plane(_set_row_cell),
            "extra arcs [('1', '2', '-'), ('2', '2', '+')]", id="non-head-row",
        ),
        pytest.param(
            ("2", "3", "-"), _mutate_written_plane(_set_head(1)),
            "missing arcs [('2', '3', '-')]; extra arcs [('2', '3', '+')]", id="wrong-sign",
        ),
        pytest.param(
            ("1", "3", "-"), _mutate_written_plane(_copy_neighbour),
            "missing arcs [('1', '3', '-')]", id="no-step",
        ),
        pytest.param(
            ("2", "3", "-"), _flip_direction,
            "missing arcs [('2', '3', '-')]; extra arcs [('2', '3', '+')]", id="anchor-plane",
        ),
    ],
)
def test_step_check_rejects_a_bad_plane(monkeypatch, arc, extended, named):
    # A faulty step is caught by extend_all's one check of its result, which
    # names the arcs that the faulty plane lost or added.
    base, h = _two_step_base()
    target = SignedDigraph(base.vertices, base.arcs | {arc})
    assert _structure_problems(extend_all(target, base, h), target) == []
    monkeypatch.setattr(synthesis, "_extended_tables", extended)
    with pytest.raises(InternalInvariantError, match=re.escape(named)):
        extend_all(target, base, h)


def test_extend_all_checks_the_whole_system_once(monkeypatch):
    # Three steps run neither the interaction-graph kernel nor the full
    # postcondition check: the kernel runs for the base and for the final
    # result only, and the postconditions are checked in full once.
    base, h = _two_step_base()
    target = SignedDigraph(base.vertices, base.arcs | THREE_ARCS)
    runs = helpers.count_kernel_runs(monkeypatch)
    full = []
    check = synthesis.check_extension_postconditions
    monkeypatch.setattr(
        synthesis, "check_extension_postconditions", lambda *a: full.append(a) or check(*a)
    )
    steps = []
    step = synthesis.extend_by_arc
    monkeypatch.setattr(synthesis, "extend_by_arc", lambda *a, **k: steps.append(a) or step(*a, **k))

    f = extend_all(target, base, h)
    assert _structure_problems(f, target) == []
    assert len(steps) == 3
    assert len(full) == 1 and full[0][0].system is f
    assert len(runs) == 2 and runs[0] is h and runs[1] is f


def test_extend_all_builds_one_system_and_one_graph(monkeypatch):
    # A step builds neither an Fds nor a SignedDigraph: extend_all builds
    # the result and its graph once, from the last step's state.
    base, h = _two_step_base()
    target = SignedDigraph(base.vertices, base.arcs | THREE_ARCS)
    built = collections.Counter()
    for cls in (Fds, SignedDigraph):
        post_init = cls.__post_init__

        def counting(self, post_init=post_init):
            built[type(self).__name__] += 1
            post_init(self)

        monkeypatch.setattr(cls, "__post_init__", counting)
    f = extend_all(target, base, h)
    assert built == {"Fds": 1, "SignedDigraph": 1}
    assert _structure_problems(f, target) == []


def test_every_extension_result_runs_the_kernel_once(monkeypatch):
    # The interaction-graph kernel is cached per system: extend_all checks
    # each result that added an arc with one kernel run, and a later reader
    # of that result (the direct path's second extension, which takes it as
    # its base, and construct_converging's final check) reuses the run.
    runs = helpers.count_kernel_runs(monkeypatch)
    extended = []
    extend = synthesis.extend_all

    def recording(*args, **kwargs):
        result = extend(*args, **kwargs)
        if result is not args[2]:
            extended.append(result)
        return result

    monkeypatch.setattr(synthesis, "extend_all", recording)
    rng = random.Random(21)
    chained = 0
    for _ in range(300):
        trip = helpers.random_subsystem_triple(rng, 6)
        if trip is None:
            continue
        runs.clear()
        extended.clear()
        synthesis.construct_converging(*trip)
        assert len({id(r) for r in runs}) == len(runs)
        for f in extended:
            assert any(r is f for r in runs)
        chained += len(extended) == 2
    assert chained >= 25, chained


@pytest.mark.parametrize(
    "arcs, build, row, read, negate, named",
    [
        # f1 = 1 - x1: a negative loop 1 -> 1 for the arc 3 -> 1 -, and still
        # no fixed point.
        pytest.param(
            [("1", "2", "+"), ("2", "3", "+"), ("3", "1", "-")], construct_no_fixed_point,
            0, 0, True, "missing arcs [('3', '1', '-')]; extra arcs [('1', '1', '-')]",
            id="no-fixed-point",
        ),
        # f2 = x2: a positive loop 2 -> 2 for the arc 1 -> 2 +, and still two
        # fixed points.
        pytest.param(
            [("1", "2", "+"), ("2", "1", "+")], lambda g: construct_2k_fixed_points(g, 1),
            1, 1, False, "missing arcs [('1', '2', '+')]; extra arcs [('2', '2', '+')]",
            id="two-fixed-points",
        ),
    ],
)
def test_single_cycle_results_are_structure_checked(
    monkeypatch, arcs, build, row, read, negate, named
):
    # When the graph is exactly the chosen cycles, the cycle subsystem is
    # the result: its structure is checked once, and a wrong table raises
    # although its fixed-point count is the one asked for.
    g = SignedDigraph.from_arcs(arcs)
    runs = helpers.count_kernel_runs(monkeypatch)
    f = build(g)
    assert len(runs) == 1 and runs[0] is f
    made = synthesis.cycle_subsystem

    def wrong(g, cycles):
        sub, h = made(g, cycles)
        tables = h.tables.copy()
        x = h.domain.coordinate_grids[read]
        tables[row] = 1 - x if negate else x
        return sub, Fds(h.domain, tables)

    monkeypatch.setattr(synthesis, "cycle_subsystem", wrong)
    with pytest.raises(InternalInvariantError) as caught:
        build(g)
    assert str(caught.value) == "fixed-point construction failed self-check: " + named


def test_component_qualifies_matches_an_arc_scan():
    # Property P of one component of the isolated set, read straight off
    # the arcs: not strongly connected, or an arc leaves the isolated set,
    # or no arc enters from outside it.
    rng = random.Random(43)
    seen = {"not strong": 0, "leaving": 0, "not entering": 0, "fails": 0}
    for _ in range(300):
        g = helpers.random_connected_sdg(rng, 6)
        iso = set(rng.sample(g.vertices, rng.randint(1, g.n)))
        for comp in helpers.induced(g, iso).weak_components():
            inner = [(s, t) for s, t, _ in g.arcs if s in comp and t in comp]
            reach = {v: {v} for v in comp}
            for _ in comp:
                for s, t in inner:
                    reach[s] |= reach[t]
            strong = all(reach[v] == set(comp) for v in comp)
            leaving = any(s in comp and t not in iso for s, t, _ in g.arcs)
            entering = any(s not in iso and t in comp for s, t, _ in g.arcs)
            want = not strong or leaving or not entering
            assert _component_qualifies(g, iso, comp) == want
            seen["not strong"] += not strong
            seen["leaving"] += leaving
            seen["not entering"] += not entering
            seen["fails"] += not want
    assert min(seen.values()) >= 10, seen


def test_convergence_plan_builds_only_its_block_graph(monkeypatch):
    # The isolated set and its components are asked of the graph itself, so
    # a plan builds one graph, its block graph, whatever the components.
    from sdgdyn import convergence_plan, sdg

    rng = random.Random(47)
    triples = [t for t in (helpers.random_subsystem_triple(rng, 6) for _ in range(80)) if t]
    built = []
    init = SignedDigraph.__post_init__
    monkeypatch.setattr(SignedDigraph, "__post_init__", lambda self: built.append(self) or init(self))
    components = 0
    for g, sub, _ in triples:
        built.clear()
        plan = convergence_plan(g, sub)
        assert len(built) == 1 and built[0] is plan.block_graph
        components += len(sdg._weak_components(g, plan.isolated))
    assert len(triples) >= 60 and components >= 30, (len(triples), components)


def test_converging_rebuilds_nilpotent_bound():
    # Removing all arcs recovers the nilpotent statement: the subsystem is a
    # single state, so the result collapses in (number of vertices) + 1 steps.
    g = helpers.pseudo_cycle_example()
    sub = g.without_arcs(g.arcs)
    h = constant_fds(IntervalProduct(((0, 0),) * 3), (0, 0, 0))
    f, w = construct_converging(g, sub, h)
    assert w.valid and w.steps == 4
    assert {f.iterate(s, 4) for s in f.domain.states()} == {(0, 0, 0)}


def _system_on_or_skip(rng_seed, graph):
    h = helpers.random_system_on(random.Random(rng_seed), graph)
    assert h is not None
    return h


def test_converging_block_needs_negative_orientation():
    # The isolated-set block {1 -> 2} has source 1 whose only later in-arc is
    # negative, so the block must be mirrored before extension.
    g = SignedDigraph.from_arcs(
        [
            ("5", "3", "+"), ("3", "4", "+"),
            ("1", "2", "+"), ("2", "3", "+"), ("3", "1", "-"),
        ],
        vertices=["1", "2", "3", "4", "5"],
    )
    sub = g.spanning([("5", "3", "+"), ("3", "4", "+")])
    h = _system_on_or_skip(11, sub)
    f, w = construct_converging(g, sub, h)
    assert w.valid and w.steps == 3
    assert sorted(f.fixed_points()) == sorted(h.fixed_points())


def test_converging_peels_closed_loop_inside_isolated_set():
    # Vertex 5 keeps a loop inside the isolated set but is fed from a
    # leaving-arc vertex, so the loop must be peeled off and glued back.
    g = SignedDigraph.from_arcs(
        [
            ("1", "2", "-"), ("1", "3", "-"), ("1", "5", "+"),
            ("4", "2", "+"), ("5", "5", "+"),
        ],
        vertices=["1", "2", "3", "4", "5"],
    )
    sub = g.spanning([("4", "2", "+")])
    from sdgdyn import convergence_plan

    plan = convergence_plan(g, sub)
    assert plan.closed == ("5",)
    h = _system_on_or_skip(12, sub)
    f, w = construct_converging(g, sub, h)
    assert w.valid
    assert sorted(f.fixed_points()) == sorted(h.fixed_points())


def test_converging_splits_two_strongly_connected_blocks():
    g = SignedDigraph.from_arcs(
        [
            ("5", "6", "+"),
            ("5", "3", "+"), ("3", "4", "+"), ("4", "3", "+"),
            ("1", "2", "+"), ("2", "1", "+"), ("5", "1", "+"),
        ],
        vertices=["1", "2", "3", "4", "5", "6"],
    )
    sub = g.spanning([("5", "6", "+")])
    from sdgdyn import convergence_plan

    plan = convergence_plan(g, sub)
    assert set(plan.closed) == {"1", "2", "3", "4"}
    h = _system_on_or_skip(13, sub)
    f, w = construct_converging(g, sub, h)
    assert w.valid and w.steps == 5
    assert sorted(f.fixed_points()) == sorted(h.fixed_points())


def test_converging_orders_inputs_before_outputs():
    # Vertex 3's incoming arc must be realized before its outgoing one so
    # its interval may grow downward for the negative arc without clashing
    # with vertex 2's constant.
    g = SignedDigraph.from_arcs(
        [("1", "1", "-"), ("1", "3", "-"), ("2", "1", "-"),
         ("3", "1", "+"), ("3", "2", "+")],
        vertices=["1", "2", "3"],
    )
    sub = g.spanning([("1", "1", "-")])
    h = _system_on_or_skip(21, sub)
    f, w = construct_converging(g, sub, h)
    assert w.valid
    assert sorted(f.fixed_points()) == sorted(h.fixed_points())


def test_inward_arc_order_is_the_heap_ranking():
    # Arcs into a seeded isolated set, with cycles among its vertices: the
    # least-ready-component rule gives the order of Kahn's algorithm with a
    # min-heap frontier (the reference), also where that ranking puts a
    # component before one of lower index.
    from sdgdyn.sdg import _strong_components

    rng = random.Random(28)
    cyclic = reordered = 0
    for _ in range(300):
        n = rng.randint(3, 9)
        names = [str(i) for i in range(1, n + 1)]
        iso = sorted(rng.sample(names, rng.randint(2, n)), key=names.index)
        arcs = {
            (u, v, rng.choice(helpers.SIGNS))
            for v in iso for u in names if rng.random() < 0.3
        }
        g = SignedDigraph.from_arcs(arcs, vertices=names)
        mirrored = {v for v in iso if rng.random() < 0.3}
        got = synthesis._inward_arc_order(g, frozenset(arcs), mirrored, iso)
        assert got == helpers.reference_inward_arc_order(g, frozenset(arcs), mirrored, iso)
        inner = g.spanning(a for a in arcs if a[0] in iso)
        sccs = _strong_components(inner, iso)
        cyclic += any(len(c) > 1 for c in sccs)
        member = {v: k for k, c in enumerate(sccs) for v in c}
        ranks = [member[a[1]] for a in got]
        reordered += ranks != sorted(ranks)
    assert cyclic > 100 and reordered > 100


def test_converging_cyclic_mixed_sign_isolated_pair():
    # The two isolated-set vertices feed each other with mixed signs; the
    # negatively-oriented head must receive its arc first.
    g = SignedDigraph.from_arcs(
        [("1", "1", "-"), ("2", "1", "+"), ("2", "2", "-"), ("2", "3", "-"),
         ("3", "1", "+"), ("3", "2", "+"), ("3", "3", "-")],
        vertices=["1", "2", "3"],
    )
    sub = g.spanning([("1", "1", "-")])
    h = _system_on_or_skip(22, sub)
    f, w = construct_converging(g, sub, h)
    assert w.valid
    assert sorted(f.fixed_points()) == sorted(h.fixed_points())


def test_converging_peels_conflicted_closed_component():
    # Sources 1 and 4 of the closed block {1,2,4} want opposite
    # orientations; the component is rerouted through the clamp-and-glue
    # path instead.
    g = SignedDigraph.from_arcs(
        [("1", "2", "-"), ("3", "1", "+"), ("3", "3", "+"),
         ("4", "2", "-"), ("5", "4", "-"), ("5", "6", "-")],
        vertices=["1", "2", "3", "4", "5", "6"],
    )
    sub = g.spanning([("3", "3", "+"), ("5", "6", "-")])
    from sdgdyn import convergence_plan

    plan = convergence_plan(g, sub)
    assert plan.closed == ("1", "2", "4")
    h = _system_on_or_skip(23, sub)
    f, w = construct_converging(g, sub, h)
    assert w.valid
    assert sorted(f.fixed_points()) == sorted(h.fixed_points())


def test_converging_survives_unorientable_open_component():
    # Sources 3 and 4 of one block component want opposite orientations and
    # the component is not closed (vertex 1 leaves it), so it is neither
    # mirrored nor peeled off: the direct path realizes each arc into a
    # source from whichever end that source's constant can step.
    g = SignedDigraph.from_arcs(
        [("1", "2", "+"), ("1", "3", "+"), ("2", "2", "-"),
         ("2", "4", "-"), ("3", "1", "+"), ("4", "1", "+")],
        vertices=["1", "2", "3", "4"],
    )
    sub = g.spanning([("2", "2", "-")])
    h = _system_on_or_skip(24, sub)
    f, w = construct_converging(g, sub, h)
    assert w.valid
    assert sorted(f.fixed_points()) == sorted(h.fixed_points())


def test_converging_places_intervals_below_base_points():
    # Vertex 1 is isolated in the subgraph at value 0 and its first arc in
    # is negative, so its interval must grow below that base point.
    g = SignedDigraph.from_arcs(
        [("3", "2", "+"), ("2", "4", "+"), ("1", "2", "+"), ("3", "1", "-")],
        vertices=["1", "2", "3", "4"],
    )
    sub = g.spanning([("3", "2", "+"), ("2", "4", "+")])
    h = _system_on_or_skip(14, sub)
    f, w = construct_converging(g, sub, h)
    assert w.valid and w == converges_toward(f, h, 2)
    assert f.domain.intervals[0][0] < h.domain.intervals[0][0]
    assert f.interaction_graph(g.vertices).arcs == g.arcs
    ok, _ = f.is_degree_bounded()
    assert ok


@pytest.mark.parametrize(
    "arcs, cycles",
    [
        pytest.param(
            [("1", "1", "+"), ("1", "2", "-"), ("1", "6", "+"), ("2", "1", "+"),
             ("3", "2", "-"), ("3", "5", "+"), ("3", "6", "-"), ("4", "1", "+"),
             ("4", "3", "+"), ("4", "7", "-"), ("5", "1", "-"), ("5", "2", "-"),
             ("5", "3", "+"), ("5", "3", "-"), ("6", "3", "+"), ("7", "4", "-"),
             ("7", "5", "-")],
            2,
            id="two-positive-cycles",
        ),
        pytest.param(
            [("1", "2", "-"), ("1", "3", "+"), ("2", "1", "-"), ("2", "3", "+"),
             ("3", "3", "-")],
            0,
            id="negative-cycle",
        ),
    ],
)
def test_source_head_steps_where_its_constant_can(arcs, cycles):
    # In both graphs a later arc into the tail asks the tail to grow the
    # way the head's constant cannot step, so the step takes the head's own
    # direction.  The first graph is bench item p323.
    g = SignedDigraph.from_arcs(arcs, vertices=sorted({a[0] for a in arcs}, key=int))
    if cycles:
        f = construct_2k_fixed_points(g, cycles)
    else:
        f = construct_no_fixed_point(g)
    assert f.interaction_graph(g.vertices).arcs == g.arcs
    ok, _ = f.is_degree_bounded()
    assert ok
    assert len(f.fixed_points()) == (2**cycles if cycles else 0)


# ---------------------------------------------------------------------------
# fixed-point count realizations
# ---------------------------------------------------------------------------


def test_no_fixed_point_on_negative_two_cycle():
    g = SignedDigraph.from_arcs([("1", "2", "+"), ("2", "1", "-")])
    f = construct_no_fixed_point(g)
    assert f.fixed_points() == []
    assert f.domain.shape == (2, 2)


def test_no_fixed_point_on_case1_instance():
    g, _ = fig_case1_instance()
    f = construct_no_fixed_point(g)
    assert f.fixed_points() == []
    assert f.interaction_graph(g.vertices).arcs == g.arcs


def test_no_fixed_point_requires_negative_cycle():
    g = SignedDigraph.from_arcs([("1", "2", "+"), ("2", "1", "+")])
    with pytest.raises(PreconditionError):
        construct_no_fixed_point(g)


def test_no_fixed_point_takes_the_first_negative_cycle_within_the_cap(monkeypatch):
    monkeypatch.setattr(synthesis, "DEFAULT_CYCLE_CAP", 2)
    # Three descriptors: (1,2) ++, (1,2) +- and (2,3) ++; the second is negative.
    early = SignedDigraph.from_arcs(
        [("1", "2", "+"), ("2", "1", "+"), ("2", "1", "-"), ("2", "3", "+"), ("3", "2", "+")]
    )
    assert len(enumerate_cycles(early)) == 3
    assert construct_no_fixed_point(early).fixed_points() == []
    # (1,2) ++ and (2,3) ++ come before the negative (3,4) +-.
    late = SignedDigraph.from_arcs(
        [("1", "2", "+"), ("2", "1", "+"), ("2", "3", "+"), ("3", "2", "+"),
         ("3", "4", "+"), ("4", "3", "-")]
    )
    with pytest.raises(ResourceCapError, match="more than 2 cycles"):
        construct_no_fixed_point(late)
    monkeypatch.setattr(synthesis, "DEFAULT_CYCLE_CAP", 3)
    assert construct_no_fixed_point(late).fixed_points() == []
    # The same three cycles, all positive: no cap trip, no negative cycle.
    positive = SignedDigraph.from_arcs(
        [arc for arc in late.sorted_arcs() if arc != ("4", "3", "-")] + [("4", "3", "+")]
    )
    with pytest.raises(PreconditionError, match="no negative cycle"):
        construct_no_fixed_point(positive)


def test_two_to_k_fixed_points():
    g1 = SignedDigraph.from_arcs([("1", "2", "+"), ("2", "1", "+")])
    f1 = construct_2k_fixed_points(g1, 1)
    assert len(f1.fixed_points()) == 2

    arcs = [
        ("1", "2", "+"), ("2", "1", "+"),
        ("3", "4", "-"), ("4", "3", "-"),
        ("2", "3", "+"),
    ]
    g2 = SignedDigraph.from_arcs(arcs, vertices=["1", "2", "3", "4"])
    f2 = construct_2k_fixed_points(g2, 2)
    assert len(f2.fixed_points()) == 4

    with pytest.raises(PreconditionError):
        construct_2k_fixed_points(g2, 3)


def test_fixed_point_constructions_require_connected():
    g = SignedDigraph.from_arcs(
        [("1", "2", "+"), ("2", "1", "-"), ("a", "b", "+"), ("b", "a", "+")],
        vertices=["1", "2", "a", "b"],
    )
    with pytest.raises(PreconditionError):
        construct_no_fixed_point(g)
    with pytest.raises(PreconditionError):
        construct_2k_fixed_points(g, 1)


# ---------------------------------------------------------------------------
# the arc-removal impossibility pattern
# ---------------------------------------------------------------------------


def impossibility_instance():
    g = SignedDigraph.from_arcs([("1", "2", "+"), ("2", "3", "+")])
    sub = g.without_arcs([("2", "3", "+")])
    return g, sub


def test_impossibility_pattern_rejected():
    g, sub = impossibility_instance()
    # the unique shape of h: h1 constant, h2 follows x1, h3 pinned
    dom = IntervalProduct(((0, 1), (0, 1), (0, 0)))
    h = Fds(
        dom,
        (
            np.zeros(4, dtype=np.int64),
            np.array([0, 0, 1, 1], dtype=np.int64),
            np.zeros(4, dtype=np.int64),
        ),
    )
    with pytest.raises(PreconditionError):
        construct_converging(g, sub, h)


def test_impossibility_exhaustive_search():
    from sdgdyn import enumerate_degree_bounded_systems

    g, sub = impossibility_instance()
    candidates = list(enumerate_degree_bounded_systems(g))
    assert len(candidates) == 2  # constant of vertex 1 is the only freedom

    subsystems = []
    for h0 in enumerate_degree_bounded_systems(sub):
        subsystems.append(h0)
        subsystems.append(h0.translate((0, 0, 1)))  # shifted isolated value
    assert len(subsystems) == 4

    for f in candidates:
        for h in subsystems:
            if not h.domain.subset_of(f.domain):
                continue
            for k in range(0, 9):
                assert not converges_toward(f, h, k).valid
