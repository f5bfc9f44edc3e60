import collections
import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdgdyn import (
    NEGATIVE,
    POSITIVE,
    PreconditionError,
    ResourceCapError,
    SdgParseError,
    SignedDigraph,
    classify_vertices,
    component_structure,
    distance,
    enumerate_cycles,
    find_disjoint_positive_cycles,
    format_sdg,
    is_signed_cycle,
    load_sdg,
    parse_sdg,
    save_sdg,
    to_dot,
    underlying_cycle_order,
)
from sdgdyn import sdg
from sdgdyn.sdg import _strong_components

import helpers


# ---------------------------------------------------------------------------
# construction and parsing
# ---------------------------------------------------------------------------


def test_from_arcs_first_seen_order():
    g = SignedDigraph.from_arcs([("b", "a", "+"), ("a", "c", "-")])
    assert g.vertices == ("b", "a", "c")
    assert g.index("a") == 1


def test_duplicate_arc_rejected():
    with pytest.raises(SdgParseError):
        SignedDigraph.from_arcs([("a", "b", "+"), ("a", "b", "+")])


def test_parallel_arcs_are_two_records():
    g = SignedDigraph.from_arcs([("a", "b", "+"), ("a", "b", "-")])
    assert g.in_plus("b") == {"a"}
    assert g.in_minus("b") == {"a"}
    assert g.in_degree("b") == 2
    assert g.out_degree("a") == 2
    assert g.out_neighbors("a") == {"b"}
    assert (g.out_degree("b"), g.out_neighbors("b")) == (0, frozenset())
    for query in (g.out_degree, g.out_neighbors, g.in_degree):
        with pytest.raises(PreconditionError):
            query("c")


def test_parse_and_format_roundtrip():
    text = "sdg v1\nvertex x\narc x y +\narc y x -\n# comment\n"
    g = parse_sdg(text)
    assert g.vertices == ("x", "y")
    assert parse_sdg(format_sdg(g)) == g


def test_save_sdg_writes_the_formatted_text(tmp_path):
    g = parse_sdg("sdg v1\nvertex z\narc x y +\narc y x -\narc x x +\n")
    path = tmp_path / "g.sdg"
    save_sdg(g, str(path))
    assert path.read_text(encoding="utf-8") == format_sdg(g)
    assert load_sdg(str(path)) == g


def test_parse_rejects_bad_input():
    with pytest.raises(SdgParseError):
        parse_sdg("arc a b +\n")  # missing header
    with pytest.raises(SdgParseError):
        parse_sdg("sdg v1\narc a b *\n")
    with pytest.raises(SdgParseError):
        parse_sdg("sdg v1\narc a b +\narc a b +\n")
    with pytest.raises(SdgParseError):
        parse_sdg("sdg v1\nvertex a\nvertex a\n")
    with pytest.raises(SdgParseError):
        parse_sdg("sdg v1\nfrobnicate a\n")


def test_dot_export_colors_and_parallel_edges():
    g = SignedDigraph.from_arcs([("a", "b", "+"), ("a", "b", "-")])
    dot = to_dot(g)
    assert '"a" -> "b" [color=green];' in dot
    assert '"a" -> "b" [color=red];' in dot
    assert dot.count("->") == 2
    quoted = to_dot(SignedDigraph.from_arcs([('a"', "b\\", "-")]))
    assert '  "a\\"";' in quoted
    assert '"a\\"" -> "b\\\\" [color=red];' in quoted


def _random_adjacency_case(rng):
    """A graph with loops, parallel arcs, isolated vertices and several weak
    components, or one cycle through every vertex, sometimes with a
    parallel arc or a chord; the vertex order is not the name order."""
    n = rng.randint(0, 8)
    names = [f"v{k}" for k in range(n)]
    order = rng.sample(names, n)
    arcs = set()
    if n and rng.random() < 0.4:
        ring = rng.sample(names, n)
        arcs = {(u, w, rng.choice("+-")) for u, w in zip(ring, ring[1:] + ring[:1])}
        if rng.random() < 0.5:
            u, w, sign = rng.choice(sorted(arcs))
            arcs.add((u, w, "-" if sign == "+" else "+"))
        if rng.random() < 0.3:
            arcs.add((rng.choice(names), rng.choice(names), rng.choice("+-")))
    elif n:
        # Heads avoid the last two names, so those have no arc coming in.
        for _ in range(rng.randint(0, 2 * n)):
            u, w = rng.choice(names), rng.choice(names[: max(1, n - 2)])
            arcs.update((u, w, sign) for sign in rng.choice(["+", "-", "+-"]))
    return SignedDigraph.from_arcs(sorted(arcs), vertices=order)


def _assert_adjacency_matches_a_scan(g):
    arcs = g.arcs
    for v in g.vertices:
        assert g.in_plus(v) == {s for s, t, sg in arcs if t == v and sg == POSITIVE}
        assert g.in_minus(v) == {s for s, t, sg in arcs if t == v and sg == NEGATIVE}
        assert g.in_neighbors(v) == {s for s, t, _ in arcs if t == v}
        assert g.out_neighbors(v) == {t for s, t, _ in arcs if s == v}
        assert g.in_degree(v) == sum(1 for _, t, _ in arcs if t == v)
        assert g.out_degree(v) == sum(1 for s, _, _ in arcs if s == v)
    for query in (
        g.in_plus, g.in_minus, g.in_neighbors, g.out_neighbors, g.in_degree, g.out_degree
    ):
        with pytest.raises(PreconditionError, match="^unknown vertex 'absent'$"):
            query("absent")


def test_adjacency_queries_match_a_scan_of_the_arcs():
    rng = random.Random(41)
    seen = dict.fromkeys(["loop", "parallel", "isolated", "split", "signed cycle", "ring"], 0)
    for _ in range(200):
        g = _random_adjacency_case(rng)
        arcs = g.arcs
        pairs = {(s, t) for s, t, _ in arcs}
        _assert_adjacency_matches_a_scan(g)

        # Derived structure is cached per graph: asking twice, or asking a
        # separately built equal graph, gives the same answers.
        twin = SignedDigraph(g.vertices, arcs)
        for ask in (classify_vertices, SignedDigraph.weak_components):
            assert ask(g) == ask(g) == ask(twin)
        if g.n:
            assert component_structure(g) == component_structure(g) == component_structure(twin)

        # Weak components by label propagation: each vertex takes the least
        # vertex index of its component.
        label = {v: k for k, v in enumerate(g.vertices)}
        changed = True
        while changed:
            changed = False
            for s, t, _ in arcs:
                if label[s] != label[t]:
                    label[s] = label[t] = min(label[s], label[t])
                    changed = True
        groups: dict[int, list[str]] = {}
        for v in g.vertices:
            groups.setdefault(label[v], []).append(v)
        assert g.weak_components() == tuple(tuple(groups[k]) for k in sorted(groups))

        sources = {v for v in g.vertices if all(t != v for _, t, _ in arcs)}
        sinks = {v for v in g.vertices if all(s != v for s, _, _ in arcs)}
        assert classify_vertices(g) == (sources, sinks, sources & sinks)

        # One cycle through every vertex: each vertex is the tail of exactly
        # one pair and the head of exactly one, and the walk from the first
        # vertex meets them all.
        ring = None
        if g.n and sorted(s for s, _ in pairs) == sorted(t for _, t in pairs) == sorted(g.vertices):
            succ = dict(pairs)
            walk = [g.vertices[0]]
            while succ[walk[-1]] != walk[0]:
                walk.append(succ[walk[-1]])
            ring = tuple(walk) if len(walk) == g.n else None
        assert underlying_cycle_order(g) == ring
        assert is_signed_cycle(g) == (ring is not None and len(pairs) == len(arcs))

        seen["loop"] += any(s == t for s, t in pairs)
        seen["parallel"] += len(pairs) < len(arcs)
        seen["isolated"] += bool(sources & sinks)
        seen["split"] += len(groups) > 1
        seen["signed cycle"] += is_signed_cycle(g)
        seen["ring"] += ring is not None and len(pairs) < len(arcs)
    assert min(seen.values()) >= 10, seen


# ---------------------------------------------------------------------------
# underlying digraph / classification
# ---------------------------------------------------------------------------


def test_underlying_of_pseudo_cycle_is_cycle():
    g = helpers.pseudo_cycle_example()
    assert underlying_cycle_order(g) == ("1", "2", "3")


def test_classify_vertices():
    path = SignedDigraph.from_arcs([("1", "2", "+")])
    sources, sinks, isolated = classify_vertices(path)
    assert sources == {"1"} and sinks == {"2"} and isolated == frozenset()

    loop = SignedDigraph.from_arcs([("v", "v", "-")])
    sources, sinks, isolated = classify_vertices(loop)
    assert not sources and not sinks and not isolated

    # In the eight-vertex example only 6 lacks in-arcs, and 8 is not a sink
    # because it feeds back to 7 (recomputed from the arc list).
    g = helpers.eight_vertex_example()
    sources, sinks, isolated = classify_vertices(g)
    assert sources == {"6"} and sinks == frozenset() and isolated == frozenset()


# ---------------------------------------------------------------------------
# component structure
# ---------------------------------------------------------------------------


def test_component_structure_eight_vertex_example():
    g = helpers.eight_vertex_example()
    cs = component_structure(g)
    assert set(cs.initial_components) == {("1", "2", "3"), ("4", "5"), ("6",)}
    assert cs.lam == 3
    assert cs.beta == 1
    assert not cs.is_basic


def test_component_structure_single_vertex():
    g = SignedDigraph.from_arcs([], vertices=["v"])
    cs = component_structure(g)
    assert cs.lam == 1 and cs.beta == 0 and cs.is_basic


def test_component_structure_empty_graph_rejected():
    empty = SignedDigraph((), frozenset())
    for _ in range(2):  # every call raises; no answer is cached
        with pytest.raises(PreconditionError):
            component_structure(empty)


def test_lambda_equals_n_when_strongly_connected():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(1, 6)
        names = [str(i + 1) for i in range(n)]
        arcs = {(names[i], names[(i + 1) % n], rng.choice("+-")) for i in range(n)}
        for _ in range(rng.randint(0, n)):
            arcs.add((rng.choice(names), rng.choice(names), rng.choice("+-")))
        g = SignedDigraph.from_arcs(sorted(arcs), vertices=names)
        cs = component_structure(g)
        assert cs.lam == n
        assert cs.lam == helpers.oracle_lambda(g)


def test_lambda_matches_reachability_oracle_on_random_graphs():
    rng = random.Random(11)
    for _ in range(120):
        g = helpers.random_connected_sdg(rng, 6)
        assert component_structure(g).lam == helpers.oracle_lambda(g)


def test_lambda_of_disconnected_graph_is_max_over_components():
    rng = random.Random(5)
    for _ in range(40):
        g1 = helpers.random_connected_sdg(rng, 4)
        n1 = g1.n
        g2_raw = helpers.random_connected_sdg(rng, 4)
        g2 = SignedDigraph.from_arcs(
            [(f"b{s}", f"b{t}", sg) for (s, t, sg) in sorted(g2_raw.arcs)],
            vertices=[f"b{v}" for v in g2_raw.vertices],
        )
        g = SignedDigraph(g1.vertices + g2.vertices, g1.arcs | g2.arcs)
        cs, cs1, cs2 = (component_structure(x) for x in (g, g1, g2))
        assert cs.lam == max(cs1.lam, cs2.lam)
        assert cs.beta == max(cs1.beta, cs2.beta)


def test_strong_components_partition_and_condensation_acyclic():
    rng = random.Random(17)
    for _ in range(60):
        g = helpers.random_connected_sdg(rng, 6)
        cs = component_structure(g)
        flat = [v for c in cs.strong_components for v in c]
        assert sorted(flat) == sorted(g.vertices)
        member = {v: k for k, c in enumerate(cs.strong_components) for v in c}
        # Arcs between distinct components never point from later to earlier
        # along any path: verify by checking the condensation has no cycle.
        succ = {k: set() for k in range(len(cs.strong_components))}
        for s, t, _ in g.arcs:
            if member[s] != member[t]:
                succ[member[s]].add(member[t])
        seen, done = set(), set()

        def dfs(u):
            seen.add(u)
            for w in succ[u]:
                assert w not in seen or w in done, "condensation has a cycle"
                if w not in seen:
                    dfs(w)
            done.add(u)

        for k in succ:
            if k not in seen:
                dfs(k)


def test_components_and_cycle_counts_match_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(29)
    for _ in range(200):
        g = helpers.random_connected_sdg(rng, 6)
        under = nx.DiGraph()
        under.add_nodes_from(g.vertices)
        under.add_edges_from((s, t) for s, t, _ in g.arcs)
        cs = component_structure(g)
        assert {frozenset(c) for c in cs.strong_components} == set(
            map(frozenset, nx.strongly_connected_components(under))
        )
        # The shared routine: vertex order inside a component, components by
        # first vertex, also when the vertex order is not the name order.
        for h in (g, SignedDigraph(g.vertices[::-1], g.arcs)):
            ordered = (sorted(c, key=h.index) for c in nx.strongly_connected_components(under))
            assert _strong_components(h, h.vertices) == sorted(map(tuple, ordered), key=lambda c: h.index(c[0]))
        # Initial components: the nodes of the condensation without inputs.
        dag = nx.condensation(under)
        assert {frozenset(c) for c in cs.initial_components} == {
            frozenset(dag.nodes[k]["members"]) for k in dag if dag.in_degree(k) == 0
        }
        # A pair carrying both signs makes every cycle through it two
        # signed cycles.
        signs = {(s, t): len(g.in_plus(t) & {s}) + len(g.in_minus(t) & {s}) for s, t in under.edges}
        expected = sum(
            math.prod(signs[c[k], c[(k + 1) % len(c)]] for k in range(len(c)))
            for c in nx.simple_cycles(under)
        )
        assert len(enumerate_cycles(g)) == expected
    assert _strong_components(SignedDigraph((), frozenset()), ()) == []


def _oracle_case(rng, n):
    """A random graph on n vertices, listed in an order that is not the
    name order: sparse random arcs with loops and parallel pairs, plus a few
    planted rings (some signed cycles, some with a parallel step or a
    chord), so weak components of every shape turn up."""
    names = [f"v{k}" for k in range(n)]
    rng.shuffle(names)
    p = rng.choice([0.0, 0.02, 0.05, 0.15])
    pairs = ((s, t, sign) for s in names for t in names for sign in sdg.SIGNS)
    arcs = {arc for arc in pairs if rng.random() < p / 2}
    free = [v for v in names if not any(v in a[:2] for a in arcs)]
    rng.shuffle(free)
    while free and rng.random() < 0.8:
        ring, free = free[: rng.randint(1, 5)], free[5:]
        for k, v in enumerate(ring):
            arcs.add((v, ring[(k + 1) % len(ring)], rng.choice(sdg.SIGNS)))
        kind = rng.randrange(3)
        if kind == 1:  # both signs on one step
            arcs |= {(ring[0], ring[1 % len(ring)], sign) for sign in sdg.SIGNS}
        elif kind == 2:  # a chord, or a loop on a one-vertex ring
            arcs.add((ring[0], ring[len(ring) // 2], POSITIVE))
    return SignedDigraph.from_arcs(sorted(arcs), vertices=names)


def _normalized(g, comps):
    ordered = (tuple(sorted(c, key=g.index)) for c in comps)
    return sorted(ordered, key=lambda c: g.index(c[0]))


def test_graph_algorithms_match_networkx_at_size():
    nx = pytest.importorskip("networkx")
    rng = random.Random(43)
    shapes = collections.Counter()
    for trial in range(240):
        g = _oracle_case(rng, 1 + trial % 40)
        under = nx.DiGraph()
        under.add_nodes_from(g.vertices)
        under.add_edges_from((s, t) for s, t, _ in g.arcs)
        assert _strong_components(g, g.vertices) == _normalized(g, nx.strongly_connected_components(under))
        assert list(g.weak_components()) == _normalized(g, nx.weakly_connected_components(under))

        # The subset forms follow only the arcs inside the subset, whatever
        # order the subset is given in.
        pick = random.Random(trial)
        for subset in ([], g.vertices[::-1], pick.sample(g.vertices, pick.randint(0, g.n))):
            d = under.subgraph(subset)
            assert _strong_components(g, subset) == _normalized(g, nx.strongly_connected_components(d))
            assert list(sdg._weak_components(g, subset)) == _normalized(g, nx.weakly_connected_components(d))

        # Distances from R with the arcs into R removed equal those in g:
        # the equality the nilpotent planner's layers rely on.
        reps = rng.sample(g.vertices, rng.randint(0, min(4, g.n)))
        cut = under.copy()
        cut.remove_edges_from([(s, t) for s, t in under.edges if t in reps])
        want = dict.fromkeys(g.vertices, math.inf)
        if reps:
            want.update(nx.multi_source_dijkstra_path_length(cut, set(reps)))
        assert sdg._multi_source_distance(g, reps) == want

        ring = nx.is_strongly_connected(under) and under.number_of_edges() == g.n
        assert (underlying_cycle_order(g) is not None) == ring
        assert is_signed_cycle(g) == (ring and len(g.arcs) == g.n)

        # Per weak component, asked of g itself as the library asks it.
        for comp in g.weak_components():
            d = under.subgraph(comp)
            ring = nx.is_strongly_connected(d) and d.number_of_edges() == len(comp)
            arcs = sum(1 for s, t, _ in g.arcs if s in comp and t in comp)
            signed = ring and arcs == len(comp)  # no pair with both signs
            order = sdg._cycle_order(g, comp)
            assert (order is not None) == ring
            if ring:
                assert order[0] == comp[0] and sorted(order) == sorted(comp)
                assert all(d.has_edge(v, w) for v, w in zip(order, order[1:] + order[:1]))
            assert sdg._is_signed_cycle(g, comp) == signed
            shapes[ring, signed, len(comp) > 1] += 1
    assert len(shapes) == 6, shapes  # every (ring, signed, more than one vertex)


def test_graph_algorithms_on_five_thousand_vertices():
    # Nothing recurses or rescans a list per step: a directed path and a
    # directed cycle of 5,000 vertices go through every linear routine.
    n = 5000
    names = [f"v{k}" for k in range(n)]
    path = SignedDigraph.from_arcs([(names[k], names[k + 1], POSITIVE) for k in range(n - 1)])
    ring = SignedDigraph.from_arcs([(names[k], names[(k + 1) % n], NEGATIVE) for k in range(n)])
    start = time.perf_counter()
    assert _strong_components(path, names) == [(v,) for v in names]
    assert _strong_components(ring, names) == [tuple(names)]
    assert sdg._shortest_cycle_length(path) == math.inf
    assert sdg._shortest_cycle_length(ring) == n
    for g in (path, ring):
        assert g.weak_components() == (tuple(names),)
        assert sdg._multi_source_distance(g, [names[0]]) == {v: k for k, v in enumerate(names)}
    assert underlying_cycle_order(path) is None and not is_signed_cycle(path)
    assert underlying_cycle_order(ring) == tuple(names) and is_signed_cycle(ring)
    assert time.perf_counter() - start < 5


# ---------------------------------------------------------------------------
# distance
# ---------------------------------------------------------------------------


def test_distance_on_path():
    g = SignedDigraph.from_arcs([("1", "2", "+"), ("2", "3", "+")])
    assert distance(g, {"1"}, "3") == 2
    assert distance(g, {"3"}, "1") == math.inf
    assert distance(g, {"2"}, "2") == 0


def test_distance_eight_vertex_example():
    g = helpers.eight_vertex_example()
    assert distance(g, {"1", "2", "3"}, "7") == 1  # via the arc 3 -> 7


# ---------------------------------------------------------------------------
# signed cycles
# ---------------------------------------------------------------------------


def test_is_signed_cycle():
    assert not is_signed_cycle(helpers.pseudo_cycle_example())  # parallel arcs
    two = SignedDigraph.from_arcs([("1", "2", "+"), ("2", "1", "-")])
    assert is_signed_cycle(two)
    loop = SignedDigraph.from_arcs([("v", "v", "-")])
    assert is_signed_cycle(loop)
    assert not is_signed_cycle(SignedDigraph.from_arcs([], vertices=["v"]))
    path = SignedDigraph.from_arcs([("1", "2", "+")])
    assert not is_signed_cycle(path)


def test_enumerate_cycles_basic():
    two = SignedDigraph.from_arcs([("1", "2", "+"), ("2", "1", "+")])
    cycles = enumerate_cycles(two)
    assert len(cycles) == 1 and cycles[0].sign == POSITIVE

    acyclic = SignedDigraph.from_arcs([("1", "2", "+"), ("1", "3", "-")])
    assert enumerate_cycles(acyclic) == []


def test_enumerate_cycles_pseudo_cycle_sign_split():
    # The step 3 -> 1 offers both signs: one positive and one negative cycle.
    cycles = enumerate_cycles(helpers.pseudo_cycle_example())
    assert len(cycles) == 2
    assert sorted(c.sign for c in cycles) == [POSITIVE, NEGATIVE]
    assert all(c.vertices == ("1", "2", "3") for c in cycles)


def test_enumerate_cycles_respects_cap():
    g = helpers.eight_vertex_example()
    with pytest.raises(ResourceCapError):
        enumerate_cycles(g, cap=1)


def test_enumerate_cycles_agrees_with_bruteforce_oracle():
    rng = random.Random(23)
    for _ in range(40):
        g = helpers.random_connected_sdg(rng, 5)
        got = {(c.vertices, c.signs) for c in enumerate_cycles(g)}
        assert got == helpers.oracle_cycles(g)


def test_find_disjoint_positive_cycles():
    g = SignedDigraph.from_arcs(
        [("1", "2", "+"), ("2", "1", "+"), ("3", "4", "-"), ("4", "3", "-")]
    )
    found = find_disjoint_positive_cycles(g, 2)
    assert found is not None and len(found) == 2
    assert found[0].vertex_set() & found[1].vertex_set() == frozenset()

    neg = SignedDigraph.from_arcs([("1", "2", "+"), ("2", "1", "-")])
    assert find_disjoint_positive_cycles(neg, 1) is None

    # 2,372 positive cycles on 7 vertices, loops included: each cycle still
    # wanted needs a vertex of its own, so both searches end early.
    names = [str(v) for v in range(1, 8)]
    dense = SignedDigraph.from_arcs([(a, b, "+") for a in names for b in names])
    assert find_disjoint_positive_cycles(dense, 8) is None
    loops = find_disjoint_positive_cycles(dense, 7)
    assert [c.vertices for c in loops] == [(v,) for v in names]


def test_find_disjoint_positive_cycles_matches_bruteforce():
    from itertools import combinations

    # The search takes cycles in enumeration order, so the family it returns
    # is the first disjoint combination of positive cycles in that order.
    rng = random.Random(31)
    for _ in range(60):
        g = helpers.random_connected_sdg(rng, 6)
        positives = [c for c in enumerate_cycles(g) if c.sign == POSITIVE]
        for k in (1, 2, 3):
            expect = next(
                (
                    list(family)
                    for family in combinations(positives, k)
                    if sum(len(c.vertices) for c in family)
                    == len(set().union(*(c.vertices for c in family)))
                ),
                None,
            )
            assert find_disjoint_positive_cycles(g, k) == expect


def test_find_disjoint_positive_cycles_counts_cycle_lengths():
    # On the complete loopless all-positive digraph on 8 vertices, five
    # disjoint cycles of two or more vertices would need ten vertices, so
    # the search ends at once, without visiting any of its 16,064 cycles.
    # Four fit, and together they cover every vertex.
    names = [str(v) for v in range(8)]
    g = SignedDigraph.from_arcs([(a, b, "+") for a in names for b in names if a != b])
    start = time.perf_counter()
    assert find_disjoint_positive_cycles(g, 5) is None
    assert time.perf_counter() - start < 0.1
    four = find_disjoint_positive_cycles(g, 4)
    assert sorted(v for c in four for v in c.vertices) == names


def test_disjoint_cycle_search_is_bounded_by_the_shortest_cycle():
    # Five disjoint cycles of two or more vertices need ten vertices, so on
    # the complete loopless all-positive digraph on 8 vertices (16,064
    # cycles) the search returns None before it visits any cycle, even past
    # the cycle cap.  Four 2-cycles fit: the search visits their four
    # descriptors, one per level, so a cap of 3 trips on the shared budget.
    names = [str(v) for v in range(8)]
    g = SignedDigraph.from_arcs([(a, b, "+") for a in names for b in names if a != b])
    start = time.perf_counter()
    assert find_disjoint_positive_cycles(g, 5) is None
    assert time.perf_counter() - start < 0.02
    assert find_disjoint_positive_cycles(g, 5, cap=10) is None
    start = time.perf_counter()
    four = find_disjoint_positive_cycles(g, 4, cap=4)
    assert time.perf_counter() - start < 0.02
    assert [c.vertices for c in four] == [("0", "1"), ("2", "3"), ("4", "5"), ("6", "7")]
    with pytest.raises(ResourceCapError, match="more than 3 cycles"):
        find_disjoint_positive_cycles(g, 4, cap=3)

    # The bound reads the shortest cycle, which one enumeration also gives.
    rng = random.Random(37)
    lengths = set()
    for _ in range(150):
        g = helpers.random_connected_sdg(rng, 6, loops=rng.random() < 0.5)
        want = min((len(c.vertices) for c in enumerate_cycles(g)), default=math.inf)
        assert sdg._shortest_cycle_length(g) == want
        lengths.add(want)
    assert {1, 2, 3, math.inf} <= lengths, lengths


def test_disjoint_cycle_search_matches_the_enumerate_then_search_reference():
    # The search goes root by root over the free vertices; the reference
    # lists every positive descriptor first and backtracks over the list.
    rng = random.Random(43)
    found = collections.Counter()
    for _ in range(3000):
        g = helpers.random_connected_sdg(rng, 9, loops=rng.random() < 0.5)
        for k in (1, 2, 3, 4):
            got = find_disjoint_positive_cycles(g, k)
            assert got == helpers.reference_disjoint_positive_cycles(g, k), (g, k)
            found[k] += got is not None
    assert min(found.values()) > 0, found

    # Dense graphs: the lazy search wins in total, though it can lose on a
    # graph with no family, where it searches the free vertices again at
    # each level.
    rng = random.Random(47)
    total, reference, worst = 0.0, 0.0, 0.0
    for _ in range(30):
        n = rng.choice((8, 9))
        g = helpers.random_connected_sdg(rng, n, extra_arcs=rng.randint(3 * n, 5 * n), n_min=n)
        for k in (1, 2, 3, 4):
            start = time.perf_counter()
            got = find_disjoint_positive_cycles(g, k)
            middle = time.perf_counter()
            assert got == helpers.reference_disjoint_positive_cycles(g, k)
            end = time.perf_counter()
            total, reference = total + middle - start, reference + end - middle
            worst = max(worst, (middle - start) / (end - middle))
    print(f"dense sample: reference {reference:.3f} s, search {total:.3f} s, worst ratio {worst:.1f}")
    assert total < reference


def test_disjoint_cycle_search_finds_a_perfect_two_cycle_family():
    # k = n/2 on the complete loopless all-positive digraph, with millions
    # of cycles at n = 14: the 2-cycles (0,1), (2,3), ... come first at
    # each level, so the search visits one descriptor per level.
    for n in (10, 12, 14):
        names = [str(v) for v in range(n)]
        g = SignedDigraph.from_arcs([(a, b, "+") for a in names for b in names if a != b])
        family = find_disjoint_positive_cycles(g, n // 2)
        assert [c.vertices for c in family] == [tuple(names[i : i + 2]) for i in range(0, n, 2)]


def test_eight_vertex_example_disjoint_positive_pair():
    # Exact backtracking decides: {2 <-> 1 has sign -+; the only positive
    # 2-cycles are inside {1,2,3} x {7,8}}; verify against the oracle.
    g = helpers.eight_vertex_example()
    positives = [c for c in enumerate_cycles(g) if c.sign == POSITIVE]
    got = find_disjoint_positive_cycles(g, 2)
    from itertools import combinations

    expect = any(
        not (a.vertex_set() & b.vertex_set()) for a, b in combinations(positives, 2)
    )
    assert (got is not None) == expect


# ---------------------------------------------------------------------------
# graph edits
# ---------------------------------------------------------------------------


def test_graph_edit_operations():
    g = helpers.eight_vertex_example()
    arcless = g.without_arcs(g.arcs)
    assert arcless.vertices == g.vertices and not arcless.arcs

    reps = {"1", "4", "6"}
    stripped = g.without_arcs([a for a in g.arcs if a[1] in reps])
    cs = component_structure(stripped)
    assert set(cs.initial_components) == {("1",), ("4",), ("6",)}
    assert cs.is_basic

    with pytest.raises(PreconditionError):
        g.without_arcs([("1", "1", "+")])


# ---------------------------------------------------------------------------
# hypothesis properties
# ---------------------------------------------------------------------------


@st.composite
def signed_digraphs(draw, max_n=6):
    n = draw(st.integers(min_value=1, max_value=max_n))
    names = [str(i + 1) for i in range(n)]
    pairs = [(a, b) for a in names for b in names]
    arcs = []
    for (a, b) in pairs:
        choice = draw(st.sampled_from(["none", "+", "-", "both"]))
        if choice in ("+", "both"):
            arcs.append((a, b, "+"))
        if choice in ("-", "both"):
            arcs.append((a, b, "-"))
    return SignedDigraph.from_arcs(arcs, vertices=names)


@settings(max_examples=60, deadline=None)
@given(signed_digraphs())
def test_lambda_beta_bounds(g):
    cs = component_structure(g)
    assert 1 <= cs.lam <= g.n
    assert cs.beta in (0, 1)
    assert (cs.beta == 0) == cs.is_basic
    assert cs.is_basic == all(
        len(c) == 1 and (c[0], c[0], "+") not in g.arcs and (c[0], c[0], "-") not in g.arcs
        for c in cs.initial_components
    )


@settings(max_examples=60, deadline=None)
@given(signed_digraphs())
def test_text_roundtrip(g):
    assert parse_sdg(format_sdg(g)) == g


@settings(max_examples=40, deadline=None)
@given(signed_digraphs(max_n=4))
def test_basic_graph_with_sources_lambda_bound(g):
    cs = component_structure(g)
    if cs.is_basic:
        k = sum(1 for v in g.vertices if g.in_degree(v) == 0)
        assert cs.lam <= g.n - k + 1
