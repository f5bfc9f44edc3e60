import collections
import json
import math
import os
import random
import re
from itertools import islice, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdgdyn import (
    Fds,
    IntervalProduct,
    PreconditionError,
    ResourceCapError,
    SignedDigraph,
    constant_fds,
    converges_toward,
    enumerate_degree_bounded_systems,
    enumerate_system_summaries,
    fds_from_dict,
    from_component_functions,
    fds_to_dict,
    load_fds,
    random_fds,
    save_fds,
)
from sdgdyn import fds as fds_mod
from sdgdyn.sdg import SdgParseError

import helpers


def table_system(intervals, tables) -> Fds:
    return Fds(
        IntervalProduct(tuple(intervals)),
        tuple(np.array(t, dtype=np.int64) for t in tables),
    )


def example14_system() -> Fds:
    return table_system([(0, 2)], [[0, 2, 0]])


def example13_system() -> Fds:
    # Derived from the stepwise rules: f1 = [x3 == 1], f2 = [x1 == 1],
    # f3 = 2*[x2 == 0]; offsets have component 1 most significant.
    dom = IntervalProduct(((0, 1), (0, 1), (0, 2)))
    t1, t2, t3 = [], [], []
    for x1, x2, x3 in dom.states():
        t1.append(1 if x3 == 1 else 0)
        t2.append(1 if x1 == 1 else 0)
        t3.append(2 if x2 == 0 else 0)
    return Fds(dom, tuple(np.array(t) for t in (t1, t2, t3)))


def example12_system() -> Fds:
    # The general threshold rules evaluated on the eight-vertex example
    # (including the negative dependence of component 7 on component 8).
    dom = IntervalProduct(
        ((0, 1), (0, 3), (0, 2), (0, 1), (0, 2), (0, 1), (0, 2), (0, 1))
    )
    tables = [[] for _ in range(8)]
    for x in dom.states():
        x1, x2, x3, x4, x5, x6, x7, x8 = x
        tables[0].append(1 if (x2 == 2 or x3 >= 2) else 0)
        tables[1].append(1 if x1 < 1 else 0)
        tables[2].append(1 if x2 < 1 else 0)
        tables[3].append(1 if x5 < 2 else 0)
        tables[4].append(1 if x4 >= 1 else 0)
        tables[5].append(0)
        tables[6].append(1 if (x3 >= 1 and x4 < 1 and x8 < 1) else 0)
        tables[7].append(1 if (x4 >= 1 or x7 == 1 or x5 < 1 or x6 < 1) else 0)
    return Fds(dom, tuple(np.array(t) for t in tables))


# ---------------------------------------------------------------------------
# interval products and offsets
# ---------------------------------------------------------------------------


def test_mixed_radix_offsets_component_one_most_significant():
    dom = IntervalProduct(((0, 1), (0, 2), (1, 2)))
    assert dom.weights == (6, 2, 1)
    assert dom.offset((0, 0, 1)) == 0
    assert dom.offset((0, 0, 2)) == 1
    assert dom.offset((0, 1, 1)) == 2
    assert dom.offset((1, 0, 1)) == 6
    assert list(dom.states())[7] == dom.state(7)


def test_interval_product_validation():
    with pytest.raises(PreconditionError):
        IntervalProduct(((2, 1),))
    dom = IntervalProduct(((0, 1),))
    assert not dom.contains((2,))
    with pytest.raises(PreconditionError):
        dom.offset((2,))


def test_state_cap_guard(monkeypatch):
    monkeypatch.setenv("SDG_CAP", "10")
    with pytest.raises(ResourceCapError):
        IntervalProduct(((0, 10),))
    monkeypatch.delenv("SDG_CAP")
    IntervalProduct(((0, 10),))  # fine without the tight cap


def test_one_cap_resolver(monkeypatch):
    # The --cap value, else SDG_CAP, else the default; the state-space
    # check reads SDG_CAP once, also when its cap trips.
    monkeypatch.delenv("SDG_CAP", raising=False)
    assert (fds_mod.env_cap(7), fds_mod.env_cap(7, 3)) == (7, 3)
    monkeypatch.setenv("SDG_CAP", "5")
    assert (fds_mod.env_cap(7), fds_mod.env_cap(7, 3)) == (5, 3)
    for given_cap, raw, message in (
        (0, "5", "--cap must be at least 1, got 0"),
        (None, "abc", "SDG_CAP must be an integer, got 'abc'"),
        (None, "-5", "SDG_CAP must be at least 1, got -5"),
    ):
        monkeypatch.setenv("SDG_CAP", raw)
        with pytest.raises(SdgParseError, match=re.escape(message)):
            fds_mod.env_cap(7, given_cap)
    monkeypatch.setenv("SDG_CAP", "5")
    reads = []
    get = os.environ.get
    monkeypatch.setattr(os.environ, "get", lambda key, *rest: reads.append(key) or get(key, *rest))
    with pytest.raises(ResourceCapError, match="state space of size 6 exceeds cap 5"):
        IntervalProduct(((0, 5),))
    assert reads == ["SDG_CAP"]


def test_interval_ends_stay_in_the_64_bit_integers():
    top, bottom = 2**63 - 1, -(2**63)
    IntervalProduct(((bottom, bottom + 1), (top - 1, top)))  # the extreme ends are fine
    # checked before the state-space cap, which (0, 2**64) would also trip
    for lo, hi in ((top, top + 1), (bottom - 1, bottom), (0, 2**64)):
        with pytest.raises(PreconditionError, match=re.escape(f"interval [{lo},{hi}] leaves")):
            IntervalProduct(((0, 0), (lo, hi)))
    # translate adds its deltas as Python ints, so an end past the top is
    # that precondition, not a wrapped end
    f = constant_fds(IntervalProduct(((top - 1, top),)), (top,))
    with pytest.raises(PreconditionError, match=re.escape(f"interval [{top},{top + 1}] leaves")):
        f.translate([np.int64(1)])
    assert f.translate([np.int64(-1)]).domain.intervals == ((top - 2, top - 1),)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(-3, 3), st.integers(0, 3)), min_size=1, max_size=5))
def test_offset_state_roundtrip(spec):
    dom = IntervalProduct(tuple((lo, lo + width) for lo, width in spec))
    for off in range(dom.size):
        assert dom.offset(dom.state(off)) == off


def test_clipped_tables_read_each_state_at_its_clip():
    # Random pairs of domains, mixed axis by axis: equal intervals,
    # sub-boxes, wider hulls, pinned points and shifted intervals that lie
    # partly or wholly outside the source.
    rng = random.Random(8)
    seen = collections.Counter()
    for _ in range(300):
        n = rng.randint(0, 4)
        source = IntervalProduct(
            tuple((lo, lo + rng.randint(0, 3)) for lo in (rng.randint(-3, 3) for _ in range(n)))
        )
        dom = []
        for lo, hi in source.intervals:
            kind = rng.choice(["same", "sub", "wider", "pin", "shifted"])
            seen[kind] += 1
            if kind == "sub":
                a = rng.randint(lo, hi)
                dom.append((a, rng.randint(a, hi)))
            elif kind == "wider":
                dom.append((lo - rng.randint(0, 2), hi + rng.randint(0, 2)))
            elif kind == "pin":
                a = rng.randint(lo - 2, hi + 2)
                dom.append((a, a))
            elif kind == "shifted":
                a = rng.randint(lo - 4, hi + 4)
                dom.append((a, a + rng.randint(0, 3)))
            else:
                dom.append((lo, hi))
        dom = IntervalProduct(tuple(dom))
        tables = np.array(
            [[rng.randint(-9, 9) for _ in range(source.size)] for _ in range(rng.randint(0, 3))],
            dtype=np.int64,
        ).reshape(-1, source.size)
        got = fds_mod.clipped_tables(tables, source, dom)
        assert got.shape == (len(tables), dom.size)
        clip = [
            source.offset([min(max(x, lo), hi) for x, (lo, hi) in zip(s, source.intervals)])
            for s in dom.states()
        ]
        assert got.tolist() == tables[:, clip].tolist()
    assert min(seen.values()) >= 100, seen


# ---------------------------------------------------------------------------
# evaluation and iteration
# ---------------------------------------------------------------------------


def test_evaluate_example14():
    f = example14_system()
    assert f.evaluate((0,)) == (0,)
    assert f.evaluate((1,)) == (2,)
    assert f.evaluate((2,)) == (0,)
    assert f.iterate((1,), 2) == (0,)


def test_identity_and_constant():
    ident = table_system([(0, 1)], [[0, 1]])
    assert all(ident.evaluate(s) == s for s in ident.domain.states())
    const = constant_fds(IntervalProduct(((0, 2), (0, 1))), (1, 0))
    assert all(const.evaluate(s) == (1, 0) for s in const.domain.states())
    assert const.iterate((2, 1), 0) == (2, 1)


def test_iterate_example13_reaches_constant():
    f = example13_system()
    assert {f.iterate(s, 4) for s in f.domain.states()} == {(0, 0, 2)}


def test_evaluate_rejects_out_of_domain():
    f = example14_system()
    with pytest.raises(PreconditionError):
        f.evaluate((3,))


# ---------------------------------------------------------------------------
# interaction graph extraction
# ---------------------------------------------------------------------------


def test_interaction_graph_identity_network():
    f = table_system([(0, 1), (0, 1)], [[0, 0, 1, 1], [0, 1, 0, 1]])
    ig = f.interaction_graph(("a", "b"))
    assert ig.arcs == {("a", "a", "+"), ("b", "b", "+")}


def test_interaction_graph_negation_loop():
    f = table_system([(0, 1)], [[1, 0]])
    assert f.interaction_graph().arcs == {("1", "1", "-")}


def test_interaction_graph_example14_has_parallel_loops():
    f = example14_system()
    # differences: f(1)-f(0) = +2, f(2)-f(1) = -2
    assert f.interaction_graph().arcs == {("1", "1", "+"), ("1", "1", "-")}


def test_interaction_graph_example12_matches_graph():
    f = example12_system()
    g = helpers.eight_vertex_example()
    assert f.interaction_graph(g.vertices).arcs == g.arcs


def test_interaction_graph_matches_brute_force_oracle():
    rng = random.Random(6)
    flat_axes = parallel = 0
    for trial in range(300):
        if trial % 2:
            f = random_fds(rng, [rng.choice((1, 2, 2, 3)) for _ in range(rng.randint(1, 6))])
        else:
            f = helpers.random_system_on(rng, helpers.random_connected_sdg(rng, 6))
        arcs = f.interaction_graph().arcs
        assert arcs == helpers.brute_force_interaction_arcs(f)
        flat_axes += 1 in f.domain.shape
        parallel += any((j, i, "-") in arcs for j, i, sign in arcs if sign == "+")
    assert flat_axes > 20 and parallel > 20


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_unit_step_signs_match_a_cell_scan(data):
    # Per row, whether some cell rises or falls into its successor along
    # the axis, read off every cell; blocks of no rows and axes of length 1
    # included.
    shape = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    rows = data.draw(st.integers(0, 5))
    axis = data.draw(st.integers(0, len(shape) - 1))
    size = math.prod(shape)
    values = data.draw(st.lists(st.integers(-2, 2), min_size=rows * size, max_size=rows * size))
    cubes = np.array(values, dtype=np.int64).reshape([rows] + shape)
    rise, fall = fds_mod.unit_step_signs(cubes, axis)
    assert rise.shape == fall.shape == (rows,)
    for b in range(rows):
        value = dict(zip(product(*map(range, shape)), values[b * size : (b + 1) * size]))
        rises = falls = False
        for x, v in value.items():
            y = x[:axis] + (x[axis] + 1,) + x[axis + 1 :]
            if y in value:
                rises |= value[y] > v
                falls |= value[y] < v
        assert (bool(rise[b]), bool(fall[b])) == (rises, falls)


def test_unit_step_signs_match_every_unit_step_in_narrow_dtypes():
    # Seeded cubes of three integer dtypes, with values over the whole
    # range of the narrow ones: the int8 step from -100 to 100 would read
    # as a fall if it were subtracted in int8.  Axes of length 1 and blocks
    # of no rows are drawn too.
    rng = random.Random(16)
    cases = [(np.array([[-100, 100]], dtype=np.int8), 0)]
    for dtype in (np.int8, np.int16, np.int64):
        info = np.iinfo(dtype)
        for _ in range(60):
            shape = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 4)))
            rows = rng.randint(0, 4)
            values = [rng.randint(info.min, info.max) for _ in range(rows * math.prod(shape))]
            cube = np.array(values, dtype=dtype).reshape((rows,) + shape)
            cases.append((cube, rng.randrange(len(shape))))
    lone = empty = 0
    for cube, axis in cases:
        rise, fall = fds_mod.unit_step_signs(cube, axis)
        assert rise.shape == fall.shape == (len(cube),)
        for b in range(len(cube)):
            steps = [
                (int(cube[b][x]), int(cube[b][x[:axis] + (x[axis] + 1,) + x[axis + 1 :]]))
                for x in product(*map(range, cube.shape[1:]))
                if x[axis] + 1 < cube.shape[axis + 1]
            ]
            want = (any(v < w for v, w in steps), any(v > w for v, w in steps))
            assert (bool(rise[b]), bool(fall[b])) == want, (cube.dtype, axis, cube[b])
        lone += cube.shape[axis + 1] == 1
        empty += not len(cube)
    assert lone >= 10 and empty >= 10, (lone, empty)


def test_interval_product_geometry_matches_its_definitions(monkeypatch):
    # Seeded domains with negative lows and one-point axes, and one-point
    # intervals at the ends of the 64-bit integers; the 64-bit gate and the
    # state cap keep their messages.
    rng = random.Random(17)
    top = (1 << 63) - 1
    domains = [IntervalProduct(((top, top), (-top, -top), (-top - 1, -top - 1), (-2, 0)))]
    for _ in range(80):
        lows = [rng.randint(-5, 5) for _ in range(rng.randint(0, 4))]
        domains.append(IntervalProduct(tuple((lo, lo + rng.randint(0, 3)) for lo in lows)))
    for dom in domains:
        assert dom.shape == tuple(hi - lo + 1 for lo, hi in dom.intervals)
        assert dom.size == math.prod(dom.shape) == len(list(dom.states()))
        assert dom.lows == tuple(lo for lo, _ in dom.intervals)
        assert dom.weights == tuple(math.prod(dom.shape[i + 1 :]) for i in range(dom.n))
        for o, x in enumerate(dom.states()):
            assert dom.state(o) == x and dom.offset(dom.state(o)) == o
    assert sum(1 in dom.shape for dom in domains) >= 20
    assert sum(min(dom.lows, default=0) < 0 for dom in domains) >= 20
    monkeypatch.setenv("SDG_CAP", "5")
    gate = "interval [{},{}] leaves the 64-bit integers"
    for intervals, error, message in (
        (((top, top + 1),), PreconditionError, gate.format(top, top + 1)),
        (((-top - 2, 0),), PreconditionError, gate.format(-top - 2, 0)),
        (((-3, 2),), ResourceCapError, "state space of size 6 exceeds cap 5"),
    ):
        with pytest.raises(error) as info:
            IntervalProduct(intervals)
        assert str(info.value) == message


@pytest.mark.parametrize("cells", [1, 6, 30])
def test_interaction_arcs_in_chunks_match_brute_force(monkeypatch, cells):
    # BLOCK_CELLS small: the kernel runs on chunks of one or a few
    # components at a time.  Axes of length 1, which the kernel skips, are
    # drawn too.
    monkeypatch.setattr(fds_mod, "BLOCK_CELLS", cells)
    rng = random.Random(cells)
    chunked = flat = 0
    for _ in range(80):
        f = random_fds(rng, [rng.choice((1, 2, 3)) for _ in range(rng.randint(1, 5))])
        assert f.interaction_graph().arcs == helpers.brute_force_interaction_arcs(f)
        chunked += max(1, cells // f.domain.size) < f.n
        flat += f.n > 1 and 1 in f.domain.shape
    assert chunked >= 20 and flat >= 20, (chunked, flat)


def test_interaction_graph_cache_serves_any_names():
    f = example12_system()
    for names in ("abcdefgh", tuple(str(k) for k in range(8, 0, -1)), "abcdefgh"):
        ig = f.interaction_graph(tuple(names))
        assert ig.vertices == tuple(names)
        assert ig.arcs == helpers.brute_force_interaction_arcs(f, names)


def test_interaction_graph_rejects_duplicate_names():
    # One arc 1 -> 2; the names ("a", "a") would fold it into a loop a -> a.
    f = table_system([(0, 1), (0, 1)], [[0, 0, 0, 0], [0, 0, 1, 1]])
    assert f.interaction_graph(("a", "b")).arcs == {("a", "b", "+")}
    with pytest.raises(PreconditionError):
        f.interaction_graph(("a", "a"))


def test_image_offsets_match_unique():
    rng = random.Random(11)
    for sizes in ([1], [3], [2, 3], [2, 2, 2], [3, 1, 2], []):
        f = random_fds(rng, sizes)
        succ = f.successor_offsets
        assert f.image_offsets().tolist() == np.unique(succ).tolist()
        for m in (0, 1, 5, 20):
            offsets = np.array([rng.randrange(f.domain.size) for _ in range(m)], dtype=np.int64)
            assert f.image_offsets(offsets).tolist() == np.unique(succ[offsets]).tolist()


def test_tables_are_one_read_only_array():
    f = example12_system()
    assert f.tables.shape == (8, f.domain.size)
    assert Fds(f.domain, f.tables.copy()) == f
    with pytest.raises(ValueError):
        f.tables[0, 0] = 1
    with pytest.raises(ValueError):
        f.tables[1][0] = 1
    with pytest.raises(PreconditionError):
        table_system([(0, 1), (0, 1)], [[0, 1, 0, 1], [0, 1]])
    with pytest.raises(PreconditionError):
        table_system([(0, 1)], [[0, 1], [0, 1]])


# ---------------------------------------------------------------------------
# degree-boundedness
# ---------------------------------------------------------------------------


def test_degree_bounded_example12():
    f = example12_system()
    ok, bad = f.is_degree_bounded()
    assert ok and not bad


def test_degree_bounded_violation_on_positive_loop():
    # A single positive loop has out-degree 1, so three levels are too many.
    f = table_system([(0, 2)], [[0, 1, 2]])
    assert f.interaction_graph().arcs == {("1", "1", "+")}
    ok, bad = f.is_degree_bounded()
    assert not ok and bad == (0,)


def test_degree_bounded_one_point_domain():
    f = constant_fds(IntervalProduct(((0, 0),)), (0,))
    ok, bad = f.is_degree_bounded()
    assert ok


def test_degree_bounded_sink_needs_two_levels():
    # 1 -> 2 with a three-level sink violates the exact-size rule.
    dom = IntervalProduct(((0, 1), (0, 2)))
    tables = [[0] * 6, []]
    for x1, x2 in dom.states():
        tables[1].append(2 if x1 else 0)
    f = Fds(dom, tuple(np.array(t) for t in tables))
    ok, bad = f.is_degree_bounded()
    assert not ok and bad == (1,)


def _degree_branch(arcs, v):
    """Out- and in-degree of ``v`` over ``arcs`` (parallel arcs count twice),
    and which branch of the degree bound they select."""
    dout = sum(1 for s, _, _ in arcs if s == v)
    din = sum(1 for _, t, _ in arcs if t == v)
    return dout, din, "out-degree > 0" if dout else ("sink" if din else "isolated")


def test_degree_bound_matches_its_definition():
    # Drawn as in test_interaction_graph_matches_brute_force_oracle: random
    # tables with one-value axes, and systems on graphs with parallel arcs.
    # The bound as stated: |X_i| = 2 at a sink with in-arcs, otherwise
    # |X_i| <= out-degree + 1, on the brute-force arcs.
    rng = random.Random(31)
    seen = collections.Counter()
    for trial in range(300):
        if trial % 2:
            f = random_fds(rng, [rng.choice((1, 2, 2, 3)) for _ in range(rng.randint(1, 6))])
        else:
            f = helpers.random_system_on(rng, helpers.random_connected_sdg(rng, 6))
        arcs = helpers.brute_force_interaction_arcs(f)
        bad = []
        for i, size in enumerate(f.domain.shape):
            dout, din, branch = _degree_branch(arcs, str(i + 1))
            if not (size == 2 if branch == "sink" else size <= dout + 1):
                bad.append(i)
            seen[branch] += 1
        assert f.is_degree_bounded() == (not bad, tuple(bad))
        seen["bounded" if not bad else "unbounded"] += 1
    assert min(seen.values()) >= 10, seen


def test_degree_bounded_domains_list_every_size_tuple_the_bound_allows():
    # Graphs with loops, parallel arcs and lone vertices.  A size allowed
    # at a vertex is one the bound as stated admits and that realizes its
    # out-arcs (one value carries none), so at most 2n + 1.
    rng = random.Random(32)
    seen = collections.Counter()
    for _ in range(80):
        g = helpers.random_connected_sdg(rng, 4)
        g = SignedDigraph(g.vertices + ("lone",) * rng.randint(0, 1), g.arcs)
        menus = []
        for v in g.vertices:
            dout, din, branch = _degree_branch(g.arcs, v)
            menus.append([
                s for s in range(1, 2 * g.n + 2)
                if (s == 2 if branch == "sink" else s <= dout + 1) and (s > 1 or not dout)
            ])
            seen[branch] += 1
        domains = list(fds_mod._degree_bounded_domains(g))
        assert [d.shape for d in domains] == sorted(product(*menus)), g
        assert all(lo == 0 for d in domains for lo, _ in d.intervals)
    assert min(seen.values()) >= 10, seen


# ---------------------------------------------------------------------------
# nilpotency and fixed points
# ---------------------------------------------------------------------------


def test_nilpotency_index_examples():
    assert example14_system().nilpotency_index() == 2
    ident = table_system([(0, 1)], [[0, 1]])
    assert ident.nilpotency_index() is None
    f12 = example12_system()
    assert f12.nilpotency_index() == 4  # not 3


def test_nilpotency_image_chain_monotone():
    rng = random.Random(2)
    for _ in range(50):
        f = random_fds(rng, [rng.randint(1, 3) for _ in range(rng.randint(1, 4))])
        succ = f.successor_offsets
        current = np.unique(succ)
        for _ in range(f.domain.size):
            nxt = np.unique(succ[current])
            assert set(nxt.tolist()) <= set(current.tolist())
            if nxt.size == current.size:
                break
            current = nxt


def test_fixed_points():
    # Offsets put component 1 in the most significant digit, so x2 is the
    # fast-varying coordinate of the flat tables.
    pos2 = table_system([(0, 1), (0, 1)], [[0, 1, 0, 1], [0, 0, 1, 1]])
    # f1 = x2, f2 = x1: fixed points (0,0) and (1,1)
    assert pos2.fixed_points() == [(0, 0), (1, 1)]
    assert pos2.interaction_graph().arcs == {("2", "1", "+"), ("1", "2", "+")}

    neg2 = table_system([(0, 1), (0, 1)], [[0, 1, 0, 1], [1, 1, 0, 0]])
    # f1 = x2, f2 = 1 - x1: a negative feedback loop has no fixed point
    assert neg2.fixed_points() == []
    assert neg2.interaction_graph().arcs == {("2", "1", "+"), ("1", "2", "-")}

    const = constant_fds(IntervalProduct(((0, 1), (0, 1))), (1, 1))
    assert const.fixed_points() == [(1, 1)]


# ---------------------------------------------------------------------------
# convergence relation
# ---------------------------------------------------------------------------


def test_from_component_functions_evaluates_each_function_on_the_grids():
    dom = IntervalProduct(((0, 1), (-1, 1)))
    f = from_component_functions(dom, [lambda x: 1 - x[0], lambda x: np.minimum(x[0], x[1])])
    states = list(dom.states())
    assert f.tables.dtype == np.int64
    assert f.tables.tolist() == [[1 - a for a, _ in states], [min(a, b) for a, b in states]]
    with pytest.raises(PreconditionError, match="table 1 leaves interval"):
        from_component_functions(dom, [lambda x: x[0], lambda x: x[1] + 1])


def test_converges_toward_trivial_one_point():
    f = constant_fds(IntervalProduct(((0, 0),)), (0,))
    w = converges_toward(f, f, 0)
    assert w.valid


def test_converges_toward_checks_domains():
    f = table_system([(0, 1)], [[0, 0]])
    h = table_system([(0, 2)], [[0, 0, 0]])
    assert not converges_toward(f, h, 1).valid  # h's domain not inside f's
    with pytest.raises(PreconditionError):
        converges_toward(f, constant_fds(IntervalProduct(((0, 0), (0, 0))), (0, 0)), 1)


def test_converges_toward_checks_nothing_past_a_failed_nesting():
    # Y is not inside X: the image and agreement conditions are not checked,
    # so only the nesting is named.
    f = table_system([(0, 1), (0, 1)], [[1, 0, 1, 0], [0, 0, 1, 1]])
    h = table_system([(0, 2), (0, 1)], [[0] * 6, [0] * 6])
    w = converges_toward(f, h, 1)
    assert w == fds_mod.ConvergenceWitness(1, False, None, None)
    assert w.failures() == ["subsystem domain is not contained in the system domain"]
    assert not w.valid


def test_converges_toward_detects_disagreement():
    f = table_system([(0, 1)], [[0, 0]])
    h = table_system([(0, 1)], [[1, 1]])
    w = converges_toward(f, h, 1)
    assert not w.agreement and not w.valid
    assert w.counterexample == (0,)


@pytest.mark.parametrize(
    "nested, image, agree, expected",
    [
        (True, True, True, []),
        (False, True, True, ["subsystem domain is not contained in the system domain"]),
        (True, False, True, ["f^3(X) is not contained in h(Y)"]),
        (True, True, False, ["f and h disagree on Y (e.g. at (0, 1))"]),
        (False, False, False, [
            "subsystem domain is not contained in the system domain",
            "f^3(X) is not contained in h(Y)",
            "f and h disagree on Y (e.g. at (0, 1))",
        ]),
        (False, None, None, ["subsystem domain is not contained in the system domain"]),
    ],
)
def test_convergence_witness_names_each_failure(nested, image, agree, expected):
    w = fds_mod.ConvergenceWitness(3, nested, image, agree, (0, 1) if agree is False else None)
    assert w.failures() == expected
    assert w.valid == (not expected)


def test_converges_toward_componentwise_inclusion():
    # h couples its two components (image = equal pairs); a system whose
    # image holds mixed pairs still converges under the componentwise box.
    h = table_system([(0, 1), (0, 1)], [[0, 0, 1, 1], [0, 0, 1, 1]])
    f = table_system([(0, 1), (0, 1)], [[0, 0, 1, 1], [0, 1, 0, 1]])
    # f = h on the half where they agree? they differ at (0,1) and (1,0):
    assert not converges_toward(f, h, 1).valid
    w = converges_toward(h, h, 1)
    assert w.valid


def _random_convergence_case(rng):
    """Random ``(f, h)`` with ``h`` on a sub-box ``Y`` of ``f``'s domain ``X``;
    ``f`` copies ``h`` on ``Y`` half of the time, and keeps its values inside
    ``h``'s value sets half of the time."""
    n = rng.randint(0, 3)
    X = [(lo, lo + rng.randint(0, 2)) for lo in (rng.randint(-2, 2) for _ in range(n))]
    Y = []
    for lo, hi in X:
        a = rng.randint(lo, hi)
        Y.append((a, rng.randint(a, hi)))
    h = random_fds(rng, [hi - lo + 1 for lo, hi in Y], [lo for lo, _ in Y])
    h_values = [sorted(set(row)) for row in h.tables.tolist()]
    narrow = rng.random() < 0.5
    tables = [
        [
            rng.choice(h_values[i]) if narrow else rng.randint(lo, hi)
            for _ in range(IntervalProduct(tuple(X)).size)
        ]
        for i, (lo, hi) in enumerate(X)
    ]
    f = table_system(X, tables)
    if rng.random() < 0.5:
        copied = [row.copy() for row in f.tables]
        for y in h.domain.states():
            for i, value in enumerate(h.evaluate(y)):
                copied[i][f.domain.offset(y)] = value
        f = Fds(f.domain, tuple(copied))
    return f, h


def test_converges_toward_matches_brute_force_oracle():
    rng = random.Random(23)
    seen = {"k0": 0, "no_box": 0, "no_agree": 0, "valid": 0, "n0": 0, "huge": 0}
    for _ in range(400):
        f, h = _random_convergence_case(rng)
        k = rng.randint(0, 3)
        inside, agree, counter = helpers.brute_force_convergence(f, h, k)
        w = converges_toward(f, h, k)
        assert (w.domains_nested, w.fk_image_in_h_image, w.agreement) == (True, inside, agree)
        assert w.counterexample == counter and w.steps == k
        if k == 3:
            # The image chain is fixed after at most |X| steps, so the oracle
            # runs that many for a step count it could not reach.
            k = 10**9 + rng.randint(0, 1)
            inside, agree, counter = helpers.brute_force_convergence(f, h, f.domain.size)
            w = converges_toward(f, h, k)
            assert (w.fk_image_in_h_image, w.agreement, w.counterexample) == (
                inside, agree, counter
            )
            assert w.steps == k
            seen["huge"] += 1
        seen["k0"] += k == 0
        seen["no_box"] += not inside
        seen["no_agree"] += not agree
        seen["valid"] += w.valid
        seen["n0"] += f.n == 0
    assert min(seen.values()) >= 10, seen


# ---------------------------------------------------------------------------
# enumeration of degree-bounded systems
# ---------------------------------------------------------------------------


def test_enumerate_positive_loop_unique_identity():
    g = SignedDigraph.from_arcs([("1", "1", "+")])
    systems = list(enumerate_degree_bounded_systems(g))
    # By hand: the four self-maps of {0,1} are 00, 01, 10, 11; only x -> x
    # realizes exactly one positive loop.
    assert len(systems) == 1
    assert systems[0].tables[0].tolist() == [0, 1]


def test_enumerate_negative_two_cycle_unique():
    g = SignedDigraph.from_arcs([("1", "2", "+"), ("2", "1", "-")])
    systems = list(enumerate_degree_bounded_systems(g))
    assert len(systems) == 1
    assert systems[0].fixed_points() == []


def test_enumerate_single_positive_arc():
    g = SignedDigraph.from_arcs([("1", "2", "+")])
    systems = list(enumerate_degree_bounded_systems(g))
    # f2 must be the identity in x1; f1 is either constant 0 or constant 1.
    assert len(systems) == 2
    for f in systems:
        assert f.domain.shape == (2, 2)
        col = [f.evaluate((x1, 0))[1] for x1 in (0, 1)]
        assert col == [0, 1]


def test_enumerate_respects_cap():
    g = helpers.eight_vertex_example()
    with pytest.raises(ResourceCapError):
        list(enumerate_degree_bounded_systems(g, table_cap=10))


def test_unique_system_on_signed_cycles_fixed_point_counts():
    # On a signed cycle every vertex has one in- and one out-arc, forcing
    # two-level intervals and a unique system: two fixed points when the
    # sign product is positive, none when negative (checked up to n = 4).
    from itertools import product as iproduct

    for n in range(1, 5):
        names = [str(i + 1) for i in range(n)]
        shape = [(names[i], names[(i + 1) % n]) for i in range(n)]
        for signs in iproduct("+-", repeat=n):
            g = SignedDigraph.from_arcs(
                [(s, t, sg) for (s, t), sg in zip(shape, signs)], vertices=names
            )
            systems = list(enumerate_degree_bounded_systems(g))
            assert len(systems) == 1
            negatives = sum(1 for s in signs if s == "-")
            expected = 2 if negatives % 2 == 0 else 0
            assert len(systems[0].fixed_points()) == expected


def test_enumerate_systems_have_exact_interaction_graph():
    rng = random.Random(13)
    seen = 0
    while seen < 8:
        g = helpers.random_connected_sdg(rng, 3)
        try:
            systems = list(enumerate_degree_bounded_systems(g, table_cap=200_000))
        except ResourceCapError:
            continue
        seen += 1
        for f in systems[:50]:
            assert f.interaction_graph(g.vertices).arcs == g.arcs
            ok, _ = f.is_degree_bounded()
            assert ok


def test_image_chains_match_unique_chains_on_random_systems():
    rng = random.Random(4)
    for sizes in ([1], [2], [3, 2], [2, 2, 2], [3, 1, 3]):
        systems = [random_fds(rng, sizes) for _ in range(40)]
        index, fixed = fds_mod.image_chains(
            np.stack([f.successor_offsets for f in systems])
        )
        for f, k, count in zip(systems, index.tolist(), fixed.tolist()):
            assert (k if k > 0 else None) == helpers.unique_chain_index(f)
            assert count == len(f.fixed_points())


def test_image_chains_match_unique_chains_on_every_self_map_up_to_five_states():
    # One block per S: all S^S maps of an S-state set into itself, 3,413 rows
    # for S = 1..5.  The maps with a constant iterate are the rooted labelled
    # trees on S vertices, S^(S-1) of them by Cayley's formula.
    rows = 0
    for size in range(1, 6):
        dom = IntervalProduct(((0, size - 1),))
        maps = np.array(list(product(range(size), repeat=size)), dtype=np.int64)
        index, fixed = fds_mod.image_chains(maps)
        for row, k, count in zip(maps.tolist(), index.tolist(), fixed.tolist()):
            f = Fds(dom, [row])
            want = helpers.unique_chain_index(f)
            assert (k if k > 0 else None) == want and f.nilpotency_index() == want
            assert count == sum(row[x] == x for x in range(size))
        assert np.count_nonzero(index != -1) == size ** (size - 1)
        rows += len(maps)
        # A block in which no row passes the one-fixed-point gate.
        gated = maps[np.count_nonzero(maps == np.arange(size), axis=1) != 1]
        index, fixed = fds_mod.image_chains(gated)
        assert index.tolist() == [-1] * len(gated)
        assert fixed.tolist() == [sum(row[x] == x for x in range(size)) for row in gated.tolist()]
    assert rows == 3_413
    # One fixed point is not enough: 0 -> 0 with the 2-cycle 1 <-> 2.
    index, fixed = fds_mod.image_chains(np.array([[0, 2, 1]]))
    assert index.tolist() == [-1] and fixed.tolist() == [1]


def _signed_cycles(max_n):
    for n in range(1, max_n + 1):
        names = [str(i + 1) for i in range(n)]
        for signs in product("+-", repeat=n):
            arcs = [(names[i], names[(i + 1) % n], sg) for i, sg in enumerate(signs)]
            yield SignedDigraph.from_arcs(arcs, vertices=names)


# 516 systems; the 468 on one domain span two blocks of BLOCK_CELLS cells.
MULTI_BLOCK_GRAPH = SignedDigraph.from_arcs(
    [("2", "1", "+"), ("2", "1", "-"), ("3", "2", "+"), ("4", "1", "+"), ("4", "3", "-")],
    vertices=["1", "2", "3", "4"],
)


def flat_summaries(g):
    """The block summaries of ``g``, one ``(sizes, index, fixed points)`` per
    system, with index -1 read as None."""
    for sizes, index, fixed in enumerate_system_summaries(g):
        for k, count in zip(index.tolist(), fixed.tolist()):
            yield sizes, (k if k > 0 else None), count


def _random_graphs(seed, count, max_systems=5_000):
    """Random connected graphs with n <= 3 and at most ``max_systems``
    degree-bounded systems, enumerated within the default cap."""
    rng = random.Random(seed)
    graphs = []
    while len(graphs) < count:
        g = helpers.random_connected_sdg(rng, 3)
        try:
            small = sum(1 for _ in islice(flat_summaries(g), max_systems + 1)) <= max_systems
        except ResourceCapError:  # a later domain has too many candidates
            small = False
        if small:
            graphs.append(g)
    return graphs


def test_batched_summaries_match_per_system_methods():
    graphs = list(_signed_cycles(4)) + [MULTI_BLOCK_GRAPH] + _random_graphs(21, 30)
    blocks = {}
    for dom, _ in fds_mod._local_table_systems(
        MULTI_BLOCK_GRAPH, fds_mod._degree_bounded_domains(MULTI_BLOCK_GRAPH), 10**6
    ):
        blocks[dom] = blocks.get(dom, 0) + 1
    assert max(blocks.values()) > 1
    for g in graphs:
        expected = []
        for f in enumerate_degree_bounded_systems(g):
            index = f.nilpotency_index()
            assert index == helpers.unique_chain_index(f)
            expected.append((f.domain.shape, index, len(f.fixed_points())))
        assert list(flat_summaries(g)) == expected


def _blocks_until_cap(enumerator, g, domains, cap):
    """The ``(domain, successor offsets)`` blocks yielded before the cap
    trips, and whether it tripped."""
    out = []
    try:
        for dom, succ in enumerator(g, domains, cap):
            out.append((dom, succ.tolist()))
    except ResourceCapError:
        return out, True
    return out, False


# Component 1 reads two axes of up to 3 values: 3^9 candidate local tables
# on the domain (3, 3, 3).
WIDE_GRAPH = SignedDigraph.from_arcs(
    [("2", "1", "+"), ("2", "1", "-"), ("3", "1", "+"), ("3", "1", "-"),
     ("1", "2", "+"), ("1", "3", "-"), ("1", "2", "-")],
    vertices=["1", "2", "3"],
)


def test_local_table_systems_match_product_reference():
    rng = random.Random(5)
    cases = [WIDE_GRAPH, MULTI_BLOCK_GRAPH]
    while len(cases) < 32:
        g = helpers.random_connected_sdg(rng, 3 if len(cases) < 16 else 4)
        if g.n > 1:
            cases.append(g)
    tripped_midway = finished = 0
    for g in cases:
        domains = list(fds_mod._degree_bounded_domains(g))
        for cap in (1, 30, 300, 3_000, 30_000):
            got = _blocks_until_cap(fds_mod._local_table_systems, g, domains, cap)
            want = _blocks_until_cap(helpers.reference_local_table_systems, g, domains, cap)
            assert got == want, (g, cap)
            tripped_midway += got[1] and bool(got[0])
        finished += not got[1] and bool(got[0])
    assert tripped_midway >= 8 and finished >= 20


# A double loop on 1 and 1 -> 2 -> 1, on domains of shape (3, 2), one of
# them shifted twice, and (2, 2), which no table survives.
SHIFTED_GRAPH = SignedDigraph.from_arcs(
    [("1", "1", "+"), ("1", "1", "-"), ("1", "2", "+"), ("2", "1", "+")]
)
SHIFTED_DOMAINS = [
    IntervalProduct(((0, 2), (0, 1))),
    IntervalProduct(((0, 1), (0, 1))),
    IntervalProduct(((2, 4), (-1, 0))),
    IntervalProduct(((5, 6), (1, 2))),
    IntervalProduct(((1, 3), (5, 6))),
]


def test_local_table_systems_scan_each_distinct_key_once(monkeypatch):
    # The domains of shape (3, 2) ask for the same two scans (729 and 8
    # candidates, 224 systems); those of shape (2, 2) for the same scan of
    # 16 candidates, which no table survives.  Each scan runs once per call
    # (a scan counts values from the interval's low end, so a shifted
    # domain gives the same successor offsets), while a reused scan still
    # counts against the cap, as the reference enumerator counts it: cap
    # 2,000 stops before the third (3, 2) domain.
    scans = []
    real = fds_mod._sign_valid_tables

    def record(*key):
        scans.append(key)
        return real(*key)

    monkeypatch.setattr(fds_mod, "_sign_valid_tables", record)
    g, domains = SHIFTED_GRAPH, SHIFTED_DOMAINS
    yielded = []
    for cap in (700, 1_000, 2_000, 3_000):
        scans.clear()
        got = _blocks_until_cap(fds_mod._local_table_systems, g, domains, cap)
        assert got == _blocks_until_cap(helpers.reference_local_table_systems, g, domains, cap)
        assert len(scans) == len(set(scans))
        yielded.append(len({dom for dom, _ in got[0]}))
    assert yielded == [0, 1, 2, 3] and not got[1] and len(scans) == 3


def test_decoded_systems_round_trip_their_offsets(monkeypatch):
    # enumerate_degree_bounded_systems decodes each block row into tables;
    # on domains with nonzero lows, each system must map back to its row,
    # stay inside its intervals and have g as its interaction graph.
    g, domains = SHIFTED_GRAPH, SHIFTED_DOMAINS
    monkeypatch.setattr(fds_mod, "_degree_bounded_domains", lambda graph: iter(domains))
    rows = [
        (dom, row)
        for dom, succ in fds_mod._local_table_systems(g, domains, 10**6)
        for row in succ.tolist()
    ]
    systems = list(enumerate_degree_bounded_systems(g))
    assert len(systems) == len(rows) == 3 * 224
    for f, (dom, row) in zip(systems, rows):
        assert f.domain == dom and f.successor_offsets.tolist() == row
        lows, highs, _ = dom.columns
        assert ((lows <= f.tables) & (f.tables <= highs)).all()
        assert f.interaction_graph(g.vertices) == g


def test_local_table_candidates_span_several_row_blocks(monkeypatch):
    # The 3^9 candidates of component 1 on (3, 3, 3) are checked in five
    # blocks of 4,096 rows.  That domain has too many systems to build, so
    # compare the offset contributions of every component handed to
    # _offset_blocks with the reference's full tables, times the weights.
    seen = []

    def record(parts, size):
        seen.append([part.tolist() for part in parts])
        return iter(())

    monkeypatch.setattr(fds_mod, "_offset_blocks", record)
    dom = IntervalProduct(((0, 2),) * 3)
    assert list(fds_mod._local_table_systems(WIDE_GRAPH, [dom], 10**9)) == []
    want = [
        (w * helpers.reference_full_tables(WIDE_GRAPH, dom, i)).tolist()
        for i, w in enumerate(dom.weights)
    ]
    assert seen == [want]
    assert len(want[0]) > 4096


def test_sign_valid_tables_match_the_pure_python_filter():
    # Every sign pattern on 0 to 3 in-neighbor axes (each axis +, - or
    # both), each three times over a seeded width in 2..4 and axis lengths
    # in 1..3 with at most 4,096 candidates (to keep the filter fast),
    # against the product-and-filter of the tests' reference enumerator.
    # An axis of length 1 realizes no sign, so most of the 120 sets are
    # empty.
    rng = random.Random(18)
    signs = ((True, False), (False, True), (True, True))
    nonempty = 0
    seen_widths, seen_lengths = set(), set()
    cases = [pattern for axes in range(4) for pattern in product(signs, repeat=axes)] * 3
    for pattern in cases:
        axes = len(pattern)
        while True:
            width = rng.randint(2, 4)
            shape = tuple(rng.randint(1, 3) for _ in range(axes))
            if width ** math.prod(shape) <= 4096:
                break
        seen_widths.add(width)
        seen_lengths.update(shape)
        names = ["v"] + [f"u{a}" for a in range(axes)]
        arcs = [(f"u{a}", "v", sg) for a, (pos, neg) in enumerate(pattern)
                for sg, on in (("+", pos), ("-", neg)) if on]
        g = SignedDigraph.from_arcs(arcs, vertices=names)
        cells = list(product(*(range(k) for k in shape)))
        want = helpers.reference_local_tables(g, "v", cells, 0, width - 1).tolist()
        got = fds_mod._sign_valid_tables(width, shape, pattern)
        assert got.tolist() == want, (width, shape, pattern)
        nonempty += bool(want)
        # A table realizes one pattern only: flipping one sign of one
        # axis (to no sign at all, too) gives a disjoint set, so a
        # different one unless both are empty.
        for a in range(axes):
            for side in range(2):
                flipped = list(map(list, pattern))
                flipped[a][side] = not flipped[a][side]
                other = fds_mod._sign_valid_tables(width, shape, tuple(map(tuple, flipped)))
                assert not set(map(tuple, want)) & set(map(tuple, other.tolist()))
    assert nonempty >= 20 and seen_widths == {2, 3, 4} and seen_lengths == {1, 2, 3}


def test_sign_valid_tables_across_row_blocks():
    # Width 3 on in-neighbor axes of lengths (3, 3): 3^9 = 19,683
    # candidates, checked in five blocks of 4,096 rows whose digits are
    # expanded in one step per block.  Survivors of each pattern come from
    # every block, so a digit or a verdict wrong at a block start would
    # show against the pure-Python filter.
    width, shape = 3, (3, 3)
    cells = list(product(range(3), repeat=2))
    for pattern in (((True, False), (False, True)), ((True, True), (True, False))):
        arcs = [(f"u{a}", "v", sg) for a, (pos, neg) in enumerate(pattern)
                for sg, on in (("+", pos), ("-", neg)) if on]
        g = SignedDigraph.from_arcs(arcs, vertices=["v", "u0", "u1"])
        want = helpers.reference_local_tables(g, "v", cells, 0, width - 1)
        got = fds_mod._sign_valid_tables(width, shape, pattern)
        assert got.tolist() == want.tolist(), pattern
        numbers = got @ width ** np.arange(len(cells) - 1, -1, -1)
        assert set((numbers // 4096).tolist()) == set(range(5)), pattern


def test_offset_blocks_follow_itertools_product(monkeypatch):
    # Row sums of one row per part, in lexicographic order of the choices,
    # last component fastest, in blocks of at most BLOCK_CELLS cells (or
    # one row) counted as n * size per row.
    rng = np.random.default_rng(13)
    for cells in (1, 7, 40, 10**9):
        monkeypatch.setattr(fds_mod, "BLOCK_CELLS", cells)
        for n in range(4):
            size = int(rng.integers(1, 4))
            parts = [rng.integers(0, 9, (int(rng.integers(1, 4)), size)) for _ in range(n)]
            blocks = list(fds_mod._offset_blocks(parts, size))
            rows = max(1, cells // max(1, n * size))
            assert all(len(b) == rows for b in blocks[:-1]) and 0 < len(blocks[-1]) <= rows
            want = [sum(combo, np.zeros(size, dtype=np.int64)).tolist() for combo in product(*parts)]
            assert np.concatenate(blocks).tolist() == want


@pytest.mark.parametrize("cells", [1, 1000, 10**9])
def test_row_blocks_keep_the_yield_order(monkeypatch, cells):
    # One row per block, chunks of a few rows, and one block per domain
    # must all give the same systems in the same order.
    graphs = [MULTI_BLOCK_GRAPH] + _random_graphs(8, 8)
    expected = [
        [(f.domain, [t.tolist() for t in f.tables]) for f in enumerate_degree_bounded_systems(g)]
        for g in graphs
    ]
    monkeypatch.setattr(fds_mod, "BLOCK_CELLS", cells)
    for g, want in zip(graphs, expected):
        got = [
            (f.domain, [t.tolist() for t in f.tables])
            for f in enumerate_degree_bounded_systems(g)
        ]
        assert got == want


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_fds_json_roundtrip():
    f = example13_system()
    doc = fds_to_dict(f)
    assert doc["version"] == "fds.v1"
    assert fds_from_dict(json.loads(json.dumps(doc))) == f


def test_fds_json_rejects_malformed():
    with pytest.raises(SdgParseError):
        fds_from_dict({"version": "nope"})
    with pytest.raises(SdgParseError):
        fds_from_dict({"version": "fds.v1", "intervals": [[0, 1]], "tables": [[0, 7]]})
    with pytest.raises(SdgParseError):
        fds_from_dict({"version": "fds.v1", "intervals": [[0, 1]], "tables": [[0]]})
    # numpy reads a boolean among integers as 0 or 1; the document is
    # rejected all the same.
    for tables in ([[1, True]], [[0, 1, 0, 1], [1, 0, True, 0]]):
        doc = {"version": "fds.v1", "intervals": [[0, 1]] * len(tables), "tables": tables}
        with pytest.raises(SdgParseError):
            fds_from_dict(doc)
        ints = [[int(x) for x in row] for row in tables]
        assert fds_from_dict({**doc, "tables": ints}).tables.tolist() == ints


def test_save_fds_matches_stdlib(tmp_path):
    path = tmp_path / "f.json"
    for f in helpers.rendering_systems():
        save_fds(f, str(path))
        # compared outside the assert, so that a failure is not a diff of
        # megabytes of text
        same = path.read_text() == json.dumps(fds_to_dict(f)) + "\n"
        assert same, f.domain
        assert load_fds(str(path)) == f


def test_load_fds_searches_for_booleans_only_when_the_text_has_one(tmp_path, monkeypatch):
    seen = []
    search = fds_mod._fds_from_dict

    def spy(data, booleans):
        seen.append(booleans)
        return search(data, booleans)

    monkeypatch.setattr(fds_mod, "_fds_from_dict", spy)
    path = tmp_path / "f.json"
    f = example13_system()
    doc = fds_to_dict(f)
    for extra, searched in (({}, False), ({"note": "true or false"}, True), ({"x": [False]}, True)):
        path.write_text(json.dumps({**doc, **extra}))
        assert load_fds(str(path)) == f
        assert seen.pop() is searched
    path.write_text(json.dumps({**doc, "tables": [[True, *row[1:]] for row in doc["tables"]]}))
    with pytest.raises(SdgParseError):
        load_fds(str(path))
    assert seen == [True]


def test_translate_and_mirror_preserve_structure():
    f = example13_system()
    t = f.translate((1, -2, 0))
    assert t.domain.intervals == ((1, 2), (-2, -1), (0, 2))
    assert t.interaction_graph().arcs == f.interaction_graph().arcs
    assert t.nilpotency_index() == f.nilpotency_index()

    m = f.mirror(range(f.n))  # whole graph: arc signs preserved
    assert m.interaction_graph().arcs == f.interaction_graph().arcs
    assert m.nilpotency_index() == f.nilpotency_index()
