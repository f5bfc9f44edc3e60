"""Constructive synthesis of degree-bounded systems on signed digraphs.

Three construction families live here:

* :func:`construct_nilpotent` builds, on any graph whose connected
  components are not signed cycles, a degree-bounded system whose iterates
  collapse to a single target state within ``lambda + beta`` steps, together
  with a checkable certificate.
* :func:`extend_by_arc` / :func:`extend_all` grow a degree-bounded system on
  a spanning subgraph arc by arc until it lives on the full graph, while
  keeping its image inside the original domain and its values on the
  original domain intact.
* :func:`construct_converging` combines both to produce, for a subsystem
  ``h`` on a spanning subgraph, a system on the whole graph that converges
  toward ``h`` in at most (number of isolated-only vertices + 1) steps.
  :func:`construct_no_fixed_point` and :func:`construct_2k_fixed_points`
  are the fixed-point-count applications.

Every construction re-verifies its own output (interaction graph equality,
degree bounds, and the claimed dynamic property) before returning it, and
raises through :func:`_self_check`, naming every problem it finds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .sdg import (
    DEFAULT_CYCLE_CAP,
    NEGATIVE,
    POSITIVE,
    Arc,
    InternalInvariantError,
    PreconditionError,
    SdgParseError,
    SignedDigraph,
    SignedCycle,
    _capped,
    _cycle_order,
    _is_signed_cycle,
    _multi_source_distance,
    _signed_cycles,
    _strong_components,
    _weak_components,
    classify_vertices,
    component_structure,
    find_disjoint_positive_cycles,
)
from .fds import (
    ConvergenceWitness,
    Fds,
    IntervalProduct,
    _read_json,
    clipped_tables,
    converges_toward,
    json_int,
    value_masks,
)

# ---------------------------------------------------------------------------
# nilpotency certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NilpotencyCertificate:
    """Witness for a nilpotent construction.

    ``representatives`` maps each initial strong component (as an
    index-ordered vertex tuple) to its chosen representative, and ``layers``
    partition the vertex set by distance from the representatives in the
    graph with all arcs into representatives removed.  ``target`` is the
    constant state reached after at most ``lam + beta`` steps.
    """

    lam: int
    beta: int
    representatives: tuple[tuple[tuple[str, ...], str], ...]
    layers: tuple[tuple[str, ...], ...]
    target: tuple[int, ...]

    def to_dict(self) -> dict:
        return {
            "lambda": self.lam,
            "beta": self.beta,
            "layers": [list(layer) for layer in self.layers],
            "xi": list(self.target),
            "representatives": [
                [list(comp), rep] for comp, rep in self.representatives
            ],
        }


def _by_representative(pairs: Iterable, g: SignedDigraph) -> tuple:
    """``(component, representative)`` pairs in the vertex order of their
    representatives: the one order certificates are written and read in."""
    return tuple(sorted(pairs, key=lambda item: g.index(item[1])))


def certificate_from_dict(data: dict, graph: SignedDigraph) -> NilpotencyCertificate:
    """Rebuild a certificate from its JSON form.

    Representatives are read as a list of ``[component, representative]``
    pairs, or in the older form of a map from comma-joined components: a
    key that joins an initial strong component names it, and any other key
    is split on commas.  Every vertex name must be a JSON string naming a
    vertex of ``graph``, and no component may be empty.  The pairs are
    sorted as :func:`construct_nilpotent` sorts them, so a written
    certificate reads back equal.
    """

    def name(value) -> str:
        if type(value) is not str:
            raise TypeError(f"expected a vertex name, got {value!r}")
        if value not in graph.vertices:
            raise ValueError(f"unknown vertex {value!r}")
        return value

    try:
        pairs = data["representatives"]
        if isinstance(pairs, dict):
            joined = {",".join(c): c for c in component_structure(graph).initial_components}
            pairs = [(joined.get(key) or key.split(","), rep) for key, rep in pairs.items()]
        reps = _by_representative(
            ((tuple(map(name, comp)), name(rep)) for comp, rep in pairs), graph
        )
        if not all(comp for comp, _ in reps):
            raise ValueError("empty component")
        layers = tuple(tuple(map(name, layer)) for layer in data["layers"])
        target = tuple(json_int(x) for x in data["xi"])
        lam = json_int(data["lambda"])
        beta = json_int(data["beta"])
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        raise SdgParseError(f"malformed certificate: {exc}") from None
    return NilpotencyCertificate(lam, beta, reps, layers, target)


def _arc_problems(f: Fds, g: SignedDigraph) -> list[str]:
    """The arcs of ``g`` that ``f`` does not realize, then the arcs ``f``
    realizes that ``g`` lacks, each named in :meth:`SignedDigraph.sorted_arcs`
    order and only when there are any.  ``f`` has one component per vertex."""
    arcs = f.interaction_arcs(g.vertices)
    return [
        f"{label} arcs {SignedDigraph(g.vertices, diff).sorted_arcs()}"
        for label, diff in (("missing", g.arcs - arcs), ("extra", arcs - g.arcs))
        if diff
    ]


def _structure_problems(f: Fds, g: SignedDigraph) -> list[str]:
    """The one verdict on whether ``f`` is a degree-bounded system whose
    interaction graph is exactly ``g``: its :func:`_arc_problems`, then the
    components at which :meth:`Fds.is_degree_bounded` fails on ``f``'s own
    arcs.  Empty when ``f`` is such a system.  Kept on ``f``, keyed on ``g``
    (its vertices and arcs), so each pair is judged once; a new list per call."""
    if g not in f._verdicts:
        problems = _arc_problems(f, g)
        _, bad = f.is_degree_bounded()
        f._verdicts[g] = problems + [f"degree bound violated at components {bad}"] * bool(bad)
    return list(f._verdicts[g])


def _self_check(what: str, problems: list[str]) -> None:
    """The one raise of every construction's self-check: an
    :class:`InternalInvariantError` naming each problem of the result, if any."""
    if problems:
        raise InternalInvariantError(f"{what} failed self-check: " + "; ".join(problems))


def check_nilpotency_certificate(
    g: SignedDigraph, f: Fds, cert: NilpotencyCertificate
) -> list[str]:
    """Re-verify a synthesized system against its certificate.

    Returns a list of problems (empty when everything holds): structural
    certificate invariants, interaction-graph equality, degree bounds, and
    the simulated collapse to the target within ``lam + beta`` steps.
    """
    problems: list[str] = []
    cs = component_structure(g)
    if cert.lam != cs.lam:
        problems.append(f"lambda mismatch: certificate {cert.lam}, graph {cs.lam}")
    if cert.beta != cs.beta:
        problems.append(f"beta mismatch: certificate {cert.beta}, graph {cs.beta}")

    flat = [v for layer in cert.layers for v in layer]
    if sorted(flat) != sorted(g.vertices):
        problems.append("layers do not partition the vertex set")
    rep_set = {rep for _, rep in cert.representatives}
    if cert.layers and set(cert.layers[0]) != rep_set:
        problems.append("first layer differs from the representative set")
    initial = {tuple(c) for c in cs.initial_components}
    if {comp for comp, _ in cert.representatives} != initial:
        problems.append("representative keys differ from the initial components")
    for comp, rep in cert.representatives:
        if rep not in comp:
            problems.append(f"representative {rep} outside its component")

    for p in range(1, len(cert.layers)):
        prev = set(cert.layers[p - 1])
        for v in cert.layers[p]:
            # Layers ignore the arcs into representatives.
            if not (g.in_neighbors(v) & prev) or v in rep_set:
                problems.append(
                    f"vertex {v} in layer {p + 1} has no in-neighbor in layer {p}"
                )

    if f.n != g.n:
        problems.append("system arity differs from graph order")
        return problems
    sources, _, _ = classify_vertices(g)
    for v in sorted(sources, key=g.index):
        i = g.index(v)
        if i >= len(cert.target) or cert.target[i] != f.domain.intervals[i][0]:
            problems.append(f"target at source {v} is not the interval minimum")

    problems += _structure_problems(f, g)
    if not f.domain.contains(cert.target):
        problems.append("target state outside the domain")
        return problems
    # f^index(X) is one state, which is also f^index of the target.
    steps = cert.lam + cert.beta
    index = f.nilpotency_index()
    if index is None or index > steps or f.iterate(cert.target, index) != cert.target:
        problems.append(f"iterates do not collapse to the target within {steps} steps")
    return problems


# ---------------------------------------------------------------------------
# nilpotent construction
# ---------------------------------------------------------------------------


def _eligible_representatives(sub: SignedDigraph, comp: Sequence[str]) -> list[str]:
    """The vertices of ``comp`` whose every in-neighbour has at least two
    out-neighbours."""
    return [v for v in comp if all(len(sub.out_neighbors(j)) >= 2 for j in sub.in_neighbors(v))]


class _Plan:
    """The nilpotent construction on a whole graph, filled in place by one
    planner call per connected component: the interval, rule, target value
    ``xi`` and layer ``depth`` of every vertex, and the ``(component,
    representative)`` pairs.

    A rule ``(combine, theta, plus_only, both, minus_only, top)`` sets its
    vertex to ``top`` on the states where ``combine`` (``np.any`` or
    ``np.all``) holds over the tests ``x_j >= theta`` for ``j`` in
    ``plus_only``, ``x_j == theta`` for ``j`` in ``both`` and ``x_j < theta``
    for ``j`` in ``minus_only``, and to 0 elsewhere.
    """

    def __init__(self) -> None:
        self.intervals: dict[str, tuple[int, int]] = {}
        self.rules: dict[str, tuple] = {}
        self.xi: dict[str, int] = {}
        self.depth: dict[str, int] = {}
        self.representatives: list[tuple[tuple[str, ...], str]] = []


def _plan_cycle_with_parallels(
    g: SignedDigraph, comp: Sequence[str], plan: _Plan
) -> None:
    """A component whose underlying digraph is one cycle carrying both signs
    on some step: each vertex steps to its top exactly when its predecessor
    holds the value the arc between them triggers on, starting after the
    first vertex with parallel arcs, in the order of :func:`sdg._cycle_order`."""
    order = _cycle_order(g, comp)
    parallel = {
        v
        for v, w in zip(order, order[1:] + order[:1])
        if v in g.in_plus(w) and v in g.in_minus(w)
    }
    k = order.index(min(parallel, key=g.index)) + 1
    pos = order[k:] + order[:k]
    for t, v in enumerate(pos):
        prev = pos[t - 1]
        top = 2 if v in parallel else 1
        trigger = 1 if prev in g.in_plus(v) else 0
        plan.intervals[v] = (0, top)
        plan.rules[v] = (np.all, trigger, (), (prev,), (), top)
        plan.xi[v] = top if t and plan.xi[prev] == trigger else 0
        plan.depth[v] = t
    plan.representatives.append((tuple(comp), pos[0]))


def _plan_general(g: SignedDigraph, plan: _Plan) -> None:
    """Every vertex the cycle planner left, lone vertices included, in one
    pass over ``g``: representatives of the initial strong components,
    layers by distance from them once the arcs into them are removed, and
    threshold rules.  The distances are taken on ``g`` itself: a shortest
    path from the representatives never enters one of them again, so the
    arcs into them change no distance."""
    todo = [v for v in g.vertices if v not in plan.depth]
    reps = set()
    for comp in component_structure(g).initial_components:
        if comp[0] in plan.depth:
            continue  # a cycle component, planned already
        eligible = _eligible_representatives(g, comp)
        if not eligible:
            raise InternalInvariantError(
                f"no admissible representative in component {comp}"
            )
        rep = min(eligible, key=g.index)
        plan.representatives.append((comp, rep))
        reps.add(rep)

    dist = _multi_source_distance(g, reps)
    isolated = classify_vertices(g)[2]
    for v in todo:
        plan.depth[v] = int(dist[v])
        outs = g.out_neighbors(v)
        parallel = {w for w in outs if v in g.in_plus(w) and v in g.in_minus(w)}
        if parallel & reps:
            plan.intervals[v] = (0, 3)
        elif parallel or outs & reps:
            plan.intervals[v] = (0, 2)
        else:
            plan.intervals[v] = (0, 0 if v in isolated else 1)

    for v in sorted(todo, key=plan.depth.get):
        plus_only = g.in_plus(v) - g.in_minus(v)
        both = g.in_plus(v) & g.in_minus(v)
        minus_only = g.in_minus(v) - g.in_plus(v)
        prev = {j for j in g.in_neighbors(v) if plan.depth[j] == plan.depth[v] - 1}
        if plan.depth[v] == 0:
            plan.xi[v] = 1 if minus_only else 0
            combine, theta = np.any, 2
        else:
            plan.xi[v] = int(
                all(plan.xi[j] == 1 for j in g.in_plus(v) & prev)
                and all(plan.xi[j] == 0 for j in minus_only & prev)
            )
            combine, theta = (np.any if plan.xi[v] else np.all), 1
        plan.rules[v] = (combine, theta, tuple(plus_only), tuple(both), tuple(minus_only), 1)


def construct_nilpotent(g: SignedDigraph) -> tuple[Fds, NilpotencyCertificate]:
    """Build a degree-bounded system on ``g`` that iterates to a constant.

    Every connected component must be nonempty and must not be a signed
    cycle (on a signed cycle every degree-bounded system is a two-valued
    network with zero or two fixed points, so none is nilpotent).  The
    result collapses to the certificate's target within ``lam + beta``
    steps; disconnected graphs are handled per component.
    """
    if g.n == 0:
        raise PreconditionError("cannot synthesize on the empty graph")
    plan = _Plan()
    for comp in g.weak_components():
        if _cycle_order(g, comp) is None:
            continue
        if _is_signed_cycle(g, comp):
            raise PreconditionError(
                f"component {comp} is a signed cycle; no nilpotent degree-bounded "
                "system exists on it"
            )
        _plan_cycle_with_parallels(g, comp, plan)
    _plan_general(g, plan)

    domain = IntervalProduct(tuple(plan.intervals[v] for v in g.vertices))
    grids = domain.coordinate_grids
    tables = np.empty((g.n, domain.size), dtype=np.int64)
    for k, v in enumerate(g.vertices):
        combine, theta, plus_only, both, minus_only, top = plan.rules[v]
        tests = [grids[g.index(j)] >= theta for j in plus_only]
        tests += [grids[g.index(j)] == theta for j in both]
        tests += [grids[g.index(j)] < theta for j in minus_only]
        tables[k] = top * combine(tests, axis=0)
    f = Fds(domain, tables)

    cs = component_structure(g)
    cert = NilpotencyCertificate(
        lam=cs.lam,
        beta=cs.beta,
        representatives=_by_representative(plan.representatives, g),
        layers=tuple(
            tuple(v for v in g.vertices if plan.depth[v] == d)
            for d in range(max(plan.depth.values()) + 1)
        ),
        target=tuple(plan.xi[v] for v in g.vertices),
    )
    _self_check("nilpotent construction", check_nilpotency_certificate(g, f, cert))
    return f, cert


# ---------------------------------------------------------------------------
# arc-by-arc extension
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ExtensionState:
    """Rolling state of :func:`extend_all`: base graph, domain, tables, added arcs, in- and
    out-degrees (in vertex order) and anchor; :attr:`graph` and :attr:`system` are built on read."""

    base: SignedDigraph
    domain: IntervalProduct
    tables: np.ndarray
    added: frozenset[Arc]
    in_degrees: tuple[int, ...]
    out_degrees: tuple[int, ...]
    anchor: tuple[int, ...]

    @classmethod
    def start(cls, graph: SignedDigraph, system: Fds, anchor: Sequence[int]) -> ExtensionState:
        """``system`` on ``graph`` with no arc added; ``graph`` and ``system`` are its own."""
        degrees = [tuple(map(d, graph.vertices)) for d in (graph.in_degree, graph.out_degree)]
        state = cls(graph, system.domain, system.tables, frozenset(), *degrees, tuple(anchor))
        state.__dict__.update(graph=graph, system=system)  # the cached properties
        return state

    @cached_property
    def graph(self) -> SignedDigraph:
        return SignedDigraph(self.base.vertices, self.base.arcs | self.added)

    @cached_property
    def system(self) -> Fds:
        return Fds(self.domain, self.tables)


def _ab_sets(
    base: SignedDigraph, current: SignedDigraph
) -> tuple[frozenset[str], frozenset[str]]:
    """The sources and the sinks of ``base`` that ``current`` gave inputs
    and outputs to."""
    sources_b, sinks_b, _ = classify_vertices(base)
    sources_c, sinks_c, _ = classify_vertices(current)
    return sources_b - sources_c, sinks_b - sinks_c


def check_extension_postconditions(
    state: ExtensionState, base_graph: SignedDigraph, base_system: Fds
) -> list[str]:
    """The four guarantees the extension keeps relative to its base system.

    1. the image of the extended system stays inside the base domain,
    2. componentwise images stay inside the base images except at vertices
       that gained inputs,
    3. the extended system agrees with the base wherever the anchor pins the
       vertices that gained outputs, and
    4. components whose current in-neighbors gained no outputs agree with
       the base on the whole base domain.

    The vertices that gained inputs (outputs) are the sources (sinks) of
    ``base_graph`` that are not sources (sinks) of the state's graph.
    """
    f, h = state.system, base_system
    X, Y = f.domain, h.domain
    F, H = f.tables, h.tables
    a_set, b_set = _ab_sets(base_graph, state.graph)
    verts = base_graph.vertices
    problems: list[str] = []

    y_lows, y_highs, _ = Y.columns
    leaves = (F.min(axis=1) < y_lows[:, 0]) | (F.max(axis=1) > y_highs[:, 0])
    for k in np.flatnonzero(leaves).tolist():
        # A base-isolated vertex that gained inputs holds one transient
        # value outside its single-point base interval; it is only
        # admitted when nothing ever reads it (a sink of the target).
        if verts[k] not in a_set or Y.shape[k] != 1:
            problems.append(f"image of component {k} leaves the base domain")

    # Value sets per row, both offset by the lower of the two domains' lows.
    lows = np.minimum(X.columns[0], y_lows)
    width = int((np.maximum(X.columns[1], y_highs) - lows).max()) + 1
    outside = (value_masks(F - lows, width) > value_masks(H - lows, width)).any(axis=1)
    for k in np.flatnonzero(outside).tolist():
        if verts[k] not in a_set:
            problems.append(f"image of component {k} leaves the base image")

    if not Y.subset_of(X):
        raise PreconditionError("domain is not contained in the target domain")
    deviates = clipped_tables(F, X, Y) != H
    if not Y.contains(state.anchor):
        raise PreconditionError("anchor state outside the base domain")
    # The anchored states: Y with each vertex that gained outputs pinned at the anchor.
    pinned = [(a, a) if v in b_set else iv for v, a, iv in zip(verts, state.anchor, Y.intervals)]
    first = np.flatnonzero(clipped_tables(deviates, Y, IntervalProduct(tuple(pinned))).any(axis=1))
    if first.size:
        problems.append(
            f"component {first[0]} deviates from the base on anchored states"
        )

    for k in np.flatnonzero(deviates.any(axis=1)).tolist():
        if not state.graph.in_neighbors(verts[k]) & b_set:
            problems.append(
                f"component {k} depends on no new output yet deviates on the base domain"
            )
    return problems


def _growth_direction(
    state: ExtensionState,
    j: str,
    upcoming: Sequence[Arc],
    preference: int | None,
) -> int:
    """The preferred growth of the tail interval: +1 upward, -1 downward.

    While ``j`` is still a source (of in-degree 0 in ``state``) its update stays
    constant, and the first future arc into ``j`` would rather find that constant
    at one end of the interval: the top for a negative arc, the bottom for a positive one.
    Without a future arc into ``j`` the caller's preference (or upward)
    wins.  The result is a preference: :func:`extend_by_arc` takes its own
    direction instead when the head of the arc is a source whose constant
    cannot step the preferred way.
    """
    if state.in_degrees[state.base.index(j)] == 0:
        for src, dst, sign in upcoming:
            if dst == j:
                return -1 if sign == NEGATIVE else 1
    return preference if preference is not None else 1


def _extended_tables(
    dom: IntervalProduct,
    tables: np.ndarray,
    axis: int,
    direction: int,
    grow: bool = True,
    head: int | None = None,
    value: int = 0,
) -> tuple[IntervalProduct, np.ndarray]:
    """``tables`` on ``dom`` with the plane at the ``direction`` end of
    ``axis`` repeated outward by :func:`clipped_tables` (when ``grow``), and
    component ``head`` (if any) set to ``value`` on that end plane."""
    if grow:
        lo, hi = dom.intervals[axis]
        intervals = list(dom.intervals)
        intervals[axis] = (lo, hi + 1) if direction > 0 else (lo - 1, hi)
        grown = IntervalProduct(tuple(intervals))
        dom, tables = grown, clipped_tables(tables, dom, grown)
    else:
        tables = tables.copy()
    if head is not None:
        cube = tables.reshape((len(tables),) + dom.shape)
        cube[(head,) + (slice(None),) * axis + (-1 if direction > 0 else 0,)] = value
    return dom, tables


def extend_by_arc(
    state: ExtensionState,
    arc: Arc,
    base_system: Fds,
    upcoming: Sequence[Arc] = (),
) -> ExtensionState:
    """Extend the current system by exactly one arc.

    The tail's interval grows by one plane (a sink tail of width 2 already
    has its second plane), and on that plane the head takes the top of its
    range when the sign of the arc agrees with the side of the plane (``+``
    on the top plane, ``-`` on the bottom one), and the bottom otherwise.
    The head's range is the extremes of its image when it varies, its base
    interval when it is a source, and the two neighbours of its one value
    when it is isolated: such a head must stay a sink of the final graph,
    its interval grows toward the value it steps to, and since nothing
    reads it the transient value is harmless.

    ``upcoming`` lists the arcs that will be added later, which steers the
    direction in which tail intervals grow; where the head is a source
    whose constant cannot step the way ``upcoming`` asks for, the tail
    grows the way it can.  The step builds no graph and no system:
    :func:`extend_all` checks its last state's system.  Raises
    :class:`InternalInvariantError` when no sound treatment of the arc
    exists.
    """
    j, i, sign = arc
    dom, tables = state.domain, state.tables
    if arc in state.base.arcs or arc in state.added:
        raise PreconditionError(f"arc {arc} already present")
    ji, ii = state.base.index(j), state.base.index(i)
    j_sink, width = state.out_degrees[ji] == 0, dom.shape[ji]
    grow = True
    if state.in_degrees[ii] > 0:
        # The head already varies: its range is the extremes of its image.
        low, high = int(tables[ii].min()), int(tables[ii].max())
        if low == high:
            raise InternalInvariantError(f"vertex {i} has inputs but a constant update")
        if j_sink and width > 2:
            raise InternalInvariantError(f"sink {j} carries an interval of size {width}")
        if j_sink and width == 2:
            # The sink's second plane is already there: the head steps on the
            # plane away from the anchor.
            grow = False
            direction = 1 if state.anchor[ji] == dom.intervals[ji][0] else -1
        else:
            direction = _growth_direction(state, j, upcoming, None)
    elif state.out_degrees[ii] > 0:
        if j_sink:
            raise InternalInvariantError(
                f"arc {arc} runs from a current sink to a current source"
            )
        # The head is a source: its update is a constant of the base domain,
        # and its range is the base interval, which its new step stays in.
        c = int(tables[ii, 0])
        if (tables[ii] != c).any():
            raise InternalInvariantError(f"source {i} has a non-constant update")
        low, high = base_system.domain.intervals[ii]
        up_ok = (c < high) if sign == POSITIVE else (c > low)
        down_ok = (c > low) if sign == POSITIVE else (c < high)
        preference = 1 if up_ok else (-1 if down_ok else None)
        if preference is None:
            raise InternalInvariantError(
                f"cannot realize arc {arc}: constant of {i} at an interval end "
                "with no admissible step"
            )
        # A loop makes its own head a non-source, so pending arcs into the
        # tail stop constraining the direction; where the head's constant
        # cannot step the way they ask, the later arcs into the tail are
        # realized from the other end of its interval.
        direction = (
            preference if j == i else _growth_direction(state, j, upcoming, preference)
        )
        if not (up_ok if direction > 0 else down_ok):
            direction = preference
    else:
        # The head is isolated: it steps to a neighbour of its one value.
        if j_sink:
            raise InternalInvariantError(
                f"arc {arc} runs from a current sink to an isolated vertex"
            )
        if any(a[0] == i for a in upcoming):
            raise InternalInvariantError(
                f"arc {arc} enters an isolated vertex that later gains out-arcs"
            )
        if dom.shape[ii] != 1:
            raise InternalInvariantError(
                f"isolated vertex {i} carries an interval of size {dom.shape[ii]}"
            )
        low, high = dom.intervals[ii][0] - 1, dom.intervals[ii][1] + 1
        direction = _growth_direction(state, j, upcoming, None)

    value = high if (sign == POSITIVE) == (direction > 0) else low
    lo, hi = dom.intervals[ii]
    if not lo <= value <= hi:
        # Only an isolated head steps outside its interval.  Nothing reads it
        # yet, so every table, its own included, is duplicated along it.
        dom, tables = _extended_tables(dom, tables, ii, value - lo)
    dom, tables = _extended_tables(dom, tables, ji, direction, grow, ii, value)
    added, ins, outs = state.added | {arc}, list(state.in_degrees), list(state.out_degrees)
    ins[ii], outs[ji] = ins[ii] + 1, outs[ji] + 1
    return ExtensionState(state.base, dom, tables, added, tuple(ins), tuple(outs), state.anchor)


def extend_all(
    target: SignedDigraph,
    base_graph: SignedDigraph,
    base_system: Fds,
    anchor: Sequence[int] | None = None,
    order: Sequence[Arc] | None = None,
    future_arcs: Sequence[Arc] = (),
) -> Fds:
    """Fold :func:`extend_by_arc` over all arcs of ``target`` missing from the base.

    Requires a degree-bounded base system whose interaction graph is
    exactly ``base_graph`` (checked on entry by :func:`_structure_problems`),
    and the two structural hypotheses of the extension: no target arc from
    a sink of the base to a source of the base, and no target arc into a
    vertex isolated in the base.  Arcs are added in
    (source index, target index, ``+`` before ``-``) order unless an
    explicit order is supplied; ``future_arcs`` are arcs that later
    invocations will add, used only to steer interval growth.  The result is
    the last state's system, the one :class:`Fds` the fold builds; when it adds
    an arc it is checked once, by :func:`_structure_problems` against ``target``
    and the four guarantees of :func:`check_extension_postconditions`; a failure
    raises :class:`InternalInvariantError` naming every problem.
    """
    if not base_graph.is_spanning_subgraph_of(target):
        raise PreconditionError("base graph is not a spanning subgraph of the target")
    problems = _structure_problems(base_system, base_graph)
    if problems:
        raise PreconditionError(
            "base system's structure does not fit the base graph: " + "; ".join(problems)
        )
    sources_b, sinks_b, isolated_b = classify_vertices(base_graph)
    missing = [a for a in target.sorted_arcs() if a not in base_graph.arcs]
    for src, dst, _ in missing:
        if src in sinks_b and dst in sources_b:
            raise PreconditionError(
                f"target arc ({src},{dst}) runs from a base sink to a base source"
            )
        if dst in isolated_b and target.out_degree(dst) > 0:
            # Arcs into a base-isolated vertex are supported only when the
            # vertex stays a sink of the target graph.
            raise PreconditionError(
                f"target arc ({src},{dst}) enters a base-isolated non-sink vertex"
            )

    if anchor is None:
        anchor = tuple(lo for lo, _ in base_system.domain.intervals)
    anchor = tuple(int(x) for x in anchor)
    if not base_system.domain.contains(anchor):
        raise PreconditionError("anchor state outside the base domain")

    seq = missing if order is None else list(order)
    if sorted(seq) != sorted(missing):
        raise PreconditionError("order must list each missing arc exactly once")

    state = ExtensionState.start(base_graph, base_system, anchor)
    pending = list(seq) + list(future_arcs)
    for pos, arc in enumerate(seq):
        state = extend_by_arc(state, arc, base_system, upcoming=pending[pos + 1 :])
    if seq:
        problems = _structure_problems(state.system, target)
        problems += check_extension_postconditions(state, base_graph, base_system)
        _self_check("extension", problems)
    return state.system


# ---------------------------------------------------------------------------
# convergence toward a subsystem
# ---------------------------------------------------------------------------


def _component_qualifies(g: SignedDigraph, iso: set[str], comp: Sequence[str]) -> bool:
    """One of: not strongly connected, has an arc leaving the isolated set,
    or receives no arc from outside the isolated set."""
    strongly_connected = len(_strong_components(g, comp)) == 1
    leaving = any(g.out_neighbors(v) - iso for v in comp)
    entering = any(g.in_neighbors(v) - iso for v in comp)
    return (not strongly_connected) or leaving or (not entering)


@dataclass(frozen=True)
class ConvergencePlan:
    """How :func:`construct_converging` builds its system, decided up front.

    ``isolated`` lists the vertices isolated in the subgraph but not in the
    graph, and ``block_graph`` keeps, on all the graph's vertices, the arcs
    leaving isolated vertices from which no arc leaves the isolated set.
    Property P holds when every component of the induced isolated subgraph
    is not strongly connected, has an arc leaving the isolated set, or
    receives none from outside.

    ``closed`` names the vertices (no arc leaves them) whose entering arcs
    are peeled off for a recursive pass and reattached through a clamped
    nilpotent block: the components failing property P, or else the block
    components that are signed cycles, or else the closed block components
    whose sources need both orientations.  When ``closed`` is empty the
    direct path runs: a nilpotent system on ``block_graph``, mirrored on the
    block components in ``mirrored``, is glued onto the subsystem at the
    isolated vertices (when ``block_graph`` has arcs; without one the glue
    is the subsystem itself) and extended twice.  An open block component whose sources need both
    orientations is neither mirrored nor closed; the extension realizes its
    arcs from whichever end each source's constant can step.
    """

    isolated: tuple[str, ...]
    closed: tuple[str, ...]
    block_graph: SignedDigraph
    mirrored: tuple[str, ...]


def convergence_plan(g: SignedDigraph, sub: SignedDigraph) -> ConvergencePlan:
    iso_set = classify_vertices(sub)[2] - classify_vertices(g)[2]
    iso = [v for v in g.vertices if v in iso_set]
    closed: set[str] = set()
    for c in _weak_components(g, iso):
        if not _component_qualifies(g, iso_set, c):
            closed.update(c)
    no_leaving = {u for u in iso if g.out_neighbors(u) <= iso_set}
    block_arcs = (a for a in g.arcs if a[0] in no_leaving and a[1] in iso_set)
    block_graph = SignedDigraph(g.vertices, frozenset(block_arcs))
    if not closed:  # property P holds
        # Components that keep only their internal no-leaving arcs may still
        # collapse to signed cycles (e.g. a loop fed from a leaving-arc
        # vertex); those closed cycles are peeled off like the strongly
        # connected blocks.  Vertices outside the isolated set are lone here.
        for comp in block_graph.weak_components():
            if comp[0] in iso_set and _is_signed_cycle(block_graph, comp):
                closed.update(comp)
    mirrored: list[str] = []
    if not closed:
        # Mirror whole block components whose constant-update vertices must
        # keep their constant at the top of the interval (first arc into
        # them negative).  Two sources of one component may need opposite
        # orientations; when no arc leaves the component it is peeled off
        # and reattached by clamping instead, which is orientation-free, and
        # otherwise it stays as it is.
        added = [a for a in g.arcs if a[1] in iso_set and a not in block_graph.arcs]
        for comp in block_graph.weak_components():
            signs = [
                {a[2] for a in added if a[1] == u}
                for u in comp
                if block_graph.in_degree(u) == 0
            ]
            if {NEGATIVE} not in signs:
                continue
            if {POSITIVE} not in signs:
                mirrored.extend(comp)
            elif all(g.out_neighbors(u) <= set(comp) for u in comp):
                closed.update(comp)
    return ConvergencePlan(
        isolated=tuple(iso),
        closed=tuple(sorted(closed, key=g.index)),
        block_graph=block_graph,
        mirrored=tuple(sorted(mirrored, key=g.index)),
    )


def _inward_arc_order(
    g: SignedDigraph,
    arcs: frozenset[Arc],
    mirrored: set[str],
    iso: Sequence[str],
) -> list[Arc]:
    """Deterministic order for the arcs entering the isolated set.

    A vertex's incoming arcs come before its outgoing ones whenever the
    added arcs allow it (the constant-update position of a still-source tail
    is consumed by its first incoming arc, after which its interval may grow
    freely), and each head sees its orientation-compatible sign first.
    Cyclic added-arc structures fall back to index order inside a group.
    """
    heads = sorted({a[1] for a in arcs}, key=g.index)
    iso_set = set(iso)
    internal = SignedDigraph.from_arcs(
        {a for a in arcs if a[0] in iso_set and a[1] in iso_set},
        vertices=heads + [v for v in iso if v not in heads],
    )
    sccs = _strong_components(internal, internal.vertices)
    member = {v: k for k, c in enumerate(sccs) for v in c}
    preds: dict[int, set[int]] = {k: set() for k in range(len(sccs))}
    for s, t, _ in internal.arcs:
        if member[s] != member[t]:
            preds[member[t]].add(member[s])
    # Rank the components of the condensation: each time, the least one
    # whose predecessors are all ranked.
    rank: dict[int, int] = {}
    while len(rank) < len(sccs):
        rank[min(k for k in preds if k not in rank and preds[k] <= rank.keys())] = len(rank)

    def key(a: Arc):
        preferred = NEGATIVE if a[1] in mirrored else POSITIVE
        # Inside a cyclic group, a head kept at its interval top (negative
        # orientation) must receive its arc while the tail still grows
        # upward, so such heads go first.
        return (
            rank[member[a[1]]],
            a[1] not in mirrored,
            g.index(a[1]),
            a[2] != preferred,
            g.index(a[0]),
        )

    return sorted(arcs, key=key)


def _placed_block(
    q: SignedDigraph, xi: Sequence[int], mirrored: Sequence[str] = ()
) -> Fds:
    """The nilpotent system on ``q``, mirrored on the vertices ``mirrored``
    (whole weak components, so every arc keeps its sign) and translated so
    that its target is ``xi``."""
    block, cert = construct_nilpotent(q)
    flip = [q.index(v) for v in mirrored]
    target = [
        lo + hi - t if i in flip else t
        for i, (t, (lo, hi)) in enumerate(zip(cert.target, block.domain.intervals))
    ]
    return block.mirror(flip).translate([x - t for x, t in zip(xi, target)])


def _glue(base: Fds, block: Fds, rows: Sequence[int]) -> Fds:
    """The system on the per-axis hull of the two domains whose components
    ``rows`` are those of ``block`` and whose others are those of ``base``;
    each part reads every state clipped onto its own domain."""
    dom = IntervalProduct(tuple(
        (min(lo, blo), max(hi, bhi))
        for (lo, hi), (blo, bhi) in zip(base.domain.intervals, block.domain.intervals)
    ))
    take = np.isin(np.arange(dom.n), rows)[:, None]
    parts = [clipped_tables(f.tables, f.domain, dom) for f in (block, base)]
    return Fds(dom, np.where(take, *parts))


def _pipeline_direct(
    g: SignedDigraph, sub: SignedDigraph, h: Fds, plan: ConvergencePlan
) -> Fds:
    """Nothing to peel: glue the oriented nilpotent block onto ``h`` at the
    isolated vertices and extend."""
    iso_set = set(plan.isolated)
    padded = g.spanning(sub.arcs | plan.block_graph.arcs)
    outward = g.spanning(padded.arcs | {a for a in g.arcs if a[1] not in iso_set})
    # h is degree-bounded on the subgraph, so its isolated vertices have
    # one-value intervals; the block's target sits on them, and h reads
    # each of them at that value.  Without a block arc the glue is h
    # itself, so no block is built: each isolated vertex is then a lone
    # block vertex whose rule is the constant 0 on (0, 0), mirroring a
    # one-point interval is the identity, and the translate moves it to the
    # one value of h's interval there, which h takes everywhere.
    tilde_h = h
    if plan.block_graph.arcs:
        block = _placed_block(plan.block_graph, h.domain.lows, plan.mirrored)
        tilde_h = _glue(h, block, [g.index(v) for v in plan.isolated])
        _self_check("glued block", _structure_problems(tilde_h, padded))
    remaining = _inward_arc_order(
        g, g.arcs - outward.arcs, set(plan.mirrored), plan.isolated
    )
    middle = extend_all(
        outward, padded, tilde_h, anchor=h.domain.lows, future_arcs=remaining
    )
    return extend_all(g, outward, middle, order=remaining)


def _pipeline_split(
    g: SignedDigraph, sub: SignedDigraph, h: Fds, closed: Sequence[str]
) -> Fds:
    """Part of the isolated set is closed (no arc leaves it): peel its
    entering arcs off, recurse, then glue a nilpotent block over it, its
    target at the top of the inner system's domain."""
    closed_set = set(closed)
    q = g.spanning(a for a in g.arcs if a[1] in closed_set)
    inner, _ = construct_converging(g.without_arcs(q.arcs), sub, h)
    block = _placed_block(q, [hi for _, hi in inner.domain.intervals])
    return _glue(inner, block, [g.index(v) for v in closed])


def construct_converging(
    g: SignedDigraph, subgraph: SignedDigraph, h: Fds
) -> tuple[Fds, ConvergenceWitness]:
    """Build a degree-bounded system on ``g`` converging toward ``h``.

    ``subgraph`` must be a spanning subgraph of ``g`` and ``h`` a
    degree-bounded system whose interaction graph is exactly ``subgraph``.
    Writing I for the vertices isolated in the subgraph but not in ``g``,
    the preconditions are: every source (sink) of the subgraph outside I is
    a source (sink) of ``g``, and no connected component of ``g`` is a
    signed cycle contained in I.  The result converges toward ``h`` in at
    most ``len(I) + 1`` steps, and the returned witness records the
    verification.  A result that fails that verification, or whose
    interaction graph or degree bounds are wrong, raises
    :class:`InternalInvariantError` naming every failed check.
    """
    if not subgraph.is_spanning_subgraph_of(g):
        raise PreconditionError("subgraph is not a spanning subgraph of the graph")
    if h.n != g.n:
        raise PreconditionError("subsystem arity differs from the graph order")
    problems = _structure_problems(h, subgraph)
    if problems:
        raise PreconditionError("subsystem does not fit the subgraph: " + "; ".join(problems))
    plan = convergence_plan(g, subgraph)
    iso = plan.isolated

    for v in (v for v in subgraph.vertices if v not in iso):  # I has no arc in the subgraph
        if subgraph.in_degree(v) == 0 and g.in_degree(v) > 0:
            raise PreconditionError(
                f"vertex {v} is a source of the subgraph but not of the graph"
            )
        if subgraph.out_degree(v) == 0 and g.out_degree(v) > 0:
            raise PreconditionError(
                f"vertex {v} is a sink of the subgraph but not of the graph"
            )
    for comp in g.weak_components():
        if set(comp) <= set(iso) and _is_signed_cycle(g, comp):
            raise PreconditionError(
                f"component {comp} is a signed cycle inside the isolated set"
            )

    if plan.closed:
        f = _pipeline_split(g, subgraph, h, plan.closed)
    elif iso:
        f = _pipeline_direct(g, subgraph, h, plan)
    else:
        f = extend_all(g, subgraph, h)

    witness = converges_toward(f, h, len(iso) + 1)
    _self_check("converging construction", _structure_problems(f, g) + witness.failures())
    return f, witness


# ---------------------------------------------------------------------------
# fixed-point count realizations
# ---------------------------------------------------------------------------


def cycle_subsystem(
    g: SignedDigraph, cycles: Sequence[SignedCycle]
) -> tuple[SignedDigraph, Fds]:
    """Spanning subgraph keeping only the given disjoint cycles, plus the
    unique degree-bounded system on it (single-value intervals elsewhere)."""
    used: set[str] = set()
    arcs: set[Arc] = set()
    for c in cycles:
        if used & c.vertex_set():
            raise PreconditionError("cycles are not vertex-disjoint")
        used |= c.vertex_set()
        arcs |= set(c.arcs())
    sub = g.spanning(arcs)

    dom = IntervalProduct(tuple((0, 1) if v in used else (0, 0) for v in g.vertices))
    grids = dom.coordinate_grids
    tables = np.zeros((g.n, dom.size), dtype=np.int64)
    for c in cycles:
        for src, dst, sign in c.arcs():
            x = grids[g.index(src)]
            tables[g.index(dst)] = x if sign == POSITIVE else 1 - x
    return sub, Fds(dom, tables)


def _fixed_point_system(g: SignedDigraph, cycles: Sequence[SignedCycle], wanted: int) -> Fds:
    """A system on ``g`` converging toward the cycle subsystem of ``cycles``,
    checked to have ``wanted`` fixed points.  When ``g`` is exactly the
    cycles the cycle subsystem is the result, and its structure is checked
    here; otherwise :func:`construct_converging` has checked it."""
    sub, h = cycle_subsystem(g, cycles)
    if sub.arcs != g.arcs:
        f, problems = construct_converging(g, sub, h)[0], []
    else:
        f, problems = h, _structure_problems(h, g)
    count = len(f.fixed_points())
    if count != wanted:
        problems.append(f"{count} fixed points, wanted {wanted}")
    _self_check("fixed-point construction", problems)
    return f


def construct_no_fixed_point(g: SignedDigraph) -> Fds:
    """A degree-bounded system on a connected graph with a negative cycle
    that has no fixed point."""
    if g.n == 0 or len(g.weak_components()) != 1:
        raise PreconditionError("graph must be nonempty and connected")
    cycles = _capped(_signed_cycles(g), DEFAULT_CYCLE_CAP)
    negative = next((c for c in cycles if c.sign == NEGATIVE), None)
    if negative is None:
        raise PreconditionError("graph has no negative cycle")
    return _fixed_point_system(g, [negative], 0)


def construct_2k_fixed_points(g: SignedDigraph, k: int) -> Fds:
    """A degree-bounded system on a connected graph with ``k`` disjoint
    positive cycles that has exactly ``2**k`` fixed points."""
    if g.n == 0 or len(g.weak_components()) != 1:
        raise PreconditionError("graph must be nonempty and connected")
    cycles = find_disjoint_positive_cycles(g, k)
    if cycles is None:
        raise PreconditionError(f"graph has no {k} vertex-disjoint positive cycles")
    return _fixed_point_system(g, cycles, 2**k)


# ---------------------------------------------------------------------------
# certificate files
# ---------------------------------------------------------------------------


def save_certificate(cert: NilpotencyCertificate, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(cert.to_dict()) + "\n")


def load_certificate(path: str, graph: SignedDigraph) -> NilpotencyCertificate:
    return certificate_from_dict(_read_json(path)[1], graph)
