"""Signed directed graphs and their structural analysis.

A signed digraph has a finite ordered vertex set and a set of arcs
``(source, target, sign)`` with sign ``+`` or ``-``.  The same ordered pair
may carry both signs ("parallel arcs") but never the same sign twice.
Vertex identifiers are opaque strings; every deterministic tie-break in this
package uses the position of the vertex in the graph's vertex tuple
(first-seen order), never the lexicographic order of the names.

All types are immutable values and all operations are pure functions, so
everything here is safe to share between threads.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import count, product
from typing import Iterable, Iterator, NamedTuple, Sequence

POSITIVE = "+"
NEGATIVE = "-"
SIGNS = (POSITIVE, NEGATIVE)

#: An arc is (source vertex, target vertex, sign).
Arc = tuple[str, str, str]

DEFAULT_CYCLE_CAP = 10**6


class SdgError(Exception):
    """Base class for all errors raised by this package."""


class SdgParseError(SdgError):
    """Malformed graph or system file."""


class PreconditionError(SdgError):
    """A documented precondition of an operation does not hold."""


class ResourceCapError(SdgError):
    """A configurable resource cap was exceeded."""


class InternalInvariantError(SdgError):
    """A construction reached a state its invariants forbid.

    Raised instead of silently patching over the problem; seeing this error
    means either the input violated an unchecked assumption or there is a
    bug worth reporting.
    """


class _Adjacency(NamedTuple):
    """Everything one vertex's arcs say about it; degrees count parallel
    arcs twice."""

    in_plus: frozenset[str]
    in_minus: frozenset[str]
    in_neighbors: frozenset[str]
    out_neighbors: frozenset[str]
    in_degree: int
    out_degree: int


@dataclass(frozen=True)
class SignedDigraph:
    """Immutable signed digraph with ordered vertices.

    Build instances with :meth:`from_arcs` (which fixes the vertex order as
    first seen) or pass an explicit vertex tuple and arc frozenset.
    """

    vertices: tuple[str, ...]
    arcs: frozenset[Arc]

    def __post_init__(self) -> None:
        seen = set(self.vertices)
        if len(seen) != len(self.vertices):
            raise SdgParseError("duplicate vertex identifier")
        for src, dst, sign in self.arcs:
            if sign not in SIGNS:
                raise SdgParseError(f"invalid arc sign {sign!r}, expected '+' or '-'")
            if src not in seen or dst not in seen:
                raise SdgParseError(f"arc ({src},{dst},{sign}) references unknown vertex")

    @classmethod
    def from_arcs(
        cls, arcs: Iterable[Arc] = (), vertices: Iterable[str] = ()
    ) -> "SignedDigraph":
        """Build a graph; vertex order is declaration order then first use in arcs."""
        order = dict.fromkeys(vertices)  # a set that keeps first-seen order
        arc_set: set[Arc] = set()
        for src, dst, sign in arcs:
            arc = (str(src), str(dst), sign)
            if arc in arc_set:
                raise SdgParseError(f"duplicate arc ({src},{dst},{sign})")
            arc_set.add(arc)
            order.setdefault(arc[0])
            order.setdefault(arc[1])
        return cls(tuple(order), frozenset(arc_set))

    # -- basic accessors ---------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.vertices)

    @cached_property
    def _index(self) -> dict[str, int]:
        return {v: k for k, v in enumerate(self.vertices)}

    def index(self, v: str) -> int:
        try:
            return self._index[v]
        except KeyError:
            raise PreconditionError(f"unknown vertex {v!r}") from None

    @cached_property
    def _adjacency(self) -> dict[str, _Adjacency]:
        """The adjacency of every vertex, from one pass over the arcs."""
        plus: dict[str, set[str]] = {v: set() for v in self.vertices}
        minus: dict[str, set[str]] = {v: set() for v in self.vertices}
        out: dict[str, set[str]] = {v: set() for v in self.vertices}
        out_degree = dict.fromkeys(self.vertices, 0)
        for src, dst, sign in self.arcs:
            (plus if sign == POSITIVE else minus)[dst].add(src)
            out[src].add(dst)
            out_degree[src] += 1
        return {
            v: _Adjacency(
                frozenset(plus[v]),
                frozenset(minus[v]),
                frozenset(plus[v] | minus[v]),
                frozenset(out[v]),
                len(plus[v]) + len(minus[v]),
                out_degree[v],
            )
            for v in self.vertices
        }

    def _with_arc(self, arc: Arc) -> "SignedDigraph":
        """This graph plus ``arc``, which it lacks: the vertex index is shared
        and the adjacency is a copy of this graph's with the entries of the
        arc's two ends replaced, so no arc is indexed again."""
        if arc in self.arcs:
            raise PreconditionError(f"arc {arc} already present")
        src, dst, sign = arc
        g = SignedDigraph(self.vertices, self.arcs | {arc})
        adj = dict(self._adjacency)
        a = adj[src]
        adj[src] = a._replace(out_neighbors=a.out_neighbors | {dst}, out_degree=a.out_degree + 1)
        b = adj[dst]  # for a loop, the tail's entry just replaced
        adj[dst] = b._replace(
            in_plus=b.in_plus | {src} if sign == POSITIVE else b.in_plus,
            in_minus=b.in_minus | {src} if sign == NEGATIVE else b.in_minus,
            in_neighbors=b.in_neighbors | {src},
            in_degree=b.in_degree + 1,
        )
        g.__dict__["_index"] = self._index
        g.__dict__["_adjacency"] = adj
        return g

    def _adj(self, v: str) -> _Adjacency:
        try:
            return self._adjacency[v]
        except KeyError:
            raise PreconditionError(f"unknown vertex {v!r}") from None

    def in_plus(self, v: str) -> frozenset[str]:
        """Vertices with a positive arc into ``v``."""
        return self._adj(v).in_plus

    def in_minus(self, v: str) -> frozenset[str]:
        """Vertices with a negative arc into ``v``."""
        return self._adj(v).in_minus

    def in_neighbors(self, v: str) -> frozenset[str]:
        return self._adj(v).in_neighbors

    def out_neighbors(self, v: str) -> frozenset[str]:
        return self._adj(v).out_neighbors

    def in_degree(self, v: str) -> int:
        """Number of arcs entering ``v``; parallel arcs count twice."""
        return self._adj(v).in_degree

    def out_degree(self, v: str) -> int:
        """Number of arcs leaving ``v``; parallel arcs count twice."""
        return self._adj(v).out_degree

    def sorted_arcs(self) -> list[Arc]:
        """Arcs in (source index, target index, '+' before '-') order."""
        idx = self._index
        return sorted(self.arcs, key=lambda a: (idx[a[0]], idx[a[1]], a[2] != POSITIVE))

    # -- derived graphs ----------------------------------------------------

    @cached_property
    def _under_succ(self) -> dict[str, tuple[str, ...]]:
        """Out-neighbours of every vertex in vertex order."""
        return {
            v: tuple(sorted(a.out_neighbors, key=self._index.__getitem__))
            for v, a in self._adjacency.items()
        }

    def without_arcs(self, arcs: Iterable[Arc]) -> "SignedDigraph":
        """Spanning subgraph with the given arcs removed."""
        drop = set(arcs)
        unknown = drop - self.arcs
        if unknown:
            raise PreconditionError(f"arcs not present: {sorted(unknown)}")
        return SignedDigraph(self.vertices, self.arcs - drop)

    def spanning(self, arcs: Iterable[Arc]) -> "SignedDigraph":
        """Spanning subgraph keeping exactly the given arcs."""
        keep = frozenset(arcs)
        unknown = keep - self.arcs
        if unknown:
            raise PreconditionError(f"arcs not present: {sorted(unknown)}")
        return SignedDigraph(self.vertices, keep)

    def is_spanning_subgraph_of(self, other: "SignedDigraph") -> bool:
        return self.vertices == other.vertices and self.arcs <= other.arcs

    def weak_components(self) -> tuple[tuple[str, ...], ...]:
        """Connected components of the underlying undirected graph, ordered."""
        return self._weak

    # Derived structure, computed once per graph (graphs are immutable).

    @cached_property
    def _weak(self) -> tuple[tuple[str, ...], ...]:
        return _weak_components(self, self.vertices)

    @cached_property
    def _classes(self) -> tuple[frozenset[str], frozenset[str], frozenset[str]]:
        sources = frozenset(v for v, a in self._adjacency.items() if a.in_degree == 0)
        sinks = frozenset(v for v, a in self._adjacency.items() if a.out_degree == 0)
        return sources, sinks, sources & sinks

    @cached_property
    def _structure(self) -> "ComponentStructure":
        return _component_structure(self)


# ---------------------------------------------------------------------------
# strong components, lambda, beta
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ComponentStructure:
    """Strong components plus the quantities driving the nilpotent synthesis.

    ``lam`` is the largest, over all vertices i, of the least value of
    (distance from an initial component I to i) + |I|.  ``beta`` is 0 when
    every initial strong component is a single loop-free vertex and 1
    otherwise.
    """

    strong_components: tuple[tuple[str, ...], ...]
    initial_components: tuple[tuple[str, ...], ...]
    is_basic: bool
    beta: int
    lam: int


def _weak_components(g: SignedDigraph, vertices: Iterable[str]) -> tuple[tuple[str, ...], ...]:
    """Weak components of the subgraph on ``vertices``, asked of ``g`` itself:
    a breadth-first search over the arcs with both ends in ``vertices``
    from each vertex not yet reached, in vertex order.  Each component is in
    vertex order, components by first vertex."""
    inside, order = set(vertices), g._index.__getitem__
    seen, comps = set(), []
    for root in sorted(inside, key=order):
        if root not in seen:
            seen.add(root)
            comp = [root]
            for v in comp:  # the list grows while it is read
                a = g._adjacency[v]
                new = ((a.out_neighbors | a.in_neighbors) & inside) - seen
                seen |= new
                comp += new
            comps.append(tuple(sorted(comp, key=order)))
    return tuple(comps)


def _strong_components(g: SignedDigraph, vertices: Iterable[str]) -> list[tuple[str, ...]]:
    """Strong components of the subgraph on ``vertices``, asked of ``g``
    itself, each in vertex order, ordered by first vertex (``[]`` for no
    vertices).  Kosaraju over the arcs with both ends in ``vertices``: a
    depth-first pass over the out-neighbours gives the finishing order, then
    a search over the in-neighbours from each vertex not yet placed, latest
    finished first, collects its component."""
    inside, order = set(vertices), g._index.__getitem__
    succ, seen, finished = g._under_succ, set(), []
    for root in sorted(inside, key=order):
        if root in seen:
            continue
        seen.add(root)
        stack = [(root, iter(succ[root]))]
        while stack:
            v, rest = stack[-1]
            for w in rest:
                if w in inside and w not in seen:
                    seen.add(w)
                    stack.append((w, iter(succ[w])))
                    break
            else:
                stack.pop()
                finished.append(v)
    placed, sccs = set(), []
    for root in reversed(finished):
        if root not in placed:
            placed.add(root)
            sccs.append([root])
            for v in sccs[-1]:  # the list grows while it is read
                new = (g._adjacency[v].in_neighbors & inside) - placed
                placed |= new
                sccs[-1] += new
    comps = [tuple(sorted(c, key=order)) for c in sccs]
    return sorted(comps, key=lambda c: order(c[0]))


def component_structure(g: SignedDigraph) -> ComponentStructure:
    """Strong components, which are initial, whether basic, beta and lambda."""
    if g.n == 0:
        raise PreconditionError("component structure of the empty graph is undefined")
    return g._structure


def _component_structure(g: SignedDigraph) -> ComponentStructure:
    sccs = _strong_components(g, g.vertices)
    initial = [c for c in sccs if all(g.in_neighbors(v) <= set(c) for v in c)]
    basic = all(len(c) == 1 and c[0] not in g.out_neighbors(c[0]) for c in initial)

    dists = [(_multi_source_distance(g, comp), len(comp)) for comp in initial]
    lam = max(min(dist[v] + size for dist, size in dists) for v in g.vertices)
    if math.isinf(lam):
        raise InternalInvariantError("vertex unreachable from every initial component")

    return ComponentStructure(
        strong_components=tuple(sccs),
        initial_components=tuple(initial),
        is_basic=basic,
        beta=0 if basic else 1,
        lam=int(lam),
    )


def _multi_source_distance(g: SignedDigraph, sources: Iterable[str]) -> dict[str, float]:
    dist: dict[str, float] = {v: math.inf for v in g.vertices}
    queue: deque[str] = deque()
    for v in sources:
        g.index(v)
        if dist[v] != 0:
            dist[v] = 0
            queue.append(v)
    while queue:
        v = queue.popleft()
        for w in g._under_succ[v]:
            if math.isinf(dist[w]):
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def distance(g: SignedDigraph, sources: Iterable[str], target: str) -> float:
    """Fewest arcs on a path from any vertex of ``sources`` to ``target``.

    Returns 0 when the target belongs to the source set and ``math.inf``
    when it is unreachable.
    """
    g.index(target)
    return _multi_source_distance(g, sources)[target]


def classify_vertices(
    g: SignedDigraph,
) -> tuple[frozenset[str], frozenset[str], frozenset[str]]:
    """Return (sources, sinks, isolated): in-degree 0 / out-degree 0 / both."""
    return g._classes


# ---------------------------------------------------------------------------
# cycles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SignedCycle:
    """A simple directed cycle with one chosen sign per step.

    ``vertices[k] -> vertices[k+1]`` carries ``signs[k]``; the final sign
    closes the cycle back to ``vertices[0]``.  The rotation starts at the
    vertex with the smallest index, which makes descriptors canonical.
    """

    vertices: tuple[str, ...]
    signs: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.vertices) != len(self.signs) or not self.vertices:
            raise PreconditionError("cycle needs one sign per step")
        if len(set(self.vertices)) != len(self.vertices):
            raise PreconditionError("cycle repeats a vertex")

    @property
    def sign(self) -> str:
        neg = sum(1 for s in self.signs if s == NEGATIVE)
        return POSITIVE if neg % 2 == 0 else NEGATIVE

    def arcs(self) -> tuple[Arc, ...]:
        m = len(self.vertices)
        return tuple(
            (self.vertices[k], self.vertices[(k + 1) % m], self.signs[k])
            for k in range(m)
        )

    def vertex_set(self) -> frozenset[str]:
        return frozenset(self.vertices)


def _signed_cycles(g: SignedDigraph, first: int = 0, used=frozenset()) -> Iterator[SignedCycle]:
    """The simple cycles off ``used`` whose root, the smallest-index vertex,
    is at index ``first`` or later, one descriptor per sign pattern, yielded
    as found: roots in index order, a depth-first search that never descends
    below the root, successors in vertex order, patterns in ``product`` order."""
    idx, succ = g._index, g._under_succ
    for r in range(first, g.n):
        root = g.vertices[r]
        if root in used:
            continue
        path, on_path, iters = [root], {root}, [iter(succ[root])]
        while iters:
            for w in iters[-1]:
                if w == root:
                    cyc = tuple(path)
                    steps = [
                        [s for s, into in zip(SIGNS, (g.in_plus(b), g.in_minus(b))) if a in into]
                        for a, b in zip(cyc, cyc[1:] + cyc[:1])
                    ]
                    for signs in product(*steps):
                        yield SignedCycle(cyc, signs)
                elif idx[w] > r and w not in on_path and w not in used:
                    path.append(w)
                    on_path.add(w)
                    iters.append(iter(succ[w]))
                    break
            else:
                iters.pop()
                on_path.discard(path.pop())


def _capped(cycles: Iterable[SignedCycle], cap: int, seen=None) -> Iterator[SignedCycle]:
    """``cycles`` passed through; raises :class:`ResourceCapError` at the one
    past ``cap``.  Searches that share one budget pass one ``count()`` as ``seen``."""
    seen = count() if seen is None else seen
    for c in cycles:
        if next(seen) >= cap:
            raise ResourceCapError(f"more than {cap} cycles")
        yield c


def enumerate_cycles(g: SignedDigraph, cap: int = DEFAULT_CYCLE_CAP) -> list[SignedCycle]:
    """All simple directed cycles, one descriptor per sign pattern.

    Parallel arcs multiply the descriptors: a cycle whose steps offer both
    signs appears once per combination.  Deterministic order; raises
    :class:`ResourceCapError` past ``cap`` descriptors.
    """
    return list(_capped(_signed_cycles(g), cap))


def _shortest_cycle_length(g: SignedDigraph) -> float:
    """Vertices on a shortest directed cycle of ``g`` (one for a loop), or
    ``math.inf`` when it has none.  Every cycle lies in one strong component.
    A component where each vertex has one out-neighbour inside it is one
    cycle through all its vertices; in any other, a breadth-first search
    from each vertex stays inside the component and stops at the depth where
    a cycle back to it would be no shorter than the best one found."""
    best = math.inf
    for comp in _strong_components(g, g.vertices):
        inside = set(comp)
        succ = {v: [w for w in g._under_succ[v] if w in inside] for v in comp}
        if all(len(ws) == 1 for ws in succ.values()):
            best = min(best, len(comp))
            continue
        for v in comp:
            frontier, seen, depth = [v], {v}, 0
            while frontier and depth + 1 < best:
                depth += 1
                reached = []
                for u in frontier:
                    for w in succ[u]:
                        if w == v:
                            best = depth
                        elif w not in seen:
                            seen.add(w)
                            reached.append(w)
                frontier = reached
    return best


def find_disjoint_positive_cycles(
    g: SignedDigraph, k: int, cap: int = DEFAULT_CYCLE_CAP
) -> list[SignedCycle] | None:
    """Exact search for ``k`` vertex-disjoint positive cycles.

    Returns the first family in the order of :func:`enumerate_cycles`, or
    ``None`` when no such family exists (the backtracking is exhaustive).
    Each level searches the cycles rooted after the last chosen root on the
    free vertices, trying one positive pattern per cycle, and ends when the
    cycles still wanted, of the shortest cycle length each, need more than
    the free vertices.  ``cap`` bounds the descriptors the whole search visits.
    """
    if k <= 0:
        raise PreconditionError("k must be positive")
    girth, seen = _shortest_cycle_length(g), count()
    chosen: list[SignedCycle] = []
    used: set[str] = set()

    def search(first: int) -> bool:
        if len(chosen) == k:
            return True
        if (k - len(chosen)) * girth > g.n - len(used):
            return False  # the cycles still wanted need more than the free vertices
        tried = None
        for c in _capped(_signed_cycles(g, first, frozenset(used)), cap, seen):
            if c.sign != POSITIVE or c.vertices == tried:
                continue
            tried = c.vertices
            chosen.append(c)
            used.update(tried)
            if search(g._index[tried[0]] + 1):
                return True
            chosen.pop()
            used.difference_update(tried)
        return False

    return chosen if search(0) else None


def _cycle_order(g: SignedDigraph, vertices: Sequence[str]) -> tuple[str, ...] | None:
    """``vertices`` in cycle order from ``vertices[0]`` when each has one
    in-neighbour and one out-neighbour and the walk along the out-neighbours
    covers them all, else None; ``vertices`` is a union of weak components
    of ``g``, and the walk takes at most ``len(vertices)`` steps."""
    order = list(vertices[:1])
    for _ in vertices:
        a = g._adjacency[order[-1]]
        if len(a.in_neighbors) != 1 or len(a.out_neighbors) != 1:
            return None
        (nxt,) = a.out_neighbors
        if nxt == order[0]:  # the first return: no vertex was repeated
            return tuple(order) if len(order) == len(vertices) else None
        order.append(nxt)
    return None


def underlying_cycle_order(g: SignedDigraph) -> tuple[str, ...] | None:
    """Vertex order from the first vertex when the underlying digraph is one
    cycle through all vertices, else None: one walk of at most ``n`` steps."""
    return _cycle_order(g, g.vertices)


def is_signed_cycle(g: SignedDigraph) -> bool:
    """True when the underlying digraph is a single all-covering cycle and no
    ordered pair carries both signs."""
    return _is_signed_cycle(g, g.vertices)


def _is_signed_cycle(g: SignedDigraph, vertices: Sequence[str]) -> bool:
    """:func:`is_signed_cycle` of the subgraph on ``vertices``, a union of
    weak components of ``g``, asked of ``g`` itself."""
    order = _cycle_order(g, vertices)
    return order is not None and sum(map(g.in_degree, order)) == len(order)


# ---------------------------------------------------------------------------
# text format and DOT export
# ---------------------------------------------------------------------------


def parse_sdg(text: str) -> SignedDigraph:
    """Parse the ``sdg v1`` text format.

    Grammar: a ``sdg v1`` header line, then any number of ``vertex <name>``
    and ``arc <src> <dst> <+|->`` lines.  ``#`` starts a comment; blank lines
    are ignored.  Duplicate arc or vertex declarations are rejected.
    """
    vertices: list[str] = []
    arcs: dict[Arc, None] = {}  # a set that keeps the file's order
    declared: set[str] = set()
    header_seen = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if not header_seen:
            if line != "sdg v1":
                raise SdgParseError(f"line {lineno}: expected 'sdg v1' header")
            header_seen = True
            continue
        fields = line.split()
        if fields[0] == "vertex" and len(fields) == 2:
            if fields[1] in declared:
                raise SdgParseError(f"line {lineno}: duplicate vertex {fields[1]!r}")
            declared.add(fields[1])
            vertices.append(fields[1])
        elif fields[0] == "arc" and len(fields) == 4:
            src, dst, sign = fields[1], fields[2], fields[3]
            if sign not in SIGNS:
                raise SdgParseError(f"line {lineno}: bad sign {sign!r}")
            if (src, dst, sign) in arcs:
                raise SdgParseError(f"line {lineno}: duplicate arc")
            arcs[src, dst, sign] = None
        else:
            raise SdgParseError(f"line {lineno}: unrecognized directive {fields[0]!r}")
    if not header_seen:
        raise SdgParseError("missing 'sdg v1' header")
    return SignedDigraph.from_arcs(arcs, vertices)


def format_sdg(g: SignedDigraph) -> str:
    """Serialize to the ``sdg v1`` text format (round-trips through parse_sdg)."""
    lines = ["sdg v1"]
    lines.extend(f"vertex {v}" for v in g.vertices)
    lines.extend(f"arc {s} {t} {sign}" for (s, t, sign) in g.sorted_arcs())
    return "\n".join(lines) + "\n"


def load_sdg(path: str) -> SignedDigraph:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise SdgParseError(f"{path}: not UTF-8 text: {exc}") from None
    return parse_sdg(text)


def save_sdg(g: SignedDigraph, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_sdg(g))


def to_dot(g: SignedDigraph, name: str = "G") -> str:
    """Graphviz DOT export: positive arcs green, negative red, parallels doubled."""
    def quote(v: str) -> str:
        return '"' + v.replace("\\", "\\\\").replace('"', '\\"') + '"'

    lines = [f"digraph {name} {{"]
    for v in g.vertices:
        lines.append(f"  {quote(v)};")
    for src, dst, sign in g.sorted_arcs():
        color = "green" if sign == POSITIVE else "red"
        lines.append(f"  {quote(src)} -> {quote(dst)} [color={color}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
