"""Shared test fixtures: worked example graphs, random generators, and
independent brute-force oracles (kept deliberately separate from the library
implementations they check)."""

from __future__ import annotations

import math
import random
from itertools import combinations, islice, permutations, product

from sdgdyn import (
    NEGATIVE,
    POSITIVE,
    Fds,
    IntervalProduct,
    SignedDigraph,
    construct_nilpotent,
    is_signed_cycle,
    random_fds,
)
from sdgdyn.fds import BLOCK_CELLS

SIGNS = (POSITIVE, NEGATIVE)


# ---------------------------------------------------------------------------
# fixed example graphs
# ---------------------------------------------------------------------------


def eight_vertex_example() -> SignedDigraph:
    """Three initial components {1,2,3}, {4,5}, {6}; lambda 3, beta 1."""
    arcs = [
        ("1", "2", "-"), ("2", "1", "-"), ("2", "1", "+"), ("3", "1", "+"),
        ("2", "3", "-"), ("4", "5", "+"), ("5", "4", "-"), ("3", "7", "+"),
        ("4", "7", "-"), ("4", "8", "+"), ("5", "8", "-"), ("6", "8", "-"),
        ("7", "8", "+"), ("7", "8", "-"), ("8", "7", "-"),
    ]
    return SignedDigraph.from_arcs(arcs, vertices=[str(i) for i in range(1, 9)])


def pseudo_cycle_example() -> SignedDigraph:
    """Underlying 3-cycle with parallel arcs from 3 to 1."""
    arcs = [("3", "1", "+"), ("3", "1", "-"), ("1", "2", "+"), ("2", "3", "-")]
    return SignedDigraph.from_arcs(arcs, vertices=["1", "2", "3"])


def double_loop_example() -> SignedDigraph:
    """Single vertex carrying a positive and a negative loop."""
    return SignedDigraph.from_arcs([("1", "1", "+"), ("1", "1", "-")])


def induced(g: SignedDigraph, vertices) -> SignedDigraph:
    """Subgraph of ``g`` induced by a vertex subset, in ``g``'s vertex order."""
    keep = set(vertices)
    arcs = frozenset(a for a in g.arcs if a[0] in keep and a[1] in keep)
    return SignedDigraph(tuple(v for v in g.vertices if v in keep), arcs)


def without_vertices(g: SignedDigraph, vertices) -> SignedDigraph:
    drop = set(vertices)
    return induced(g, (v for v in g.vertices if v not in drop))


# ---------------------------------------------------------------------------
# random generators
# ---------------------------------------------------------------------------


def random_connected_sdg(
    rng: random.Random,
    n_max: int = 7,
    extra_arcs: int | None = None,
    loops: bool = True,
    n_min: int = 1,
) -> SignedDigraph:
    """Random weakly connected signed digraph with first-seen vertex order."""
    n = rng.randint(n_min, n_max)
    names = [str(i + 1) for i in range(n)]
    arcs: set[tuple[str, str, str]] = set()
    for k in range(1, n):
        other = names[rng.randrange(k)]
        src, dst = (names[k], other) if rng.random() < 0.5 else (other, names[k])
        arcs.add((src, dst, rng.choice(SIGNS)))
    extra = extra_arcs if extra_arcs is not None else rng.randint(0, 2 * n)
    for _ in range(extra):
        src = rng.choice(names)
        dst = rng.choice(names)
        if src == dst and not loops:
            continue
        arcs.add((src, dst, rng.choice(SIGNS)))
    return SignedDigraph.from_arcs(sorted(arcs), vertices=names)


def random_non_cycle_connected_sdg(rng: random.Random, n_max: int = 7) -> SignedDigraph:
    while True:
        g = random_connected_sdg(rng, n_max)
        if g.arcs and not is_signed_cycle(g):
            return g
        if g.n == 1 and not g.arcs:
            return g  # the one-vertex arcless graph is admissible


def mixed_components_sdg(rng: random.Random) -> SignedDigraph:
    """A disconnected graph in shuffled vertex order: a random connected
    component, one to three lone vertices and an underlying cycle carrying
    both signs on at least one step."""
    core = random_connected_sdg(rng, 5)
    arcs = [(f"g{s}", f"g{t}", sign) for s, t, sign in core.arcs]
    ring = [f"c{k}" for k in range(rng.randint(1, 4))]
    both = rng.randrange(len(ring))
    for k, v in enumerate(ring):
        w = ring[(k + 1) % len(ring)]
        arcs += [(v, w, s) for s in (SIGNS if k == both else (rng.choice(SIGNS),))]
    names = [f"g{v}" for v in core.vertices] + ring
    names += [f"lone{k}" for k in range(rng.randint(1, 3))]
    rng.shuffle(names)
    return SignedDigraph.from_arcs(sorted(arcs), vertices=names)


def random_subsystem_triple(
    rng: random.Random, n_max: int = 6, attempts: int = 200
):
    """Random (g, H, h) with H a spanning subgraph satisfying the convergence
    preconditions and h a degree-bounded system on exactly H, or None."""
    for _ in range(attempts):
        g = random_connected_sdg(rng, n_max)
        if not g.arcs:
            continue
        arcs = sorted(g.arcs)
        keep = [a for a in arcs if rng.random() < 0.5]
        sub = g.spanning(keep)
        iso = {
            v
            for v in g.vertices
            if sub.in_degree(v) == 0 == sub.out_degree(v)
            and (g.in_degree(v) > 0 or g.out_degree(v) > 0)
        }
        rest = without_vertices(sub, iso)
        ok = True
        for v in rest.vertices:
            if rest.in_degree(v) == 0 and g.in_degree(v) > 0:
                ok = False
                break
            if rest.out_degree(v) == 0 and g.out_degree(v) > 0:
                ok = False
                break
        if not ok:
            continue
        for comp in g.weak_components():
            if set(comp) <= iso and is_signed_cycle(induced(g, comp)):
                ok = False
                break
        if not ok:
            continue
        h = random_system_on(rng, sub)
        if h is None:
            continue
        return g, sub, h
    return None


def random_system_on(
    rng: random.Random, graph: SignedDigraph, attempts: int = 80
) -> Fds | None:
    """A degree-bounded system whose interaction graph is exactly ``graph``:
    randomized local-table sampling with a canonical fallback."""
    import numpy as np

    n = graph.n
    sizes = []
    for v in graph.vertices:
        dout, din = graph.out_degree(v), graph.in_degree(v)
        if dout == 0 and din > 0:
            sizes.append(2)
        elif dout == 0:
            sizes.append(1)
        else:
            sizes.append(rng.randint(2, dout + 1))
    domain = IntervalProduct(tuple((0, s - 1) for s in sizes))
    grids = domain.coordinate_grids

    tables = []
    for k, v in enumerate(graph.vertices):
        nbrs = sorted(graph.in_neighbors(v), key=graph.index)
        local_shape = tuple(sizes[graph.index(j)] for j in nbrs)
        cells = list(product(*map(range, local_shape)))
        found = None
        for _ in range(attempts):
            local = [rng.randrange(sizes[k]) for _ in cells]
            if realizes_signs(graph, v, dict(zip(cells, local))):
                found = np.array(local, dtype=np.int64)
                break
        if found is None:
            return _canonical_system_on(graph)
        if nbrs:
            weights = [1] * len(nbrs)
            for a in range(len(nbrs) - 2, -1, -1):
                weights[a] = weights[a + 1] * local_shape[a + 1]
            expand = np.zeros(domain.size, dtype=np.int64)
            for a, j in enumerate(nbrs):
                expand += grids[graph.index(j)] * weights[a]
            tables.append(found[expand])
        else:
            tables.append(np.full(domain.size, int(found[0]), dtype=np.int64))
    return Fds(domain, tuple(tables))


def _canonical_system_on(graph: SignedDigraph) -> Fds | None:
    """Deterministic system on exactly ``graph``: nilpotent construction on
    non-cycle components, the unique two-level network on signed cycles."""
    from sdgdyn import cycle_subsystem, enumerate_cycles

    cycle_comps = []
    for comp in graph.weak_components():
        sub = induced(graph, comp)
        if is_signed_cycle(sub):
            cycle_comps.append(comp)
    if not cycle_comps:
        f, _ = construct_nilpotent(graph)
        return f
    # Mixed case: build per component and paste tables together.
    import numpy as np

    intervals: dict[str, tuple[int, int]] = {}
    values: dict[str, tuple] = {}  # vertex -> (kind, payload)
    for comp in graph.weak_components():
        sub = induced(graph, comp)
        if is_signed_cycle(sub):
            cyc = enumerate_cycles(sub)[0]
            pred = {dst: (src, sign) for (src, dst, sign) in cyc.arcs()}
            for v in comp:
                intervals[v] = (0, 1)
                values[v] = ("cycle", pred[v])
        else:
            f, _ = construct_nilpotent(sub)
            for i, v in enumerate(sub.vertices):
                intervals[v] = f.domain.intervals[i]
                values[v] = ("table", (sub, f, i))
    domain = IntervalProduct(tuple(intervals[v] for v in graph.vertices))
    grids = domain.coordinate_grids
    tables = []
    for v in graph.vertices:
        kind, payload = values[v]
        if kind == "cycle":
            src, sign = payload
            col = grids[graph.index(src)]
            tables.append(col if sign == POSITIVE else 1 - col)
        else:
            sub, f, i = payload
            off = np.zeros(domain.size, dtype=np.int64)
            for k2, u in enumerate(sub.vertices):
                off += (
                    grids[graph.index(u)] - f.domain.lows[k2]
                ) * f.domain.weights[k2]
            tables.append(f.tables[i][off])
    return Fds(domain, tuple(tables))


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------


def oracle_lambda(g: SignedDigraph) -> int:
    """Reachability-matrix recomputation of the layer bound (no BFS/Tarjan)."""
    n = g.n
    idx = {v: i for i, v in enumerate(g.vertices)}
    adj = [[math.inf] * n for _ in range(n)]
    for (s, t, _) in g.arcs:
        adj[idx[s]][idx[t]] = 1
    for i in range(n):
        adj[i][i] = 0  # d(j, j) = 0 even on a loop
    for m in range(n):  # Floyd-Warshall
        for i in range(n):
            for j in range(n):
                if adj[i][m] + adj[m][j] < adj[i][j]:
                    adj[i][j] = adj[i][m] + adj[m][j]
    sccs: list[frozenset[int]] = []
    seen = set()
    for i in range(n):
        if i in seen:
            continue
        comp = frozenset(
            j for j in range(n) if adj[i][j] < math.inf and adj[j][i] < math.inf
        )
        sccs.append(comp)
        seen |= comp
    initial = [
        comp
        for comp in sccs
        if all(
            idx[s] in comp or adj[idx[s]][next(iter(comp))] == math.inf
            for (s, t, _) in g.arcs
            if idx[t] in comp
        )
    ]
    best = 0
    for j in range(n):
        score = min(
            (min(adj[i][j] for i in comp) + len(comp)) for comp in initial
            if any(adj[i][j] < math.inf for i in comp)
        )
        best = max(best, score)
    return int(best)


def oracle_cycles(g: SignedDigraph, max_len: int | None = None):
    """Brute-force cycle enumeration: try every vertex subset and rotation."""
    found = set()
    names = list(g.vertices)
    maxm = len(names) if max_len is None else min(max_len, len(names))
    for m in range(1, maxm + 1):
        for subset in combinations(names, m):
            for perm in permutations(subset):
                if perm[0] != min(perm, key=g.index):
                    continue
                steps = [
                    (perm[t], perm[(t + 1) % m]) for t in range(m)
                ]
                opts = []
                ok = True
                for (a, b) in steps:
                    signs = [s for s in SIGNS if (a, b, s) in g.arcs]
                    if not signs:
                        ok = False
                        break
                    opts.append(signs)
                if not ok:
                    continue
                for combo in product(*opts):
                    found.add((perm, combo))
    return found


def reference_disjoint_positive_cycles(g: SignedDigraph, k: int):
    """``sdg.find_disjoint_positive_cycles`` as an enumerate-then-search:
    the full list of positive descriptors from ``enumerate_cycles``, then a
    backtracking over it in list order, cut when the cycles still wanted, at
    the shortest length left in the list each, need more than the free
    vertices."""
    from sdgdyn import enumerate_cycles
    from sdgdyn.sdg import _shortest_cycle_length

    if k * _shortest_cycle_length(g) > g.n:
        return None
    positives = [c for c in enumerate_cycles(g) if c.sign == POSITIVE]
    shortest = [math.inf] * (len(positives) + 1)  # over positives[i:]
    for i in range(len(positives) - 1, -1, -1):
        shortest[i] = min(shortest[i + 1], len(positives[i].vertices))
    chosen, used = [], set()

    def search(start: int) -> bool:
        if len(chosen) == k:
            return True
        if (k - len(chosen)) * shortest[start] > g.n - len(used):
            return False
        for pos in range(start, len(positives)):
            vs = positives[pos].vertex_set()
            if vs & used:
                continue
            chosen.append(positives[pos])
            used.update(vs)
            if search(pos + 1):
                return True
            chosen.pop()
            used.difference_update(vs)
        return False

    return chosen if search(0) else None


def rendering_systems(seed: int = 11) -> list[Fds]:
    """Systems whose tables exercise every case of the table renderer: no
    component, one state, one row, rows that take one value, negative lows,
    multi-digit values, intervals at the ends of int64, a table of more
    than ``BLOCK_CELLS`` cells, and seeded random systems."""
    import numpy as np

    rng = random.Random(seed)
    out = [
        Fds(IntervalProduct(()), []),
        Fds(IntervalProduct(((5, 5), (-2, -2), (0, 0))), [[5], [-2], [0]]),
        random_fds(rng, [7], [-3]),
        Fds(IntervalProduct(((0, 1), (-9, 90))), [[1] * 200, list(range(-9, 91)) * 2]),
    ]
    lows = (0, -1, -7, 123, -(2**62), 2**62 - 10, -(2**63), 2**63 - 4)
    for _ in range(60):
        n = rng.randint(1, 4)
        out.append(random_fds(rng, [rng.randint(1, 4) for _ in range(n)],
                              [rng.choice(lows) for _ in range(n)]))
    big = IntervalProduct(((-30, 33), (1000, 1063), (-(2**62), -(2**62) + 31)))
    assert max(1, BLOCK_CELLS // big.size) < big.n  # written in several blocks
    np_rng = np.random.default_rng(seed)
    out.append(Fds(big, big.columns[0] + np_rng.integers(0, 32, size=(big.n, big.size))))
    return out


def brute_force_image_chain(f: Fds, steps: int) -> set:
    """f^steps(X) computed state by state, without the library's chain."""
    out = set()
    for s in f.domain.states():
        x = s
        for _ in range(steps):
            x = f.evaluate(x)
        out.add(x)
    return out


def unique_chain_index(f: Fds) -> int | None:
    """Nilpotency index from image chains of sorted unique offsets, without
    the library's mask kernel."""
    import numpy as np

    succ = f.successor_offsets
    current = np.unique(succ)
    k = 1
    while current.size > 1:
        nxt = np.unique(succ[current])
        if nxt.size == current.size:
            return None
        current, k = nxt, k + 1
    return k


def brute_force_interaction_arcs(f: Fds, names=None) -> set:
    """Arcs ``j -> i`` of the interaction graph, comparing ``f_i(x)`` with
    ``f_i(x + e_j)`` state by state in pure Python."""
    names = names if names is not None else [str(k + 1) for k in range(f.n)]
    value = dict(zip(f.domain.states(), zip(*f.tables.tolist())))
    arcs = set()
    for x, fx in value.items():
        for j in range(f.n):
            y = x[:j] + (x[j] + 1,) + x[j + 1 :]
            if y not in value:
                continue
            for i, (a, b) in enumerate(zip(fx, value[y])):
                if b != a:
                    arcs.add((names[j], names[i], POSITIVE if b > a else NEGATIVE))
    return arcs


def count_kernel_runs(monkeypatch) -> list:
    """Patch ``Fds._interaction_arcs``, the interaction-graph kernel, so
    that each run appends its system to the list returned; the result is
    still cached per system."""
    import functools

    kernel = Fds.__dict__["_interaction_arcs"].func
    runs = []

    def counting_kernel(self):
        runs.append(self)
        return kernel(self)

    prop = functools.cached_property(counting_kernel)
    prop.__set_name__(Fds, "_interaction_arcs")
    monkeypatch.setattr(Fds, "_interaction_arcs", prop)
    return runs


def realizes_signs(g: SignedDigraph, v: str, local: dict) -> bool:
    """Whether the local table ``local`` of ``v`` (a map from in-neighbor
    coordinates, in vertex order, to values) rises and falls along each
    in-neighbor exactly as the arcs into ``v`` say, compared cell by cell
    with the next cell along each axis in pure Python."""
    nbrs = sorted(g.in_neighbors(v), key=g.index)
    seen = [[False, False] for _ in nbrs]
    for x, fx in local.items():
        for a in range(len(nbrs)):
            y = x[:a] + (x[a] + 1,) + x[a + 1 :]
            if y in local and local[y] != fx:
                seen[a][local[y] < fx] = True
    return seen == [[u in g.in_plus(v), u in g.in_minus(v)] for u in nbrs]


def brute_force_convergence(f: Fds, h: Fds, k: int):
    """``(f^k(X) inside the box of h's value sets, agreement on Y, first
    disagreeing state)`` by iterating ``f`` over the states as tuple sets."""
    def values(system):
        rows = system.tables.tolist()
        return {
            s: tuple(row[o] for row in rows)
            for o, s in enumerate(system.domain.states())
        }

    fv, hv = values(f), values(h)
    image = set(fv)
    for _ in range(k):
        image = {fv[x] for x in image}
    h_values = [{y[i] for y in hv.values()} for i in range(h.n)]
    inside = all(x[i] in h_values[i] for x in image for i in range(f.n))
    counter = next((y for y in h.domain.states() if fv[y] != hv[y]), None)
    return inside, counter is None, counter


def reference_inward_arc_order(g: SignedDigraph, arcs, mirrored, iso) -> list:
    """The order of the arcs entering the isolated set ``iso`` by Kahn's
    algorithm over the strong components of the arcs inside it, a min-heap
    of component indices as its frontier: the ranking that
    ``synthesis._inward_arc_order`` states as "the least ready component"."""
    import heapq

    from sdgdyn.sdg import _strong_components

    heads = sorted({a[1] for a in arcs}, key=g.index)
    internal = SignedDigraph.from_arcs(
        {a for a in arcs if a[0] in iso and a[1] in iso},
        vertices=heads + [v for v in iso if v not in heads],
    )
    sccs = _strong_components(internal, internal.vertices)
    member = {v: k for k, c in enumerate(sccs) for v in c}
    indeg = {k: 0 for k in range(len(sccs))}
    succ: dict[int, set[int]] = {k: set() for k in range(len(sccs))}
    for s, t, _ in internal.arcs:
        if member[s] != member[t] and member[t] not in succ[member[s]]:
            succ[member[s]].add(member[t])
            indeg[member[t]] += 1
    frontier = [k for k, d in indeg.items() if d == 0]
    order_in_dag: dict[str, int] = {}
    rank = 0
    while frontier:
        k = heapq.heappop(frontier)
        for v in sccs[k]:
            order_in_dag[v] = rank
        rank += 1
        for w in succ[k]:
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(frontier, w)

    def key(a):
        preferred = NEGATIVE if a[1] in mirrored else POSITIVE
        return (
            order_in_dag.get(a[1], len(sccs)),
            a[1] not in mirrored,
            g.index(a[1]),
            a[2] != preferred,
            g.index(a[0]),
        )

    return sorted(arcs, key=key)


def reference_local_tables(g: SignedDigraph, v: str, cells: list, lo: int, hi: int):
    """Every local table of ``v`` with values in ``[lo, hi]`` over ``cells``
    (in-neighbor coordinate tuples) that realizes the signs of the arcs into
    ``v``, as an int64 ``(m, len(cells))`` array: ``itertools.product``
    order, filtered by :func:`realizes_signs`."""
    import numpy as np

    return np.array(
        [
            combo
            for combo in product(range(lo, hi + 1), repeat=len(cells))
            if realizes_signs(g, v, dict(zip(cells, combo)))
        ],
        dtype=np.int64,
    ).reshape(-1, len(cells))


def reference_full_tables(g: SignedDigraph, dom: IntervalProduct, i: int):
    """The full tables on ``dom`` of every local table of component ``i``
    that realizes the signs of ``g`` (see :func:`reference_local_tables`),
    as an ``(m, dom.size)`` array: each state looks up its local cell by
    its in-neighbor coordinates."""
    v = g.vertices[i]
    nbrs = sorted(g.index(j) for j in g.in_neighbors(v))
    cells = list(product(*(range(dom.intervals[j][0], dom.intervals[j][1] + 1) for j in nbrs)))
    valid = reference_local_tables(g, v, cells, *dom.intervals[i])
    cell_of = {coords: c for c, coords in enumerate(cells)}
    return valid[:, [cell_of[tuple(s[j] for j in nbrs)] for s in dom.states()]]


def reference_local_table_systems(g: SignedDigraph, domains, cap: int):
    """The local-table enumerator of ``fds._local_table_systems`` written with
    ``itertools.product``: every candidate is a tuple of cell values, and
    the systems of a domain are the product of the components' full tables
    (:func:`reference_full_tables`), their successor offsets taken with
    ``IntervalProduct.offsets_of``.  Same blocks, order and cap
    accounting."""
    import numpy as np

    from sdgdyn import ResourceCapError, fds

    scanned = 0
    for dom in domains:
        per_component = []
        for i, v in enumerate(g.vertices):
            cells = math.prod(dom.shape[g.index(j)] for j in g.in_neighbors(v))
            scanned += dom.shape[i] ** cells
            if scanned > cap:
                raise ResourceCapError("cap")
            tables = reference_full_tables(g, dom, i)
            if not len(tables):
                break
            per_component.append(tables)
        else:
            scanned += math.prod(len(c) for c in per_component)
            if scanned > cap:
                raise ResourceCapError("cap")
            rows = max(1, fds.BLOCK_CELLS // max(1, dom.n * dom.size))
            systems = product(*per_component)
            while block := list(islice(systems, rows)):
                tables = np.array(block, dtype=np.int64).reshape(len(block), dom.n, dom.size)
                yield dom, dom.offsets_of(tables)
