"""Seeded inputs for the benchmark, written in pure Python.

Nothing here imports ``sdgdyn`` or the test helpers, so a change to the
library cannot change what the workloads feed it.  Each pool item is built
from its own ``random.Random("sdgdyn-bench/<id>")``; the item id alone fixes
its bytes.  Files use the library's documented formats: ``sdg v1`` text for
graphs and ``fds.v1`` JSON for subsystems.

Run as a script it writes the input files of the listed items into a work
directory, together with ``manifest.json`` describing each job::

    python3 bench/inputs.py WORKDIR IDS.json
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys
from itertools import product

SIGNS = ("+", "-")

# Pool sizes per item family; pool.json records every item of these pools.
SWEEP_CONVERGE = 1200
SWEEP_FIXED = 600


# ---------------------------------------------------------------------------
# graphs as (vertex names, sorted arc list)
# ---------------------------------------------------------------------------


def connected_graph(rng: random.Random, n: int, extra: int):
    """Weakly connected graph on n vertices: a random tree plus extra arcs."""
    names = [str(i + 1) for i in range(n)]
    arcs = set()
    for k in range(1, n):
        other = names[rng.randrange(k)]
        src, dst = (names[k], other) if rng.random() < 0.5 else (other, names[k])
        arcs.add((src, dst, rng.choice(SIGNS)))
    for _ in range(extra):
        arcs.add((rng.choice(names), rng.choice(names), rng.choice(SIGNS)))
    return names, sorted(arcs)


def small_graph(rng: random.Random, n_max: int):
    n = rng.randint(1, n_max)
    return connected_graph(rng, n, rng.randint(0, 2 * n))


def weak_components(names, arcs):
    adj = {v: set() for v in names}
    for s, t, _ in arcs:
        adj[s].add(t)
        adj[t].add(s)
    seen, comps = set(), []
    for root in names:
        if root in seen:
            continue
        seen.add(root)
        comp, todo = [], [root]
        while todo:
            v = todo.pop()
            comp.append(v)
            for w in adj[v] - seen:
                seen.add(w)
                todo.append(w)
        comps.append(comp)
    return comps


def is_signed_cycle(names, arcs) -> bool:
    """One arc per ordered pair, and those pairs form one cycle through all vertices."""
    pairs = {(s, t) for s, t, _ in arcs}
    if len(pairs) != len(arcs) or len(pairs) != len(names):
        return False
    succ = dict(pairs)
    if len(succ) != len(names) or set(succ.values()) != set(names):
        return False
    v, seen = names[0], set()
    while v not in seen:
        seen.add(v)
        v = succ[v]
    return len(seen) == len(names)


def signed_cycles(names, arcs):
    """Every simple cycle once per sign pattern, as (vertex set, sign)."""
    signs = {}
    for s, t, sg in arcs:
        signs.setdefault((s, t), []).append(sg)
    succ = {v: sorted({t for (s, t) in signs if s == v}, key=names.index) for v in names}
    out = []

    def walk(root, path):
        for w in succ[path[-1]]:
            if w == root:
                steps = [signs[(path[k], path[(k + 1) % len(path)])] for k in range(len(path))]
                for combo in product(*steps):
                    out.append((frozenset(path), "-" if combo.count("-") % 2 else "+"))
            elif names.index(w) > names.index(root) and w not in path:
                walk(root, path + [w])

    for root in names:
        walk(root, [root])
    return out


def has_disjoint_positive_cycles(names, arcs, k: int) -> bool:
    positives = list({vs for vs, sg in signed_cycles(names, arcs) if sg == "+"})

    def search(start, used, left):
        if left == 0:
            return True
        return any(
            search(i + 1, used | positives[i], left - 1)
            for i in range(start, len(positives))
            if not used & positives[i]
        )

    return search(0, frozenset(), k)


# ---------------------------------------------------------------------------
# subsystems: a random degree-bounded system realizing a graph exactly
# ---------------------------------------------------------------------------


def _realizes(local, shape, axis, want) -> bool:
    """Signs of unit steps of ``local`` (C-order over ``shape``) along ``axis``."""
    stride = 1
    for s in shape[axis + 1 :]:
        stride *= s
    got = set()
    for cell, value in enumerate(local):
        if (cell // stride) % shape[axis] + 1 < shape[axis]:
            nxt = local[cell + stride]
            if nxt > value:
                got.add("+")
            elif nxt < value:
                got.add("-")
    return got == want


def random_system(rng: random.Random, names, arcs, attempts: int = 80):
    """Interval sizes and full tables of a degree-bounded system whose
    interaction graph is exactly (names, arcs); None when sampling fails."""
    out_deg = {v: sum(1 for s, _, _ in arcs if s == v) for v in names}
    in_nbrs = {v: sorted({s for s, t, _ in arcs if t == v}, key=names.index) for v in names}
    sizes = []
    for v in names:
        if out_deg[v] == 0:
            sizes.append(2 if in_nbrs[v] else 1)
        else:
            sizes.append(rng.randint(2, out_deg[v] + 1))
    locals_ = []
    for k, v in enumerate(names):
        nbrs = in_nbrs[v]
        shape = [sizes[names.index(j)] for j in nbrs]
        cells = 1
        for s in shape:
            cells *= s
        want = {j: {sg for s, t, sg in arcs if s == j and t == v} for j in nbrs}
        for _ in range(attempts):
            local = [rng.randrange(sizes[k]) for _ in range(cells)]
            if all(_realizes(local, shape, a, want[j]) for a, j in enumerate(nbrs)):
                break
        else:
            return None
        locals_.append((nbrs, shape, local))
    states = list(product(*(range(s) for s in sizes)))
    tables = []
    for nbrs, shape, local in locals_:
        pos = [names.index(j) for j in nbrs]
        table = []
        for x in states:
            cell = 0
            for p, s in zip(pos, shape):
                cell = cell * s + x[p]
            table.append(local[cell])
        tables.append(table)
    return sizes, tables


def subsystem_triple(rng: random.Random):
    """(names, arcs, subsystem, steps) meeting the convergence
    preconditions: the subgraph keeps about half the arcs, every vertex it
    touches keeps an in-arc and an out-arc where the graph has them, and no
    component of the graph is a signed cycle it isolates.  ``steps`` is the
    number of isolated vertices plus one, the bound ``verify`` checks."""
    while True:
        names, arcs = small_graph(rng, 10)
        if not arcs:
            continue
        keep = [a for a in arcs if rng.random() < 0.5]
        touched_g = {v for a in arcs for v in a[:2]}
        touched_h = {v for a in keep for v in a[:2]}
        iso = touched_g - touched_h
        if any(
            (not any(t == v for _, t, _ in keep) and any(t == v for _, t, _ in arcs))
            or (not any(s == v for s, _, _ in keep) and any(s == v for s, _, _ in arcs))
            for v in touched_h
        ):
            continue
        if any(
            set(c) <= iso and is_signed_cycle(c, [a for a in arcs if a[0] in c])
            for c in weak_components(names, arcs)
        ):
            continue
        system = random_system(rng, names, keep)
        if system is not None:
            return names, arcs, system, len(iso) + 1


# ---------------------------------------------------------------------------
# the criterion-8b and 8c graph families
# ---------------------------------------------------------------------------


def _acyclic_single_sign(max_n: int):
    for n in range(1, max_n + 1):
        names = [str(i + 1) for i in range(n)]
        pairs = [(a, b) for a in names for b in names if a != b]
        for choice in product(("none",) + SIGNS, repeat=len(pairs)):
            arcs = sorted((a, b, s) for (a, b), s in zip(pairs, choice) if s != "none")
            if len(weak_components(names, arcs)) == 1 and not signed_cycles(names, arcs):
                yield names, arcs


def looped_family():
    """Connected acyclic single-sign graphs on up to 3 vertices, each source
    given a loop of either sign (a lone looped vertex is left out)."""
    out = []
    for names, arcs in _acyclic_single_sign(3):
        sources = [v for v in names if not any(t == v for _, t, _ in arcs)]
        for signs in product(SIGNS, repeat=len(sources)):
            looped = sorted(arcs + [(v, v, s) for v, s in zip(sources, signs)])
            if not is_signed_cycle(names, looped):
                out.append((names, looped))
    return out


TWO_CYCLE_SHAPES = (
    (("1", "1"), ("1", "2"), ("2", "1")),
    (("1", "2"), ("2", "1"), ("1", "3"), ("3", "1")),
    (("1", "1"), ("1", "2"), ("2", "3"), ("3", "1")),
    (("1", "2"), ("2", "1"), ("2", "3"), ("3", "1")),
    (("1", "2"), ("2", "1"), ("1", "3"), ("3", "2")),
    (("1", "2"), ("2", "1"), ("1", "3"), ("3", "4"), ("4", "1")),
    (("1", "2"), ("2", "3"), ("3", "1"), ("2", "4"), ("4", "1")),
    (("1", "1"), ("1", "2"), ("2", "3"), ("3", "4"), ("4", "1")),
)


def two_cycle_family():
    """Every sign pattern on eight shapes of two cycles sharing a path."""
    out = []
    for shape in TWO_CYCLE_SHAPES:
        names = sorted({v for arc in shape for v in arc})
        for signs in product(SIGNS, repeat=len(shape)):
            out.append((names, sorted((s, t, sg) for (s, t), sg in zip(shape, signs))))
    return out


# ---------------------------------------------------------------------------
# pool items: input files plus the CLI steps of one job
# ---------------------------------------------------------------------------


def sdg_text(names, arcs) -> str:
    lines = ["sdg v1"] + [f"vertex {v}" for v in names]
    lines += [f"arc {s} {t} {sg}" for s, t, sg in arcs]
    return "\n".join(lines) + "\n"


def fds_text(sizes, tables) -> str:
    doc = {
        "version": "fds.v1",
        "intervals": [[0, s - 1] for s in sizes],
        "tables": tables,
    }
    return json.dumps(doc, separators=(",", ":")) + "\n"


def pool_ids(workload: str) -> list[str]:
    if workload == "synth-sweep":
        return [f"c{i}" for i in range(SWEEP_CONVERGE)] + [f"p{i}" for i in range(SWEEP_FIXED)]
    if workload == "enum-families":
        return [f"l{i}" for i in range(len(looped_family()))] + [
            f"t{i}" for i in range(len(two_cycle_family()))
        ]
    raise ValueError(f"unknown workload {workload!r}")


def make_item(item_id: str, families=None) -> tuple[dict, dict[str, str]]:
    """The job spec and the input files (name -> text) of one pool item.

    Steps are argument lists for ``sdgdyn.cli``, run in order with the work
    directory as the current directory; ``outputs`` are the files whose bytes
    join the job's stdout in its digest.
    """
    rng = random.Random(f"sdgdyn-bench/{item_id}")
    kind, rest = item_id[0], item_id[1:]
    g, h, F = f"{item_id}.G.sdg", f"{item_id}.H.json", f"{item_id}.F.json"
    files: dict[str, str] = {}
    if kind == "c":
        names, arcs, (sizes, tables), steps_k = subsystem_triple(rng)
        files[g] = sdg_text(names, arcs)
        files[h] = fds_text(sizes, tables)
        synth = ["synth-converge", "--graph", g, "--sub", h, "--out", F, "--json"]
        steps = [synth, ["verify", "--graph", g, "--fds", F, "--sub", h, "--steps", str(steps_k), "--json"]]
        spec = {"outputs": [F], "check": {"kind": "converge"}}
    elif kind == "p":
        k = int(rest) % 3
        while True:
            names, arcs = small_graph(rng, 7)
            if k == 0 and any(sg == "-" for _, sg in signed_cycles(names, arcs)):
                break
            if k > 0 and has_disjoint_positive_cycles(names, arcs, k):
                break
        files[g] = sdg_text(names, arcs)
        steps = [["synth-fixed-points", "--graph", g, "--cycles", str(k), "--out", F, "--json"]]
        spec = {"outputs": [F], "check": {"kind": "fixed", "expected": 2**k if k else 0}}
    elif kind in "lt":
        if families is None:
            families = {"l": looped_family(), "t": two_cycle_family()}
        names, arcs = families[kind][int(rest)]
        files[g] = sdg_text(names, arcs)
        steps = [["enumerate", "--graph", g, "--json"]]
        spec = {"outputs": [], "check": {"kind": "enumerate"}}
    else:
        raise ValueError(f"unknown item id {item_id!r}")
    spec.update(id=item_id, steps=steps)
    digest = hashlib.sha256(json.dumps(steps).encode())
    for name in sorted(files):
        digest.update(name.encode() + b"\0" + files[name].encode() + b"\0")
    spec["input"] = digest.hexdigest()[:16]
    return spec, files


def write_items(workdir: str, ids: list[str]) -> dict[str, dict]:
    """Write the inputs of ``ids`` into ``workdir``; return id -> job spec."""
    families = None
    if any(i[0] in "lt" for i in ids):
        families = {"l": looped_family(), "t": two_cycle_family()}
    specs = {}
    for item_id in dict.fromkeys(ids):
        spec, files = make_item(item_id, families)
        for name, text in files.items():
            with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        specs[item_id] = spec
    return specs


if __name__ == "__main__":
    workdir, ids_path = sys.argv[1], sys.argv[2]
    with open(ids_path, encoding="utf-8") as fh:
        wanted = json.load(fh)
    with open(os.path.join(workdir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(write_items(workdir, wanted), fh)
