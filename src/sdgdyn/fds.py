"""Finite dynamical systems over products of integer intervals.

A system is a self-map of ``X = X_1 x ... x X_n`` where each ``X_i`` is a
finite integer interval.  A system is stored as one read-only ``(n, S)``
array over the full state space of ``S`` states: row ``i`` is the table of
``f_i``, indexed by a mixed-radix offset with component 1 most significant:
``offset(x) = sum_i (x_i - min X_i) * W_i`` with ``W_n = 1`` and
``W_i = W_{i+1} * |X_{i+1}|``.  This is exactly numpy's C order, so the
array reshapes to the cube ``(n, |X_1|, ..., |X_n|)`` without reindexing,
and the kernels run over all components at once.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .sdg import (
    NEGATIVE,
    POSITIVE,
    Arc,
    PreconditionError,
    ResourceCapError,
    SdgParseError,
    SignedDigraph,
)

DEFAULT_STATE_CAP = 10**7
DEFAULT_TABLE_CAP = 10**7
_INT64 = np.iinfo(np.int64)

State = tuple[int, ...]


def env_cap() -> int | None:
    """The integer in the SDG_CAP env var, or None when it is unset.

    A value that is not an integer of at least 1 raises :class:`SdgParseError`.
    """
    raw = os.environ.get("SDG_CAP")
    if raw is None:
        return None
    try:
        cap = int(raw)
    except ValueError:
        raise SdgParseError(f"SDG_CAP must be an integer, got {raw!r}") from None
    if cap < 1:
        raise SdgParseError(f"SDG_CAP must be at least 1, got {cap}")
    return cap


def state_cap() -> int:
    """Largest allowed state-space size; the SDG_CAP env var overrides it."""
    cap = env_cap()
    return DEFAULT_STATE_CAP if cap is None else cap


@dataclass(frozen=True)
class IntervalProduct:
    """An ordered product of finite integer intervals ``[lo, hi]``."""

    intervals: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        norm = tuple((int(lo), int(hi)) for lo, hi in self.intervals)
        object.__setattr__(self, "intervals", norm)
        for lo, hi in norm:
            if lo > hi:
                raise PreconditionError(f"empty interval [{lo},{hi}]")
        if self.size > state_cap():
            raise ResourceCapError(
                f"state space of size {self.size} exceeds cap {state_cap()}"
            )

    @property
    def n(self) -> int:
        return len(self.intervals)

    @cached_property
    def shape(self) -> tuple[int, ...]:
        return tuple(hi - lo + 1 for lo, hi in self.intervals)

    @cached_property
    def size(self) -> int:
        out = 1
        for lo, hi in self.intervals:
            out *= hi - lo + 1
        return out

    @cached_property
    def lows(self) -> tuple[int, ...]:
        return tuple(lo for lo, _ in self.intervals)

    @cached_property
    def weights(self) -> tuple[int, ...]:
        w = [1] * self.n
        for i in range(self.n - 2, -1, -1):
            w[i] = w[i + 1] * self.shape[i + 1]
        return tuple(w)

    def contains(self, state: Sequence[int]) -> bool:
        return len(state) == self.n and all(
            lo <= x <= hi for x, (lo, hi) in zip(state, self.intervals)
        )

    def offset(self, state: Sequence[int]) -> int:
        if not self.contains(state):
            raise PreconditionError(f"state {tuple(state)} outside domain")
        return sum(
            (x - lo) * w for x, (lo, _), w in zip(state, self.intervals, self.weights)
        )

    def state(self, offset: int) -> State:
        if not 0 <= offset < self.size:
            raise PreconditionError(f"offset {offset} out of range")
        out = []
        for (lo, _), w in zip(self.intervals, self.weights):
            out.append(lo + offset // w)
            offset %= w
        return tuple(out)

    def states(self) -> Iterator[State]:
        """All states in offset order (last component varies fastest)."""
        return product(*(range(lo, hi + 1) for lo, hi in self.intervals))

    @cached_property
    def columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Lows, highs and weights as int64 ``(n, 1)`` columns."""
        highs = [hi for _, hi in self.intervals]
        cols = np.array((self.lows, highs, self.weights), dtype=np.int64)
        return tuple(cols.reshape(3, self.n, 1))

    @property
    def coordinate_grids(self) -> np.ndarray:
        """Per-component value of every state: a new ``(n, size)`` array on
        each access, so that no grid outlives the code that reads it."""
        grids = np.indices(self.shape).reshape(self.n, self.size)
        grids += self.columns[0]
        return grids

    def offsets_of(self, coords: np.ndarray) -> np.ndarray:
        """Offsets of the states whose coordinates run along axis -2 of
        ``coords`` (``(n, m)``, or ``(B, n, m)`` for a block), as one product
        with the weights."""
        lows, _, weights = self.columns
        return weights[:, 0] @ coords - int(weights[:, 0] @ lows[:, 0])

    def subset_of(self, other: "IntervalProduct") -> bool:
        return self.n == other.n and all(
            olo <= lo and hi <= ohi
            for (lo, hi), (olo, ohi) in zip(self.intervals, other.intervals)
        )

    def offsets_in(self, other: "IntervalProduct") -> np.ndarray:
        """Offsets of this domain's states inside a larger domain, in this
        domain's offset order: an outer sum of one offset range per axis,
        which builds no coordinate grid."""
        if not self.subset_of(other):
            raise PreconditionError("domain is not contained in the target domain")
        offsets = np.zeros((), dtype=np.int64)
        for (lo, hi), olo, w in zip(self.intervals, other.lows, other.weights):
            offsets = np.add.outer(offsets, np.arange((lo - olo) * w, (hi - olo + 1) * w, w))
        return offsets.ravel()


@dataclass(frozen=True, eq=False)
class Fds:
    """A finite dynamical system: a domain plus one full table per component.

    ``tables`` may be given as any sequence of ``n`` tables; it is stored as
    one read-only int64 array of shape ``(n, size)`` whose row ``i`` is the
    table of ``f_i``.  A C-contiguous int64 array of that shape is kept
    without a copy (and made read-only).
    """

    domain: IntervalProduct
    tables: np.ndarray

    def __post_init__(self) -> None:
        n, size = self.domain.n, self.domain.size
        if len(self.tables) != n:
            raise PreconditionError("one table per component required")
        try:
            arr = np.ascontiguousarray(self.tables, dtype=np.int64)
        except ValueError:  # tables of unequal lengths
            arr = np.empty(0)
        if n == arr.size == 0:
            arr = arr.reshape(0, size)
        if arr.shape != (n, size):
            raise PreconditionError(f"need {n} tables of {size} entries each")
        lows, highs, _ = self.domain.columns
        bad = (arr.min(axis=1) < lows[:, 0]) | (arr.max(axis=1) > highs[:, 0])
        if bad.any():
            i = int(bad.argmax())
            lo, hi = self.domain.intervals[i]
            raise PreconditionError(f"table {i} leaves interval [{lo},{hi}]")
        arr.flags.writeable = False
        object.__setattr__(self, "tables", arr)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Fds):
            return NotImplemented
        return self.domain == other.domain and np.array_equal(self.tables, other.tables)

    @property
    def n(self) -> int:
        return self.domain.n

    @cached_property
    def successor_offsets(self) -> np.ndarray:
        """Offset of ``f(x)`` for every state offset ``x``."""
        return self.domain.offsets_of(self.tables)

    def evaluate(self, state: Sequence[int]) -> State:
        return tuple(self.tables[:, self.domain.offset(state)].tolist())

    def iterate(self, state: Sequence[int], k: int) -> State:
        if k < 0:
            raise PreconditionError("iteration count must be nonnegative")
        off = self.domain.offset(state)
        succ = self.successor_offsets
        for _ in range(k):
            off = int(succ[off])
        return self.domain.state(off)

    def image_offsets(self, offsets: np.ndarray | None = None) -> np.ndarray:
        """Sorted unique offsets of ``f(S)`` (``S`` = whole domain by default):
        the successors are marked on one boolean mask over the domain."""
        succ = self.successor_offsets
        mask = np.zeros(self.domain.size, dtype=bool)
        mask[succ if offsets is None else succ[offsets]] = True
        return np.flatnonzero(mask)

    # -- structure ----------------------------------------------------------

    def interaction_graph(self, names: Sequence[str] | None = None) -> SignedDigraph:
        """Extract the signed dependence graph, comparing unit steps only.

        There is a positive (negative) arc ``j -> i`` when increasing ``x_j``
        by one raises (lowers) ``f_i`` somewhere in the domain.
        """
        names = tuple(str(i + 1) for i in range(self.n)) if names is None else tuple(names)
        return SignedDigraph(names, self.interaction_arcs(names))

    def interaction_arcs(self, names: Sequence[str]) -> frozenset[Arc]:
        """The arcs of :meth:`interaction_graph`, with component ``i`` named
        ``names[i]``."""
        if len(names) != self.n:
            raise PreconditionError("need one vertex name per component")
        if len(set(names)) != self.n:
            raise PreconditionError("vertex names must be distinct")
        return frozenset((names[j], names[i], sign) for j, i, sign in self._interaction_arcs)

    @cached_property
    def _interaction_arcs(self) -> list[tuple[int, int, str]]:
        """``(j, i, sign)`` for every arc of the interaction graph: one
        :func:`unit_step_signs` call per axis ``j`` of the ``(n, *shape)``
        cube covers every ``f_i`` (in chunks of components of at most
        ``BLOCK_CELLS`` cells when the tables are large).  An axis of length
        1 carries no arc and is skipped."""
        n = self.n
        cube = self.tables.reshape((n,) + self.domain.shape)
        rows = max(1, BLOCK_CELLS // self.domain.size)
        rise = np.zeros((n, n), dtype=bool)  # [j, i]: a step along j raises f_i
        fall = np.zeros_like(rise)
        for j in np.flatnonzero(np.array(self.domain.shape) > 1).tolist():
            for r in range(0, n, rows):
                part = slice(r, r + rows)
                rise[j, part], fall[j, part] = unit_step_signs(cube[part], j)
        return [
            (j, i, sign)
            for sign, hits in ((POSITIVE, rise), (NEGATIVE, fall))
            for j, i in np.argwhere(hits).tolist()
        ]

    def structure_fit(self, g: SignedDigraph) -> tuple[bool, tuple[int, ...]]:
        """Whether the interaction graph is exactly ``g`` (component ``i``
        named ``g.vertices[i]``), and the components at which the degree
        bound fails on the interaction graph (see :meth:`is_degree_bounded`)."""
        arcs = self.interaction_arcs(g.vertices)
        # Equal arcs give equal degrees, so only a mismatch needs the system's own graph.
        _, bad = self.is_degree_bounded(g if arcs == g.arcs else SignedDigraph(g.vertices, arcs))
        return arcs == g.arcs, bad

    def is_degree_bounded(
        self, graph: SignedDigraph | None = None
    ) -> tuple[bool, tuple[int, ...]]:
        """Check interval sizes against the interaction graph's out-degrees.

        Requires ``|X_i| = 2`` for non-isolated sinks and
        ``|X_i| <= out-degree + 1`` otherwise (hence 1 for isolated
        vertices).  Returns the verdict and the offending component indices.
        """
        g = graph if graph is not None else self.interaction_graph()
        if g.n != self.n:
            raise PreconditionError("graph arity differs from system arity")
        bad = tuple(
            i
            for i, (a, size) in enumerate(zip(g._adjacency.values(), self.domain.shape))
            if not (
                size == 2
                if a.out_degree == 0 and a.in_degree > 0
                else size <= a.out_degree + 1
            )
        )
        return (not bad, bad)

    def nilpotency_index(self) -> int | None:
        """Least k >= 1 with ``f^k`` constant, or None if no iterate is constant."""
        index, _ = image_chains(self.successor_offsets[None, :])
        return int(index[0]) if index[0] > 0 else None

    def fixed_points(self) -> list[State]:
        """All states with ``f(x) = x``, sorted by offset."""
        offs = np.nonzero(self.successor_offsets == np.arange(self.domain.size))[0]
        return [self.domain.state(int(o)) for o in offs]

    # -- transformations ------------------------------------------------------

    def translate(self, deltas: Sequence[int]) -> "Fds":
        """Conjugate by a per-component shift ``x_i -> x_i + d_i``."""
        if len(deltas) != self.n:
            raise PreconditionError("need one delta per component")
        dom = IntervalProduct(
            tuple(
                (lo + d, hi + d)
                for (lo, hi), d in zip(self.domain.intervals, deltas)
            )
        )
        return Fds(dom, self.tables + np.array(deltas, dtype=np.int64)[:, None])

    def mirror(self, components: Iterable[int]) -> "Fds":
        """Conjugate by ``x_i -> lo_i + hi_i - x_i`` on the given components.

        Arc signs are preserved only for sets closed under the dependence
        relation (for example whole weak components of the interaction
        graph); callers are responsible for choosing such sets.
        """
        comps = sorted(set(components))
        for i in comps:
            if not 0 <= i < self.n:
                raise PreconditionError(f"component {i} out of range")
        if not comps:
            return self
        cube = self.tables.reshape((self.n,) + self.domain.shape)
        flat = np.flip(cube, axis=[i + 1 for i in comps]).reshape(self.n, -1)
        flipped = np.zeros((self.n, 1), dtype=bool)
        flipped[comps] = True
        lows, highs, _ = self.domain.columns
        return Fds(self.domain, np.where(flipped, lows + highs - flat, flat))


def value_masks(values: np.ndarray, width: int) -> np.ndarray:
    """``(n, width)`` boolean array marking in row ``i`` the values that row
    ``i`` of the int ``(n, m)`` array ``values`` takes (each in ``[0, width)``)."""
    masks = np.zeros((len(values), width), dtype=bool)
    masks[np.arange(len(values))[:, None], values] = True
    return masks


def unit_step_signs(cubes: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """For each row of the ``(rows, *shape)`` array ``cubes``: whether a unit
    step along state axis ``axis`` (array axis ``axis + 1``) raises the value
    somewhere, and whether it lowers it somewhere.  An axis of length 1, or
    a block of no rows, gives two all-False arrays."""
    at = (slice(None),) * (axis + 1)
    diff = cubes[at + (slice(1, None),)] - cubes[at + (slice(-1),)]
    rest = tuple(range(1, cubes.ndim))
    return (diff > 0).any(axis=rest), (diff < 0).any(axis=rest)


def image_chains(succ: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nilpotency indices and fixed-point counts of the rows of ``succ``.

    Row ``b`` of the int64 ``(B, S)`` array is the successor offset of every
    state of one system on an ``S``-state domain.  The image chains
    ``S_1 = f(X)``, ``S_{m+1} = f(S_m)`` of all rows run together on one
    boolean ``B x S`` mask (flattened): scatter the successors of the live
    rows' states, then count the marked states per row.  A chain decreases
    strictly until it reaches the eventual image, so a row is done when its
    image shrinks to one state (index ``m``: the least k >= 1 with ``f^k``
    constant) or stops shrinking (no constant iterate, index -1).  Returns
    the index and fixed-point count arrays.
    """
    rows, size = succ.shape
    fixed = np.count_nonzero(succ == np.arange(size), axis=1)
    index = np.full(rows, -1, dtype=np.int64)
    flat = (succ + np.arange(0, rows * size, size)[:, None]).ravel()
    count = np.full(rows, size)
    states = flat  # f(X), with repeats
    step = 0
    while states.size:
        mask = np.zeros(rows * size, dtype=bool)
        mask[states] = True
        states = mask.nonzero()[0]
        owner = states // size
        new = np.bincount(owner, minlength=rows)
        step += 1
        index[new == 1] = step
        live = (new > 1) & (new < count)
        count = new
        states = flat[states[live[owner]]]
    return index, fixed


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def from_component_functions(
    domain: IntervalProduct,
    functions: Sequence[Callable[[tuple[np.ndarray, ...]], np.ndarray]],
) -> Fds:
    """Build a system by evaluating one vectorized function per component.

    Each function receives the per-component coordinate arrays (flat, in
    offset order) and returns the component's value for every state.
    """
    grids = domain.coordinate_grids
    tables = np.empty((len(functions), domain.size), dtype=np.int64)
    for i, fn in enumerate(functions):
        tables[i] = fn(grids)
    return Fds(domain, tables)


def constant_fds(domain: IntervalProduct, value: Sequence[int]) -> Fds:
    if not domain.contains(value):
        raise PreconditionError("constant value outside domain")
    column = np.array(value, dtype=np.int64)[:, None]
    return Fds(domain, np.repeat(column, domain.size, axis=1))


def random_fds(rng, sizes: Sequence[int], lows: Sequence[int] | None = None) -> Fds:
    """Uniformly random tables over the given interval sizes (test support)."""
    if lows is None:
        lows = [0] * len(sizes)
    dom = IntervalProduct(tuple((lo, lo + s - 1) for lo, s in zip(lows, sizes)))
    tables = tuple(
        np.array(
            [rng.randint(lo, lo + s - 1) for _ in range(dom.size)], dtype=np.int64
        )
        for lo, s in zip(lows, sizes)
    )
    return Fds(dom, tables)


# ---------------------------------------------------------------------------
# convergence between systems
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConvergenceWitness:
    """Outcome of checking that ``f`` converges toward ``h`` in ``k`` steps.

    Valid iff ``Y <= X``, ``f^k(X) <= h(Y)`` and ``f`` agrees with ``h`` on
    every state of ``Y``; ``h(Y) <= Y`` holds for every system on ``Y``.
    The inclusion of images is componentwise: every coordinate of every
    ``f^k`` value must be a value ``h`` takes at that coordinate, i.e.
    ``f^k(X)`` lies in the box ``h_1(Y) x ... x h_n(Y)``.  (Requiring
    membership in the exact image set ``{h(y)}`` is strictly stronger and
    provably unachievable: when two components of ``h`` are correlated, any
    system realizing extra arcs between them has image states outside
    ``{h(y)}``.)  ``counterexample`` is the first state of ``Y``, in offset
    order, on which ``f`` and ``h`` disagree.
    """

    steps: int
    domains_nested: bool
    fk_image_in_h_image: bool
    agreement: bool
    counterexample: State | None = None

    @property
    def valid(self) -> bool:
        return self.domains_nested and self.fk_image_in_h_image and self.agreement

    def failures(self) -> list[str]:
        out = []
        if not self.domains_nested:
            out.append("subsystem domain is not contained in the system domain")
        if not self.fk_image_in_h_image:
            out.append(f"f^{self.steps}(X) is not contained in h(Y)")
        if not self.agreement:
            out.append(f"f and h disagree on Y (e.g. at {self.counterexample})")
        return out


def converges_toward(f: Fds, h: Fds, k: int) -> ConvergenceWitness:
    """Decide by enumeration whether ``f`` converges toward ``h`` in ``k`` steps."""
    if f.n != h.n:
        raise PreconditionError("systems have different numbers of components")
    if k < 0:
        raise PreconditionError("step count must be nonnegative")
    if not h.domain.subset_of(f.domain):
        return ConvergenceWitness(k, False, False, False)

    # f^k(X) as sorted offsets within X.
    fk = np.arange(f.domain.size)
    for _ in range(k):
        image = f.image_offsets(fk)
        if image.size == fk.size:
            break  # the images are nested, so this set is its own image from now on
        fk = image

    # Componentwise inclusion in h_1(Y) x ... x h_n(Y): row i of `allowed`
    # marks the values of h_i, shifted by min X_i; the coordinates of f^k(X)
    # are peeled off the offsets one component at a time.
    X = f.domain
    allowed = value_masks(h.tables - X.columns[0], max(X.shape, default=1))
    fk_in_h = True
    rem = fk
    for i in range(f.n):
        coord, rem = np.divmod(rem, X.weights[i])
        if not allowed[i, coord].all():
            fk_in_h = False
            break

    # Agreement on Y: offsets in X of f(y) and of h(y).
    h_succ_x = X.offsets_of(h.tables)
    mism = np.nonzero(f.successor_offsets[h.domain.offsets_in(X)] != h_succ_x)[0]
    counter = h.domain.state(int(mism[0])) if mism.size else None
    return ConvergenceWitness(k, True, fk_in_h, not mism.size, counter)


# ---------------------------------------------------------------------------
# brute-force enumeration of degree-bounded systems
# ---------------------------------------------------------------------------


def _admissible_sizes(g: SignedDigraph, v: str) -> list[int]:
    dout, din = g.out_degree(v), g.in_degree(v)
    if dout == 0 and din > 0:
        return [2]
    if dout == 0:
        return [1]
    # Size 1 cannot realize an out-arc, so it never yields an admissible system.
    return list(range(2, dout + 2))


def _sign_pattern(g: SignedDigraph, v: str) -> tuple[tuple[bool, bool], ...]:
    """``(positive, negative)`` arc presence from each in-neighbor of ``v``,
    in-neighbors in vertex order."""
    plus, minus = g.in_plus(v), g.in_minus(v)
    return tuple((u in plus, u in minus) for u in sorted(g.in_neighbors(v), key=g.index))


# Cells (systems x components x states) in one block of tables: an enumeration
# holds its scans and one block, whatever the number of systems.
BLOCK_CELLS = 1 << 16


def _offset_blocks(parts: list[np.ndarray], size: int) -> Iterator[np.ndarray]:
    """The sums ``parts[0][c_0] + ... + parts[n-1][c_{n-1}]`` over every choice
    of one row of each ``(m_i, size)`` part, as ``(B, size)`` blocks of at
    most ``BLOCK_CELLS // (n * size)`` rows (at least one), rows in
    lexicographic order of the choices with the last component fastest."""
    total = math.prod(len(part) for part in parts)
    rows = max(1, BLOCK_CELLS // max(1, len(parts) * size))
    for start in range(0, total, rows):
        # Row r takes the mixed-radix digits of r, last component fastest.
        rest = np.arange(start, min(start + rows, total))
        succ = np.zeros((len(rest), size), dtype=np.int64)
        for part in reversed(parts):
            rest, choice = np.divmod(rest, len(part))
            succ += part[choice]
        yield succ


def _sign_valid_tables(
    width: int, local_shape: tuple[int, ...], pattern: tuple[tuple[bool, bool], ...]
) -> np.ndarray:
    """The ``(m, cells)`` array of every local table with values in
    ``[0, width)`` over the cells of ``local_shape`` (in lexicographic order)
    that realizes ``pattern``: along in-neighbor axis ``a`` it rises
    somewhere iff ``pattern[a][0]`` and falls somewhere iff ``pattern[a][1]``.

    Candidate ``r`` fills the cells with the mixed-radix digits of ``r``,
    first cell most significant, and candidates are checked in blocks of
    4,096 rows, one sign kernel call per axis and block, which keeps memory
    bounded whatever the count.
    """
    cells = math.prod(local_shape)
    count = width**cells
    valid: list[np.ndarray] = []
    for start in range(0, count, 4096):
        rest = np.arange(start, min(start + 4096, count))
        local = np.empty((len(rest), cells), dtype=np.int64)
        for cell in reversed(range(cells)):
            rest, local[:, cell] = np.divmod(rest, width)
        cube = local.reshape((len(local),) + local_shape)
        ok = np.ones(len(local), dtype=bool)
        for a, (pos, neg) in enumerate(pattern):
            rise, fall = unit_step_signs(cube, a)
            ok &= (rise == pos) & (fall == neg)
        valid.append(local[ok])
    return np.concatenate(valid)


def _scanned_domains(
    g: SignedDigraph, domains: Iterable[IntervalProduct], cap: int
) -> Iterator[tuple[IntervalProduct, list[np.ndarray]]]:
    """Yield, domain by domain, the domains on which every component has a
    local table that realizes exactly the signs of ``g`` along each
    in-neighbor axis (see :func:`_sign_valid_tables`), with those tables of
    component ``i`` as an ``(m_i, *read)`` view: axis ``j`` of ``read`` has
    the length of interval ``j`` if ``f_i`` reads ``x_j``, else 1.

    Each distinct (width, in-neighbor widths, signs) scan runs once per
    call.  Raises :class:`ResourceCapError` before scanning the candidates
    of a component, or yielding a domain, would take the total count of
    candidate tables and systems past ``cap``; a scan reused from an
    earlier domain or component counts as a scan again.
    """
    verts = g.vertices
    in_nbrs = [sorted(g.index(j) for j in g.in_neighbors(v)) for v in verts]
    want = [_sign_pattern(g, v) for v in verts]
    scanned = 0
    # The scans so far, keyed on their arguments: at most ``cap`` rows.
    seen: dict[tuple, np.ndarray] = {}
    for dom in domains:
        valid: list[np.ndarray] = []
        for i, nbrs in enumerate(in_nbrs):
            local_shape = tuple(dom.shape[j] for j in nbrs)
            width = dom.shape[i]
            scanned += width ** math.prod(local_shape)
            if scanned > cap:
                raise _cap_error(cap)
            key = (width, local_shape, want[i])
            if key not in seen:
                seen[key] = _sign_valid_tables(*key)
            if not len(seen[key]):
                break
            read = tuple(dom.shape[j] if j in nbrs else 1 for j in range(dom.n))
            valid.append(seen[key].reshape((-1,) + read))
        else:
            scanned += math.prod(map(len, valid))
            if scanned > cap:
                raise _cap_error(cap)
            yield dom, valid


def _domain_systems(
    scans: Iterable[tuple[IntervalProduct, list[np.ndarray]]]
) -> Iterator[tuple[IntervalProduct, np.ndarray]]:
    """The ``(domain, succ)`` blocks of :func:`_local_table_systems` for the
    domains and tables of :func:`_scanned_domains`, one domain at a time."""
    for dom, valid in scans:
        # Add a zero cube to repeat each contribution along the axes f_i ignores.
        parts = [
            (w * tables + np.zeros(dom.shape, np.int64)).reshape(len(tables), dom.size)
            for w, tables in zip(dom.weights, valid)
        ]
        for succ in _offset_blocks(parts, dom.size):
            yield dom, succ


def _local_table_systems(
    g: SignedDigraph, domains: Iterable[IntervalProduct], cap: int
) -> Iterator[tuple[IntervalProduct, np.ndarray]]:
    """Yield, domain by domain, every system whose interaction graph is ``g``.

    Systems come as ``(domain, succ)`` blocks, ``succ`` the int64 ``(B, S)``
    successor offsets of one system per row: the sums of one weighted local
    table per component (see :func:`_offset_blocks`), over the tables and
    under the cap of :func:`_scanned_domains`.  The domains are scanned as
    the blocks are asked for, so a domain's systems come out before the cap
    trips on a later domain.
    """
    return _domain_systems(_scanned_domains(g, domains, cap))


def _counted_summaries(g: SignedDigraph, cap: int) -> tuple[int, Iterator[tuple]]:
    """The number of systems of :func:`enumerate_system_summaries`, and its
    blocks.  Every domain is scanned, and the cap checked, before this
    returns; the blocks are then built one domain at a time from those
    scans, which the cap bounds."""
    scans = list(_scanned_domains(g, _degree_bounded_domains(g), cap))
    count = sum(math.prod(map(len, valid)) for _, valid in scans)
    return count, ((dom.shape, *image_chains(succ)) for dom, succ in _domain_systems(scans))


def _cap_error(cap: int) -> ResourceCapError:
    return ResourceCapError(
        f"local-table search exceeds cap of {cap} candidate tables and systems"
    )


def _degree_bounded_domains(g: SignedDigraph) -> Iterator[IntervalProduct]:
    """Every admissible size assignment, intervals starting at 0, in
    ascending lexicographic order."""
    size_menu = [_admissible_sizes(g, v) for v in g.vertices]
    for sizes in product(*size_menu):
        yield IntervalProduct(tuple((0, s - 1) for s in sizes))


def enumerate_degree_bounded_systems(
    g: SignedDigraph, table_cap: int = DEFAULT_TABLE_CAP
) -> Iterator[Fds]:
    """Yield every degree-bounded system whose interaction graph is exactly ``g``.

    Intervals are normalized to start at 0; all admissible size assignments
    are scanned in ascending lexicographic order.  Component functions are
    enumerated as local tables over the component's in-neighbors and
    filtered for exact sign realization, so the yield order is
    deterministic.  Raises :class:`ResourceCapError` before the count of
    candidate local tables and systems would pass ``table_cap``.
    """
    for dom, succ in _local_table_systems(g, _degree_bounded_domains(g), table_cap):
        # Peel each component's value off the offsets, as IntervalProduct.state does.
        lows, highs, weights = dom.columns
        for tables in lows + succ[:, None, :] // weights % (highs - lows + 1):
            yield Fds(dom, tables)


def enumerate_system_summaries(
    g: SignedDigraph, table_cap: int = DEFAULT_TABLE_CAP
) -> Iterator[tuple[tuple[int, ...], np.ndarray, np.ndarray]]:
    """Yield ``(interval sizes, nilpotency indices, fixed-point counts)`` per
    block of the systems of :func:`enumerate_degree_bounded_systems`, in the
    same order and under the same cap, without building an :class:`Fds`:
    the arrays are those of one :func:`image_chains` call on the block, so a
    system's index is the least k >= 1 with ``f^k`` constant, or -1 if no
    iterate is constant."""
    for dom, succ in _local_table_systems(g, _degree_bounded_domains(g), table_cap):
        yield (dom.shape, *image_chains(succ))


# ---------------------------------------------------------------------------
# JSON serialization ("fds v1")
# ---------------------------------------------------------------------------

FDS_VERSION = "fds.v1"


def fds_document(f: Fds) -> dict:
    """The ``fds v1`` document of ``f`` with ``tables`` left as None, the
    placeholder that :func:`json_pieces` fills with ``f.tables``."""
    return {
        "version": FDS_VERSION,
        "intervals": [[lo, hi] for lo, hi in f.domain.intervals],
        "tables": None,
    }


def fds_to_dict(f: Fds) -> dict:
    return {**fds_document(f), "tables": f.tables.tolist()}


def json_rows(rows: np.ndarray, sep: str, row_sep: str) -> str:
    """``row_sep.join(sep.join(map(str, row)) for row in rows)`` for a 2-D int
    array with at least one column, built by numpy without a Python object
    per entry.

    Row ``i`` takes values in ``[lo_i, hi_i]``, its least and greatest
    entries.  Two NUL-padded byte tables hold each such value's decimal
    text, followed by ``sep`` in one and by ``row_sep`` in the other, at
    ``value - lo_i + offset_i``.  The entries of each row are gathered from
    the first, its last entry from the second, and the NUL bytes dropped.
    A row of a system's table takes at most ``|X_i| <= S`` values, so a
    byte table has no more entries than ``rows``.
    """
    lows, highs = rows.min(axis=1), rows.max(axis=1)
    widths = highs - lows + 1
    ends = np.cumsum(widths)
    shift = highs - (ends - 1)  # value - shift = its entry in the byte tables
    digits = max(len(str(lows.min())), len(str(highs.max())))
    values = (np.arange(ends[-1]) + np.repeat(shift, widths)).astype(f"S{digits}")
    at = rows - shift[:, None]
    chars = np.concatenate(
        [
            np.char.add(values, s.encode())[cols].view(np.uint8).reshape(len(rows), -1)
            for s, cols in ((sep, at[:, :-1]), (row_sep, at[:, -1:]))
        ],
        axis=1,
    )
    chars = chars[chars != 0]
    return chars[: len(chars) - len(row_sep)].tobytes().decode("ascii")


def json_pieces(doc: dict, tables: np.ndarray, indent: int | None = None) -> Iterator[str]:
    """The text of ``json.dumps(doc, indent=indent)`` in pieces, where the
    one ``"tables": None`` entry of ``doc`` stands for ``tables.tolist()``:
    the text before that null, the tables by :func:`json_rows` in blocks of
    at most ``BLOCK_CELLS`` cells (at least one row), indented as the line
    of the entry, then the text after it.  No string can spell the entry:
    vertex names hold no spaces, and JSON escapes the quotes of a string."""
    head, _, tail = json.dumps(doc, indent=indent).partition('"tables": null')
    yield head + '"tables": '
    if indent is None:
        lead, sep, row_sep, end = "[[", ", ", "], [", "]]"
    else:
        pad = head[head.rfind("\n") + 1 :]
        inner, entry = pad + " " * indent, pad + " " * (2 * indent)
        lead, sep = f"[\n{inner}[\n{entry}", ",\n" + entry
        row_sep, end = f"\n{inner}],\n{inner}[\n{entry}", f"\n{inner}]\n{pad}]"
    rows = max(1, BLOCK_CELLS // tables.shape[1])
    for start in range(0, len(tables), rows):
        yield (row_sep if start else lead) + json_rows(tables[start : start + rows], sep, row_sep)
    yield (end if len(tables) else "[]") + tail


def json_int(value) -> int:
    """``value`` if it is a JSON integer; TypeError for a float, a string or
    a boolean, which ``int()`` would silently convert."""
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def fds_from_dict(data: dict) -> Fds:
    return _fds_from_dict(data, booleans=True)


def _fds_from_dict(data: dict, booleans: bool) -> Fds:
    """:func:`fds_from_dict`; ``booleans`` is False when the document is known
    to hold no boolean, which skips the per-row search for them."""
    if not isinstance(data, dict) or data.get("version") != FDS_VERSION:
        raise SdgParseError(f"expected a {FDS_VERSION!r} document")
    try:
        intervals = tuple((json_int(lo), json_int(hi)) for lo, hi in data["intervals"])
        if not all(_INT64.min <= end <= _INT64.max for pair in intervals for end in pair):
            raise ValueError("interval ends must be 64-bit integers")
        # One array for all tables: its dtype is integral when every entry
        # is an integer, and also when booleans are mixed in with integers
        # (as 0 and 1), so the rows are searched for booleans too, unless
        # the document is known to hold none.
        tables = np.array(data["tables"])
        if tables.size and (
            tables.dtype.kind != "i"
            or tables.ndim != 2
            or (booleans and any(bool in set(map(type, row)) for row in data["tables"]))
        ):
            raise TypeError("tables must be lists of integers")
    except (KeyError, TypeError, ValueError) as exc:
        raise SdgParseError(f"malformed system document: {exc}") from None
    try:
        return Fds(IntervalProduct(intervals), tables)
    except PreconditionError as exc:
        raise SdgParseError(str(exc)) from None


def save_fds(f: Fds, path: str) -> None:
    """Write ``json.dumps(fds_to_dict(f)) + "\\n"`` to ``path``, piece by
    piece, so that the memory the text takes is bounded whatever the table
    size."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(json_pieces(fds_document(f), f.tables))
        fh.write("\n")


def _read_json(path: str) -> tuple[str, object]:
    """The text of a JSON file and its value; malformed JSON raises
    :class:`SdgParseError`."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
            return text, json.loads(text)
        except ValueError as exc:
            raise SdgParseError(f"{path}: malformed JSON: {exc}") from None


def load_json(path: str):
    """Parse a JSON file; malformed JSON raises :class:`SdgParseError`."""
    return _read_json(path)[1]


def load_fds(path: str) -> Fds:
    text, data = _read_json(path)
    # JSON spells a boolean only as the literal true or false, so a text
    # without either holds none.  The text is dropped before the tables
    # become arrays, so that it does not add to the peak memory.
    booleans = "true" in text or "false" in text
    del text
    return _fds_from_dict(data, booleans)
