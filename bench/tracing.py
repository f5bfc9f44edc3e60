"""Per-layer tracing of ``sdgdyn`` from outside the library.

``Tracer.install()`` rebinds the public functions of ``sdg``, ``fds`` and
``synthesis`` (and ``cli.main``) in every ``sdgdyn`` module that holds them,
and patches the ``Fds`` methods on the class.  Each wrapper records a span:
calls and inclusive time for its metric group, and self time (inclusive time
minus the time of wrapped children) for its layer.  Work done in unwrapped
code, such as ``SignedDigraph`` methods, counts toward the layer of the
nearest wrapped caller.  Aggregates stay in memory until ``metrics()``.
"""

from __future__ import annotations

import functools
import os
import weakref
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "sdg", "fds", "synthesis")

# layer -> public function -> metric group; None marks a function that only
# feeds its layer's self time.
FUNCTIONS = {
    "sdg": {
        "parse_sdg": "parse",
        "load_sdg": "parse",
        "component_structure": "structure",
        "enumerate_cycles": "cycles",
        "find_disjoint_positive_cycles": "cycles",
        "classify_vertices": None,
        "distance": None,
        "is_signed_cycle": None,
        "underlying_cycle_order": None,
        "format_sdg": None,
        "save_sdg": None,
        "to_dot": None,
    },
    "fds": {
        "converges_toward": "converges",
        "enumerate_degree_bounded_systems": "enumerate",
        "save_fds": "save",
        "load_fds": "load",
        "fds_to_dict": "to_dict",
        "fds_from_dict": None,
        "from_component_functions": None,
        "constant_fds": None,
        "random_fds": None,
    },
    "synthesis": {
        "construct_nilpotent": "nilpotent",
        "check_nilpotency_certificate": "cert_check",
        "construct_converging": "converging",
        "extend_all": "extend",
        "extend_by_arc": "extend",
        "construct_no_fixed_point": "fixed_point",
        "construct_2k_fixed_points": "fixed_point",
        "save_certificate": "cert_io",
        "load_certificate": "cert_io",
        "convergence_plan": None,
        "cycle_subsystem": None,
        "certificate_from_dict": None,
        "check_extension_postconditions": None,
    },
    "cli": {"main": None},
}

FDS_METHODS = {
    "interaction_graph": "interaction_graph",
    "is_degree_bounded": "degree_bound",
    "nilpotency_index": "image_chain",
    "image_offsets": "image_chain",
    "iterate": "image_chain",
    "fixed_points": "fixed_points",
    "translate": None,
    "mirror": None,
}

# Groups whose call counts are reported, as metric name -> group.
CALL_COUNTS = {
    "sdg.structure_calls": "sdg.structure",
    "fds.interaction_graph_calls": "fds.interaction_graph",
    "fds.converges_calls": "fds.converges",
    "fds.to_dict_calls": "fds.to_dict",
    "synthesis.nilpotent_calls": "synthesis.nilpotent",
    "synthesis.cert_check_calls": "synthesis.cert_check",
}

# Reported group times (inclusive, outermost call of the group only).
GROUP_TIMES = {
    "sdg.parse_s": "sdg.parse",
    "sdg.structure_s": "sdg.structure",
    "sdg.cycles_s": "sdg.cycles",
    "fds.interaction_graph_s": "fds.interaction_graph",
    "fds.degree_bound_s": "fds.degree_bound",
    "fds.image_chain_s": "fds.image_chain",
    "fds.fixed_points_s": "fds.fixed_points",
    "fds.converges_s": "fds.converges",
    "fds.enumerate_s": "fds.enumerate",
    "fds.save_s": "fds.save",
    "fds.load_s": "fds.load",
    "fds.to_dict_s": "fds.to_dict",
    "synthesis.nilpotent_s": "synthesis.nilpotent",
    "synthesis.cert_check_s": "synthesis.cert_check",
    "synthesis.converging_s": "synthesis.converging",
    "synthesis.extend_s": "synthesis.extend",
    "synthesis.fixed_point_s": "synthesis.fixed_point",
    "synthesis.cert_io_s": "synthesis.cert_io",
}

COUNTERS = (
    "sdg.cycles_found",
    "fds.systems_enumerated",
    "fds.bytes_written",
    "fds.bytes_read",
    "fds.states_built",
    "fds.table_bytes_max",
    "synthesis.extension_steps",
)


class Tracer:
    def __init__(self) -> None:
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.group_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._depth: dict[str, int] = defaultdict(int)
        self._children: list[float] = []  # wrapped-child time of each open span
        self._systems: dict[int, weakref.ref] = {}

    # -- spans ---------------------------------------------------------------

    def _enter(self, group: str | None) -> float:
        if group:
            self._depth[group] += 1
            self.calls[group] += 1
        self._children.append(0.0)
        return perf_counter()

    def _exit(self, layer: str, group: str | None, start: float) -> None:
        elapsed = perf_counter() - start
        self.self_s[layer] += elapsed - self._children.pop()
        if self._children:
            self._children[-1] += elapsed
        if group:
            self._depth[group] -= 1
            if self._depth[group] == 0:
                self.group_s[group] += elapsed

    def _wrap(self, layer: str, name: str, group: str | None, fn):
        group = f"{layer}.{group}" if group else None
        observe = self._observer(name)

        def wrapper(*args, **kwargs):
            outermost = group is not None and self._depth[group] == 0
            start = self._enter(group)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(layer, group, start)
            observe(result, args, outermost)
            return result

        def generator_wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                start = self._enter(group)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._exit(layer, group, start)
                self.counters["fds.systems_enumerated"] += 1
                self._count_system(item)
                yield item

        chosen = generator_wrapper if name == "enumerate_degree_bounded_systems" else wrapper
        return functools.wraps(fn)(chosen)

    # -- counts read from arguments and results --------------------------------

    def _observer(self, name: str):
        def systems(result, args, outermost):
            for value in result if isinstance(result, tuple) else (result,):
                self._count_system(value)

        def cycles(result, args, outermost):
            if outermost and result:
                self.counters["sdg.cycles_found"] += len(result)

        def saved(result, args, outermost):
            self.counters["fds.bytes_written"] += os.path.getsize(args[1])

        def loaded(result, args, outermost):
            self.counters["fds.bytes_read"] += os.path.getsize(args[0])
            systems(result, args, outermost)

        def step(result, args, outermost):
            self.counters["synthesis.extension_steps"] += 1

        special = {
            "enumerate_cycles": cycles,
            "find_disjoint_positive_cycles": cycles,
            "save_fds": saved,
            "load_fds": loaded,
            "extend_by_arc": step,
        }
        return special.get(name, systems)

    def _count_system(self, value) -> None:
        if type(value).__name__ != "Fds":
            return
        ref = self._systems.get(id(value))
        if ref is not None and ref() is value:
            return
        key = id(value)
        self._systems[key] = weakref.ref(value, lambda _, k=key: self._systems.pop(k, None))
        self.counters["fds.states_built"] += value.domain.size
        table_bytes = sum(t.nbytes for t in value.tables)
        if table_bytes > self.counters["fds.table_bytes_max"]:
            self.counters["fds.table_bytes_max"] = table_bytes

    # -- installation and results -----------------------------------------------

    def install(self) -> None:
        import sdgdyn
        from sdgdyn import cli, fds, sdg, synthesis

        modules = (sdgdyn, sdg, fds, synthesis, cli)
        owners = {"sdg": sdg, "fds": fds, "synthesis": synthesis, "cli": cli}
        for layer, names in FUNCTIONS.items():
            for name, group in names.items():
                original = getattr(owners[layer], name)
                wrapper = self._wrap(layer, name, group, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
        for name, group in FDS_METHODS.items():
            setattr(fds.Fds, name, self._wrap("fds", name, group, getattr(fds.Fds, name)))

    def metrics(self) -> dict:
        out = {f"{layer}.self_s": self.self_s[layer] for layer in LAYERS}
        out.update({m: self.group_s.get(g, 0.0) for m, g in GROUP_TIMES.items()})
        out.update({m: self.calls.get(g, 0) for m, g in CALL_COUNTS.items()})
        out.update(self.counters)
        return out
