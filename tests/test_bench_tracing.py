"""The benchmark's tracer (bench/tracing.py) wraps library names it looks up
with getattr, so removing or renaming one of them breaks ``--trace 1``; its
worker (bench/worker.py) calls a few more names directly, so removing one of
those breaks every run."""

import importlib.util
import os
import subprocess
import sys

import sdgdyn
from sdgdyn import cli, fds, sdg, synthesis


def _load_tracing():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracing.py")
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_tracer_names_exist():
    tracing = _load_tracing()
    owners = {"sdg": sdg, "fds": fds, "synthesis": synthesis, "cli": cli}
    missing = [
        f"{layer}.{name}"
        for layer, names in tracing.FUNCTIONS.items()
        for name in names
        if not callable(getattr(owners[layer], name, None))
    ]
    missing += [
        f"Fds.{name}"
        for name in tracing.FDS_METHODS
        if not callable(getattr(fds.Fds, name, None))
    ]
    assert not missing


def test_bench_worker_names_exist():
    # bench/worker.py runs jobs through cli.main and counts split plans with
    # convergence_plan(g, h.interaction_graph(g.vertices)).closed.
    assert callable(cli.main)
    g = sdgdyn.SignedDigraph.from_arcs([("1", "2", "+"), ("2", "1", "+"), ("1", "3", "+")])
    sub, h = synthesis.cycle_subsystem(g, sdgdyn.find_disjoint_positive_cycles(g, 1))
    assert h.interaction_graph(g.vertices) == sub
    assert sdgdyn.convergence_plan(g, sub).closed == ("3",)  # no arc leaves vertex 3
    assert callable(sdgdyn.load_fds) and callable(sdgdyn.load_sdg)


def test_bench_tracer_counts_every_extension_step():
    # The tracer counts synthesis.extension_steps through the name
    # extend_by_arc, so extend_all must call it once per added arc.  The
    # tracer rebinds module names for good, so it runs in a child process.
    script = """
from tracing import Tracer
tracer = Tracer()
tracer.install()
from sdgdyn import SignedDigraph, synthesis
import test_synthesis as t
base, h = t._two_step_base()
synthesis.extend_all(SignedDigraph(base.vertices, base.arcs | t.THREE_ARCS), base, h)
print(tracer.metrics()["synthesis.extension_steps"])
"""
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(os.path.abspath(sdgdyn.__file__)))
    path = os.pathsep.join([src, here, os.path.join(here, os.pardir, "bench")])
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        check=True, timeout=120, env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.stdout.split() == ["3"], proc.stdout
