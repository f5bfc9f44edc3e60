"""The benchmark's tracer (bench/tracing.py) wraps library names it looks up
with getattr, so removing or renaming one of them breaks ``--trace 1``."""

import importlib.util
import os

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
