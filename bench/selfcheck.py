"""Self-check of the benchmark, run from the root of a checkout::

    python3 bench/selfcheck.py

1. Inputs are byte-identical from run to run (every seed uses the same
   items): each workload's inputs are generated twice and compared file by
   file, and their hashes are compared with the ones recorded in
   ``bench/pool.json``.
2. Every metric the benchmark prints is declared in ``BENCHMARK.json`` with
   the same unit, and every declared metric is printed: one short run of
   ``enum-families`` is made with ``--trace 0`` and one with ``--trace 1``.
3. Every metric of the benchmark's definition (``DEFINED_METRICS``, see
   ``bench/METRICS.md``) is declared, except ``fail_ratio``, which a zero
   value keeps out of the bounded metrics; runs print it on their summary
   line and report it as failed / attempted.
"""

from __future__ import annotations

import filecmp
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

DEFINED_METRICS = """
setup_s jobs_per_s job_p50_s job_p90_s peak_rss_mb
cli.self_s cli.report_bytes sdg.parse_s sdg.structure_calls sdg.structure_s
sdg.cycles_s sdg.cycles_found sdg.self_s fds.interaction_graph_calls
fds.interaction_graph_s fds.degree_bound_s fds.image_chain_s fds.fixed_points_s
fds.converges_calls fds.converges_s fds.enumerate_s fds.systems_enumerated
fds.save_s fds.load_s fds.bytes_written fds.bytes_read fds.to_dict_calls
fds.to_dict_s fds.states_built fds.table_bytes_max fds.self_s
synthesis.nilpotent_calls synthesis.nilpotent_s synthesis.cert_check_calls
synthesis.cert_check_s synthesis.converging_s synthesis.extend_s
synthesis.extension_steps synthesis.split_share synthesis.fixed_point_s
synthesis.cert_io_s synthesis.self_s trace.overhead_ratio
""".split()


def inputs_repeat() -> list[str]:
    problems = []
    with open(run.POOL_PATH, encoding="utf-8") as fh:
        pool = json.load(fh)
    for workload in run.WORKLOADS:
        order = run.plan(workload, pool)
        dirs = []
        for copy in ("one", "two"):
            run.WORK = os.path.join(run.ROOT, ".bench_work", copy)
            os.makedirs(run.WORK, exist_ok=True)
            run.generate(order, pool, workload)  # also compares with pool.json
            dirs.append(run.WORK)
        names = sorted(os.listdir(dirs[0]))
        _, mismatch, errors = filecmp.cmpfiles(dirs[0], dirs[1], names, shallow=False)
        if mismatch or errors or names != sorted(os.listdir(dirs[1])):
            problems.append(f"{workload}: inputs differ between two generations: {mismatch + errors}")
    run.WORK = os.path.join(run.ROOT, ".bench_work")
    return problems


def printed_metrics(trace: int) -> dict[str, str]:
    out = subprocess.run(
        [run.PY, os.path.join(run.BENCH, "run.py"), "--workload", "enum-families",
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, check=True,
    ).stdout
    report = json.loads(out.splitlines()[-1])
    assert report["correct"], out
    return {name: m["unit"] for name, m in report["metrics"].items()}


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    declared = {
        kind: {m["name"]: m["unit"] for m in bench[kind]} for kind in ("end_to_end", "per_layer")
    }
    problems = inputs_repeat()
    for kind, trace in (("end_to_end", 0), ("per_layer", 1)):
        printed = printed_metrics(trace)
        if printed != declared[kind]:
            diff = set(printed.items()) ^ set(declared[kind].items())
            problems.append(f"{kind}: printed and declared metrics or units differ: {sorted(diff)}")
    missing = set(DEFINED_METRICS) - declared["end_to_end"].keys() - declared["per_layer"].keys()
    if missing:
        problems.append(f"metrics not declared in BENCHMARK.json: {sorted(missing)}")
    for p in problems:
        print("FAIL", p)
    print("selfcheck", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
