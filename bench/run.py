"""The sdgdyn benchmark: one seeded workload per run, outputs checked.

Run from the root of a checkout::

    python3 bench/run.py --workload synth-sweep --seed 1 --seconds 50 --trace 0

Workloads (see BENCHMARK.json and bench/METRICS.md), both in-process
``sdgdyn.cli.main`` calls:

* ``synth-sweep``: 151 small convergence and fixed-point synthesis jobs.
* ``enum-families``: ``enumerate`` on 98 graphs of the criterion-8b and 8c
  families.

Inputs come from the fixed pools of ``bench/inputs.py``; every run uses the
same items of a pool, and the seed sets the order of its jobs.
``bench/pool.json`` holds, for every pool item, the hash of its inputs and
the exit code and output digest recorded by ``bench/record.py``.  A job
fails when it exits nonzero, when its output fails its check, or when its
digest differs from the recorded one.

One process (this one) runs one job at a time in a closed loop and
never imports ``sdgdyn`` or numpy, so the peak RSS that ``os.wait4``
reports for its workers is theirs alone.  A run makes rounds over its jobs
for ``--seconds`` seconds (at least ``MIN_ROUNDS``), each round in a new
order and in a fresh worker.  A job's time is its best over the rounds: on a
shared host, load from other tenants slows whole seconds of a run, and the
best of many spread-out samples is the figure that such bursts disturb
least.  With ``--trace 1`` the jobs run one round untraced and one under the
layer tracer of ``bench/tracing.py``, and the per-layer metrics are printed.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)
from tracing import LAYERS  # noqa: E402
from worker import CAL_PREFIX  # noqa: E402

ROOT = os.getcwd()
WORK = os.path.join(ROOT, ".bench_work")
POOL_PATH = os.path.join(BENCH, "pool.json")
PY = sys.executable

WORKLOADS = ("synth-sweep", "enum-families")
# A run starts rounds for ``--seconds`` seconds, and makes at least MIN_ROUNDS.
MIN_ROUNDS = 3
SETUP_SAMPLES = 7
# synth-sweep runs one job in SWEEP_STRIDE of the pool, enum-families one
# graph in ENUM_STRIDE of each family.
SWEEP_STRIDE = 12
ENUM_STRIDE = 4
P90_MIN_JOBS = 100
# Every timed round also runs the calibration job of bench/worker.py this
# many times, at seeded places among the jobs.
CAL_IDS = [f"{CAL_PREFIX}{k}" for k in range(24)]
# The calibration job's time in a run on the reference host (2 cores,
# Python 3.11.7, numpy 2.4.6) when the host runs fast; job times are scaled
# to it.
CAL_REF_S = 0.0038

END_TO_END_UNITS = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_p50_s": "s",
    "job_p90_s": "s",
    "peak_rss_mb": "MiB",
}


class BenchError(Exception):
    """The benchmark itself cannot run; no result is printed."""


# ---------------------------------------------------------------------------
# children
# ---------------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    env.pop("PYTHONSTARTUP", None)
    return env


def reap(proc: subprocess.Popen) -> tuple[int, float]:
    """Wait for a child; return its exit code and peak RSS in MiB."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024


# ---------------------------------------------------------------------------
# job selection and inputs
# ---------------------------------------------------------------------------


def sweep_jobs(pool: dict) -> list[str]:
    """One synth-sweep job in ``SWEEP_STRIDE`` of each kind, in order of
    recorded time, and every job that fails at the recorded commit.

    ``sweep-groups`` of pool.json lists each kind's jobs as pairs in order of
    recorded time, then its slowest 1% one by one."""
    recorded = pool["synth-sweep"]
    jobs = [i for i, rec in sorted(recorded.items()) if rec["exit"] != 0]
    for kind in "cp":
        ids = [i for g in pool["sweep-groups"] if len(g) > 1 and g[0][0] == kind for i in g]
        ids += [g[0] for g in pool["sweep-groups"] if len(g) == 1 and g[0][0] == kind]
        jobs += [i for i in ids[::SWEEP_STRIDE] if recorded[i]["exit"] == 0]
    return jobs


def plan(workload: str, pool: dict) -> list[str]:
    """The item ids of a run.  They are the same for every seed, so that
    runs of different seeds differ in the order of their jobs but not in
    their cost; the seed sets the order of each round."""
    if workload == "synth-sweep":
        jobs = sweep_jobs(pool)
    else:
        families: dict[str, list[str]] = {}
        for item_id in sorted(pool[workload], key=lambda i: (i[0], int(i[1:]))):
            families.setdefault(item_id[0], []).append(item_id)
        jobs = [i for ids in families.values() for i in ids[::ENUM_STRIDE]]
    return jobs


def round_order(items: list[str], seed: int, r: int) -> list[str]:
    order = list(items)
    random.Random(f"{seed}/round/{r}").shuffle(order)
    return order


def round_numbers(seconds: float, least: int):
    """0, 1, 2, ... for as long as rounds keep starting within ``seconds`` of
    the first, and at least ``least`` of them."""
    start = time.perf_counter()
    r = 0
    while r < least or time.perf_counter() - start < seconds:
        yield r
        r += 1


def generate(ids: list[str], pool: dict, workload: str) -> dict:
    """Write the inputs of ``ids`` into the work directory (in a child, so
    this process stays small) and check them against the recorded hashes."""
    ids_path = os.path.join(WORK, "ids.json")
    with open(ids_path, "w", encoding="utf-8") as fh:
        json.dump(ids, fh)
    with open(os.path.join(WORK, "gen.err"), "wb") as err:
        code = subprocess.run([PY, os.path.join(BENCH, "inputs.py"), WORK, ids_path],
                              cwd=WORK, env=child_env(), stdout=err, stderr=err, check=False).returncode
    if code != 0:
        raise BenchError("input generation failed; see .bench_work/gen.err")
    with open(os.path.join(WORK, "manifest.json"), encoding="utf-8") as fh:
        specs = json.load(fh)
    recorded = pool.get(workload)
    for item_id, spec in specs.items():
        if recorded is not None and recorded[item_id]["input"] != spec["input"]:
            raise BenchError(f"inputs of {item_id} differ from the recorded ones")
    return specs


# ---------------------------------------------------------------------------
# running jobs
# ---------------------------------------------------------------------------


def start_worker(k: int, order: list[str], traced: bool,
                 timed: bool = True) -> tuple[float, float, dict | None]:
    """One fresh worker: (set-up seconds, peak RSS MiB, result).  Unless
    ``timed``, it only sets up and has no result."""
    order_path = os.path.join(WORK, f"order{k}.json")
    result_path = os.path.join(WORK, f"result{k}.json")
    with open(order_path, "w", encoding="utf-8") as fh:
        json.dump(order, fh)
    argv = [PY, os.path.join(BENCH, "worker.py"), "manifest.json", order_path, result_path]
    if traced:
        argv.append("--trace")
    with open(os.path.join(WORK, f"worker{k}.err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=WORK, env=child_env(), stdin=subprocess.PIPE,
                                stdout=subprocess.PIPE, stderr=err)
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        if ready.strip() == b"ready" and timed:
            proc.stdin.write(b"run\n")
        proc.stdin.close()
        code, peak = reap(proc)
    except BaseException:
        proc.kill()
        reap(proc)
        raise
    finally:
        proc.stdout.close()
    if ready.strip() != b"ready" or code != 0:
        raise BenchError(f"worker failed (exit {code}); see .bench_work/worker{k}.err")
    if not timed:
        return setup, peak, None
    with open(result_path, encoding="utf-8") as fh:
        return setup, peak, json.load(fh)


def run_worker(jobs: list[str], seed: int, seconds: float, traced: bool,
               least: int = MIN_ROUNDS) -> dict:
    """One fresh worker per round, each also a set-up sample; workers that
    only set up follow until there are ``SETUP_SAMPLES`` samples.  Timed
    rounds include the calibration jobs, whose rows go to ``cal``.  A traced
    run has one worker, which runs its round (without calibration jobs)
    untraced and then traced."""
    setup, rss, loops, cal = [], [], [], []
    items = jobs if traced else jobs + CAL_IDS
    for r in round_numbers(0 if traced else seconds, 1 if traced else least):
        secs, peak, result = start_worker(r, round_order(items, seed, r), traced)
        setup.append(secs)
        rss.append(peak)
        loops.append([row for row in result["loops"][0] if not row["id"].startswith(CAL_PREFIX)])
        cal += [row for row in result["loops"][0] if row["id"].startswith(CAL_PREFIX)]
    for k in range(len(setup), 1 if traced else SETUP_SAMPLES):
        secs, peak, _ = start_worker(k, jobs, traced, timed=False)
        setup.append(secs)
        rss.append(peak)
    result.update(loops=loops, setup=setup, rss=max(rss), cal=cal)
    return result


# ---------------------------------------------------------------------------
# checking and metrics
# ---------------------------------------------------------------------------


def judge(rows: list[dict], recorded: dict) -> tuple[set[str], bool, list[str]]:
    """The ids of failed jobs.  A job recorded as failing may fail again
    without making the run incorrect; any other failure or a changed digest
    does."""
    failed, correct, notes = set(), True, []
    for row in rows:
        rec = recorded[row["id"]]
        if row["exit"] != 0:
            problem = f"exit {row['exit']}: {row.get('error', '')}"
        elif row.get("problem"):
            problem = row["problem"]
        elif "digest" in row and rec["digest"] and row["digest"] != rec["digest"]:
            problem = "output differs from the recorded digest"
        else:
            continue
        row["failed"] = True
        failed.add(row["id"])
        correct &= rec["exit"] != 0
        notes.append(f"{row['id']}: {problem}")
    return failed, correct, notes


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def best_times(loops: list[list[dict]]) -> dict[str, float]:
    """Each job's best wall time over the rounds."""
    best: dict[str, float] = {}
    for rows in loops:
        for row in rows:
            best[row["id"]] = min(best.get(row["id"], math.inf), row["t"])
    return best


def end_to_end(loops: list[list[dict]], failed: set[str], result: dict) -> tuple[dict, dict]:
    """The metrics as measured, and scaled to the reference host speed:
    each job time multiplied by ``CAL_REF_S`` over the calibration job's
    time in the run (the median over ``CAL_IDS`` of their best times).
    Set-up time (interpreter start-up and imports, unlike the calibration
    job) and memory stay as measured."""
    best = best_times(loops)
    times = list(best.values())
    raw = {
        "setup_s": statistics.median(result["setup"]),
        "jobs_per_s": sum(1 for item_id in best if item_id not in failed) / sum(times),
        "job_p50_s": nearest_rank(times, 0.5),
        "job_p90_s": nearest_rank(times, 0.9),
        "peak_rss_mb": result["rss"],
        "calibration_s": statistics.median(best_times([result["cal"]]).values()),
    }
    scale = CAL_REF_S / raw["calibration_s"]
    scaled = {name: raw[name] * scale for name in ("job_p50_s", "job_p90_s")}
    scaled.update(setup_s=raw["setup_s"], jobs_per_s=raw["jobs_per_s"] / scale,
                  peak_rss_mb=raw["peak_rss_mb"])
    return raw, scaled


def per_layer(result: dict) -> dict:
    untraced, traced = result["loops"][0], result["traced"]
    trace = dict(result["trace"])
    job_s = sum(r["t"] for r in traced)
    accounted = sum(trace[f"{layer}.self_s"] for layer in LAYERS)
    trace.update({
        "cli.report_bytes": sum(r["bytes"] for r in traced),
        "trace.job_s": job_s,
        "trace.unaccounted_s": job_s - accounted,
        "trace.overhead_ratio": (len(traced) / job_s) / (len(untraced) / sum(r["t"] for r in untraced)),
    })
    return trace


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if "bytes" in name:
        return "bytes"
    if name.endswith(("_share", "_ratio")):
        return "ratio"
    return "count"


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def measure(workload: str, seed: int, seconds: int, traced: bool) -> dict:
    if not os.path.isfile(os.path.join(ROOT, "src", "sdgdyn", "__init__.py")):
        raise BenchError("run from the root of an sdgdyn checkout (src/sdgdyn not found)")
    with open(POOL_PATH, encoding="utf-8") as fh:
        pool = json.load(fh)
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    jobs = plan(workload, pool)
    specs = generate(jobs, pool, workload)
    result = run_worker(jobs, seed, seconds, traced)
    rows = [r for loop in result["loops"] + [result.get("traced", [])] for r in loop]
    failed, correct, notes = judge(rows, pool[workload])
    for note in sorted(set(notes)):
        print(f"failed job {note}")
    failures = sum(1 for r in rows if r.get("failed"))
    if traced:
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in sorted(per_layer(result).items())}
    else:
        raw, scaled = end_to_end(result["loops"], failed, result)
        print("as measured: " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()))
        metrics = {k: {"value": scaled[k], "unit": unit} for k, unit in END_TO_END_UNITS.items()}
    timed = len(best_times(result["loops"]))
    print(f"workload {workload}, seed {seed}, {len(result['loops'])} round(s) over {len(jobs)} items "
          f"({timed} timed jobs), {len(rows)} jobs run, {failures} failed, "
          f"fail_ratio {failures / len(rows):.6f}")
    if timed < P90_MIN_JOBS and not traced:
        print(f"note: job_p90_s rests on {timed} jobs, fewer than {P90_MIN_JOBS}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    return {"correct": correct, "attempted": len(rows), "failed": failures, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still kills and reaps its worker (see start_worker).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
