"""In-process job runner: calls ``sdgdyn.cli.main`` with stdout captured.

``bench/run.py`` starts this in a fresh interpreter with the work directory as the
current directory::

    python3 bench/worker.py MANIFEST.json ORDER.json RESULT.json [--trace]

It imports ``sdgdyn``, runs one job (the smallest id) and one calibration job
untimed, prints ``ready`` and waits for one line on stdin.  ``run`` starts the timed loop over the jobs in
``ORDER.json``, one round of a run; end of input exits, which is how
``bench/run.py`` samples set-up time.  Every round runs in a fresh worker,
so no job finds state that the same job left behind in an earlier round.
Ids that start with ``CAL_PREFIX`` run ``calibration_job`` instead of a job
of the manifest.  With ``--trace`` it runs the loop once untraced, then
installs the tracer and runs it again.  Results, checks and digests go to
``RESULT.json``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from tracing import Tracer  # noqa: E402


CAL_PREFIX = "@cal"


def calibration_job() -> int:
    """A fixed piece of work, in the mix of the jobs (Python loops over
    dicts and tuples, a sort, JSON text, many small numpy calls), that no
    change to ``sdgdyn`` can speed up.  The benchmark times it exactly like
    a job to measure how fast the host runs at the time; see
    bench/METRICS.md."""
    import numpy as np  # imported by sdgdyn already; kept out of bench/run.py

    rng = random.Random(20220121)
    table: dict[tuple[int, int], int] = {}
    for i in range(2500):
        key = (i % 97, int(rng.random() * 50))
        table[key] = table.get(key, 0) + i
    text = json.dumps([[k[0], k[1], v] for k, v in sorted(table.items())])
    states = np.arange(64)
    total = 0
    for i in range(250):
        total += int(states[(states * i) % 7 == 3].sum())
    return len(text) + total


def digest(texts: list[str], outputs: list[str]) -> str:
    """SHA-256 over each stdout text and each output file, length-prefixed."""
    h = hashlib.sha256()
    for text in texts:
        blob = text.encode()
        h.update(len(blob).to_bytes(8, "big") + blob)
    for path in outputs:  # streamed, so the caller's memory stays small
        h.update(os.path.getsize(path).to_bytes(8, "big"))
        with open(path, "rb") as fh:
            while chunk := fh.read(1 << 20):
                h.update(chunk)
    return h.hexdigest()[:16]


def check(spec: dict, texts: list[str]) -> str | None:
    """Problem with a successful job's reports, or None.  Fixed-point jobs
    are checked afterwards by ``verify``; see ``check_fixed``."""
    kind = spec["check"]["kind"]
    if kind == "converge":
        if not json.loads(texts[-1])["ok"]:
            return "verify failed"
    elif kind == "enumerate":
        report = json.loads(texts[0])
        if report["count"] < 1 or report["count"] != len(report["systems"]):
            return "enumeration report is inconsistent"
    return None


def run_steps(cli, steps: list[list[str]]) -> tuple[int | str, list[str], str]:
    """Run CLI steps in order until one fails: (exit, stdouts, stderr)."""
    texts, errors = [], io.StringIO()
    code: int | str = 0
    for argv in steps:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(errors):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:  # a crash is a failed job, not a dead run
                code = f"{type(exc).__name__}: {exc}"
        texts.append(out.getvalue())
        if code != 0:
            break
    return code, texts, errors.getvalue()


def run_job(cli, spec: dict, item_id: str) -> dict:
    """Run one job in this process; its row carries time, exit and checks."""
    for path in spec["outputs"]:  # no job may find the output of an earlier round
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)
    start = time.perf_counter()
    code, texts, err = run_steps(cli, spec["steps"])
    elapsed = time.perf_counter() - start
    row = {"id": item_id, "t": elapsed, "exit": code, "bytes": sum(map(len, texts))}
    if code == 0:
        row["digest"] = digest(texts, spec["outputs"])
        row["problem"] = check(spec, texts)
    else:
        row["error"] = err.strip()[-300:]
    return row


def run_calibration(item_id: str) -> dict:
    start = time.perf_counter()
    calibration_job()
    return {"id": item_id, "t": time.perf_counter() - start}


def run_loop(cli, specs: dict, order: list[str]) -> list[dict]:
    return [
        run_calibration(item_id) if item_id.startswith(CAL_PREFIX) else run_job(cli, specs[item_id], item_id)
        for item_id in order
    ]


def check_fixed(cli, specs: dict, results: list[dict]) -> None:
    """Verify each fixed-point output and compare its fixed-point count."""
    done: dict[str, str | None] = {}
    for row in results:
        if row["id"].startswith(CAL_PREFIX):
            continue
        spec = specs[row["id"]]
        if spec["check"]["kind"] != "fixed" or row["exit"] != 0:
            continue
        if row["id"] not in done:
            graph, out = spec["steps"][0][2], spec["outputs"][0]
            code, texts, _ = run_steps(cli, [["verify", "--graph", graph, "--fds", out, "--json"]])
            report = json.loads(texts[0]) if code in (0, 1) else {}
            if code != 0 or not report.get("ok"):
                done[row["id"]] = "verify failed"
            elif report["fixed_points"] != spec["check"]["expected"]:
                done[row["id"]] = f"{report['fixed_points']} fixed points"
            else:
                done[row["id"]] = None
        row["problem"] = done[row["id"]]


def split_counts(specs: dict) -> dict:
    """How many converge jobs have a nonempty closed set in their plan."""
    from sdgdyn import convergence_plan, load_fds, load_sdg

    base = split = 0
    for spec in specs.values():
        if spec["check"]["kind"] != "converge":
            continue
        argv = spec["steps"][0]
        g = load_sdg(argv[argv.index("--graph") + 1])
        h = load_fds(argv[argv.index("--sub") + 1])
        base += 1
        split += bool(convergence_plan(g, h.interaction_graph(g.vertices)).closed)
    return {"synthesis.split_share": split / base if base else 0.0, "synthesis.split_base": base}


def main(argv: list[str]) -> int:
    manifest, order_path, result_path = argv[:3]
    traced = "--trace" in argv[3:]
    with open(manifest, encoding="utf-8") as fh:
        specs = json.load(fh)
    with open(order_path, encoding="utf-8") as fh:
        order = json.load(fh)
    from sdgdyn import cli

    warm_up = min(i for i in order if not i.startswith(CAL_PREFIX))  # the same for every seed
    run_steps(cli, specs[warm_up]["steps"])
    calibration_job()
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "run":
        return 0

    result = {"loops": [run_loop(cli, specs, order)]}
    if traced:
        tracer = Tracer()
        tracer.install()
        result["traced"] = run_loop(cli, specs, order)
        result["trace"] = tracer.metrics()
        result["trace"].update(split_counts(specs))
    check_fixed(cli, specs, result["traced"] if traced else result["loops"][0])
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
