"""Check every benchmark pool item against its recorded outcome.

Run from anywhere, with the checkout's own ``src`` taking precedence::

    python3 tests/check_pool.py

It runs every item of the synth-sweep and enum-families pools in this
process, on the working tree's ``sdgdyn``, in a temporary directory.  Items
are built by ``bench/inputs.py`` and run by ``bench/worker.py``'s job runner,
so a job's exit code and digest mean what they mean in ``bench/pool.json``;
neither file nor the pool is written.  Each item whose inputs, exit code or
digest differ from the pool is printed, none exempted, and the exit status
is 1 when any differs.  The name keeps pytest from collecting it.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

import inputs  # noqa: E402
import worker  # noqa: E402
from sdgdyn import cli  # noqa: E402

WORKLOADS = ("synth-sweep", "enum-families")


def outcome(row: dict) -> tuple[object, str | None]:
    """``(exit, digest)`` of a job's row as ``bench/record.py`` records it:
    a job whose check found a problem counts as failed, with no digest."""
    code = row["exit"]
    if code == 0 and row.get("problem"):
        code = "invalid: " + row["problem"]
    return code, row.get("digest") if code == 0 else None


def differing(workload: str, recorded: dict) -> list[str]:
    """One line per item of ``workload`` that differs from ``recorded``; the
    inputs are written to, and the jobs run in, the current directory."""
    ids = inputs.pool_ids(workload)
    specs = inputs.write_items(os.getcwd(), ids)
    rows = [worker.run_job(cli, specs[i], i) for i in ids]
    worker.check_fixed(cli, specs, rows)
    lines = []
    for row in rows:
        rec, spec = recorded[row["id"]], specs[row["id"]]
        if spec["input"] != rec["input"]:
            lines.append(f"{row['id']}: inputs differ from the recorded ones")
            continue
        got, want = outcome(row), (rec["exit"], rec["digest"])
        if got != want:
            lines.append(f"{row['id']}: exit {got[0]}, digest {got[1]} "
                         f"(recorded: exit {want[0]}, digest {want[1]})")
    return lines


def main() -> int:
    with open(os.path.join(ROOT, "bench", "pool.json"), encoding="utf-8") as fh:
        pool = json.load(fh)
    here = os.getcwd()
    bad = 0
    with tempfile.TemporaryDirectory(prefix="sdgdyn-pool-") as work:
        os.chdir(work)
        try:
            for workload in WORKLOADS:
                lines = differing(workload, pool[workload])
                print("\n".join(lines + [f"{workload}: {len(lines)} of "
                                         f"{len(pool[workload])} items differ"]))
                bad += len(lines)
        finally:
            os.chdir(here)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
