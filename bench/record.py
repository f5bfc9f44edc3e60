"""Record ``bench/pool.json``: the reference outcome of every pool item.

Run once from the root of a checkout, at the commit whose outputs are the
reference::

    python3 bench/record.py

For every item it stores the hash of its inputs, the exit code of its job
and the digest of its outputs.  It also stores the synth-sweep jobs in order
of recorded time, from which ``bench/run.py`` picks the jobs of a run.
Items are run with the same code as the benchmark, through ``bench/run.py``.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import inputs  # noqa: E402
import run  # noqa: E402

def outcomes(rows: list[dict]) -> dict[str, dict]:
    """Per item: exit code of its first failing step (0 if none), digest, time."""
    out: dict[str, dict] = {}
    for row in rows:
        rec = out.setdefault(row["id"], {"exit": 0, "digest": None, "t": 0.0})
        rec["t"] += row["t"]
        if row["exit"] != 0:
            rec["exit"] = row["exit"]
        elif row.get("problem"):
            rec["exit"] = "invalid: " + row["problem"]
        elif "digest" in row:
            rec["digest"] = row["digest"]
    for rec in out.values():
        if rec["exit"] != 0:
            rec["digest"] = None
    return out


def record_worker(workload: str) -> tuple[dict, dict]:
    shutil.rmtree(run.WORK, ignore_errors=True)
    os.makedirs(run.WORK)
    ids = inputs.pool_ids(workload)
    specs = run.generate(ids, {}, workload)
    result = run.run_worker(ids, 0, 0, False, least=1)
    recs = outcomes(result["loops"][-1])
    table = {
        i: {"input": specs[i]["input"], "exit": recs[i]["exit"], "digest": recs[i]["digest"]}
        for i in ids
    }
    return table, recs


def sweep_groups(recs: dict) -> list[list[str]]:
    """The synth-sweep jobs of each kind in order of recorded time, as
    groups: neighbours in pairs, then the slowest 1% and the failing jobs
    one at a time."""
    groups = []
    for kind in "cp":
        ids = sorted((i for i in recs if i[0] == kind), key=lambda i: (recs[i]["t"], i))
        heavy = len(ids) // 100
        ids, tail = ids[: len(ids) - heavy], ids[len(ids) - heavy :]
        groups += [[i] for i in tail + [i for i in ids if recs[i]["exit"] != 0]]
        ids = [i for i in ids if recs[i]["exit"] == 0]
        groups += [ids[k : k + 2] for k in range(0, len(ids), 2)]
    return groups


def write_pool(pool: dict) -> None:
    """JSON with one item or group per line, so re-recordings diff well."""
    sections = []
    for name, value in sorted(pool.items()):
        if isinstance(value, dict):
            rows = [f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(value.items())]
            sections.append(f"{json.dumps(name)}: {{\n" + ",\n".join(rows) + "\n}")
        else:
            sections.append(f"{json.dumps(name)}: [\n" + ",\n".join(map(json.dumps, value)) + "\n]")
    with open(run.POOL_PATH, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(sections) + "\n}\n")


def main() -> int:
    pool = {}
    pool["synth-sweep"], recs = record_worker("synth-sweep")
    pool["sweep-groups"] = sweep_groups(recs)
    pool["enum-families"], _ = record_worker("enum-families")
    write_pool(pool)
    shutil.rmtree(run.WORK, ignore_errors=True)
    for name, table in pool.items():
        if name != "sweep-groups":
            bad = sum(1 for r in table.values() if r["exit"] != 0)
            print(f"{name}: {len(table)} items, {bad} failing")
    return 0


if __name__ == "__main__":
    sys.exit(main())
