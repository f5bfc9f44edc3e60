"""Command-line front end.

Subcommands: analyze, synth-nilpotent, synth-converge, synth-fixed-points,
verify, enumerate, export-dot.  Reports are line oriented; ``--json``
switches to a single JSON document on stdout.  Exit status: 0 when all
requested checks pass, 1 on failed checks (or when the reader closes
stdout), 2 on parse errors and on files that cannot be read or written,
3 on precondition violations, 4 on resource caps.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from collections import Counter
from typing import Iterable, Sequence

from . import fds as fds_mod
from . import sdg as sdg_mod
from . import synthesis as syn_mod
from .fds import converges_toward, load_fds, save_fds
from .sdg import (
    InternalInvariantError,
    PreconditionError,
    ResourceCapError,
    SdgError,
    SdgParseError,
    classify_vertices,
    component_structure,
    load_sdg,
    to_dot,
)

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_CAP = 4


def _cert_path(out: str) -> str:
    if out.endswith(".json"):
        return out[: -len(".json")] + ".cert.json"
    return out + ".cert.json"


class _StdoutClosed(Exception):
    """The reader closed stdout before the whole output was written."""


def _write(text: str, end: str = "\n") -> None:
    """Print ``text`` to stdout and flush it.  If the reader has closed
    stdout, point it at devnull, so that the flush at exit raises no second
    error (the recipe of the ``signal`` docs), and raise
    :class:`_StdoutClosed`."""
    try:
        print(text, end=end)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        raise _StdoutClosed from None


def _emit(report: dict, lines: Iterable[str], as_json: bool) -> None:
    """Print the JSON report under --json, else the text lines."""
    _write(json.dumps(report, indent=2) if as_json else "\n".join(lines))


def _cap_from(args, default: int) -> int:
    """The --cap value, else SDG_CAP, else ``default``; a cap below 1 is a
    parse error."""
    if args.cap is None:
        cap = fds_mod.env_cap()
        return default if cap is None else cap
    if args.cap < 1:
        raise SdgParseError(f"--cap must be at least 1, got {args.cap}")
    return args.cap


def cmd_analyze(args) -> int:
    g = load_sdg(args.graph)
    cs = component_structure(g)
    sources, sinks, isolated = classify_vertices(g)
    cap = _cap_from(args, sdg_mod.DEFAULT_CYCLE_CAP)
    signs = Counter(c.sign for c in sdg_mod._capped(sdg_mod._signed_cycles(g), cap))
    pos, neg = signs[sdg_mod.POSITIVE], signs[sdg_mod.NEGATIVE]
    report = {
        "vertices": list(g.vertices),
        "arcs": [list(a) for a in g.sorted_arcs()],
        "lambda": cs.lam,
        "beta": cs.beta,
        "strong_components": [list(c) for c in cs.strong_components],
        "initial_components": [list(c) for c in cs.initial_components],
        "is_basic": cs.is_basic,
        "sources": sorted(sources, key=g.index),
        "sinks": sorted(sinks, key=g.index),
        "isolated": sorted(isolated, key=g.index),
        "cycles": {"total": pos + neg, "positive": pos, "negative": neg},
        "seed": args.seed,
    }
    lines = [
        f"vertices: {g.n}",
        f"arcs: {len(g.arcs)}",
        f"lambda: {cs.lam}",
        f"beta: {cs.beta}",
        f"strong components: {len(cs.strong_components)}",
        f"initial components: "
        + " ".join("{" + ",".join(c) + "}" for c in cs.initial_components),
        f"basic: {'yes' if cs.is_basic else 'no'}",
        f"sources: {' '.join(report['sources']) or '-'}",
        f"sinks: {' '.join(report['sinks']) or '-'}",
        f"isolated: {' '.join(report['isolated']) or '-'}",
        f"cycles: {pos + neg} ({pos} positive, {neg} negative)",
    ]
    _emit(report, lines, args.json)
    return EXIT_OK


def _write_synth_output(args, f, cert=None, extra=None, verdict="") -> None:
    out = args.out
    if out:
        save_fds(f, out)
        if cert is not None:
            syn_mod.save_certificate(cert, _cert_path(out))
    if args.json:  # streamed, so that the report text is never held whole
        report = {"system": fds_mod.fds_document(f), "verdict": verdict, "seed": args.seed}
        if cert is not None:
            report["certificate"] = cert.to_dict()
        if extra:
            report.update(extra)
        for piece in fds_mod.json_pieces(report, f.tables, indent=2):
            _write(piece, end="")
        _write("")
    else:
        lines = [verdict]
        if out:
            lines.append(f"wrote {out}")
            if cert is not None:
                lines.append(f"wrote {_cert_path(out)}")
        _write("\n".join(lines))


def cmd_synth_nilpotent(args) -> int:
    g = load_sdg(args.graph)
    f, cert = syn_mod.construct_nilpotent(g)
    index = f.nilpotency_index()
    verdict = f"nilpotent, index {index} (bound {cert.lam + cert.beta})"
    _write_synth_output(args, f, cert=cert, verdict=verdict)
    return EXIT_OK


def cmd_synth_converge(args) -> int:
    g = load_sdg(args.graph)
    h = load_fds(args.sub)
    sub = h.interaction_graph(g.vertices)
    f, witness = syn_mod.construct_converging(g, sub, h)
    verdict = f"converges toward subsystem in at most {witness.steps} steps"
    _write_synth_output(args, f, verdict=verdict, extra={"steps": witness.steps})
    return EXIT_OK


def cmd_synth_fixed_points(args) -> int:
    g = load_sdg(args.graph)
    k = args.cycles
    if k is None:
        raise PreconditionError("synth-fixed-points requires --cycles")
    if k == 0:
        f = syn_mod.construct_no_fixed_point(g)
    else:
        f = syn_mod.construct_2k_fixed_points(g, k)
    count = len(f.fixed_points())
    verdict = f"{count} fixed points"
    _write_synth_output(args, f, verdict=verdict, extra={"fixed_points": count})
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.steps is not None and not args.sub:
        raise PreconditionError("--steps requires --sub")
    g = load_sdg(args.graph)
    checks: list[tuple[str, bool]] = []
    report: dict = {"checks": [], "seed": args.seed}

    f = load_fds(args.fds) if args.fds else None
    if f is not None:
        match, bad = f.structure_fit(g)
        checks.append(("interaction graph matches", match))
        checks.append(
            ("degree bounds hold" + (f" (violations at {list(bad)})" if bad else ""), not bad)
        )
        index = f.nilpotency_index()
        report["nilpotency_index"] = index
        report["fixed_points"] = len(f.fixed_points())
        cert_file = _cert_path(args.fds)
        if os.path.exists(cert_file):
            cert = syn_mod.load_certificate(cert_file, g)
            problems = syn_mod.check_nilpotency_certificate(g, f, cert)
            checks.append(
                (
                    "certificate verifies"
                    + (f" ({'; '.join(problems)})" if problems else ""),
                    not problems,
                )
            )

    if args.sub:
        if f is None:
            raise PreconditionError("--sub requires --fds")
        if args.steps is None:
            raise PreconditionError("--sub requires --steps")
        h = load_fds(args.sub)
        steps = args.steps
        witness = converges_toward(f, h, steps)
        checks.append(
            (
                f"converges toward subsystem in {steps} steps"
                + (f" ({'; '.join(witness.failures())})" if not witness.valid else ""),
                witness.valid,
            )
        )

    if not checks:
        checks.append(("graph file well-formed", True))

    lines = []
    all_ok = True
    for label, ok in checks:
        all_ok &= ok
        lines.append(f"{'PASS' if ok else 'FAIL'}: {label}")
        report["checks"].append({"check": label, "ok": ok})
    if "nilpotency_index" in report:
        lines.append(f"nilpotency index: {report['nilpotency_index']}")
        lines.append(f"fixed points: {report['fixed_points']}")
    report["ok"] = all_ok
    _emit(report, lines, args.json)
    return EXIT_OK if all_ok else EXIT_FAILED


def cmd_enumerate(args) -> int:
    g = load_sdg(args.graph)
    cap = _cap_from(args, fds_mod.DEFAULT_TABLE_CAP)
    # Every cap trips in the count pass, before the first byte is written;
    # then each block is written as soon as it is built, with one text per
    # distinct summary of the block.
    count, blocks = fds_mod._counted_summaries(g, cap)
    if args.json:  # the bytes of json.dumps(report, indent=2) for the whole report
        head, lead, sep = f'{{\n  "count": {count},\n  "systems": [', "\n    ", ",\n    "
        tail = ("\n  ]" if count else "]") + f',\n  "seed": {args.seed}\n}}'
        encode = json.JSONEncoder(indent=2).encode  # json.dumps(..., indent=2), built once

        def render(sizes, index, fixed):
            summary = {"sizes": sizes, "nilpotency_index": index, "fixed_points": fixed}
            return encode(summary).replace("\n", "\n    ")
    else:
        head, lead, sep, tail = f"degree-bounded systems: {count}", "\n", "\n", ""

        def render(sizes, index, fixed):
            return f"sizes={sizes} index={index} fixed_points={fixed}"
    _write(head, end="")
    for sizes, index, fixed in blocks:
        keys = list(zip(index.tolist(), fixed.tolist()))
        texts = {(k, n): render(list(sizes), k if k > 0 else None, n) for k, n in set(keys)}
        _write(lead + sep.join(map(texts.__getitem__, keys)), end="")
        lead = sep
    _write(tail)
    return EXIT_OK


def cmd_export_dot(args) -> int:
    g = load_sdg(args.graph)
    text = to_dot(g)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        _write(f"wrote {args.out}")
    else:
        _write(text, end="")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: ``parse_args`` returns a
    fresh namespace on every call, so ``main`` calls share no state."""
    parser = argparse.ArgumentParser(
        prog="sdgdyn",
        description="Analyze signed digraphs and synthesize degree-bounded systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, *, fds=False, subsys=False, steps=False, cycles=False,
            out=False, cap=None):
        p = sub.add_parser(name)
        p.add_argument("--graph", required=True, help="sdg v1 graph file")
        if fds:
            p.add_argument("--fds", help="fds v1 system file")
        if subsys:
            p.add_argument("--sub", required=(name == "synth-converge"),
                           help="fds v1 subsystem file")
        if steps:
            p.add_argument("--steps", type=int, help="convergence step count")
        if cycles:
            p.add_argument("--cycles", type=int,
                           help="0: no fixed point; k>0: 2^k fixed points")
        if out:
            p.add_argument("--out", help="output path")
        if cap:
            p.add_argument("--cap", type=int, help=f"{cap} (default: SDG_CAP, else built in)")
        p.add_argument("--seed", type=int, default=0, help="seed for randomized runs")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.set_defaults(func=func)

    add("analyze", cmd_analyze, cap="cycle cap")
    add("synth-nilpotent", cmd_synth_nilpotent, out=True)
    add("synth-converge", cmd_synth_converge, subsys=True, out=True)
    add("synth-fixed-points", cmd_synth_fixed_points, cycles=True, out=True)
    add("verify", cmd_verify, fds=True, subsys=True, steps=True)
    add("enumerate", cmd_enumerate, cap="cap on candidate local tables plus systems")
    add("export-dot", cmd_export_dot, out=True)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _StdoutClosed:
        return EXIT_FAILED
    except SdgParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        if exc.filename is None:  # no file to name, e.g. a broken pipe: a fault
            raise
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except ResourceCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except InternalInvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_FAILED
    except SdgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILED


if __name__ == "__main__":
    raise SystemExit(main())
