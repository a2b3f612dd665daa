"""Command line front end.

Verbs:
  minimize WORD        greedy reduction to a minimal word, with a step trace
  equiv WORD OTHER     decide conjugacy up to automorphism, with a witness
  profile WORD         pattern counts and the level/minimality predicates
  graph WORD           the class graph of the minimized word
  enumerate            exhaustive census over a range of lengths

Exit codes: 0 success (equiv: equivalent), 1 equiv decided not equivalent,
2 usage or input error, 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys
from pathlib import Path

from .automorphism import PRINCIPALS, canonical_word
from .class_graph import GRAPH_TYPES, TheoremViolation, build_graph, to_dict, to_dot, to_json
from .enumeration import census, conjecture_report, expected_class_size, render_conjecture_report
from .minimality import _shrinking, are_conjugate, format_token, minimize
from .word_core import cyclic_reduce, letter_tally, vertex_flags, weight

PRINCIPAL_NAMES = tuple(format_token(phi) for phi in PRINCIPALS)


def _emit(args, payload: dict, text_lines=None) -> None:
    """Print the payload as JSON, or as text: text_lines, by default a
    key: value line per payload key (lists space-joined, dict flags yes/no)."""
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    elif text_lines is not None:
        for line in text_lines:
            print(line)
    else:
        for key, value in payload.items():
            if isinstance(value, list):
                value = " ".join(value) if value else "(none)"
            elif isinstance(value, dict):
                value = " ".join(
                    f"{k}={('no', 'yes')[v] if isinstance(v, bool) else v}" for k, v in value.items()
                )
            print(f"{key}: {value}")


def cmd_minimize(args) -> int:
    core = cyclic_reduce(args.word)[0]
    minimal, trace = minimize(core)
    payload = {
        "input": args.word,
        "cyclic": core,
        "minimal": minimal,
        "canonical": canonical_word(minimal),
        "length": len(minimal),
        "steps": [format_token(phi) for phi in trace],
    }
    _emit(args, payload)
    return 0


def cmd_equiv(args) -> int:
    flag, tokens = are_conjugate(args.word, args.other)
    payload = {"equivalent": flag, "witness": list(tokens) if tokens else None}
    lines = ["equivalent" if flag else "not equivalent"]
    if tokens:
        lines.append("witness: " + " ".join(tokens))
    _emit(args, payload, lines)
    return 0 if flag else 1


def cmd_profile(args) -> int:
    core = cyclic_reduce(args.word)[0]
    p, pc, deltas = _shrinking(core)
    a_count, b_count = letter_tally(core)
    minimal = p is None
    payload = {
        "input": args.word,
        "cyclic": core,
        "length": len(core),
        "counts": {"aa": pc.aa, "bb": pc.bb, "ab": pc.ab, "ab_bar": pc.ab_bar},
        "letters": {"a_type": a_count, "b_type": b_count},
        "weight": weight(core),
        "minimal": minimal,
    }
    if minimal:
        payload["root"], payload["alternating"] = vertex_flags(len(core), pc)
        payload["level"] = {name: d == 0 for name, d in zip(PRINCIPAL_NAMES, deltas)}
    _emit(args, payload)
    return 0


def cmd_graph(args) -> int:
    core = cyclic_reduce(args.word)[0]
    minimal, _ = minimize(core)
    g = build_graph(minimal)
    if args.format == "json":
        print(to_json(g))
    elif args.format == "dot":
        print(to_dot(g))
    else:
        payload = to_dict(g)
        for key in ("type", "size", "root", "alternating"):
            print(f"{key}: {payload[key]}")
        for i, v in enumerate(payload["vertices"]):
            print(f"vertex v{i}: {v}")
        for u, v, p in payload["edges"]:
            print(f"edge: v{u} -> v{v} [{p}]")
    return 0


# N or A..B in ASCII digits; int() would also take a sign, spaces, underscores and other scripts' digits
_LENGTHS = re.compile(r"([0-9]+)(?:\.\.([0-9]+))?")


def _parse_lengths(text: str) -> range:
    m = _LENGTHS.fullmatch(text)
    if not m:
        raise ValueError(f"--lengths expects N or A..B, got {text!r}")
    lo, hi = int(m[1]), int(m[2] or m[1])
    if not 0 <= lo <= hi <= 20:
        raise ValueError("--lengths must satisfy 0 <= A <= B <= 20")
    return range(lo, hi + 1)


def _resolve_workers(args) -> int:
    """--workers (census rejects a count below 1), else the usable cores."""
    if args.workers is not None:
        return args.workers
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))  # the CPUs this process may run on
    return max(1, os.cpu_count() or 1)


def _write_csv(path: Path, rows) -> None:
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _type_count_rows(tables) -> list:
    """The rows of type_counts.csv: per length, classes per type, classes and vertices."""
    class_totals, vertex_totals = tables.class_totals, tables.vertex_totals
    rows = [["n", *GRAPH_TYPES, "classes", "vertices"]]
    for n, counts in sorted(tables.type_counts.items()):
        rows.append([n, *[counts.get(g, 0) for g in GRAPH_TYPES], class_totals[n], vertex_totals[n]])
    return rows


def _size_table_rows(per_n: dict) -> list:
    """The rows of sizes_<gtype>.csv from size_counts[gtype]."""
    sizes = sorted({s for counter in per_n.values() for s in counter})
    rows = [["n", *sizes]]
    for n in sorted(per_n):
        rows.append([n, *[per_n[n].get(s, 0) for s in sizes]])
    return rows


def cmd_enumerate(args) -> int:
    lengths = _parse_lengths(args.lengths)
    workers = _resolve_workers(args)
    out_dir = Path(args.out) if args.out else None
    if args.weight is not None and out_dir is None:
        raise ValueError("--weight restricts the classes_<n>.jsonl files of --out, and no --out is given")
    scan = {} if args.scan_coincidences else None

    def write(n, lines):
        out_dir.mkdir(parents=True, exist_ok=True)  # once census has checked its arguments
        with (out_dir / f"classes_{n}.jsonl").open("w") as fh:
            fh.writelines(f"{line}\n" for line in lines)

    tables = census(lengths, workers=workers, lines=write if out_dir else None, weight=args.weight,
                    coincidences=None if scan is None else scan.__setitem__)
    rows = _type_count_rows(tables)
    report = conjecture_report(tables) if args.check_conjectures else None

    if out_dir is not None:
        _write_csv(out_dir / "type_counts.csv", rows)
        for gtype, per_n in tables.size_counts.items():
            _write_csv(out_dir / f"sizes_{gtype}.csv", _size_table_rows(per_n))
        if report is not None:
            (out_dir / "conjectures.txt").write_text(render_conjecture_report(report) + "\n")
        if scan is not None:
            lines = []
            for n, failures in sorted(scan.items()):
                lines.append(f"n={n}: {len(failures)} counterexamples")
                for f in failures:
                    lines.append(f"  {f['rule']} at {f['word']}: images {f['images']}")
            (out_dir / "coincidence_scan.txt").write_text("\n".join(lines) + "\n")

    if args.format == "json":
        payload = {key: {} for key in ("type_counts", "class_totals", "vertex_totals", "mean_class_size")}
        for n, *counts, classes, vertices in rows[1:]:
            payload["type_counts"][str(n)] = dict(zip(GRAPH_TYPES, counts))
            payload["class_totals"][str(n)] = classes
            payload["vertex_totals"][str(n)] = vertices
            payload["mean_class_size"][str(n)] = str(expected_class_size(tables, n))
        if report is not None:
            payload["conjectures"] = report
        if scan is not None:
            payload["coincidence_scan"] = {str(n): fails for n, fails in sorted(scan.items())}
        print(json.dumps(payload, indent=2))
    elif args.format == "csv":
        csv.writer(sys.stdout).writerows(rows)
    else:
        widths = [max(len(str(r[i])) for r in rows) for i in range(len(rows[0]))]
        for row in rows:
            print("  ".join(str(cell).rjust(w) for cell, w in zip(row, widths)))
        if report is not None:
            print("\n" + render_conjecture_report(report))
        if scan is not None:
            print(f"\ncoincidence scan: {sum(len(v) for v in scan.values())} counterexamples")
            for n, failures in sorted(scan.items()):
                for f in failures:
                    print(f"  n={n} {f['rule']} at {f['word']}: images {f['images']}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="f2aut",
        description="Automorphic conjugacy classes of cyclic words in the rank-2 free group.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def word_cmd(name, func, help_text, extra_word=None, formats=("text", "json")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("word", help="word over a, b, A, B (capitals are inverses)")
        if extra_word:
            p.add_argument(extra_word, help="second word")
        p.add_argument("--format", choices=formats, default="text")
        p.set_defaults(func=func)
        return p

    word_cmd("minimize", cmd_minimize, "reduce a word to minimal cyclic length")
    word_cmd("equiv", cmd_equiv, "decide conjugacy up to automorphism", extra_word="other")
    word_cmd("profile", cmd_profile, "pattern counts and predicates of a word")
    word_cmd("graph", cmd_graph, "class graph of the minimized word", formats=("text", "json", "dot"))

    p = sub.add_parser("enumerate", help="census of all classes over a length range")
    p.add_argument("--lengths", required=True, help="length range as N or A..B (0 <= A <= B <= 20)")
    p.add_argument("--workers", type=int, default=None, help="worker processes (default: the usable cores)")
    p.add_argument("--out", default=None, help="directory for classes_<n>.jsonl and census CSV files")
    p.add_argument("--weight", type=int, default=None, help="restrict classes_<n>.jsonl to one weight (needs --out)")
    p.add_argument("--check-conjectures", action="store_true", help="emit the observed-versus-predicted report")
    p.add_argument("--scan-coincidences", action="store_true", help="scan principal-image coincidence implications")
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.set_defaults(func=cmd_enumerate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TheoremViolation as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:  # bad input, or an --out path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
