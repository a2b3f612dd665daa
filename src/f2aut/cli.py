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
import sys
from pathlib import Path

from .automorphism import canonical_word
from .class_graph import GRAPH_TYPES, TheoremViolation, build_graph, to_dict, to_dot, to_json
from .enumeration import (
    census,
    conjecture_report,
    expected_class_size,
    principal_coincidence_scan,
    render_conjecture_report,
)
from .minimality import (
    are_conjugate,
    format_token,
    is_minimal,
    level_profile,
    minimize,
)
from .word_core import (
    check_word,
    cyclic_reduce,
    free_reduce,
    letter_tally,
    pair_counts,
    weight,
)

PRINCIPAL_NAMES = ("W[a,b]", "W[a,B]", "W[b,a]", "W[b,A]")


def _core(word: str) -> str:
    check_word(word)
    return cyclic_reduce(free_reduce(word))[0]


def _emit(args, payload: dict, text_lines) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        for line in text_lines:
            print(line)


def cmd_minimize(args) -> int:
    core = _core(args.word)
    minimal, trace = minimize(core)
    steps = [format_token(phi) for phi in trace]
    payload = {
        "input": args.word,
        "cyclic": core,
        "minimal": minimal,
        "canonical": canonical_word(minimal),
        "length": len(minimal),
        "steps": steps,
    }
    _emit(
        args,
        payload,
        [
            f"input: {args.word}",
            f"cyclic: {core}",
            f"minimal: {minimal}",
            f"canonical: {payload['canonical']}",
            f"length: {payload['length']}",
            "steps: " + (" ".join(steps) if steps else "(none)"),
        ],
    )
    return 0


def cmd_equiv(args) -> int:
    check_word(args.word)
    check_word(args.other)
    flag, tokens = are_conjugate(args.word, args.other)
    payload = {"equivalent": flag, "witness": list(tokens) if tokens else None}
    lines = ["equivalent" if flag else "not equivalent"]
    if tokens:
        lines.append("witness: " + " ".join(tokens))
    _emit(args, payload, lines)
    return 0 if flag else 1


def cmd_profile(args) -> int:
    core = _core(args.word)
    pc = pair_counts(core)
    a_count, b_count = letter_tally(core)
    minimal = is_minimal(core)
    payload = {
        "input": args.word,
        "cyclic": core,
        "length": len(core),
        "counts": {"aa": pc.aa, "bb": pc.bb, "ab": pc.ab, "ab_bar": pc.ab_bar},
        "letters": {"a_type": a_count, "b_type": b_count},
        "weight": weight(core),
        "minimal": minimal,
    }
    lines = [
        f"input: {args.word}",
        f"cyclic: {core}",
        f"length: {len(core)}",
        f"counts: aa={pc.aa} bb={pc.bb} ab={pc.ab} ab_bar={pc.ab_bar}",
        f"letters: a_type={a_count} b_type={b_count}",
        f"weight: {payload['weight']}",
        f"minimal: {minimal}",
    ]
    if minimal:
        prof = level_profile(core)
        payload["root"] = prof.is_root
        payload["alternating"] = prof.is_alternating
        payload["level"] = {
            name: flag for name, flag in zip(PRINCIPAL_NAMES, prof.level_flags)
        }
        lines.append(f"root: {prof.is_root}")
        lines.append(f"alternating: {prof.is_alternating}")
        lines.append(
            "level: "
            + " ".join(
                f"{name}={'yes' if flag else 'no'}"
                for name, flag in zip(PRINCIPAL_NAMES, prof.level_flags)
            )
        )
    _emit(args, payload, lines)
    return 0


def cmd_graph(args) -> int:
    core = _core(args.word)
    minimal, _ = minimize(core)
    g = build_graph(minimal)
    if args.format == "json":
        print(to_json(g))
    elif args.format == "dot":
        print(to_dot(g))
    else:
        print(f"type: {g.gtype}")
        print(f"size: {len(g.vertices)}")
        print(f"root: {g.is_root_class}")
        print(f"alternating: {g.has_alternating}")
        for i, v in enumerate(g.vertices):
            print(f"vertex v{i}: {v}")
        for u, v, p in g.edges:
            print(f"edge: v{u} -> v{v} [{p}]")
    return 0


def _parse_lengths(text: str) -> range:
    lo, sep, hi = text.partition("..")
    if not sep:
        hi = lo
    try:
        lo_i, hi_i = int(lo), int(hi)
    except ValueError:
        raise ValueError(f"--lengths expects N or A..B, got {text!r}") from None
    if not 0 <= lo_i <= hi_i <= 20:
        raise ValueError("--lengths must satisfy 0 <= A <= B <= 20")
    return range(lo_i, hi_i + 1)


def _resolve_workers(args) -> int:
    if args.workers is not None:
        workers = args.workers
    elif os.environ.get("F2AUT_WORKERS"):
        try:
            workers = int(os.environ["F2AUT_WORKERS"])
        except ValueError:
            raise ValueError("F2AUT_WORKERS must be an integer") from None
    else:
        workers = max(1, os.cpu_count() or 1)
    if workers < 1:
        raise ValueError("workers must be >= 1")
    return workers


def _write_csv(path: Path, rows) -> None:
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _type_count_rows(tables) -> list:
    rows = [["n", *GRAPH_TYPES, "classes", "vertices"]]
    for n in sorted(tables.type_counts):
        counts = tables.type_counts[n]
        rows.append(
            [
                n,
                *[counts.get(g, 0) for g in GRAPH_TYPES],
                tables.class_totals[n],
                tables.vertex_totals[n],
            ]
        )
    return rows


def _size_table_rows(tables, gtype: str) -> list:
    per_n = tables.size_counts[gtype]
    sizes = sorted({s for counter in per_n.values() for s in counter})
    rows = [["n", *sizes]]
    for n in sorted(per_n):
        rows.append([n, *[per_n[n].get(s, 0) for s in sizes]])
    return rows


def cmd_enumerate(args) -> int:
    lengths = _parse_lengths(args.lengths)
    workers = _resolve_workers(args)
    out_dir = Path(args.out) if args.out else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)

    scan = {} if args.scan_coincidences else None

    def sink(n, records):
        if scan is not None:
            scan[n] = principal_coincidence_scan(records)
        if out_dir is None:
            return
        with (out_dir / f"classes_{n}.jsonl").open("w") as fh:
            for rec in records:
                if args.weight is not None and rec.weight != args.weight:
                    continue
                fh.write(json.dumps({"id": rec.class_id, **to_dict(rec.graph)}) + "\n")

    tables = census(lengths, workers=workers, sink=sink)

    report = conjecture_report(tables) if args.check_conjectures else None

    if out_dir is not None:
        _write_csv(out_dir / "type_counts.csv", _type_count_rows(tables))
        for gtype in ("P1", "P2", "P3"):
            _write_csv(out_dir / f"sizes_{gtype}.csv", _size_table_rows(tables, gtype))
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
        payload = {
            "type_counts": {
                str(n): {g: tables.type_counts[n].get(g, 0) for g in GRAPH_TYPES}
                for n in sorted(tables.type_counts)
            },
            "class_totals": {str(n): tables.class_totals[n] for n in sorted(tables.class_totals)},
            "vertex_totals": {str(n): tables.vertex_totals[n] for n in sorted(tables.vertex_totals)},
            "mean_class_size": {
                str(n): str(expected_class_size(tables, n)) for n in sorted(tables.class_totals)
            },
        }
        if report is not None:
            payload["conjectures"] = report
        if scan is not None:
            payload["coincidence_scan"] = {str(n): fails for n, fails in sorted(scan.items())}
        print(json.dumps(payload, indent=2))
    elif args.format == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerows(_type_count_rows(tables))
    else:
        rows = _type_count_rows(tables)
        widths = [max(len(str(r[i])) for r in rows) for i in range(len(rows[0]))]
        for row in rows:
            print("  ".join(str(cell).rjust(w) for cell, w in zip(row, widths)))
        if report is not None:
            print()
            print(render_conjecture_report(report))
        if scan is not None:
            print()
            total = sum(len(v) for v in scan.values())
            print(f"coincidence scan: {total} counterexamples")
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
    p.add_argument("--workers", type=int, default=None, help="worker processes (default: $F2AUT_WORKERS or all cores)")
    p.add_argument("--out", default=None, help="directory for classes_<n>.jsonl and census CSV files")
    p.add_argument("--weight", type=int, default=None, help="restrict classes_<n>.jsonl to one weight")
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
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
