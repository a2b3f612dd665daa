"""Outside-in layer tracing for the f2aut benchmark.

The package is not instrumented.  Instead, Tracer.install replaces, in
each f2aut module, the module-level names that module imports from a
lower layer (and a few of its own entry points) with timing wrappers.
Every call across such a boundary becomes a span: name, start, end and
the span it was called from.  Spans are kept in flat arrays in memory
and written out once, when the traced run ends.  Counts (calls, letters,
necklaces, greedy steps, ...) are taken at the same boundaries from the
arguments and return values the wrappers see.

Limits a reader of the numbers must know:

- Only calls made through a module global are seen.  A call inside one
  module, or through a name the wrappers do not replace, is part of its
  caller's self time.
- Pool workers are forked with the wrappers in place, but what they
  record stays in the worker and is discarded with it.  With more than one
  worker, spans and counts exist only for the parent process: the shard
  scan shows up as enumeration self time spent waiting for the pool.
- A later change that removes a wrapped call (for instance by fusing
  pair_counts into the necklace scan) makes that call's count drop; the
  change must report the count it removed rather than hide the boundary.
"""

from __future__ import annotations

import importlib
import json
from array import array
from collections import Counter
from time import perf_counter

LAYERS = ("word_core", "automorphism", "minimality", "class_graph", "enumeration", "cli")

# (module whose global is replaced, global name, layer defining the function)
BOUNDARIES = (
    ("automorphism", "cyclic_reduce", "word_core"),
    ("automorphism", "is_cyclic_word", "word_core"),
    ("automorphism", "least_rotation", "word_core"),
    ("automorphism", "least_rotation_index", "word_core"),
    ("automorphism", "rotate", "word_core"),
    ("minimality", "apply_cyclic", "automorphism"),
    ("minimality", "canonical_witness", "automorphism"),
    ("minimality", "cyclic_reduce", "word_core"),
    ("minimality", "is_cyclic_word", "word_core"),
    ("minimality", "letter_tally", "word_core"),
    ("minimality", "pair_counts", "word_core"),
    ("minimality", "rotate", "word_core"),
    ("minimality", "subword_count", "word_core"),
    ("class_graph", "apply_cyclic", "automorphism"),
    ("class_graph", "canonical_word", "automorphism"),
    ("class_graph", "cyclic_reduce", "word_core"),
    ("class_graph", "is_alternating", "word_core"),
    ("class_graph", "is_minimal", "minimality"),
    ("class_graph", "is_root", "minimality"),
    ("enumeration", "_assemble", "class_graph"),
    ("enumeration", "apply_cyclic", "automorphism"),
    ("enumeration", "canonical_word", "automorphism"),
    ("enumeration", "pair_counts", "word_core"),
    ("enumeration", "weight", "word_core"),
    ("cli", "_write_csv", "cli"),
    ("cli", "census", "enumeration"),
    ("cli", "conjecture_report", "enumeration"),
    ("cli", "principal_coincidence_scan", "enumeration"),
    ("cli", "record_to_json_dict", "enumeration"),
    ("cli", "render_conjecture_report", "enumeration"),
)


class Tracer:
    """Spans and counters for one traced process."""

    def __init__(self, top_length=None):
        self.top_length = top_length  # census length whose necklaces are bucketed by prefix
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts = Counter()
        self.shards = Counter()
        self.missing = []

    def span(self, name, fn, observe=None, prepare=None):
        """fn wrapped so that each call records a span called `name`.

        prepare(args, kwargs) may replace the arguments before the call;
        observe(args, result) runs after the span has ended.
        """
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        names, parents, starts, ends, stack = self.name, self.parent, self.start, self.end, self._stack

        def traced(*args, **kwargs):
            if prepare is not None:
                args, kwargs = prepare(args, kwargs)
            sid = len(names)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = perf_counter()
                starts[sid] = t0
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return traced

    # -- counters taken at the boundaries ---------------------------------

    def _necklace(self, args, pc):
        w = args[0]
        self.counts["necklaces"] += 1
        if abs(pc.ab - pc.ab_bar) <= min(pc.aa, pc.bb):
            self.counts["minimal_words"] += 1
        if len(w) == self.top_length:
            self.shards[w[:4]] += 1

    def _mapped(self, args, image):
        self.counts["letters_mapped"] += len(args[1])

    def _mapped_greedy(self, args, image):
        self.counts["letters_mapped"] += len(args[1])
        if len(image) < len(args[1]):
            self.counts["greedy_steps"] += 1

    def witness(self, args, result):
        self.counts["witness_tokens"] += len(result[1] or ())

    def graph(self, args, g):
        self.counts["vertices"] += len(g.vertices)

    def _sink(self, args, kwargs):
        if kwargs.get("sink") is not None:
            kwargs["sink"] = self.span("cli.sink", kwargs["sink"])
        return args, kwargs

    def install(self):
        """Replace every boundary name present in the package."""
        observers = {
            ("enumeration", "pair_counts"): self._necklace,
            ("enumeration", "apply_cyclic"): self._mapped,
            ("class_graph", "apply_cyclic"): self._mapped,
            ("minimality", "apply_cyclic"): self._mapped_greedy,
        }
        for mod_name, attr, layer in BOUNDARIES:
            module = importlib.import_module(f"f2aut.{mod_name}")
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            prepare = self._sink if (mod_name, attr) == ("cli", "census") else None
            wrapped = self.span(
                f"{layer}.{attr}", original, observers.get((mod_name, attr)), prepare
            )
            setattr(module, attr, wrapped)

    # -- results -------------------------------------------------------------

    def summary(self) -> dict:
        """Calls, inclusive seconds per span name and self seconds per layer."""
        n = len(self.name)
        dur = [e - s for s, e in zip(self.start, self.end)]
        covered = [0.0] * n
        for i, p in enumerate(self.parent):
            if p >= 0:
                covered[p] += dur[i]
        calls, inclusive, self_s = Counter(), Counter(), Counter()
        for i, nid in enumerate(self.name):
            name = self.names[nid]
            calls[name] += 1
            inclusive[name] += dur[i]
            self_s[name.partition(".")[0]] += dur[i] - covered[i]
        return {
            "spans": n,
            "calls": dict(calls),
            "inclusive_s": dict(inclusive),
            "self_s": dict(self_s),
            "counts": dict(self.counts),
            "shards": dict(self.shards),
            "missing": self.missing,
        }

    def dump(self, path) -> None:
        """Write the spans: a JSON header line, then the four arrays' bytes."""
        header = {"names": self.names, "spans": len(self.name),
                  "arrays": ["name:i", "parent:i", "start:d", "end:d"]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)


def load_spans(path):
    """Read a dump back as (names, [(name, parent, start, end), ...])."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        count = header["spans"]
        arrays = []
        for spec in header["arrays"]:
            arr = array(spec.partition(":")[2])
            arr.fromfile(fh, count)
            arrays.append(arr)
    names = header["names"]
    return names, [(names[a], p, s, e) for a, p, s, e in zip(*arrays)]


# Per-layer metrics of a traced run: name -> (unit, better).  The end-to-end
# metric and workload each one should move are listed in perfbench/README.md.
PER_LAYER = {
    "enumeration.necklaces": ("count", "lower"),
    "enumeration.minimal_words": ("count", "lower"),
    "enumeration.filter_yield": ("ratio", "higher"),
    "enumeration.max_shard_share": ("ratio", "lower"),
    "enumeration.self_s": ("s", "lower"),
    "enumeration.rows_s": ("s", "lower"),
    "enumeration.merge_s": ("s", "lower"),
    "enumeration.scan_s": ("s", "lower"),
    "cli.report_s": ("s", "lower"),
    "cli.write_s": ("s", "lower"),
    "cli.out_bytes": ("bytes", "lower"),
    "cli.self_s": ("s", "lower"),
    "word_core.pair_counts_calls": ("count", "lower"),
    "word_core.pair_counts_s": ("s", "lower"),
    "word_core.rotate_calls": ("count", "lower"),
    "word_core.rotate_s": ("s", "lower"),
    "word_core.self_s": ("s", "lower"),
    "automorphism.canonical_word_calls": ("count", "lower"),
    "automorphism.canonical_word_s": ("s", "lower"),
    "automorphism.canonical_witness_calls": ("count", "lower"),
    "automorphism.canonical_witness_s": ("s", "lower"),
    "automorphism.apply_cyclic_calls": ("count", "lower"),
    "automorphism.apply_cyclic_s": ("s", "lower"),
    "automorphism.letters_mapped": ("count", "lower"),
    "automorphism.self_s": ("s", "lower"),
    "minimality.greedy_steps": ("count", "lower"),
    "minimality.witness_tokens": ("count", "lower"),
    "minimality.minimize_s": ("s", "lower"),
    "minimality.are_conjugate_s": ("s", "lower"),
    "minimality.self_s": ("s", "lower"),
    "class_graph.assemble_calls": ("count", "lower"),
    "class_graph.assemble_s": ("s", "lower"),
    "class_graph.build_graph_s": ("s", "lower"),
    "class_graph.vertices": ("count", "lower"),
    "class_graph.self_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def layer_metrics(summary: dict, rows_s: float, merge_s: float,
                  out_bytes: int, overhead_s: float) -> dict:
    """The PER_LAYER values from a Tracer.summary and the run's own timings."""
    calls, incl = Counter(summary["calls"]), Counter(summary["inclusive_s"])
    counts, shards = Counter(summary["counts"]), summary["shards"]
    necklaces = counts["necklaces"]
    values = {
        "enumeration.necklaces": necklaces,
        "enumeration.minimal_words": counts["minimal_words"],
        "enumeration.filter_yield": counts["minimal_words"] / necklaces if necklaces else 0.0,
        "enumeration.max_shard_share": (
            max(shards.values()) / sum(shards.values()) if shards else 0.0
        ),
        "enumeration.rows_s": rows_s,
        "enumeration.merge_s": merge_s,
        "enumeration.scan_s": incl["enumeration.principal_coincidence_scan"],
        "cli.report_s": incl["enumeration.conjecture_report"]
        + incl["enumeration.render_conjecture_report"],
        "cli.write_s": incl["cli.sink"] + incl["cli._write_csv"],
        "cli.out_bytes": out_bytes,
        "automorphism.letters_mapped": counts["letters_mapped"],
        "minimality.greedy_steps": counts["greedy_steps"],
        "minimality.witness_tokens": counts["witness_tokens"],
        "minimality.minimize_s": incl["minimality.minimize"],
        "minimality.are_conjugate_s": incl["minimality.are_conjugate"],
        "class_graph.assemble_calls": calls["class_graph._assemble"],
        "class_graph.assemble_s": incl["class_graph._assemble"],
        "class_graph.build_graph_s": incl["class_graph.build_graph"],
        "class_graph.vertices": counts["vertices"],
        "trace.spans": summary["spans"],
        "trace.overhead_s": overhead_s,
    }
    for name in ("word_core.pair_counts", "word_core.rotate", "automorphism.canonical_word",
                 "automorphism.canonical_witness", "automorphism.apply_cyclic"):
        values[f"{name}_calls"] = calls[name]
        values[f"{name}_s"] = incl[name]
    for layer in LAYERS:
        values[f"{layer}.self_s"] = summary["self_s"].get(layer, 0.0)
    assert set(values) == set(PER_LAYER)
    return {name: float(v) if PER_LAYER[name][0] == "s" else v for name, v in values.items()}
