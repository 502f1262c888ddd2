"""Spans and counters at the module boundaries of goeritz, from outside.

The tracer patches each traced function at every place a caller looks
it up (the module attribute of every goeritz module that holds it, and
the class attribute for methods), so `goeritz.cli.is_primitive_whitehead`
and `goeritz.sweeps.least_rotation` are traced as well as the defining
module. The package itself is not edited. Spans are kept in memory as
columns (name, start, end, parent, subject) and written out when the
traced pass ends; a span's self time is its duration minus the time its
child spans cover.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array
from collections import defaultdict

# Every per-layer metric the traced pass reports: (name, unit, better).
PER_LAYER = [
    ("primitivity.whitehead.calls", "count", "lower"),
    ("primitivity.whitehead.busy_s", "s", "lower"),
    ("primitivity.whitehead.letters_in", "count", "lower"),
    ("primitivity.whitehead.moves_tried", "count", "lower"),
    ("primitivity.whitehead.moves_applied", "count", "lower"),
    ("primitivity.whitehead.move_yield", "ratio", "higher"),
    ("primitivity.filter.calls", "count", "lower"),
    ("primitivity.filter.busy_s", "s", "lower"),
    ("primitivity.filter.fire_rate", "ratio", "higher"),
    ("primitivity.oz.calls", "count", "lower"),
    ("primitivity.oz.busy_s", "s", "lower"),
    ("words.least_rotation.calls", "count", "lower"),
    ("words.least_rotation.busy_s", "s", "lower"),
    ("words.least_rotation.letters", "count", "lower"),
    ("words.free_reduce_codes.calls", "count", "lower"),
    ("words.free_reduce_codes.busy_s", "s", "lower"),
    ("words.free_reduce_codes.letters", "count", "lower"),
    ("words.Word.calls", "count", "lower"),
    ("words.Word.busy_s", "s", "lower"),
    ("words.Word.letters", "count", "lower"),
    ("words.substitute.busy_s", "s", "lower"),
    ("words.substitute.letters", "count", "lower"),
    ("words.render.busy_s", "s", "lower"),
    ("words.render.bytes", "bytes", "lower"),
    ("words.parse_word.busy_s", "s", "lower"),
    ("words.parse_word.letters", "count", "lower"),
    ("sweeps.enumerate.busy_s", "s", "lower"),
    ("sweeps.enumerate.generated", "count", "lower"),
    ("sweeps.enumerate.yielded", "count", "higher"),
    ("sweeps.enumerate.yield_ratio", "ratio", "higher"),
    ("sweeps.run_sweep.busy_s", "s", "lower"),
    ("sequences.make_params.calls", "count", "lower"),
    ("sequences.make_params.busy_s", "s", "lower"),
    ("sequences.pq_sequence.busy_s", "s", "lower"),
    ("sequences.pq_sequence.letters", "count", "lower"),
    ("shells.build_shell.calls", "count", "lower"),
    ("shells.build_shell.busy_s", "s", "lower"),
    ("shells.build_shell.letters", "count", "lower"),
    ("farey.witness.calls", "count", "lower"),
    ("farey.witness.busy_s", "s", "lower"),
    ("farey.witness.steps", "count", "lower"),
    ("farey.witness.letters", "count", "lower"),
    ("classify.classify.calls", "count", "lower"),
    ("classify.classify.busy_s", "s", "lower"),
    ("presentations.goeritz_presentation.calls", "count", "lower"),
    ("presentations.goeritz_presentation.busy_s", "s", "lower"),
    ("presentations.amalgam_decomposition.calls", "count", "lower"),
    ("presentations.amalgam_decomposition.busy_s", "s", "lower"),
    ("presentations.abelianize.calls", "count", "lower"),
    ("presentations.abelianize.busy_s", "s", "lower"),
    ("presentations.render.calls", "count", "lower"),
    ("presentations.render.busy_s", "s", "lower"),
    ("presentations.render.bytes", "bytes", "lower"),
    ("snf.smith_normal_form.calls", "count", "lower"),
    ("snf.smith_normal_form.busy_s", "s", "lower"),
    ("snf.smith_normal_form.cells", "count", "lower"),
    ("report.build_report.busy_s", "s", "lower"),
    ("report.report_dict.busy_s", "s", "lower"),
    ("report.json_bytes", "bytes", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.out_bytes", "bytes", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.untraced_s", "s", "lower"),
    ("trace.traced_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

# Span name -> metric prefix of its calls and self time (busy_s). The self
# time of `cli.main` is reported as cli.self_s.
_BUSY = {
    "whitehead": "primitivity.whitehead",
    "filter": "primitivity.filter",
    "oz": "primitivity.oz",
    "least_rotation": "words.least_rotation",
    "free_reduce_codes": "words.free_reduce_codes",
    "Word": "words.Word",
    "substitute": "words.substitute",
    "render_word": "words.render",
    "parse_word": "words.parse_word",
    "enumerate": "sweeps.enumerate",
    "run_sweep": "sweeps.run_sweep",
    "make_params": "sequences.make_params",
    "pq_sequence": "sequences.pq_sequence",
    "build_shell": "shells.build_shell",
    "witness": "farey.witness",
    "classify": "classify.classify",
    "goeritz_presentation": "presentations.goeritz_presentation",
    "amalgam_decomposition": "presentations.amalgam_decomposition",
    "abelianize": "presentations.abelianize",
    "render": "presentations.render",
    "smith_normal_form": "snf.smith_normal_form",
    "build_report": "report.build_report",
    "report_dict": "report.report_dict",
}


def _sized(x) -> int:
    return len(x) if hasattr(x, "__len__") else 0


class Tracer:
    """Records spans and counters while installed; `remove` restores the package."""

    def __init__(self, enumerated_candidates):
        self._enumerated_candidates = enumerated_candidates
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.col_name = array("H")
        self.col_parent = array("q")
        self.col_subject = array("q")
        self.col_start = array("d")
        self.col_end = array("d")
        self.stack = [-1]
        self.subject = -1
        self.counts: dict[str, int] = defaultdict(int)
        self._undo: list[tuple[object, str, object]] = []

    # --- wrappers

    def _span(self, name, fn, tally=None):
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        col_name, col_parent, col_subject = self.col_name, self.col_parent, self.col_subject
        col_start, col_end, stack, counts = self.col_start, self.col_end, self.stack, self.counts
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(col_start)
            col_name.append(nid)
            col_parent.append(stack[-1])
            col_subject.append(tracer.subject)
            col_end.append(0.0)
            stack.append(idx)
            col_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                col_end[idx] = clock()
                stack.pop()
            if tally is not None:
                tally(counts, args, result)
            return result

        return wrapper

    def _tally_only(self, key, fn, hit=lambda result: True):
        counts = self.counts

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if hit(result):
                counts[key] += 1
            return result

        return wrapper

    def _span_generator(self, fn, check):
        """Times each step of an enumerator; the consumer's work between
        steps is not part of the span."""
        step = self._span("enumerate", lambda it: next(it))
        counts, enumerated = self.counts, self._enumerated_candidates

        def wrapper(max_len):
            counts["sweeps.enumerate.generated"] += enumerated(check, max_len)
            it = fn(max_len)
            while True:
                try:
                    item = step(it)
                except StopIteration:
                    return
                counts["sweeps.enumerate.yielded"] += 1
                yield item

        return wrapper

    # --- installation

    def _patch_everywhere(self, modules, original, replacement) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, replacement)

    def _patch_class(self, cls, attr, make) -> None:
        original = cls.__dict__[attr]
        self._undo.append((cls, attr, original))
        setattr(cls, attr, make(original))

    def install(self) -> None:
        # by module path: the package exports functions named like some modules
        names = ("cli", "classify", "farey", "presentations", "primitivity", "report",
                 "sequences", "shells", "snf", "sweeps", "words")
        modules = [importlib.import_module("goeritz")]
        modules += [importlib.import_module(f"goeritz.{name}") for name in names]
        (cli, classify, farey, presentations, primitivity, report,
         sequences, shells, snf, sweeps, words) = modules[1:]

        def add(key, f):
            def tally(counts, args, result):
                counts[key] += f(args, result)
            return tally

        def witness_tally(counts, args, result):
            counts["farey.witness.steps"] += len(result.disks)
            counts["farey.witness.letters"] += sum(len(d.word) for d in result.disks)

        first_len = lambda args, result: _sized(args[0])
        result_len = lambda args, result: len(result)
        spans = [
            (primitivity.is_primitive_whitehead, "whitehead", add("primitivity.whitehead.letters_in", first_len)),
            (primitivity.whitehead_trace, "whitehead", add("primitivity.whitehead.letters_in", first_len)),
            (primitivity.nonprimitivity_filter, "filter",
             add("primitivity.filter.fires", lambda a, r: r.outcome.value == "not-primitive")),
            (primitivity.is_primitive_positive, "oz", None),
            (words.least_rotation, "least_rotation", add("words.least_rotation.letters", first_len)),
            (words.free_reduce_codes, "free_reduce_codes",
             add("words.free_reduce_codes.letters", lambda a, r: _sized(a[0]) or len(r))),
            (words.substitute, "substitute", add("words.substitute.letters", result_len)),
            (words.parse_word, "parse_word", add("words.parse_word.letters", result_len)),
            (sweeps.run_sweep, "run_sweep", None),
            (sequences.make_params, "make_params", None),
            (sequences.pq_sequence, "pq_sequence",
             add("sequences.pq_sequence.letters", lambda a, r: sum(len(w) for w in r.words))),
            (shells.build_shell, "build_shell",
             add("shells.build_shell.letters", lambda a, r: sum(len(e.boundary_word) for e in r.entries))),
            (farey.nonconnectivity_witness, "witness", witness_tally),
            (classify.classify, "classify", None),
            (presentations.goeritz_presentation, "goeritz_presentation", None),
            (presentations.amalgam_decomposition, "amalgam_decomposition", None),
            (presentations.abelianize_presentation, "abelianize", None),
            (presentations.render, "render", add("presentations.render.bytes", lambda a, r: len(r.encode()))),
            (snf.smith_normal_form, "smith_normal_form",
             add("snf.smith_normal_form.cells", lambda a, r: len(a[0]) * len(a[0][0]) if a[0] else 0)),
            (report.build_report, "build_report", None),
            (report.report_dict, "report_dict", None),
            (cli.main, "cli", None),
        ]
        for original, name, tally in spans:
            self._patch_everywhere(modules, original, self._span(name, original, tally))
        for original, check in ((sweeps.positive_cyclic_words, "oz-vs-whitehead"),
                                (sweeps.reduced_cores, "filter-soundness")):
            self._patch_everywhere(modules, original, self._span_generator(original, check))
        self._patch_everywhere(
            modules, primitivity._find_shortening,
            self._tally_only("primitivity.whitehead.moves_applied", primitivity._find_shortening,
                             lambda result: result is not None))

        word_letters = add("words.Word.letters", lambda a, r: len(a[0].codes))
        self._patch_class(words.Word, "__init__", lambda f: self._span("Word", f, word_letters))
        render_bytes = add("words.render.bytes", result_len)
        for cls in (words.Word, words.CyclicWord):
            for attr in ("__str__", "spell"):
                self._patch_class(cls, attr, lambda f: self._span("render_word", f, render_bytes))
        self._patch_class(primitivity.WhiteheadAutomorphism, "apply_codes",
                          lambda f: self._tally_only("primitivity.whitehead.moves_tried", f))

    def remove(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # --- results

    def metrics(self) -> dict[str, float]:
        """Calls and self time per span name, plus the counters."""
        n = len(self.col_start)
        starts, ends, parents, names = self.col_start, self.col_end, self.col_parent, self.col_name
        covered = array("d", bytes(8 * n))
        for i in range(n):
            parent = parents[i]
            if parent >= 0:
                covered[parent] += ends[i] - starts[i]
        calls = [0] * len(self.names)
        busy = [0.0] * len(self.names)
        for i in range(n):
            nid = names[i]
            calls[nid] += 1
            busy[nid] += ends[i] - starts[i] - covered[i]
        out = {name: 0 for name, _, _ in PER_LAYER}
        for nid, span_name in enumerate(self.names):
            if span_name == "cli":
                out["cli.self_s"] = busy[nid]
                continue
            prefix = _BUSY[span_name]
            out[f"{prefix}.busy_s"] = busy[nid]
            if f"{prefix}.calls" in out:
                out[f"{prefix}.calls"] = calls[nid]
        for key, value in self.counts.items():
            if key in out:
                out[key] = value
        c = self.counts
        out["primitivity.whitehead.move_yield"] = _ratio(c["primitivity.whitehead.moves_applied"],
                                                         c["primitivity.whitehead.moves_tried"])
        out["primitivity.filter.fire_rate"] = _ratio(c["primitivity.filter.fires"], out["primitivity.filter.calls"])
        out["sweeps.enumerate.yield_ratio"] = _ratio(c["sweeps.enumerate.yielded"], c["sweeps.enumerate.generated"])
        out["trace.spans"] = n
        return out

    def write(self, path: str) -> None:
        """Header line (JSON: names and column layout), then the raw columns."""
        columns = [("name", self.col_name), ("parent", self.col_parent), ("subject", self.col_subject),
                   ("start", self.col_start), ("end", self.col_end)]
        header = {"names": self.names, "spans": len(self.col_start), "byteorder": sys.byteorder,
                  "columns": [[label, col.typecode] for label, col in columns]}
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode() + b"\n")
            for _, col in columns:
                col.tofile(f)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
