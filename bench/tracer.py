"""Outside-in tracer: per-layer spans around bimodcheck's entry points.

The package is never edited.  `Tracer.install` rebinds each wrapped
function in every bimodcheck module that holds a copy of it (the
package imports with `from .exactlin import ...`, so each importer has
its own name) and the class attributes `Matrix.__matmul__`,
`Matrix.apply`, `SpanTracker.add`, `Subspace.from_span` and
`_BarEngine._extend`; `uninstall` puts the originals back.

Each call becomes a span (name, start, end, parent span, document id)
kept in memory.  Counts are taken from the arguments and results seen at
the wrapper.  Work the tracer does for a span (counting cells, reading
ranks) happens outside the span's [start, end] and is subtracted from
every enclosing span, so self and total times do not include it.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from itertools import compress

_clock = time.perf_counter

# Elimination entry points of exactlin.  Calls nest (invert calls
# right_inverse, infeasibility_certificate calls kernel_basis), so
# shapes and ranks are counted on leaf eliminations only.
ELIM = ("rref", "rank", "kernel_basis", "solve_affine",
        "infeasibility_certificate", "right_inverse", "invert",
        "quotient_space")

# (module, function name, span name)
FUNCTIONS = (
    [("exactlin", f, "exactlin.elim") for f in ELIM]
    + [
        ("exactlin", "apply_slot", "exactlin.apply_slot"),
        ("bimodule", "equivariant_maps", "bimodule.equivariant_maps"),
        ("bimodule", "hom_left", "bimodule.hom_left"),
        ("bimodule", "hom_bimodule", "bimodule.hom_bimodule"),
        ("bimodule", "tensor_over", "bimodule.tensor_over"),
        ("homology", "module_hochschild", "homology.module_hochschild"),
        ("homology", "homotopy_check", "homology.homotopy_check"),
        ("homology", "_ring_complex", "homology.ring_complex"),
        ("homology", "comparison_check", "homology.comparison_check"),
        ("homology", "morita_data", "homology.morita_data"),
        ("diagnostics", "is_rel_projective", "diagnostics.is_rel_projective"),
        ("diagnostics", "is_formally_smooth_bimodule", "diagnostics.smooth"),
        ("diagnostics", "hdim_upto", "diagnostics.hdim_upto"),
        ("diagnostics", "morita_check", "diagnostics.morita_check"),
        ("cli", "load_document", "cli.load_document"),
        ("cli", "run_document", "cli.run_document"),
        ("cli", "render_json", "cli.render_json"),
    ])

# (module, class, attribute, span name)
METHODS = (
    ("exactlin", "Matrix", "__matmul__", "exactlin.matmul"),
    ("exactlin", "Matrix", "apply", "exactlin.apply"),
    ("exactlin", "SpanTracker", "add", "exactlin.span_add"),
    ("exactlin", "Subspace", "from_span", "exactlin.elim"),
    ("homology", "_BarEngine", "_extend", "homology.bar_extend"),
)


def _matmul_counts(args, result):
    """Cells (rows * inner * cols) and the products with two nonzero
    factors, which is all the work a sparse product would do."""
    a, b = args
    inner = range(a.cols)
    uses = [0] * a.cols          # nonzeros in each column of a
    for row in a.data:
        for k in compress(inner, row):
            uses[k] += 1
    useful = 0
    for k in compress(inner, uses):
        useful += uses[k] * sum(map(bool, b.data[k]))
    return {"cells": a.rows * a.cols * b.cols, "useful": useful}


def _elim_counts(name, args, result):
    """Shape and rank of one elimination (rank None when not read off)."""
    if name == "from_span":
        _cls, _field, ambient, vectors = args
        return {"rows": len(vectors), "cols": ambient, "rank": result.dim}
    if name == "quotient_space":
        ambient, relations = args
        return {"rows": relations.dim, "cols": ambient,
                "rank": relations.dim}
    m = args[0]
    rank = None
    if name == "rref":
        rank = len(result[1])
    elif name == "rank":
        rank = result
    elif name == "kernel_basis":
        rank = m.cols - result.dim
    elif name == "solve_affine" and result is not None:
        rank = m.cols - result.homogeneous.dim
    elif name in ("right_inverse", "invert"):
        rank = m.rows
    return {"rows": m.rows, "cols": m.cols, "rank": rank}


def _counts(kind, name, args, result):
    if kind == "exactlin.matmul":
        return _matmul_counts(args, result)
    if kind == "exactlin.elim":
        return _elim_counts(name, args, result)
    if kind == "exactlin.span_add":
        return {"new": int(result)}
    if kind == "bimodule.equivariant_maps":
        return {"unknowns": len(result.generators) * args[2],
                "solution_dim": result.dim}
    if kind == "bimodule.tensor_over":
        return {"plain_dim": args[0].dim * args[1].dim,
                "quotient_dim": result.space.dim}
    if kind == "homology.bar_extend":
        return {"dim": args[0].objects[-1].dim}
    return None


class _Frame:
    __slots__ = ("index", "name", "child_s", "hidden_s", "elim_child")

    def __init__(self, index, name):
        self.index = index
        self.name = name
        self.child_s = 0.0       # clean time covered by direct children
        self.hidden_s = 0.0      # tracer bookkeeping inside this span
        self.elim_child = False


class Tracer:
    """Collects spans while installed; `counters` and `times` aggregate
    a range of them."""

    def __init__(self):
        # [name, start, end, parent, doc, duration, self time, counts];
        # duration and self time exclude tracer bookkeeping
        self.spans: list = []
        self.stack: list = []
        self.doc = None
        self._saved: list = []

    # -------------------------------------------------------- wrapping

    def _wrap(self, fn, kind, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entered = _clock()
            stack = tracer.stack
            parent = stack[-1] if stack else None
            if kind == "exactlin.elim":
                if name == "from_span":    # (cls, field, ambient, vectors)
                    args = args[:3] + (list(args[3]),)
                if parent is not None and parent.name == kind:
                    parent.elim_child = True
            frame = _Frame(len(tracer.spans), kind)
            record = [kind, 0.0, 0.0, parent.index if parent else -1,
                      tracer.doc, 0.0, 0.0, None]
            tracer.spans.append(record)
            stack.append(frame)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = _clock()
                stack.pop()
                tracer._close(record, frame, parent, entered, start, end)
                raise
            end = _clock()
            stack.pop()
            if kind != "exactlin.elim" or not frame.elim_child:
                record[7] = _counts(kind, name, args, result)
            tracer._close(record, frame, parent, entered, start, end)
            return result

        return wrapper

    def _close(self, record, frame, parent, entered, start, end):
        clean = (end - start) - frame.hidden_s
        record[1], record[2] = start, end
        record[5], record[6] = clean, clean - frame.child_s
        if parent is not None:
            parent.child_s += clean
            parent.hidden_s += frame.hidden_s + (start - entered) \
                + (_clock() - end)

    def install(self, package) -> None:
        mods = {name: getattr(package, name) for name in
                ("exactlin", "bimodule", "homology", "diagnostics", "cli")}
        loaded = [m for n, m in sys.modules.items()
                  if n == package.__name__
                  or n.startswith(package.__name__ + ".")]
        for mod_name, fn_name, kind in FUNCTIONS:
            original = getattr(mods[mod_name], fn_name)
            wrapper = self._wrap(original, kind, fn_name)
            for mod in loaded:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, attr, value))
                        setattr(mod, attr, wrapper)
        for mod_name, cls_name, attr, kind in METHODS:
            cls = getattr(mods[mod_name], cls_name)
            raw = cls.__dict__[attr]
            self._saved.append((cls, attr, raw))
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, kind, attr))
            else:
                wrapped = self._wrap(raw, kind, attr)
            setattr(cls, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()

    # ------------------------------------------------------ reporting

    def mark(self) -> int:
        return len(self.spans)

    def drop(self, lo: int) -> None:
        """Forget spans[lo:], which must all have ended."""
        del self.spans[lo:]

    def counters(self, lo: int, hi: int) -> dict:
        """Deterministic work counts of spans[lo:hi]."""
        out: dict = {}

        def add(key, value):
            out[key] = out.get(key, 0) + value

        for name, _s, _e, _p, _d, _dur, _self, counts in self.spans[lo:hi]:
            if name == "exactlin.elim" and counts is None:
                continue            # not a leaf elimination
            add(f"{name}.calls", 1)
            if not counts:
                continue
            if name == "exactlin.elim":
                cells = counts["rows"] * counts["cols"]
                add("exactlin.elim.cells", cells)
                out["exactlin.elim.max_cells"] = max(
                    out.get("exactlin.elim.max_cells", 0), cells)
                if counts["rank"] is not None:
                    add("exactlin.elim.ranked_rows", counts["rows"])
                    add("exactlin.elim.rank", counts["rank"])
            elif name == "homology.bar_extend":
                out["homology.bar_extend.max_dim"] = max(
                    out.get("homology.bar_extend.max_dim", 0),
                    counts["dim"])
            else:
                for key, value in counts.items():
                    add(f"{name}.{key}", value)
        return out

    def times(self, lo: int, hi: int) -> dict:
        """Self time of every span name, and total time of the outermost
        spans of each name, over spans[lo:hi]."""
        out: dict = {}
        spans = self.spans
        for i in range(lo, hi):
            name, _s, _e, parent, _d, dur, self_s, _c = spans[i]
            key = f"{name}.self_s"
            out[key] = out.get(key, 0.0) + self_s
            p = parent
            while p >= lo and spans[p][0] != name:
                p = spans[p][3]
            if p < lo:
                key = f"{name}.total_s"
                out[key] = out.get(key, 0.0) + dur
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "doc",
                                  "duration_s", "self_s", "counts"],
                       "spans": self.spans}, fh, separators=(",", ":"))
