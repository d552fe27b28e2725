"""Command line front end: load a JSON document describing algebras,
bimodules, and ring maps, run the named diagnostics, and report.

Document layout:

    {
      "field": "Q" | {"prime": p},
      "algebras":  {name: {"dim": n, "mult": [[[c...]...]...], "unit": [c...]}},
      "bimodules": {name: {"left": a, "right": a, "dim": n,
                           "left_action": [mat...], "right_action": [mat...]}},
      "maps":      {name: {"source": a, "target": a, "matrix": mat}},
      "tasks":     ["separable M", {"op": "hdim", "args": ["M"],
                                    "options": {"nmax": 3}, "expect": {...}}]
    }

Scalars are strings "p/q" or integers over Q, integers over F_p.
Matrices are row-major nested arrays.  The field is declared once and
applies to the whole document.  Reports are emitted in task order and
are byte-identical across runs unless --timings is given.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

from .bimodule import Bimodule, BimoduleMap, is_generator, validate_bimodule
from .diagnostics import (
    hdim_upto,
    is_formally_smooth_bimodule,
    is_formally_smooth_extension,
    is_rel_projective,
    is_separable_bimodule,
    is_separable_extension,
    morita_check,
    static_criteria,
    sugano_check,
)
from .errors import BimodcheckError, SchemaError, ValidationError
from .exactlin import Field, Frozen, Matrix, dense_vec, sparse_vec
from .homology import bar_resolution, homotopy_check, module_hochschild
from .structures import Algebra, RingMap, validate_algebra, validate_ring_map

DIM_CAP_ENV = "BIMODCHECK_DIM_CAP"


# ---------------------------------------------------------------- parsing

_MISSING = object()


def _get(obj: dict, key: str, path: str, default=_MISSING):
    if key in obj:
        return obj[key]
    if default is _MISSING:
        raise SchemaError(f"missing key {key!r}", path)
    return default


def _require(cond: bool, msg: str, path: str) -> None:
    if not cond:
        raise SchemaError(msg, path)


def _as_dict(obj, path: str) -> dict:
    _require(isinstance(obj, dict), "expected an object", path)
    return obj


def _as_list(obj, path: str, length: int | None = None) -> list:
    _require(isinstance(obj, list), "expected an array", path)
    if length is not None:
        _require(len(obj) == length,
                 f"expected length {length}, got {len(obj)}", path)
    return obj


def _resolve(kind: str, table: dict, name, path: str):
    _require(isinstance(name, str), f"{kind} names are strings", path)
    _require(name in table, f"unknown {kind} {name!r}", path)
    return table[name]


def _as_nonneg_int(obj, path: str) -> int:
    _require(isinstance(obj, int) and not isinstance(obj, bool) and obj >= 0,
             "expected a nonnegative integer", path)
    return obj


def parse_field(spec, path: str = "$.field") -> Field:
    if spec == "Q":
        return Field()
    if isinstance(spec, dict) and set(spec) == {"prime"}:
        p = spec["prime"]
        _require(isinstance(p, int) and not isinstance(p, bool) and p >= 2,
                 "prime must be an integer >= 2", path + ".prime")
        try:
            return Field(p)
        except ValueError as e:
            raise SchemaError(str(e), path + ".prime")
    raise SchemaError('expected "Q" or {"prime": p}', path)


def parse_scalar(field: Field, obj, path: str):
    if isinstance(obj, bool):
        raise SchemaError("expected a scalar, got a boolean", path)
    if field.is_rational:
        if isinstance(obj, int):
            return field.scalar(obj)
        if isinstance(obj, str):
            try:
                return field.scalar(obj)
            except (ValueError, ZeroDivisionError):
                raise SchemaError(f"bad rational {obj!r}", path)
        raise SchemaError('rationals are integers or "p/q" strings', path)
    if isinstance(obj, int):
        return field.scalar(obj)
    raise SchemaError(f"F_{field.p} scalars are integers", path)


def render_scalar(field: Field, value):
    """Exactly invertible text form: strings over Q, residues over F_p."""
    if field.is_rational:
        return str(value)
    return int(value)


def parse_matrix(field: Field, obj, rows: int, cols: int, path: str) -> Matrix:
    entries = _as_list(obj, path, rows)
    data = []
    for i, row in enumerate(entries):
        row = _as_list(row, f"{path}[{i}]", cols)
        data.append([parse_scalar(field, x, f"{path}[{i}][{j}]")
                     for j, x in enumerate(row)])
    return Matrix(field, data, cols=cols)


def render_matrix(field: Field, mat: Matrix) -> list:
    return [[render_scalar(field, x) for x in row] for row in mat.data]


def _parse_algebra(field: Field, name: str, obj, path: str) -> Algebra:
    obj = _as_dict(obj, path)
    dim = _as_nonneg_int(_get(obj, "dim", path), path + ".dim")
    mult_obj = _as_list(_get(obj, "mult", path), path + ".mult", dim)
    mult = []
    for i, row in enumerate(mult_obj):
        row = _as_list(row, f"{path}.mult[{i}]", dim)
        out_row = []
        for j, cell in enumerate(row):
            cell_path = f"{path}.mult[{i}][{j}]"
            cell = _as_list(cell, cell_path, dim)
            out_row.append(sparse_vec(field, [
                parse_scalar(field, c, f"{cell_path}[{k}]")
                for k, c in enumerate(cell)]))
        mult.append(tuple(out_row))
    unit_obj = _as_list(_get(obj, "unit", path), path + ".unit", dim)
    unit = sparse_vec(field, [parse_scalar(field, c, f"{path}.unit[{k}]")
                              for k, c in enumerate(unit_obj)])
    return Algebra(field, dim, tuple(mult), unit, name=name)


def _parse_bimodule(field: Field, name: str, obj, algebras: dict,
                    path: str) -> Bimodule:
    obj = _as_dict(obj, path)
    left = _resolve("algebra", algebras, _get(obj, "left", path),
                    path + ".left")
    right = _resolve("algebra", algebras, _get(obj, "right", path),
                     path + ".right")
    dim = _as_nonneg_int(_get(obj, "dim", path), path + ".dim")

    def actions(key: str, count: int) -> tuple:
        mats = _as_list(_get(obj, key, path), f"{path}.{key}", count)
        return tuple(parse_matrix(field, m, dim, dim, f"{path}.{key}[{i}]")
                     for i, m in enumerate(mats))

    return Bimodule(left, right, dim, actions("left_action", left.dim),
                    actions("right_action", right.dim), name=name)


def _parse_map(field: Field, name: str, obj, algebras: dict,
               path: str) -> RingMap:
    obj = _as_dict(obj, path)
    src = _resolve("algebra", algebras, _get(obj, "source", path),
                   path + ".source")
    tgt = _resolve("algebra", algebras, _get(obj, "target", path),
                   path + ".target")
    mat = parse_matrix(field, _get(obj, "matrix", path), tgt.dim, src.dim,
                       path + ".matrix")
    return RingMap(src, tgt, mat, name=name)


class Task:
    def __init__(self, op: str, args: tuple, options: dict | None = None,
                 expect: dict | None = None, repeated: tuple = ()):
        self.op = op
        self.args = args
        self.options = {} if options is None else options
        self.expect = expect
        self.repeated = repeated    # options a task string gives more than once


def _parse_task(obj, path: str) -> Task:
    if isinstance(obj, str):
        tokens = obj.split()
        _require(bool(tokens), "empty task string", path)
        args, options, repeated = [], {}, []
        for tok in tokens[1:]:
            if "=" in tok:
                key, _, val = tok.partition("=")
                _require(key in _OPTION_NAMES, f"unknown option {key!r}",
                         path)
                # an optional sign, then ASCII digits: int() alone would
                # also take "1_0" and non-ASCII digits
                digits = val[1:] if val[:1] in ("+", "-") else val
                _require(digits.isascii() and digits.isdigit(),
                         f"option {key}: bad integer {val!r}", path)
                if key in options and key not in repeated:
                    repeated.append(key)
                options[key] = int(val)
            else:
                args.append(tok)
        return Task(tokens[0], tuple(args), options, repeated=tuple(repeated))
    obj = _as_dict(obj, path)
    extra = set(obj) - {"op", "args", "options", "expect"}
    _require(not extra, f"unknown keys {sorted(extra)}", path)
    op = _get(obj, "op", path)
    _require(isinstance(op, str), "op must be a string", path + ".op")
    args = _as_list(_get(obj, "args", path, []), path + ".args")
    for i, a in enumerate(args):
        _require(isinstance(a, str), "argument names are strings",
                 f"{path}.args[{i}]")
    options = _as_dict(_get(obj, "options", path, {}), path + ".options")
    for key, val in options.items():
        _require(key in _OPTION_NAMES, f"unknown option {key!r}",
                 f"{path}.options")
        _require(isinstance(val, int) and not isinstance(val, bool),
                 "option values are integers", f"{path}.options.{key}")
    expect = _get(obj, "expect", path, None)
    if expect is not None:
        expect = _as_dict(expect, path + ".expect")
    return Task(op, tuple(args), dict(options), expect)


class InputDocument:
    def __init__(self, field: Field, algebras: dict, bimodules: dict,
                 maps: dict, tasks: list):
        self.field = field
        self.algebras = algebras
        self.bimodules = bimodules
        self.maps = maps
        self.tasks = tasks


def parse_document(obj) -> InputDocument:
    obj = _as_dict(obj, "$")
    extra = set(obj) - {"field", "algebras", "bimodules", "maps", "tasks"}
    _require(not extra, f"unknown keys {sorted(extra)}", "$")
    field = parse_field(_get(obj, "field", "$"))
    algebras = {}
    for name, spec in _as_dict(_get(obj, "algebras", "$", {}),
                               "$.algebras").items():
        algebras[name] = _parse_algebra(field, name, spec,
                                        f"$.algebras.{name}")
    bimodules = {}
    for name, spec in _as_dict(_get(obj, "bimodules", "$", {}),
                               "$.bimodules").items():
        bimodules[name] = _parse_bimodule(field, name, spec, algebras,
                                          f"$.bimodules.{name}")
    maps = {}
    for name, spec in _as_dict(_get(obj, "maps", "$", {}), "$.maps").items():
        maps[name] = _parse_map(field, name, spec, algebras, f"$.maps.{name}")
    tasks_obj = _as_list(_get(obj, "tasks", "$", []), "$.tasks")
    tasks = [_parse_task(t, f"$.tasks[{i}]") for i, t in enumerate(tasks_obj)]
    return InputDocument(field, algebras, bimodules, maps, tasks)


def load_document(path: str) -> InputDocument:
    def unique_keys(pairs: list) -> dict:
        # json.load keeps the last of a repeated key; a document that
        # says two things at once is refused instead
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise SchemaError(f"repeated key {key!r}", path)
            obj[key] = value
        return obj

    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as e:
        raise SchemaError(f"invalid JSON: {e.msg}",
                          f"{path}:{e.lineno}:{e.colno}") from None
    except UnicodeDecodeError as e:
        raise SchemaError(f"not UTF-8 text: byte {e.start} cannot be "
                          f"decoded", path) from None
    except RecursionError:
        raise SchemaError("JSON nested too deeply to read", path) from None
    try:
        return parse_document(obj)
    except SchemaError as e:        # the file, then the JSON path
        raise SchemaError(str(e), path) from None


def validate_document(doc: InputDocument) -> None:
    """Every named object must satisfy its axioms before any task runs."""
    for name, a in doc.algebras.items():
        v = validate_algebra(a)
        if not v:
            raise ValidationError(f"algebra {name}: {v.message}")
    for name, m in doc.bimodules.items():
        v = validate_bimodule(m)
        if not v:
            raise ValidationError(f"bimodule {name}: {v.message}")
    for name, f in doc.maps.items():
        v = validate_ring_map(f)
        if not v:
            raise ValidationError(f"map {name}: {v.message}")


def serialize_document(doc: InputDocument) -> dict:
    """Canonical JSON form; parse(serialize(doc)) reproduces doc."""
    f = doc.field
    out = {"field": "Q" if f.is_rational else {"prime": f.p}}
    out["algebras"] = {
        name: {
            "dim": a.dim,
            "mult": [[_coords(f, dense_vec(f, cell, a.dim)) for cell in row]
                     for row in a.mult],
            "unit": _coords(f, dense_vec(f, a.unit, a.dim)),
        }
        for name, a in doc.algebras.items()
    }
    out["bimodules"] = {
        name: {
            "left": m.left_algebra.name,
            "right": m.right_algebra.name,
            "dim": m.dim,
            "left_action": [render_matrix(f, a) for a in m.left_action],
            "right_action": [render_matrix(f, a) for a in m.right_action],
        }
        for name, m in doc.bimodules.items()
    }
    out["maps"] = {
        name: {
            "source": g.source.name,
            "target": g.target.name,
            "matrix": render_matrix(f, g.matrix),
        }
        for name, g in doc.maps.items()
    }
    tasks = []
    for t in doc.tasks:
        entry = {"op": t.op, "args": list(t.args)}
        if t.options:
            entry["options"] = dict(t.options)
        if t.expect is not None:
            entry["expect"] = t.expect
        tasks.append(entry)
    out["tasks"] = tasks
    return out


# ------------------------------------------------------------------ tasks

class RunOptions:
    def __init__(self, nmax: int = 2, dim_cap: int | None = None,
                 timings: bool = False):
        self.nmax = nmax
        self.dim_cap = dim_cap
        self.timings = timings


def _coords(field: Field, vec) -> list:
    return [render_scalar(field, x) for x in vec]


def _witness(field: Field, value):
    """A certificate as reported: a map by its matrix, a vector by its
    coordinates, a message as it is."""
    if isinstance(value, BimoduleMap):
        return render_matrix(field, value.matrix)
    return _coords(field, value) if isinstance(value, tuple) else value


def _fmt(template: str):
    """A text summary filled in from the report's fields, booleans in
    lower case and lists joined by commas."""
    def text(value) -> str:
        if isinstance(value, list):
            return ",".join(str(x) for x in value)
        return str(value).lower() if isinstance(value, bool) else str(value)
    return lambda report: template.format_map(
        {key: text(value) for key, value in report.items()})


class _Op(Frozen):
    """What one task op takes, runs and reports: `args` is "bimodule" or
    "map" for each argument, `option` the one option read ("nmax",
    "depth" or None), `fields` the report keys after the option, in
    order, and `summary` the report's text summary.

    `call(dim_cap, *objects)` gets the resolved arguments, then the
    option's value when the op reads one; it looks its function up by
    name when it runs, so a rebound module name reaches it.  A field is
    a result attribute or a (key, read) pair; a key ending in "?" is a
    certificate, left out when None and rendered by `_witness`.
    """

    def __init__(self, args: tuple, option: str | None, call,
                 fields: tuple, summary):
        vars(self).update(args=args, option=option, call=call,
                          fields=fields, summary=summary)


_M, _MN, _F = ("bimodule",), ("bimodule", "bimodule"), ("map",)
_verdict = _fmt("{verdict}")
_dims = _fmt("dims={dims}")

_OPS = {
    "generator": _Op(
        _M, None, lambda cap, m: is_generator(m),
        ("verdict", "preimage_of_unit?", "cokernel_functional?"), _verdict),
    "separable": _Op(
        _M, None, lambda cap, m: is_separable_bimodule(m),
        ("verdict", "casimir?", "obstruction?", "dimensions"), _verdict),
    "smooth": _Op(
        _M, None, lambda cap, m: is_formally_smooth_bimodule(m, dim_cap=cap),
        ("verdict", "route", "kernel_dim", "dimensions"),
        _fmt("{verdict} ({route})")),
    "rel_projective": _Op(
        _MN, None, lambda cap, p, m: is_rel_projective(p, m),
        ("verdict", "section?", "obstruction?", "dimensions"), _verdict),
    "hdim": _Op(
        _M, "nmax", lambda cap, m, n: hdim_upto(m, n, dim_cap=cap),
        (("hdim", lambda r: r.render()), "shift_inferred"), _fmt("{hdim}")),
    "hochschild": _Op(
        _MN, "nmax",
        lambda cap, m, w, n: module_hochschild(m, w, n, dim_cap=cap),
        (("dims", lambda r: r.dims()),), _dims),
    "homotopy": _Op(
        _M, "depth", lambda cap, m, d: homotopy_check(m, d, dim_cap=cap),
        ("ok", ("message?", lambda r: None if r.ok else r.message)),
        lambda report: ("ok" if report["ok"]
                        else f"FAILED: {report['message']}")),
    "bar": _Op(
        _M, "depth", lambda cap, m, d: bar_resolution(m, d, dim_cap=cap),
        (("dims", lambda chain: [o.dim for o in chain.objects]),), _dims),
    "separable_extension": _Op(
        _F, None, lambda cap, f: is_separable_extension(f),
        ("verdict", ("idempotent?", lambda r: r.casimir), "obstruction?",
         "dimensions"), _verdict),
    "smooth_extension": _Op(
        _F, None, lambda cap, f: is_formally_smooth_extension(f),
        ("verdict", ("kernel_dim", lambda r: r.dimensions["kernel"]),
         "section?", "obstruction?", "dimensions"),
        _fmt("{verdict} (kernel_dim={kernel_dim})")),
    "morita": _Op(
        _MN, "nmax", lambda cap, m, w, n: morita_check(m, w, n, dim_cap=cap),
        ("module_dims", "ring_dims", "dims_agree",
         ("comparison_ok", lambda r: r.comparison.ok)),
        _fmt("dims_agree={dims_agree} comparison_ok={comparison_ok}")),
    "sugano": _Op(
        _M, None, lambda cap, m: sugano_check(m),
        ("separable_bimodule", "generator", "extension_separable", "agree"),
        _fmt("agree={agree}")),
    "static": _Op(
        _M, None, lambda cap, m: static_criteria(m),
        ("ev_endo_injective", "trace_static", "generator", "ev_endo_iso",
         "endo_separable", "dimensions"),
        _fmt("ev_endo_injective={ev_endo_injective} "
             "trace_static={trace_static} generator={generator} "
             "ev_endo_iso={ev_endo_iso} endo_separable={endo_separable}")),
}

_OPTION_NAMES = {op.option for op in _OPS.values()} - {None}


def _run_task(doc: InputDocument, task: Task, opts: RunOptions,
              path: str) -> dict:
    op = _OPS[task.op]
    _require(len(task.args) == len(op.args),
             f"{task.op} takes {len(op.args)} argument(s), "
             f"got {len(task.args)}", path)
    _require(not task.repeated,
             f"options given more than once: {list(task.repeated)}", path)
    unread = set(task.options) - {op.option}
    _require(not unread, f"{task.op} does not read options {sorted(unread)}",
             path)
    call_args = [_resolve(kind, doc.bimodules if kind == "bimodule"
                          else doc.maps, name, path)
                 for kind, name in zip(op.args, task.args)]
    out = {}
    if op.option is not None:
        # --nmax sets the default nmax; depth defaults to 2
        value = task.options.get(op.option,
                                 opts.nmax if op.option == "nmax" else 2)
        call_args.append(value)
        out[op.option] = value
    r = op.call(opts.dim_cap, *call_args)
    for spec in op.fields:
        key, read = spec if isinstance(spec, tuple) else (spec, None)
        witness, key = key.endswith("?"), key.rstrip("?")
        value = getattr(r, key) if read is None else read(r)
        if not witness:
            out[key] = list(value) if isinstance(value, tuple) else value
        elif value is not None:
            out[key] = _witness(doc.field, value)
    return out


def _json_eq(a, b) -> bool:
    """Type-strict structural equality (so True never matches 1)."""
    if isinstance(a, bool) or isinstance(b, bool):
        return type(a) is type(b) and a == b
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_json_eq(x, y) for x, y in zip(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return set(a) == set(b) and all(_json_eq(a[k], b[k]) for k in a)
    return type(a) is type(b) and a == b


def run_document(doc: InputDocument, opts: RunOptions) -> list:
    """One report per task, in order.  Task failures become report
    entries with an "error" key rather than aborting the run."""
    reports = []
    for i, task in enumerate(doc.tasks):
        path = f"$.tasks[{i}]"
        _require(task.op in _OPS, f"unknown task op {task.op!r}", path)
        report = {"op": task.op, "args": list(task.args)}
        started = time.perf_counter()
        try:
            report.update(_run_task(doc, task, opts, path))
        except BimodcheckError as e:
            report["error"] = {"kind": type(e).__name__, "message": str(e)}
        if task.expect is not None:
            report["expect_ok"] = all(
                key in report and _json_eq(report[key], want)
                for key, want in task.expect.items())
        if opts.timings:
            report["elapsed_ms"] = int(
                (time.perf_counter() - started) * 1000)
        reports.append(report)
    return reports


# ---------------------------------------------------------------- output

def _summary(report: dict) -> str:
    if "error" in report:
        return f"ERROR {report['error']['kind']}: {report['error']['message']}"
    return _OPS[report["op"]].summary(report)


def render_text(reports: list) -> str:
    if not reports:
        return ""
    rows = []
    for r in reports:
        mark = ""
        if "expect_ok" in r:
            mark = "[ok]" if r["expect_ok"] else "[EXPECT FAILED]"
        rows.append((r["op"], " ".join(r["args"]), _summary(r), mark))
    w0 = max(len(r[0]) for r in rows)
    w1 = max(len(r[1]) for r in rows)
    lines = [f"{op:<{w0}}  {args:<{w1}}  {rest}".rstrip()
             + (f"  {mark}" if mark else "")
             for op, args, rest, mark in rows]
    return "\n".join(lines) + "\n"


def render_json(field: Field, reports: list) -> str:
    payload = {"field": "Q" if field.is_rational else {"prime": field.p},
               "reports": reports}
    return json.dumps(payload, indent=2) + "\n"


# ------------------------------------------------------------------ main

def _positive_int(text: str) -> int:
    """A --dim-cap value, from the flag or the environment."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {text!r}")
    return value


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process; treat it as
    read-only."""
    parser = argparse.ArgumentParser(
        prog="bimodcheck",
        description="Exact generator/separability/smoothness diagnostics "
                    "and relative cohomology for bimodules over "
                    "finite-dimensional algebras.")
    sub = parser.add_subparsers(dest="command", required=True)
    check = sub.add_parser("check", help="run the tasks in a JSON document")
    check.add_argument("file", help="input document")
    check.add_argument("--format", choices=("text", "json"), default="text")
    check.add_argument("--assert", dest="assert_", action="store_true",
                       help="exit nonzero unless every task expectation "
                            "holds")
    check.add_argument("--nmax", type=int, default=2,
                       help="default degree bound for cohomology and hdim "
                            "tasks (default 2)")
    check.add_argument("--dim-cap", type=_positive_int, default=None,
                       help=f"abort constructions past this dimension "
                            f"(default {DIM_CAP_ENV} or built-in cap)")
    check.add_argument("--timings", action="store_true",
                       help="include per-task wall times (breaks "
                            "byte-for-byte report determinism)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    dim_cap = args.dim_cap
    if dim_cap is None and os.environ.get(DIM_CAP_ENV):
        try:
            dim_cap = _positive_int(os.environ[DIM_CAP_ENV])
        except argparse.ArgumentTypeError as e:
            print(f"error: {DIM_CAP_ENV} {e}", file=sys.stderr)
            return 2
    try:
        doc = load_document(args.file)
        validate_document(doc)
        opts = RunOptions(nmax=args.nmax, dim_cap=dim_cap,
                          timings=args.timings)
        reports = run_document(doc, opts)
    except (BimodcheckError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if args.format == "json":
        sys.stdout.write(render_json(doc.field, reports))
    else:
        sys.stdout.write(render_text(reports))
    if any("error" in r for r in reports):
        return 2
    if args.assert_:
        checked = [r for r in reports if "expect_ok" in r]
        if not all(r["expect_ok"] for r in checked):
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
