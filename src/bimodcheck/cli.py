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
import json
import os
import sys
import time
from dataclasses import dataclass, field as dc_field

from .bimodule import Bimodule, is_generator, validate_bimodule
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
from .exactlin import Field, Matrix, dense_vec, sparse_vec
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
    left_name = _get(obj, "left", path)
    right_name = _get(obj, "right", path)
    _require(left_name in algebras, f"unknown algebra {left_name!r}",
             path + ".left")
    _require(right_name in algebras, f"unknown algebra {right_name!r}",
             path + ".right")
    left, right = algebras[left_name], algebras[right_name]
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
    src_name = _get(obj, "source", path)
    tgt_name = _get(obj, "target", path)
    _require(src_name in algebras, f"unknown algebra {src_name!r}",
             path + ".source")
    _require(tgt_name in algebras, f"unknown algebra {tgt_name!r}",
             path + ".target")
    src, tgt = algebras[src_name], algebras[tgt_name]
    mat = parse_matrix(field, _get(obj, "matrix", path), tgt.dim, src.dim,
                       path + ".matrix")
    return RingMap(src, tgt, mat, name=name)


@dataclass(eq=False)
class Task:
    op: str
    args: tuple
    options: dict = dc_field(default_factory=dict)
    expect: dict | None = None


_INT_OPTIONS = ("nmax", "depth")


def _parse_task(obj, path: str) -> Task:
    if isinstance(obj, str):
        tokens = obj.split()
        _require(bool(tokens), "empty task string", path)
        args, options = [], {}
        for tok in tokens[1:]:
            if "=" in tok:
                key, _, val = tok.partition("=")
                _require(key in _INT_OPTIONS, f"unknown option {key!r}", path)
                try:
                    options[key] = int(val)
                except ValueError:
                    raise SchemaError(f"option {key}: bad integer {val!r}",
                                      path)
            else:
                args.append(tok)
        return Task(tokens[0], tuple(args), options)
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
        _require(key in _INT_OPTIONS, f"unknown option {key!r}",
                 f"{path}.options")
        _require(isinstance(val, int) and not isinstance(val, bool),
                 "option values are integers", f"{path}.options.{key}")
    expect = _get(obj, "expect", path, None)
    if expect is not None:
        expect = _as_dict(expect, path + ".expect")
    return Task(op, tuple(args), dict(options), expect)


@dataclass(eq=False)
class InputDocument:
    field: Field
    algebras: dict
    bimodules: dict
    maps: dict
    tasks: list


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
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as e:
        raise SchemaError(f"invalid JSON: {e.msg}",
                          f"{path}:{e.lineno}:{e.colno}") from None
    except UnicodeDecodeError as e:
        raise SchemaError(f"not UTF-8 text: byte {e.start} cannot be "
                          f"decoded", path) from None
    except RecursionError:
        raise SchemaError("JSON nested too deeply to read", path) from None
    return parse_document(obj)


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

@dataclass(eq=False)
class RunOptions:
    nmax: int = 2
    dim_cap: int | None = None
    timings: bool = False


def _resolve(kind: str, table: dict, name: str, task_path: str):
    _require(name in table, f"unknown {kind} {name!r}", task_path)
    return table[name]


def _coords(field: Field, vec) -> list:
    return [render_scalar(field, x) for x in vec]


def _argc(task: Task, count: int, path: str) -> None:
    _require(len(task.args) == count,
             f"{task.op} takes {count} argument(s), got {len(task.args)}",
             path)


def _one_bimodule(doc, task, path) -> Bimodule:
    _argc(task, 1, path)
    return _resolve("bimodule", doc.bimodules, task.args[0], path)


def _one_map(doc, task, path) -> RingMap:
    _argc(task, 1, path)
    return _resolve("map", doc.maps, task.args[0], path)


def _task_generator(doc, task, opts, path):
    m = _one_bimodule(doc, task, path)
    r = is_generator(m)
    out = {"verdict": r.verdict}
    if r.preimage_of_unit is not None:
        out["preimage_of_unit"] = _coords(doc.field, r.preimage_of_unit)
    if r.cokernel_functional is not None:
        out["cokernel_functional"] = _coords(doc.field, r.cokernel_functional)
    return out


def _task_separable(doc, task, opts, path):
    m = _one_bimodule(doc, task, path)
    r = is_separable_bimodule(m)
    out = {"verdict": r.verdict}
    if r.casimir is not None:
        out["casimir"] = _coords(doc.field, r.casimir)
    if r.obstruction is not None:
        out["obstruction"] = _coords(doc.field, r.obstruction)
    out["dimensions"] = dict(r.dimensions)
    return out


def _task_smooth(doc, task, opts, path):
    m = _one_bimodule(doc, task, path)
    r = is_formally_smooth_bimodule(m, dim_cap=opts.dim_cap)
    return {"verdict": r.verdict, "route": r.route,
            "kernel_dim": r.kernel_dim, "dimensions": dict(r.dimensions)}


def _task_rel_projective(doc, task, opts, path):
    _argc(task, 2, path)
    p = _resolve("bimodule", doc.bimodules, task.args[0], path)
    m = _resolve("bimodule", doc.bimodules, task.args[1], path)
    r = is_rel_projective(p, m)
    out = {"verdict": r.verdict}
    if r.section is not None:
        out["section"] = render_matrix(doc.field, r.section.matrix)
    if r.obstruction is not None:
        out["obstruction"] = _coords(doc.field, r.obstruction)
    out["dimensions"] = dict(r.dimensions)
    return out


def _task_hdim(doc, task, opts, path):
    m = _one_bimodule(doc, task, path)
    nmax = task.options.get("nmax", opts.nmax)
    r = hdim_upto(m, nmax, dim_cap=opts.dim_cap)
    return {"nmax": nmax, "hdim": r.render(),
            "shift_inferred": r.shift_inferred}


def _task_hochschild(doc, task, opts, path):
    _argc(task, 2, path)
    m = _resolve("bimodule", doc.bimodules, task.args[0], path)
    w = _resolve("bimodule", doc.bimodules, task.args[1], path)
    nmax = task.options.get("nmax", opts.nmax)
    r = module_hochschild(m, w, nmax, dim_cap=opts.dim_cap)
    return {"nmax": nmax, "dims": list(r.dims())}


def _task_homotopy(doc, task, opts, path):
    m = _one_bimodule(doc, task, path)
    depth = task.options.get("depth", 2)
    r = homotopy_check(m, depth, dim_cap=opts.dim_cap)
    out = {"depth": depth, "ok": bool(r)}
    if not r:
        out["message"] = r.message
    return out


def _task_bar(doc, task, opts, path):
    m = _one_bimodule(doc, task, path)
    depth = task.options.get("depth", 2)
    chain = bar_resolution(m, depth, dim_cap=opts.dim_cap)
    return {"depth": depth, "dims": [o.dim for o in chain.objects]}


def _task_separable_extension(doc, task, opts, path):
    f = _one_map(doc, task, path)
    r = is_separable_extension(f)
    out = {"verdict": r.verdict}
    if r.idempotent is not None:
        out["idempotent"] = _coords(doc.field, r.idempotent)
    if r.obstruction is not None:
        out["obstruction"] = _coords(doc.field, r.obstruction)
    out["dimensions"] = dict(r.dimensions)
    return out


def _task_smooth_extension(doc, task, opts, path):
    f = _one_map(doc, task, path)
    r = is_formally_smooth_extension(f)
    out = {"verdict": r.verdict, "kernel_dim": r.kernel_dim}
    if r.section is not None:
        out["section"] = render_matrix(doc.field, r.section.matrix)
    if r.obstruction is not None:
        out["obstruction"] = _coords(doc.field, r.obstruction)
    out["dimensions"] = dict(r.dimensions)
    return out


def _task_morita(doc, task, opts, path):
    _argc(task, 2, path)
    m = _resolve("bimodule", doc.bimodules, task.args[0], path)
    w = _resolve("bimodule", doc.bimodules, task.args[1], path)
    nmax = task.options.get("nmax", opts.nmax)
    r = morita_check(m, w, nmax, dim_cap=opts.dim_cap)
    return {"nmax": nmax, "module_dims": list(r.module_dims),
            "ring_dims": list(r.ring_dims), "dims_agree": r.dims_agree,
            "comparison_ok": r.comparison.ok}


def _task_sugano(doc, task, opts, path):
    m = _one_bimodule(doc, task, path)
    r = sugano_check(m)
    return {"separable_bimodule": r.separable_bimodule,
            "generator": r.generator,
            "extension_separable": r.extension_separable,
            "agree": r.agree}


def _task_static(doc, task, opts, path):
    m = _one_bimodule(doc, task, path)
    r = static_criteria(m)
    return {"ev_endo_injective": r.ev_endo_injective,
            "trace_static": r.trace_static, "generator": r.generator,
            "ev_endo_iso": r.ev_endo_iso, "endo_separable": r.endo_separable,
            "dimensions": dict(r.dimensions)}


_HANDLERS = {
    "generator": _task_generator,
    "separable": _task_separable,
    "smooth": _task_smooth,
    "rel_projective": _task_rel_projective,
    "hdim": _task_hdim,
    "hochschild": _task_hochschild,
    "homotopy": _task_homotopy,
    "bar": _task_bar,
    "separable_extension": _task_separable_extension,
    "smooth_extension": _task_smooth_extension,
    "morita": _task_morita,
    "sugano": _task_sugano,
    "static": _task_static,
}


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
        _require(task.op in _HANDLERS, f"unknown task op {task.op!r}", path)
        report = {"op": task.op, "args": list(task.args)}
        started = time.perf_counter()
        try:
            report.update(_HANDLERS[task.op](doc, task, opts, path))
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
    op = report["op"]
    if op in ("generator", "separable", "rel_projective",
              "separable_extension"):
        return str(report["verdict"]).lower()
    if op == "smooth":
        return f"{str(report['verdict']).lower()} ({report['route']})"
    if op == "smooth_extension":
        return (f"{str(report['verdict']).lower()} "
                f"(kernel_dim={report['kernel_dim']})")
    if op == "hdim":
        return report["hdim"]
    if op in ("hochschild", "bar"):
        return "dims=" + ",".join(str(d) for d in report["dims"])
    if op == "homotopy":
        return "ok" if report["ok"] else f"FAILED: {report.get('message', '')}"
    if op == "morita":
        return (f"dims_agree={str(report['dims_agree']).lower()} "
                f"comparison_ok={str(report['comparison_ok']).lower()}")
    if op == "sugano":
        return f"agree={str(report['agree']).lower()}"
    if op == "static":
        keys = ("ev_endo_injective", "trace_static", "generator",
                "ev_endo_iso", "endo_separable")
        return " ".join(f"{k}={str(report[k]).lower()}" for k in keys)
    return ""


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

def build_parser() -> argparse.ArgumentParser:
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
    check.add_argument("--dim-cap", type=int, default=None,
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
            dim_cap = int(os.environ[DIM_CAP_ENV])
        except ValueError:
            print(f"error: {DIM_CAP_ENV} must be an integer",
                  file=sys.stderr)
            return 2
    try:
        doc = load_document(args.file)
        validate_document(doc)
        opts = RunOptions(nmax=args.nmax, dim_cap=dim_cap,
                          timings=args.timings)
        reports = run_document(doc, opts)
    except BimodcheckError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
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
