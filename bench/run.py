"""bimodcheck benchmark: replay a seeded set of CLI documents, time them,
check every report, and print the metrics.

    python3 bench/run.py --workload corpus --seed 1 --seconds 60 --trace 0

One process, one client, closed loop: the next document starts when the
previous report is complete.  An operation is one pass over the
workload's documents; each document is timed from the
`cli.main(["check", doc, "--format", "json"])` call to the report bytes,
and every report is checked (corpus: byte-identical to
fixtures/golden; families: the closed forms in docs.py).  Passes are
started while the median pass still fits in --seconds.

With --trace 0, every document of a pass is also run, right before or
right after (alternating), by a frozen copy of the program
(bench/reference), and ops_per_s is the program's pass rate corrected by
how fast that reference ran in the same run (see normalised_rate).

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced
and traced passes, prints the per-layer metrics of the traced passes
(times and counts per pass) and the tracing overhead, and writes the
spans of the first traced pass to bench/out/.  The last stdout line is
the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import pathlib
import random
import resource
import shutil
import statistics
import sys
import time
import traceback

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "fixtures"
GOLDEN = FIXTURES / "golden"
OUT = BENCH / "out"
REFERENCE = BENCH / "reference"

sys.path.insert(0, str(BENCH))

import docs  # noqa: E402
from tracer import Tracer  # noqa: E402

WORKLOADS = ("corpus", "families")
CORPUS = ("edge", "fp5", "fx1", "fx2", "fx3", "fx4", "fx5", "fx6")
# The seed program's pass rate, in passes per CPU second, on the 2-vCPU
# virtual machine the benchmark was calibrated on: the median of
# passes / pass time over 30 runs of each workload, rounded.  ops_per_s
# scales it by how much faster the program ran than the frozen reference
# in the same run, so on the seed program it reads close to it.
REFERENCE_OPS_PER_S = {"corpus": 0.33, "families": 0.16}

# Set-up is timed this many times before the first pass and once more
# after every pass, so that its median spans the whole run, not just the
# machine's speed in its first second.
SETUP_FIRST = 3

# Timed intervals are measured in CPU seconds of this process.  The
# program is single-threaded and CPU-bound, so on an idle machine this
# equals wall time; on a shared VM, wall time also counts the time the
# hypervisor gives the CPU to other guests (steal), which was seen to
# add 0-80% to a fixed loop from one second to the next.
CLOCK = time.process_time

END_TO_END = {"ops_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

# Per-layer metrics, all per operation (one pass over the documents).
PER_LAYER = {
    "exactlin.matmul.calls": "count",
    "exactlin.matmul.self_s": "s",
    "exactlin.matmul.cells": "count",
    "exactlin.matmul.useful_ratio": "ratio",
    "exactlin.elim.calls": "count",
    "exactlin.elim.self_s": "s",
    "exactlin.elim.cells": "count",
    "exactlin.elim.max_cells": "count",
    "exactlin.elim.useful_ratio": "ratio",
    "exactlin.apply.calls": "count",
    "exactlin.apply.self_s": "s",
    "exactlin.apply_slot.calls": "count",
    "exactlin.apply_slot.self_s": "s",
    "exactlin.span_add.calls": "count",
    "exactlin.span_add.new_ratio": "ratio",
    "bimodule.equivariant_maps.calls": "count",
    "bimodule.equivariant_maps.self_s": "s",
    "bimodule.equivariant_maps.total_s": "s",
    "bimodule.equivariant_maps.unknowns": "count",
    "bimodule.equivariant_maps.solution_dim": "count",
    "bimodule.hom_left.calls": "count",
    "bimodule.hom_left.total_s": "s",
    "bimodule.hom_left.self_s": "s",
    "bimodule.hom_bimodule.calls": "count",
    "bimodule.hom_bimodule.total_s": "s",
    "bimodule.hom_bimodule.self_s": "s",
    "bimodule.tensor_over.calls": "count",
    "bimodule.tensor_over.total_s": "s",
    "bimodule.tensor_over.self_s": "s",
    "bimodule.tensor_over.plain_dim": "count",
    "bimodule.tensor_over.quotient_ratio": "ratio",
    "homology.bar_extend.calls": "count",
    "homology.bar_extend.total_s": "s",
    "homology.bar_extend.self_s": "s",
    "homology.bar_extend.max_dim": "count",
    "homology.module_hochschild.total_s": "s",
    "homology.module_hochschild.self_s": "s",
    "homology.homotopy_check.total_s": "s",
    "homology.ring_complex.calls": "count",
    "homology.ring_complex.total_s": "s",
    "homology.ring_complex.self_s": "s",
    "homology.comparison_check.total_s": "s",
    "homology.comparison_check.self_s": "s",
    "homology.morita_data.total_s": "s",
    "diagnostics.is_rel_projective.calls": "count",
    "diagnostics.is_rel_projective.total_s": "s",
    "diagnostics.is_rel_projective.self_s": "s",
    "diagnostics.smooth.total_s": "s",
    "diagnostics.hdim_upto.total_s": "s",
    "diagnostics.morita_check.total_s": "s",
    "cli.load_document.total_s": "s",
    "cli.run_document.total_s": "s",
    "cli.render_json.total_s": "s",
    **{f"cli.doc_s.{name}": "s" for name in CORPUS},
    "trace.overhead_ratio": "ratio",
}

# counter -> (numerator, denominator) for the ratios built from counts
RATIOS = {
    "exactlin.matmul.useful_ratio": ("exactlin.matmul.useful",
                                     "exactlin.matmul.cells"),
    "exactlin.elim.useful_ratio": ("exactlin.elim.rank",
                                   "exactlin.elim.ranked_rows"),
    "exactlin.span_add.new_ratio": ("exactlin.span_add.new",
                                    "exactlin.span_add.calls"),
    "bimodule.tensor_over.quotient_ratio": ("bimodule.tensor_over.quotient_dim",
                                            "bimodule.tensor_over.plain_dim"),
}


class Document:
    """One CLI input document and the check its report must pass."""

    def __init__(self, name, path, golden=None, oracle=None, field=None):
        self.name = name
        self.path = str(path)
        self.golden = golden
        self.oracle = oracle
        self.field = field

    def problems(self, status: int, text: str) -> list:
        if self.golden is not None:
            out = [] if text == self.golden else ["report drifted from golden"]
        else:
            try:
                payload = json.loads(text)
            except json.JSONDecodeError as e:
                return [f"report is not JSON: {e}"]
            out = docs.check_report(self.oracle, payload, self.field)
        if status != 0:
            out.append(f"exit status {status}")
        return out


def corpus_documents(seed: int) -> list:
    """The fixture documents, in a seeded order."""
    names = list(CORPUS)
    random.Random(seed).shuffle(names)
    return [Document(n, FIXTURES / f"{n}.json",
                     golden=(GOLDEN / f"{n}.json").read_text(encoding="utf-8"))
            for n in names]


def family_documents(seed: int, workdir: pathlib.Path) -> list:
    """The family instances, each bimodule in a seeded twisted basis."""
    twist = docs.Twist(seed)
    out = []
    for i, (name, build, oracle) in enumerate(docs.FAMILIES):
        doc = build(twist)
        path = workdir / f"doc{i}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        out.append(Document(name, path, oracle=oracle, field=doc["field"]))
    return out


def import_package(name: str = "bimodcheck"):
    for loaded in [n for n in sys.modules
                   if n == name or n.startswith(name + ".")]:
        del sys.modules[loaded]
    return importlib.import_module(name + ".cli")


def set_up(documents: list, name: str = "bimodcheck"):
    """Import the package afresh and load and validate every document.
    Returns the package, its cli module and the CPU time taken."""
    start = CLOCK()
    cli = import_package(name)
    for d in documents:
        cli.validate_document(cli.load_document(d.path))
    return sys.modules[name], cli, CLOCK() - start


def run_document(cli, d: Document):
    """(seconds, problems) for one document."""
    buf = io.StringIO()
    try:
        start = CLOCK()
        with contextlib.redirect_stdout(buf):
            status = cli.main(["check", d.path, "--format", "json"])
        text = buf.getvalue()
        elapsed = CLOCK() - start
    except Exception:
        return None, ["exception: " + traceback.format_exc(limit=3)]
    return elapsed, d.problems(status, text)


def normalised_rate(workload: str, own_s: float, reference_s: float):
    """Passes per second at the reference machine speed.

    On a virtual machine shared with other guests, the CPU time of one
    deterministic document moved by up to 2x from one minute to the
    next, with what the neighbours ran, so the raw rate of a 60 s run
    depends on when it ran.  The frozen reference runs each document
    right next to the program and slows down with it; the ratio of their
    CPU times over the run does not (bench/NOTES.md, Clock).
    """
    return REFERENCE_OPS_PER_S[workload] * reference_s / own_s


def tail(samples: list):
    """The highest percentile with at least ten samples above it."""
    if len(samples) <= 10:
        return None
    ordered = sorted(samples)
    k = len(ordered) - 11
    return {"value": ordered[k], "percentile": 100.0 * (k + 1) / len(ordered),
            "samples": len(ordered)}


def per_layer(counts: list, times: list, doc_times: dict,
              overhead: float) -> tuple:
    """Layer metrics per pass from the counters and times of each traced
    pass, and whether the counts repeated exactly."""
    values = {}
    for name, unit in PER_LAYER.items():
        if name in RATIOS:
            num, den = RATIOS[name]
            d = counts[0].get(den, 0)
            values[name] = counts[0].get(num, 0) / d if d else 0.0
        elif unit == "count":
            values[name] = counts[0].get(name, 0)
        elif name.endswith(("self_s", "total_s")):
            values[name] = statistics.median(t.get(name, 0.0) for t in times)
    for name in CORPUS:
        got = doc_times.get(name)
        values[f"cli.doc_s.{name}"] = statistics.median(got) if got else 0.0
    values["trace.overhead_ratio"] = overhead
    return values, all(c == counts[0] for c in counts)


def measure(args, workdir: pathlib.Path) -> int:
    if args.workload == "corpus":
        documents = corpus_documents(args.seed)
    else:
        documents = family_documents(args.seed, workdir)
    setups = []
    for _ in range(SETUP_FIRST):
        package, cli, seconds = set_up(documents)
        setups.append(seconds)
    tracer = Tracer() if args.trace else None
    reference = None if tracer else set_up(documents, "bimodcheck_ref")[1]
    reference_s = own_s = 0.0
    plain_s, traced_s, wall_s = [], [], []
    counts, times_by_layer = [], []
    doc_times = {d.name: [] for d in documents}
    attempted = failed = 0
    problems = []
    start = time.perf_counter()
    while True:
        if len(wall_s) >= (2 if tracer else 1) and (
                time.perf_counter() - start + statistics.median(wall_s)
                > args.seconds):
            break
        traced = tracer is not None and attempted % 2 == 1
        if traced:
            tracer.install(package)
            lo = tracer.mark()
        attempted += 1
        elapsed, bad, times, paired_s = 0.0, [], {}, 0.0
        # the reference runs each document just before the program on
        # even passes and just after it on odd ones
        runners = ([cli] if reference is None else
                   [reference, cli] if attempted % 2 == 0 else
                   [cli, reference])
        wall = time.perf_counter()
        try:
            for d in documents:
                if traced:
                    tracer.doc = d.name
                took = {}
                for runner in runners:
                    seconds, found = run_document(runner, d)
                    who = " (reference)" if runner is reference else ""
                    bad += [f"{d.name}{who}: {p}" for p in found]
                    if seconds is None:
                        break
                    took[runner] = seconds
                if len(took) < len(runners):
                    break
                elapsed += took[cli]
                times[d.name] = took[cli]
                paired_s += took.get(reference, 0.0)
        finally:
            if traced:
                tracer.uninstall()
        package, cli, seconds = set_up(documents)
        setups.append(seconds)
        if reference:
            reference = set_up(documents, "bimodcheck_ref")[1]
        wall_s.append(time.perf_counter() - wall)
        if bad:
            failed += 1
            problems += bad
        elif traced:
            traced_s.append(elapsed)
            hi = tracer.mark()
            counts.append(tracer.counters(lo, hi))
            times_by_layer.append(tracer.times(lo, hi))
            if len(counts) > 1:
                tracer.drop(lo)    # keep the spans of the first pass only
        else:
            plain_s.append(elapsed)
            own_s += elapsed
            reference_s += paired_s
            for name, seconds in times.items():
                doc_times[name].append(seconds)

    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "python": sys.version.split()[0],
        "backend": "{0.__module__}.{0.__qualname__}".format(
            type(package.exactlin.QQ.one)),
        "nproc": len(os.sched_getaffinity(0)),
        "instances": [d.name for d in documents],
        "attempted": attempted, "failed": failed,
        "fail_ratio": failed / attempted,
        "setup_samples": len(setups),
        "op_s.p50": statistics.median(plain_s) if plain_s else None,
        "op_s.tail": tail(plain_s),
        "op_s.samples": plain_s,
        "wall_op_s.p50": statistics.median(wall_s),
        "documents": {name: {"median_s": statistics.median(t),
                             "runs": len(t), "samples": t}
                      for name, t in doc_times.items() if t},
        "problems": problems[:20],
    }
    correct = failed == 0
    if tracer is None:
        record["mean_ops_per_s"] = (len(plain_s) / sum(plain_s)
                                    if plain_s else None)
        record["reference_s"] = reference_s
        metrics = {"ops_per_s": (normalised_rate(args.workload, own_s,
                                                 reference_s)
                                 if plain_s else 0.0),
                   "setup_s": statistics.median(setups)}
        metrics["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024
        units = END_TO_END
    elif traced_s and plain_s:
        overhead = statistics.median(traced_s) / statistics.median(plain_s) - 1
        metrics, repeat = per_layer(counts, times_by_layer, doc_times,
                                    overhead)
        record["counters"] = counts[0]
        record["traced_passes"] = len(traced_s)
        if not repeat:
            correct = False
            record["problems"].append("counters differ between passes")
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json")
        units = PER_LAYER
    else:
        metrics = {name: 0.0 for name in PER_LAYER}
        units = PER_LAYER

    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as fh:
        json.dump({"record": record, "metrics": metrics}, fh, indent=1)
    for name, value in metrics.items():
        print(f"{name:<44} {value:>14.6g} {units[name]}")
    if plain_s:
        print(f"op_s.p50 {record['op_s.p50']:.6g} s of {len(plain_s)}")
    if record["op_s.tail"]:
        t = record["op_s.tail"]
        print(f"op_s.tail (p{t['percentile']:.0f} of {t['samples']})"
              f" {t['value']:.6g} s")
    print(f"fail_ratio {failed}/{attempted}")
    for p in record["problems"]:
        print("PROBLEM", p)
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for need in (SRC / "bimodcheck" / "cli.py", GOLDEN,
                 REFERENCE / "bimodcheck_ref" / "cli.py"):
        if not need.exists():
            print(f"error: {need.relative_to(ROOT)} is missing; run from a "
                  f"bimodcheck checkout", file=sys.stderr)
            return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(REFERENCE))
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
