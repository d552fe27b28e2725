"""In-process A/B timing of two source trees, document by document.

    python scripts/ab.py BASE_TREE [--tree TREE] [--workload families]
                         [--rounds 10] [--seed 1]

Each tree is a checkout (a directory holding src/bimodcheck).  Both are
imported into this one process under two package names, and every
document of the workload is run through each tree's `cli.main` in turn,
the order alternating from round to round.  Timing both trees on the
same document within milliseconds of each other cancels the slow
phases a shared machine goes through, which move a raw 60 s run by up
to 2x; the per-document ratio of the medians is what is left.

The corpus workload reads fixtures/*.json and checks each report
against fixtures/golden/; families builds the documents of
bench/docs.py with a seeded basis twist (written to a temporary
directory; nothing under bench/ is written).  Both trees must give
byte-identical reports, or the script stops with status 1.

Each round also times each tree's set-up, in the same alternating
order: a fresh import of the package (under a third name, so the
imports that run the documents keep their state) and the loading and
validation of every document, as bench/run.py's setup_s does.  Whether
the package is compiled from its source or read from its __pycache__
changes set-up several-fold, so that state is printed with it.

Times are CPU seconds of this process (time.process_time).  The ratio
printed is base / tree, so above 1 means TREE is faster.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib.util
import io
import json
import os
import pathlib
import statistics
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "fixtures"
BENCH = ROOT / "bench"


def load_tree(tree: pathlib.Path, name: str):
    """The cli module of tree/src/bimodcheck, imported as package name."""
    pkg = tree / "src" / "bimodcheck"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.cli")


def set_up(tree: pathlib.Path, name: str, documents: list) -> float:
    """CPU seconds to import tree afresh as package name, then load and
    validate every document."""
    for loaded in [n for n in sys.modules
                   if n == name or n.startswith(name + ".")]:
        del sys.modules[loaded]
    start = time.process_time()
    cli = load_tree(tree, name)
    for _, path, _ in documents:
        cli.validate_document(cli.load_document(path))
    return time.process_time() - start


def bytecode_state(tree: pathlib.Path) -> str:
    """The package's state: "bytecode" when every module has bytecode at
    least as new as its source, "source" when none has, else "mixed"."""
    fresh = []
    for path in (tree / "src" / "bimodcheck").glob("*.py"):
        cached = pathlib.Path(importlib.util.cache_from_source(str(path)))
        fresh.append(cached.exists()
                     and os.path.getmtime(cached) >= os.path.getmtime(path))
    return "bytecode" if all(fresh) else "mixed" if any(fresh) else "source"


def corpus_documents() -> list:
    """(name, path, golden text) for each fixture document."""
    golden = FIXTURES / "golden"
    return [(p.stem, p, (golden / p.name).read_text(encoding="utf-8"))
            for p in sorted(FIXTURES.glob("*.json"))]


def family_documents(workdir: pathlib.Path, seed: int) -> list:
    """(name, path, None) for each family instance of bench/docs.py."""
    sys.dont_write_bytecode = True       # leave bench/ as it is
    sys.path.insert(0, str(BENCH))
    try:
        import docs
    finally:
        sys.path.pop(0)
    twist = docs.Twist(seed)
    out = []
    for i, (name, build, _oracle) in enumerate(docs.FAMILIES):
        path = workdir / f"doc{i}.json"
        path.write_text(json.dumps(build(twist)), encoding="utf-8")
        out.append((name, path, None))
    return out


def run(cli, path: pathlib.Path) -> tuple[float, str]:
    buf = io.StringIO()
    start = time.process_time()
    with contextlib.redirect_stdout(buf):
        cli.main(["check", str(path), "--format", "json"])
    return time.process_time() - start, buf.getvalue()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", type=pathlib.Path, help="the tree to compare to")
    ap.add_argument("--tree", type=pathlib.Path, default=ROOT,
                    help="the tree under test (default: this checkout)")
    ap.add_argument("--workload", choices=("corpus", "families"),
                    default="families")
    ap.add_argument("--rounds", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1,
                    help="basis twist of the families documents")
    args = ap.parse_args(argv)
    paths = {"base": args.base.resolve(), "tree": args.tree.resolve()}
    trees = {side: load_tree(path, f"ab_{side}")
             for side, path in paths.items()}
    with tempfile.TemporaryDirectory() as tmp:
        workdir = pathlib.Path(tmp)
        documents = (corpus_documents() if args.workload == "corpus"
                     else family_documents(workdir, args.seed))
        times = {(side, d[0]): [] for side in trees for d in documents}
        setups = {side: [] for side in trees}
        for r in range(args.rounds):
            order = list(trees) if r % 2 == 0 else list(reversed(trees))
            for side in order:
                setups[side].append(set_up(paths[side], f"ab_{side}_setup",
                                           documents))
            # the import set_up replaced is cyclic garbage; collect it
            # here, not inside some document's time
            gc.collect()
            for name, path, golden in documents:
                reports = {}
                for side in order:
                    seconds, reports[side] = run(trees[side], path)
                    times[side, name].append(seconds)
                if reports["base"] != reports["tree"]:
                    print(f"{name}: the two trees report differently",
                          file=sys.stderr)
                    return 1
                if golden is not None and reports["tree"] != golden:
                    print(f"{name}: report drifted from its golden",
                          file=sys.stderr)
                    return 1
    print(f"{'document':<24} {'base ms':>9} {'tree ms':>9} {'ratio':>7}")
    totals = {side: 0.0 for side in trees}
    for name, _, _ in documents:
        med = {side: statistics.median(times[side, name]) for side in trees}
        for side in trees:
            totals[side] += med[side]
        print(f"{name:<24} {med['base'] * 1e3:9.2f} {med['tree'] * 1e3:9.2f} "
              f"{med['base'] / med['tree']:7.3f}")
    base, tree = totals["base"], totals["tree"]
    print(f"{'pass (sum of medians)':<24} {base * 1e3:9.2f} "
          f"{tree * 1e3:9.2f} {base / tree:7.3f}")
    med = {side: statistics.median(setups[side]) for side in trees}
    print(f"{'set-up (median)':<24} {med['base'] * 1e3:9.2f} "
          f"{med['tree'] * 1e3:9.2f} {med['base'] / med['tree']:7.3f}")
    print("set-up from " + ", ".join(
        f"{side} {bytecode_state(path)}" for side, path in paths.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
