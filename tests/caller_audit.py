"""Caller audit: which ``src/repro`` functions do the non-test entry points run?

Runs every non-test entry point in its own interpreter under a profile
hook (``sys.setprofile`` plus ``threading.setprofile``, around ``runpy``)
and prints each function defined in ``src/repro`` that none of them
called, with its body length.  The entry points are the examples (one
epoch), the four perfbench workloads (2 s, traced), the four ``--smoke``
benches and the paper benches (Tables I and III-V, Figs. 4-6, the
footnote and the complexity bench).  Run it from a scratch copy of the
repository, since the benches rewrite their result files::

    python tests/caller_audit.py

Code that runs only in forked shard workers is invisible to the hook and
is listed as uncalled.
"""

from __future__ import annotations

import ast
import json
import os
import runpy
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

PAPER_BENCHES = [
    f"benchmarks/bench_{name}.py"
    for name in ("table1_dataset", "table3_overall", "table4_ablation", "table5_scale",
                 "fig4_aux_weight", "fig5_gate_coeff", "fig6_casestudy",
                 "footnote_pp_edges", "complexity")
]

ENTRY_POINTS = (
    [["examples/quickstart.py"]]
    + [[str(p.relative_to(ROOT)), "--epochs", "1"]
       for p in sorted((ROOT / "examples").glob("*.py")) if p.name != "quickstart.py"]
    + [["perfbench/run.py", "--workload", w, "--seed", "1", "--seconds", "2", "--trace", "1"]
       for w in ("eval-1to99", "train-mgbr", "serve-poisson", "serve-catalog")]
    + [[f"benchmarks/bench_{b}.py", "--smoke"]
       for b in ("eval_throughput", "train_throughput", "shard_gather", "serve_latency")]
    # pytest-benchmark pauses profile hooks while it times a bench body;
    # --benchmark-disable runs each body once, untimed, under the hook.
    + [["-m", "pytest", "-q", "-p", "no:cacheprovider", "--benchmark-disable", *PAPER_BENCHES]]
)


def trace(out: str, argv: list) -> None:
    """Run ``argv`` (a script, or ``-m module``) and write the called code sites."""
    seen = set()

    def hook(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    sys.setprofile(hook)
    threading.setprofile(hook)
    try:
        if argv[0] == "-m":
            sys.argv, sys.path[0] = argv[1:], ""
            runpy.run_module(argv[1], run_name="__main__", alter_sys=True)
        else:
            sys.argv, sys.path[0] = argv, os.path.dirname(os.path.abspath(argv[0]))
            runpy.run_path(argv[0], run_name="__main__")
    except SystemExit as exc:
        if exc.code not in (None, 0):
            raise
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
        sites = sorted({(c.co_filename, c.co_firstlineno) for c in seen
                        if c.co_filename.startswith(str(SRC))})
        Path(out).write_text(json.dumps(sites))


def defined_functions():
    """``(path, first line, qualname, body lines)`` of every def in ``src/repro``."""
    for path in sorted(SRC.rglob("*.py")):

        def walk(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    name = prefix + child.name
                    yield str(path), first, name, child.end_lineno - child.lineno + 1
                    yield from walk(child, name + ".<locals>.")
                elif isinstance(child, ast.ClassDef):
                    yield from walk(child, prefix + child.name + ".")

        yield from walk(ast.parse(path.read_text()), "")


def main() -> int:
    called = set()
    with tempfile.TemporaryDirectory() as tmp:
        for k, argv in enumerate(ENTRY_POINTS):
            out = os.path.join(tmp, f"{k}.json")
            print("tracing", " ".join(argv), flush=True)
            # A timing gate may fail under the hook's overhead; the
            # functions the run reached still count.
            code = subprocess.run([sys.executable, __file__, "--trace", out, *argv],
                                  cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                                  stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode
            if code:
                print(f"  exited {code}", flush=True)
            called.update(map(tuple, json.loads(Path(out).read_text())))
    functions = list(defined_functions())
    uncalled = [f for f in functions if f[:2] not in called]
    for path, line, name, body in uncalled:
        print(f"{os.path.relpath(path, ROOT)}:{line} {name} ({body} lines)")
    print(f"{len(uncalled)} of {len(functions)} functions never called, "
          f"{sum(f[3] for f in uncalled)} of {sum(f[3] for f in functions)} body lines")
    return 0


if __name__ == "__main__":
    if len(sys.argv) > 2 and sys.argv[1] == "--trace":
        trace(sys.argv[2], sys.argv[3:])
    else:
        sys.exit(main())
