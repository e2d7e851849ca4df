"""List every function of girale that neither a CLI test nor a workload calls.

Run from anywhere:

    python tools/reach.py

A profile hook records each code object that is called while the CLI tests
(``tests/test_cli.py``, ``tests/test_cli_fuzz.py``, ``tests/test_argument_errors.py``)
run in process, and while one seed-1 pass of each benchmark workload
(``perfbench/workloads.py``) builds its inputs, runs its items and checks every
result against its oracle.  Every ``def`` in ``src/girale/*.py``, nested ones
included, is then matched to those code objects by file and first line (the
line of its first decorator, if it has one).

Dunder methods are skipped, since Python calls them for protocols such as
hashing and pickling, but constructors (``__init__``, ``__new__``,
``__post_init__``) are not: they hold the checks an input passes through.  A
function in ``ALLOWED`` is skipped for the reason given there, and must be
one that is defined and not reached.  The script prints every other function
that was not reached, and every stale allowance, and exits 1 if there is one;
it exits 2 if a test or a workload item fails, since the trace of a failing
run does not show what a working one reaches.
"""

from __future__ import annotations

import ast
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src" / "girale"
CLI_TESTS = ["tests/test_cli.py", "tests/test_cli_fuzz.py", "tests/test_argument_errors.py"]
WORKLOADS = ["amalgam-sweep", "sequent-search", "table-kernel", "interp-search"]
CONSTRUCTORS = {"__init__", "__new__", "__post_init__"}

# Functions kept although neither the CLI tests nor a workload calls them.
ALLOWED = {
    # the Maehara interpolant of a cut-free proof: ROADMAP open item 4 gives it
    # a caller when the bounded interpolant search gives up
    "proofs._interpolate",
    "proofs.extract_craig",
    "proofs._sorted_ms",
    # the console-script entry (pyproject.toml); the tests call cli.run, CI runs it
    "cli.main",
    # the cache hooks behind build_R.cache_clear and member_K.cache_clear, which tests call
    "construct._clear_build_R",
    "construct._clear_member_K",
    # the raise path of residuals_from_mult: build_R's tables are residuated by
    # construction, so no verb's input trips it
    "algebra.NotResiduated.__init__",
    # accessors that the tests read
    "algebra.FiniteAlgebra.leq",
    "amalgam.AmalgamReport.failures",
    "proofs.DerivationReport.describe",
}


def definitions() -> dict[tuple[str, int], str]:
    """(file, first line) -> qualified name of every def in src/girale/*.py."""
    found = {}

    def visit(node: ast.AST, path: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[path, first] = prefix + child.name
                visit(child, path, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, prefix + child.name + ".")

    for path in sorted(SOURCE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), str(path), path.stem + ".")
    return found


def run_workloads() -> list[str]:
    """One seed-1 pass of each workload with its oracles; returns the problems."""
    import workloads

    problems = []
    for name in WORKLOADS:
        workload = workloads.WORKLOADS[name](1)
        items = workload.pass_items()
        problems += [f"{name} {key}: {p}" for key, _, p in workload.prelude if p]
        for item in items:
            try:
                problem = workload.check(item, workload.summarize(item, item.run()))
            except Exception as exc:  # an item or oracle that raises is a failure
                problem = f"{type(exc).__name__}: {exc}"
            if problem:
                problems.append(f"{name} {item.key}: {problem}")
    return problems


def main() -> int:
    start = time.perf_counter()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT)]
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(profile)
    try:
        import pytest

        tests = pytest.main(["-q", "-p", "no:cacheprovider", "--rootdir", str(ROOT)]
                            + [str(ROOT / t) for t in CLI_TESTS])
        problems = run_workloads()
    finally:
        sys.setprofile(None)

    import girale

    if Path(girale.__file__).resolve().parent != SOURCE:
        print(f"reach: imported girale from {girale.__file__}, not from {SOURCE}")
        return 2
    if tests != 0 or problems:
        print(f"reach: the CLI tests exit {int(tests)}; workload problems: {problems[:5]}")
        return 2
    reached = {(code.co_filename, code.co_firstlineno) for code in called}
    defs = definitions()
    unreached = []
    for key, name in sorted(defs.items()):
        short = name.rsplit(".", 1)[-1]
        dunder = short.startswith("__") and short.endswith("__") and short not in CONSTRUCTORS
        if key not in reached and not dunder and name not in ALLOWED:
            unreached.append(f"{Path(key[0]).name}:{key[1]} {name}")
    reached_names = {name for key, name in defs.items() if key in reached}
    stale = sorted(set(ALLOWED) - (set(defs.values()) - reached_names))
    for line in unreached:
        print(line)
    for name in stale:
        print(f"allowed but defined nowhere or reached: {name}")
    elapsed = time.perf_counter() - start
    print(f"reach: {len(defs)} functions, {len(unreached)} unreached outside the "
          f"{len(ALLOWED)} allowed, {elapsed:.1f} s")
    return 1 if unreached or stale else 0


if __name__ == "__main__":
    sys.exit(main())
