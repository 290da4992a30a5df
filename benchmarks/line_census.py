"""List the package lines that the CLI runs and the Tier-1 tests never
execute.

Run from any directory, with the test dependencies installed:

    python benchmarks/line_census.py

It traces two groups of runs with ``sys.settrace``, each from a fresh
import of the package in the checkout that holds this script, so that
module-level lines count too:

- runs: ``cli.run`` of the default configuration and of each
  ``perfbench/workloads.py`` workload at seed 20240901;
- tier1: the tests under ``tests/``, run in-process by pytest from the
  checkout's root.  A test's subprocesses are not traced.

A module's executable lines are the line numbers in the line tables of its
code objects.  For each group and each module of ``src/varbesov`` the
script prints the executable lines the group left unexecuted, then the
group's total.  It takes about a minute.
"""

import os
import pathlib
import runpy
import sys
import textwrap

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "varbesov"
SEED = 20240901


def executable_lines(path):
    """The line numbers in the line tables of every code object compiled
    from the module at ``path``."""
    lines = set()
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if isinstance(c, type(code)))
    return lines


def traced(fn):
    """Call fn() from a fresh import of the package under a line tracer;
    returns (fn's result, {file name: the lines executed in it}) over the
    package's files."""
    for name in [m for m in sys.modules if m.split(".")[0] == "varbesov"]:
        del sys.modules[name]
    prefix = str(PACKAGE) + os.sep
    hits = {}

    def local(frame, event, arg):
        hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def enter(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        hits.setdefault(name, set()).add(frame.f_lineno)
        return local

    sys.settrace(enter)
    try:
        result = fn()
    finally:
        sys.settrace(None)
    return result, hits


def cli_runs():
    from varbesov import cli

    workloads = runpy.run_path(str(ROOT / "perfbench" / "workloads.py"))
    cli.run({})
    for config in workloads["WORKLOADS"].values():
        cli.run(dict(config, seed=SEED))
    return 0


def tier1():
    import pytest

    here = os.getcwd()
    os.chdir(ROOT)
    try:
        return int(pytest.main(["-q", "-p", "no:cacheprovider",
                                "--continue-on-collection-errors",
                                str(ROOT / "tests")]))
    finally:
        os.chdir(here)


def report(group, hits, modules):
    missing_total = executable_total = 0
    print(f"== {group}: executable lines left unexecuted, per module")
    for path, lines in modules.items():
        missing = sorted(lines - hits.get(str(path), set()))
        missing_total += len(missing)
        executable_total += len(lines)
        if missing:
            numbers = ", ".join(map(str, missing))
            print(f"{path.name}: {len(missing)} of {len(lines)}")
            print(textwrap.indent(textwrap.fill(numbers, 72), "    "))
    print(f"== {group}: {missing_total:,} of {executable_total:,} "
          f"executable lines unexecuted\n")


def main():
    sys.path.insert(0, str(ROOT / "src"))
    modules = {path: executable_lines(path)
               for path in sorted(PACKAGE.glob("*.py"))}
    _, run_hits = traced(cli_runs)
    code, test_hits = traced(tier1)
    report("runs", run_hits, modules)
    report("tier1", test_hits, modules)
    print(f"pytest exit code: {code}")


if __name__ == "__main__":
    main()
