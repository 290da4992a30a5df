"""Mutation census: how many deliberate errors in the paper's formulas the
verifier's report and its tests catch.

Run from any directory:

    python benchmarks/mutation_census.py

Each mutant below makes one formula wrong by one exact string replacement
in one package file; the string must match exactly once.  The mutant is
applied to a temporary copy of ``src``, ``tests``, ``perfbench`` and
``pyproject.toml``, never to the package.  For the unmutated copy and for
each mutant the census prints:

- the ids of the records of ``cli.run({})`` (the default configuration)
  whose status differs from the unmutated run's;
- the number of Tier-1 tests (``python -m pytest`` over ``tests``) that
  fail or error.

It takes no options.  Each Tier-1 run takes about 25 s on a 2-core host,
so the census takes about 5 minutes; it is not part of Tier-1.  Add
mutants only, each with the reason it makes a formula wrong; a mutant that
leaves the mathematics true does not belong in the list.
"""

import json
import os
import pathlib
import re
import shutil
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "perfbench", "pyproject.toml")

# (name, file under src/varbesov, old, new): each makes one formula wrong
MUTANTS = (
    # [V.grad, block_j] f loses its - block_j(V.grad f) term, so nothing
    # cancels
    ("commutator without its -block_j(V.grad f) term", "commutator.py",
     "                acc -= _filtered(multiplier, inner_specs[k], work, real)\n",
     ""),
    # the second block of the commutator at level j+1 instead of j
    ("commutator's second block at level j+1", "commutator.py",
     "acc -= _filtered(multiplier, inner_specs[k], work, real)",
     "acc -= _filtered(self.rou.multipliers[min(j + 1, self.rou.top_level)], "
     "inner_specs[k], work, real)"),
    # the divergence forms (Theorem 1 and Theorem 2's negative band) need V
    # in B^{s+1}, not B^s; s + 1 has one site, which both read
    ("V_besov_up at s instead of s + 1", "commutator.py",
     "return ExponentField(s.grid, s.values + 1.0)",
     "return ExponentField(s.grid, s.values + 0.0)"),
    # Theorem 1 measures grad V in L^{p1}, not in L^p, 1/p = 1/p1 + 1/p2
    ("Theorem 1 grad_V norm at p instead of p1", "commutator.py",
     "lambda k: range(f.grid.dim), (p1,))",
     "lambda k: range(f.grid.dim), (p,))"),
    # a right-hand side term a million times too large
    ("Theorem 3 split term x 1e6", "commutator.py",
     '"grad_f_besov_s1 * V_besov_s2": grad_f_besov_s1 * v_besov_s2}',
     '"grad_f_besov_s1 * V_besov_s2": grad_f_besov_s1 * v_besov_s2 * 1e6}'),
    # the Besov weight is 2^{j s}, not 2^{j s / 2}
    ("Besov weight 2^{j s/2} instead of 2^{j s}", "littlewood_paley.py",
     "np.exp2(j * s.values) * b.values",
     "np.exp2(0.5 * j * s.values) * b.values"),
    # 1/p = 1/p1 + 1/p2 loses its second term
    ("harmonic_sum ignores p2", "exponents.py",
     "r = p1.reciprocals() + p2.reciprocals()",
     "r = p1.reciprocals()"),
    # the eta kernel (1 + 2^j |x|)^{-m} decays one order too slowly
    ("eta kernel decays as m - 1", "grid.py",
     "(1.0 + 2.0 ** j * radius) ** (-float(m))",
     "(1.0 + 2.0 ** j * radius) ** (1.0 - float(m))"),
    # the Hardy-type inequality's constant half its value
    ("hardy_bound halved", "littlewood_paley.py",
     "return float(np.min(1.0 / c))",
     "return 0.5 * float(np.min(1.0 / c))"),
)

STATUSES = ("import json; from varbesov import cli; "
            "print(json.dumps([(r.check_id, r.status) "
            "for r in cli.run({}).records]))")


def _copy(dest):
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=shutil.ignore_patterns(
                "__pycache__", ".hypothesis", ".pytest_cache", "out"))
        else:
            shutil.copy2(src, dest / name)


def _mutate(copy, path, old, new):
    target = copy / "src" / "varbesov" / path
    text = target.read_text()
    count = text.count(old)
    if count != 1:
        sys.exit(f"{path}: the mutant's string matches {count} times, not once")
    target.write_text(text.replace(old, new))


def _python(copy, *args):
    env = dict(os.environ, PYTHONPATH=str(copy / "src"))
    return subprocess.run([sys.executable, *args], cwd=copy, env=env,
                          capture_output=True, text=True)


def _statuses(copy):
    """(id, status) of each record of the default run; a run that raises
    reads as one record with status "raised"."""
    out = _python(copy, "-c", STATUSES)
    if out.returncode != 0:
        return [("run", "raised")]
    return [tuple(r) for r in json.loads(out.stdout)]


def _tier1_failures(copy):
    out = _python(copy, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                  "--continue-on-collection-errors")
    tail = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
    return sum(int(n) for n in re.findall(r"(\d+) (?:failed|errors?)\b", tail))


def _flipped(base, statuses):
    if len(base) != len(statuses):
        return [f"{len(base)} records -> {len(statuses)}"]
    return [f"{a[0]} ({a[1]} -> {b[1]})" for a, b in zip(base, statuses)
            if a != b]


def main():
    base = None
    print(f"{'mutant':<50}{'Tier-1 failed':>14}  flipped records", flush=True)
    for name, path, old, new in (("none", None, None, None),) + MUTANTS:
        with tempfile.TemporaryDirectory() as tmp:
            copy = pathlib.Path(tmp)
            _copy(copy)
            if path is not None:
                _mutate(copy, path, old, new)
            statuses = _statuses(copy)
            failed = _tier1_failures(copy)
        if base is None:
            base = statuses
        flipped = ", ".join(_flipped(base, statuses)) or "none"
        print(f"{name:<50}{failed:>14}  {flipped}", flush=True)


if __name__ == "__main__":
    main()
