"""Committed reference reports and the rule that counts failed checks.

A reference holds, per suite, the records (id, status, measured, bound,
tolerance) that ``varbesov.cli.emit`` wrote for the workload at the default
seed.  Every repetition of a suite is judged against it:

- a check fails when its status is ``fail``, or when its id or status
  differs from the reference record at the same position;
- a suite that raised fails every check of its reference.

For a seed with no committed reference, the suite's first completed
repetition stands in for it, so only ``fail`` statuses, raised suites and
repetitions that disagree with each other count.
"""

import json
import os

HERE = os.path.dirname(os.path.abspath(__file__))


def path_for(workload):
    return os.path.join(HERE, "reference", f"{workload}.json")


def load(workload, seed):
    """Reference records per suite, or None when the seed has none."""
    try:
        with open(path_for(workload), encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        return None
    return doc["suites"] if doc["seed"] == seed else None


def save(workload, seed, suites):
    with open(path_for(workload), "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed, "suites": suites}, fh,
                  indent=1)
        fh.write("\n")


def records_of(blob):
    """Records of one emitted JSON report."""
    return json.loads(blob.decode())["records"]


def _rel_drift(got, want):
    if isinstance(got, (int, float)) and isinstance(want, (int, float)):
        scale = max(abs(got), abs(want))
        return abs(got - want) / scale if scale > 0 else 0.0
    return 0.0 if got == want else 1.0


def judge(outcomes, reference):
    """Count checks over every repetition of every suite.

    ``outcomes`` maps suite -> list of per-repetition record lists, None for
    a repetition that raised.  Returns (attempted, failed, max_rel_drift):
    a check that fails in any repetition counts once, and the drift is the
    largest relative change of a ``measured`` value from the reference.
    """
    attempted = failed = 0
    drift = 0.0
    for suite, runs in outcomes.items():
        if reference is not None:
            want = reference.get(suite)
        else:
            want = next((r for r in runs if r is not None), None)
        size = max([len(want or [])] + [len(r) for r in runs if r is not None] + [1])
        failing = set()
        for got in runs:
            if got is None:
                failing.update(range(size))
                continue
            for i in range(size):
                g = got[i] if i < len(got) else None
                w = want[i] if want is not None and i < len(want) else None
                if (g is None or w is None or g["status"] == "fail"
                        or g["id"] != w["id"] or g["status"] != w["status"]):
                    failing.add(i)
                else:
                    drift = max(drift, _rel_drift(g["measured"], w["measured"]))
        attempted += size
        failed += len(failing)
    return attempted, failed, drift
