"""Compare the reports of two ``report_snapshot.py`` directories record by
record.

Run from any directory:

    python benchmarks/report_compare.py OLD NEW

For each ``<name>.json`` report in OLD it reads the report of the same name
in NEW and pairs their records in order.  It prints every record whose id,
status, bound or tolerance differs (and a report or a record missing on
either side), then, over all reports:

- the number of measured values that are identical;
- the number that changed with both values below 1e-9 in magnitude (a
  round-off measurement);
- the number of the other values that changed, and their largest
  relative change |new - old| / max(|old|, |new|), with the record that
  has it;
- the same relative change over the ``<name>.plot.csv`` curves, whose rows
  must name the same (check id, level) pairs.

It exits 1 on any mismatch of id, status or gate, or of the curve rows, and
0 otherwise.
"""

import csv
import json
import math
import pathlib
import sys

SMALL = 1e-9


def _relative(old, new):
    return abs(new - old) / max(abs(old), abs(new))


class Comparison:
    """Counts and the largest relative change over the compared values."""

    def __init__(self):
        self.mismatches = 0
        self.identical = 0
        self.small = 0
        self.changed = 0
        self.largest = (0.0, None)

    def mismatch(self, message):
        self.mismatches += 1
        print("MISMATCH", message)

    def value(self, old, new, where):
        if old == new or (math.isnan(old) and math.isnan(new)):
            self.identical += 1
        elif abs(old) < SMALL and abs(new) < SMALL:
            self.small += 1
        else:
            self.changed += 1
            change = _relative(old, new)
            if not change <= self.largest[0]:
                self.largest = (change, where)


def _curves(path):
    with open(path, newline="") as fh:
        return [(row["check_id"], row["level"], float(row["value"]))
                for row in csv.DictReader(fh)]


def compare(old_dir, new_dir):
    """Print the comparison of the two directories; returns the exit code."""
    old_dir, new_dir = pathlib.Path(old_dir), pathlib.Path(new_dir)
    names = sorted({p.name for p in old_dir.glob("*.json")}
                   | {p.name for p in new_dir.glob("*.json")})
    records, curves = Comparison(), Comparison()
    for name in names:
        if not (old_dir / name).is_file() or not (new_dir / name).is_file():
            records.mismatch(f"{name}: report on one side only")
            continue
        old = json.loads((old_dir / name).read_text())["records"]
        new = json.loads((new_dir / name).read_text())["records"]
        if len(old) != len(new):
            records.mismatch(f"{name}: {len(old)} records -> {len(new)}")
        for a, b in zip(old, new):
            for key in ("id", "status", "bound", "tolerance"):
                if a[key] != b[key]:
                    records.mismatch(f"{name} {a['id']}: {key} "
                                     f"{a[key]} -> {b[key]}")
            records.value(a["measured"], b["measured"], f"{name} {a['id']}")
        plot = name[: -len(".json")] + ".plot.csv"
        sides = [(d / plot).is_file() for d in (old_dir, new_dir)]
        if sides == [True, True]:
            old_rows, new_rows = _curves(old_dir / plot), _curves(new_dir / plot)
            if [r[:2] for r in old_rows] != [r[:2] for r in new_rows]:
                curves.mismatch(f"{plot}: curve rows differ")
                continue
            for a, b in zip(old_rows, new_rows):
                curves.value(a[2], b[2], f"{plot} {a[0]} level {a[1]}")
        elif any(sides):
            curves.mismatch(f"{plot}: curves on one side only")
    for label, c in (("measured", records), ("curve", curves)):
        change, where = c.largest
        print(f"{label} values: {c.identical} identical, {c.small} changed "
              f"below {SMALL:g}, {c.changed} changed by at most "
              f"{change:.3g} relative"
              + (f" ({where})" if where else ""))
    return 1 if records.mismatches or curves.mismatches else 0


def main(argv):
    if len(argv) != 2:
        sys.exit("usage: report_compare.py OLD NEW")
    sys.exit(compare(*argv))


if __name__ == "__main__":
    main(sys.argv[1:])
