"""Write the reports of a fixed set of configurations, for comparing two
checkouts byte for byte.

Run from any directory:

    python benchmarks/report_snapshot.py OUT

For each workload of ``perfbench/workloads.py`` at seeds 20240901 and 1-5,
and for the default configuration, it writes ``<name>.json``,
``<name>.csv`` and ``<name>.plot.csv`` into the directory OUT: the
``cli.emit`` JSON and CSV reports and the ``cli.emit_plot_data`` curves of
one ``cli.run``.  The package and the workloads are imported from the
checkout that holds this script.  To show that a change keeps every report,
run the script of each checkout into its own directory and compare them:

    python old/benchmarks/report_snapshot.py /tmp/old
    python new/benchmarks/report_snapshot.py /tmp/new
    diff -r /tmp/old /tmp/new
"""

import pathlib
import runpy
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from varbesov import cli  # noqa: E402

SEEDS = (20240901, 1, 2, 3, 4, 5)


def configs():
    """(name, config) of every snapshot run, in order."""
    workloads = runpy.run_path(str(ROOT / "perfbench" / "workloads.py"))
    for workload, config in workloads["WORKLOADS"].items():
        for seed in SEEDS:
            yield f"{workload}-{seed}", dict(config, seed=seed)
    yield "default", {}


def main(argv):
    if len(argv) != 1:
        sys.exit("usage: report_snapshot.py OUT")
    out = pathlib.Path(argv[0])
    out.mkdir(parents=True, exist_ok=True)
    for name, config in configs():
        report = cli.run(config)
        (out / f"{name}.json").write_bytes(cli.emit(report, "json"))
        (out / f"{name}.csv").write_bytes(cli.emit(report, "csv"))
        (out / f"{name}.plot.csv").write_bytes(cli.emit_plot_data(report))
        print(name, flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
