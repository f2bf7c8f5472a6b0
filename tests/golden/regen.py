"""Golden outputs: the exact text of bundled CLI runs, and the script that rewrites them.

Each case is one ``hetcache`` command on a bundled config or spec, or on an
input file kept in this directory, with some keys set in a copy of it. Its
golden file holds the command's output: stdout for ``analytic`` and
``simulate``, the CSV for ``sweep``. ``tests/test_golden.py`` runs every case
in-process at one and two workers and compares the text exactly.

Monte-Carlo output depends on numpy's random streams, so the numpy version
the files were made with is kept in ``numpy_version.txt``.

Rewrite every file from the repository root with

    python tests/golden/regen.py

or, writing nothing, list the files that would move (exit 1 if any would) with

    python tests/golden/regen.py --check

Either run names, for each sweep CSV that moves, how many of its rows move
per engine.

A change that moves a golden names each moved file, and why, in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import importlib.resources
import itertools
import io
import os
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
NUMPY_VERSION_FILE = HERE / "numpy_version.txt"


class Case(NamedTuple):
    golden: str                        # file name in this directory
    command: str                       # "analytic", "simulate" or "sweep"
    source: str                        # bundled config name, or an input file in this directory
    values: tuple[tuple[str, str], ...] = ()  # keys set in a copy of the source
    args: tuple[str, ...] = ()         # further CLI arguments


MC10 = (("realizations", "10"),)

CASES = (
    Case("analytic_fig2_rank1.json", "analytic", "fig2.cfg", args=("--content-rank", "1")),
    Case("analytic_fig2_rank50.json", "analytic", "fig2.cfg", args=("--content-rank", "50")),
    Case("sweep_fig3.csv", "sweep", "fig3.spec"),
    Case("sweep_fig4.csv", "sweep", "fig4.spec"),
    Case("sweep_fig4_montecarlo.csv", "sweep", "fig4.spec",
         MC10 + (("engines", "analytic, montecarlo"),), ("--seed", "1")),
    Case("sweep_fig4_dtilde_montecarlo.csv", "sweep", "fig4.spec",
         MC10 + (("engines", "analytic, montecarlo"), ("axis2", "d_tilde"),
                 ("axis2_values", "0.1, 0.3, 0.6")), ("--seed", "1")),
    # beta = 1: UCP serves from many SBSs within r_sbs, and the call's work
    # exceeds POOL_MIN_WORK, so two workers run a process pool
    Case("sweep_fig4_dense_montecarlo.csv", "sweep", "fig4.spec",
         (("realizations", "5"), ("beta", "1"), ("engines", "analytic, montecarlo")), ("--seed", "1")),
    # alpha = 3: the path gains take the non-integer exponent -1.5 of a
    # squared distance
    Case("sweep_fig4_alpha3_montecarlo.csv", "sweep", "fig4.spec",
         MC10 + (("alpha", "3"), ("engines", "analytic, montecarlo")), ("--seed", "1")),
    Case("simulate_fig2.json", "simulate", "fig2.cfg", MC10, ("--seed", "1")),
    Case("simulate_fig2_interference_all.json", "simulate", "fig2.cfg",
         MC10 + (("interference", "all"),), ("--seed", "1")),
    # beta = 1 and r_sbs = 30 m put ~57 SBSs within r_sbs, and d_tilde = 0.1
    # gives UCP up to one server group per SBS, each with every other link
    # as an interferer
    Case("simulate_fig2_ucp_many_groups_all.json", "simulate", "fig2.cfg",
         MC10 + (("lambda_sbs", "0.02"), ("beta", "1"), ("r_sbs", "30"), ("d_tilde", "0.1"),
                 ("policy", "ucp"), ("interference", "all")), ("--seed", "1")),
    Case("sweep_mc_sparse_pool.csv", "sweep", "mc_sparse_pool_1401.spec"),
)


def input_text(case: Case) -> str:
    """The case's input file: its source with each of ``case.values`` set."""
    path = HERE / case.source
    if path.is_file():
        text = path.read_text(encoding="utf-8")
    else:
        text = importlib.resources.files("hetcache").joinpath("configs", case.source).read_text(encoding="utf-8")
    lines = text.splitlines()
    for key, value in case.values:
        lines = [line for line in lines if line.partition("=")[0].strip() != key]
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def run(case: Case, workers: int) -> tuple[int, str, str]:
    """Run ``case`` in-process; return its exit code, its output text and its stderr.

    ``workers`` is ignored by ``analytic``, which takes no such flag. The
    seed of a Monte-Carlo case comes from ``--seed`` or the input file, so
    HETCACHE_SEED must be unset.
    """
    from hetcache.cli import main

    with tempfile.TemporaryDirectory() as work:
        source = Path(work) / ("input.spec" if case.command == "sweep" else "input.cfg")
        source.write_text(input_text(case), encoding="utf-8")
        out_csv = Path(work) / "out.csv"
        argv = [case.command, "--spec" if case.command == "sweep" else "--config", str(source)]
        if case.command == "sweep":
            argv += ["--out", str(out_csv)]
        if case.command != "analytic":
            argv += ["--workers", str(workers)]
        argv += list(case.args)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
        if case.command == "sweep":
            text = out_csv.read_text(encoding="utf-8") if out_csv.exists() else ""
        else:
            text = stdout.getvalue()
    return code, text, stderr.getvalue()


def moved_rows(old: str, new: str) -> dict[str, int]:
    """The rows of a sweep CSV that move from ``old`` to ``new``, counted per engine.

    Rows are compared by position; a row present in one text only moves.
    Every engine of either text is counted, so an engine with no moved row
    reads 0.
    """
    old_rows, new_rows = old.splitlines()[1:], new.splitlines()[1:]
    column = new.splitlines()[0].split(",").index("engine")
    counts = {row.split(",")[column]: 0 for row in old_rows + new_rows}
    for before, after in itertools.zip_longest(old_rows, new_rows):
        if before != after:
            counts[(after or before).split(",")[column]] += 1
    return counts


def main(argv: list[str] | None = None) -> int:
    import argparse

    import numpy

    parser = argparse.ArgumentParser(description="Rewrite the golden files from this checkout's package.")
    parser.add_argument(
        "--check", action="store_true",
        help="write nothing; list the files that would move and exit 1 if any would",
    )
    check = parser.parse_args(argv).check
    os.environ.pop("HETCACHE_SEED", None)
    outputs = {NUMPY_VERSION_FILE.name: numpy.__version__ + "\n"}
    for case in CASES:
        code, text, stderr = run(case, workers=1)
        if code != 0:
            print(f"{case.golden}: exit {code}: {stderr}", file=sys.stderr)
            return 1
        outputs[case.golden] = text
    old = {name: (HERE / name).read_text(encoding="utf-8") if (HERE / name).is_file() else ""
           for name in outputs}
    moved = [name for name, text in outputs.items() if old[name] != text]
    for name in moved:
        rows = ""
        if name.endswith(".csv"):
            counts = moved_rows(old[name], outputs[name])
            rows = " (moved rows: " + ", ".join(f"{engine} {n}" for engine, n in counts.items()) + ")"
        if check:
            print(f"would move {name}{rows}")
        else:
            (HERE / name).write_text(outputs[name], encoding="utf-8", newline="\n")
            print(f"wrote {name}{rows}")
    return 1 if check and moved else 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parents[1] / "src"))  # this checkout's package
    sys.exit(main())
