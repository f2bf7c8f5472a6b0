"""Golden outputs: bundled CLI runs print exactly the text kept in tests/golden/.

Each case of ``golden/regen.py`` runs in-process at one and two workers
(``analytic`` takes no worker count, so it runs once). A moved byte fails
with the first line that differs; ``python tests/golden/regen.py`` rewrites
the files when a change means to move them.
"""

import json

import pytest

from golden.regen import CASES, HERE, NUMPY_VERSION_FILE, run
from oracles import parse_sweep_csv

CASES_BY_NAME = {case.golden: case for case in CASES}


def first_difference(want: str, got: str) -> str:
    want_lines, got_lines = want.splitlines(), got.splitlines()
    for number, (w, g) in enumerate(zip(want_lines, got_lines), start=1):
        if w != g:
            return f"line {number} differs:\n  golden: {w}\n  output: {g}"
    return (
        f"golden has {len(want_lines)} lines, output has {len(got_lines)}"
        if len(want_lines) != len(got_lines)
        else "the texts differ only in their line endings"
    )


@pytest.mark.parametrize(
    "case, workers",
    [(case, workers) for case in CASES for workers in ((1,) if case.command == "analytic" else (1, 2))],
    ids=lambda value: value.golden if hasattr(value, "golden") else f"w{value}",
)
def test_output_matches_golden(monkeypatch, case, workers):
    import numpy

    made_with = NUMPY_VERSION_FILE.read_text(encoding="utf-8").strip()
    assert numpy.__version__ == made_with, (
        f"goldens were made with numpy {made_with}, this is numpy {numpy.__version__}; "
        "rerun tests/golden/regen.py and review the diff"
    )
    monkeypatch.delenv("HETCACHE_SEED", raising=False)
    code, text, stderr = run(case, workers)
    assert code == 0, stderr
    want = (HERE / case.golden).read_text(encoding="utf-8")
    assert text == want, f"{case.golden} at {workers} worker(s): {first_difference(want, text)}"


def test_sweep_monte_carlo_row_is_the_simulate_golden():
    # fig4.spec is fig2.cfg swept over gamma; at gamma = -10 dB its pcp:zipf
    # row is fig2's point, so at one seed and budget the two goldens agree;
    # this reads the two files and runs nothing
    simulate, sweep = (CASES_BY_NAME[name] for name in ("simulate_fig2.json", "sweep_fig4_montecarlo.csv"))
    assert simulate.args == sweep.args and set(simulate.values) <= set(sweep.values)
    average = json.loads((HERE / simulate.golden).read_text(encoding="utf-8"))["average"]
    rows = parse_sweep_csv((HERE / sweep.golden).read_text(encoding="utf-8")).rows
    [row] = [r for r in rows if (r.axes, r.variant, r.engine) == ((-10.0,), "pcp:zipf", "montecarlo")]
    assert (row.avg_outage, row.std_error) == (average["mean"], average["std_error"])
