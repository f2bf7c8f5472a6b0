"""Record the closed-form values the benchmark checks outputs against.

Run from the repository root:

    python3 perfbench/record_expected.py

It runs analytic ``hetcache sweep`` commands over every point any seed of
any workload can ask for and writes ``perfbench/expected.json``. Re-record
only when a change is meant to move the closed forms by more than
``workloads.ANALYTIC_TOL``, and say so in the change.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

import workloads as wl


def _sweep(spec: dict[str, str], env: dict[str, str]) -> list[dict[str, str]]:
    with tempfile.TemporaryDirectory(dir=os.getcwd()) as tmp:
        spec_path = os.path.join(tmp, "master.spec")
        out_path = os.path.join(tmp, "master.csv")
        with open(spec_path, "w", encoding="utf-8") as handle:
            handle.write(wl.config_text(spec))
        subprocess.run(
            [sys.executable, "-m", "hetcache", "sweep", "--spec", spec_path, "--out", out_path],
            env=env, check=True, stdout=subprocess.DEVNULL,
        )
        with open(out_path, "r", encoding="utf-8") as handle:
            return wl.parse_csv(handle.read())[1]


def main() -> int:
    env = dict(os.environ, PYTHONPATH=os.path.join(os.getcwd(), "src"))
    grid_rows = _sweep(
        {**wl.FIG2_MODEL, **wl.GRID_OVERRIDES}
        | {
            "axis1": "gamma",
            "axis1_values": ", ".join(repr(g) for g in wl.GRID_GAMMA_DB),
            "axis2": "d_tilde",
            "axis2_values": ", ".join(repr(d) for d in wl.GRID_D_TILDE),
            "variants": ", ".join(wl.GRID_VARIANTS),
        },
        env,
    )
    grid = {v: [[None] * len(wl.GRID_D_TILDE) for _ in wl.GRID_GAMMA_DB] for v in wl.GRID_VARIANTS}
    for row in grid_rows:
        gi = wl.GRID_GAMMA_DB.index(float(row["gamma"]))
        di = wl.GRID_D_TILDE.index(float(row["d_tilde"]))
        grid[row["policy"]][gi][di] = float(row["avg_outage"])

    sparse_rows = _sweep(
        wl.FIG2_MODEL
        | {
            "axis1": "lambda_sbs",
            "axis1_values": ", ".join(repr(x) for x in wl.SPARSE_LAMBDAS),
            "variants": ", ".join(wl.SPARSE_VARIANTS),
        },
        env,
    )
    sparse = {v: [None] * len(wl.SPARSE_LAMBDAS) for v in wl.SPARSE_VARIANTS}
    for row in sparse_rows:
        li = wl.SPARSE_LAMBDAS.index(float(row["lambda_sbs"]))
        sparse[row["policy"]][li] = float(row["avg_outage"])

    (fig2_row,) = _sweep(
        wl.FIG2_MODEL
        | {"axis1": "lambda_sbs", "axis1_values": wl.FIG2_MODEL["lambda_sbs"], "variants": "pcp"},
        env,
    )
    expected = {
        "analytic-grid": {
            "gamma_db": list(wl.GRID_GAMMA_DB),
            "d_tilde": list(wl.GRID_D_TILDE),
            "values": grid,
        },
        "mc-sparse-pool": {"lambda_sbs": list(wl.SPARSE_LAMBDAS), "values": sparse},
        "mc-dense-pcp": {"value": float(fig2_row["avg_outage"])},
    }
    with open(wl.EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump(expected, handle, separators=(",", ":"))
        handle.write("\n")
    print(f"wrote {wl.EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
