"""Benchmark of the hetcache CLI: end-to-end metrics, or per-layer metrics traced.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` writes the workload's input file from the seed, times a fresh
interpreter doing ``import hetcache`` plus ``setup_from_config`` several
times, then runs the workload's CLI command as a fresh process again and
again for ``--seconds`` seconds, checking every output. ``--trace 1`` runs
the per-layer suite in ``layers.py`` instead. Workloads are listed in
``workloads.py``; README.md says why each exists.

The gated times are scaled to a reference CPU speed. A fixed pure-Python
loop is timed before the first sample and after every sample, and each
sample is multiplied by REFERENCE_CALIBRATION_S over the mean of the two
loop times beside it. Two-vCPU machines shared with other tenants change
speed by half within seconds; scaling keeps those states out of the
comparison between two versions of the program. Raw times are reported too.

The program is run from ``src/`` of the current directory, exactly as a
user would run it: no BLAS or thread variables are set here. Everything the
benchmark writes goes to ``.perfbench_work/``. The last line of stdout is
one JSON object: correct, attempted, failed and the metrics with units.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time

import workloads as wl

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

SETUP_REPEATS = 5     # fresh interpreters timed for setup_s
MIN_CLI_RUNS = 3      # even past --seconds: the byte-identity check needs repeats
CHILD_TIMEOUT_S = 120.0

#: The calibration loop and its time at the reference speed: the fast state
#: of the 2.1 GHz x86-64 VM the README baseline was measured on.
CALIBRATION_LOOPS = 600_000
REFERENCE_CALIBRATION_S = 0.040

#: The end-to-end metrics of an untraced run, as (name, unit).
END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB")]

SETUP_PROBE = """\
import json, sys, time
start = time.perf_counter()
import hetcache
hetcache.setup_from_config(hetcache.parse_config_text(open(sys.argv[1]).read()))
print(json.dumps({"seconds": time.perf_counter() - start, "file": hetcache.__file__}))
"""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    return env


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_child(
    argv: list[str], stdout_path: str, timeout: float = CHILD_TIMEOUT_S
) -> tuple[int, float, float]:
    """Run ``argv`` to completion: (exit code, wall seconds, peak RSS in MB).

    The peak RSS is the largest max RSS over the process and every child it
    waited for, as ``wait4`` reports it. A process still running after
    ``timeout`` is killed with its process group (pool workers included),
    and reaped here.
    """
    with open(stdout_path, "wb") as out, open(stdout_path + ".err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT, start_new_session=True
        )
        timer = threading.Timer(timeout, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8", errors="replace") as handle:
        return handle.read()


def write_input(workload: wl.Workload, seed: int) -> tuple[str, str]:
    work = os.path.join(WORK, workload.name)
    os.makedirs(work, exist_ok=True)
    text = workload.input_text(seed)
    path = os.path.join(work, workload.input_name)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return path, text


def probe_setup(input_path: str) -> float | None:
    """Seconds a fresh interpreter spends importing hetcache and building the setup.

    None when the probe fails or imports hetcache from anywhere but ./src.
    """
    out = os.path.join(WORK, "setup_probe.out")
    code, _, _ = run_child([sys.executable, "-c", SETUP_PROBE, input_path], out)
    if code != 0:
        return None
    result = json.loads(read_text(out).strip().splitlines()[-1])
    if not os.path.abspath(result["file"]).startswith(SRC + os.sep):
        return None
    return float(result["seconds"])


class CliRun:
    """One timed CLI process and the checks on its output."""

    def __init__(
        self,
        workload: wl.Workload,
        input_path: str,
        input_text: str,
        expected: dict,
        reference: list[bytes | None],
        workers: int | None = None,
        prefix: list[str] | None = None,
    ):
        work = os.path.dirname(input_path)
        out_csv = os.path.join(work, "out.csv")
        stdout_path = os.path.join(work, "stdout.txt")
        if os.path.exists(out_csv):
            os.remove(out_csv)
        argv = prefix or [sys.executable, "-m", "hetcache"]
        argv = argv + workload.cli_args(input_path, out_csv, workers)
        self.code, self.wall_s, self.peak_rss_mb = run_child(argv, stdout_path)
        stdout = read_text(stdout_path)
        csv_text = read_text(out_csv) if os.path.exists(out_csv) else None
        self.errors: list[str] = []
        if self.code != 0:
            self.errors.append(f"exit code {self.code}: {read_text(stdout_path + '.err')[-300:]}")
            self.verdict = wl.Verdict(errors=[])
            return
        self.verdict = wl.check_output(workload, input_text, stdout, csv_text, expected)
        self.errors += self.verdict.errors
        output = (stdout + "\0" + wl.strip_wall_ms(csv_text or "")).encode()
        if reference[0] is None:
            reference[0] = output
        elif output != reference[0]:
            self.errors.append("output bytes differ from the first run of this input")

    @property
    def ok(self) -> bool:
        return not self.errors


def environment(seed: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        sha = git.stdout.strip() or None
    return {
        "seed": seed,
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_env": {
            k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def calibrate() -> float:
    """Seconds this process takes for a fixed pure-Python loop, now."""
    start = time.perf_counter()
    x = 0
    for i in range(CALIBRATION_LOOPS):
        x += i * i % 7
    return time.perf_counter() - start


def timed_with_calibration(fn, more) -> tuple[list, list[float]]:
    """Results of ``fn()`` while ``more(samples so far)``, and a scale for each.

    A sample's scale is REFERENCE_CALIBRATION_S over the mean of the
    calibration times just before and just after it.
    """
    results, calibrations = [], [calibrate()]
    while more(len(results)):
        results.append(fn())
        calibrations.append(calibrate())
    scales = [
        2.0 * REFERENCE_CALIBRATION_S / (before + after)
        for before, after in zip(calibrations, calibrations[1:])
    ]
    return results, scales


def tail(samples: list[float]) -> dict:
    """The highest percentile with at least ten samples above it, if any."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return {"percentile": None, "value": None, "samples": n}
    return {"percentile": round(100.0 * (n - 10) / n, 1), "value": ordered[n - 11], "samples": n}


def measure(workload: wl.Workload, seed: int, seconds: float) -> tuple[dict, dict]:
    """The untraced run: (result line, report)."""
    expected = wl.load_expected()
    input_path, input_text = write_input(workload, seed)
    probe_setup(input_path)  # untimed: writes bytecode caches in a fresh checkout
    setups, setup_scales = timed_with_calibration(
        lambda: probe_setup(input_path), lambda done: done < SETUP_REPEATS
    )
    setup_ok = [s for s in setups if s is not None]
    setup_scaled = [s * k for s, k in zip(setups, setup_scales) if s is not None]

    reference: list[bytes | None] = [None]
    deadline = time.perf_counter() + seconds
    runs, wall_scales = timed_with_calibration(
        lambda: CliRun(workload, input_path, input_text, expected, reference),
        lambda done: done < MIN_CLI_RUNS or time.perf_counter() < deadline,
    )

    attempted = len(runs) + len(setups)
    failed = sum(not r.ok for r in runs) + len(setups) - len(setup_ok)
    walls = [r.wall_s for r in runs]
    wall_s = statistics.median(walls)
    walls_scaled = [w * k for w, k in zip(walls, wall_scales)]
    report = {
        "workload": workload.name,
        "environment": environment(seed),
        "setup_s": {
            "median": statistics.median(setup_scaled) if setup_ok else None,
            "raw_median": statistics.median(setup_ok) if setup_ok else None,
            "samples": setup_ok,
            "scaled_samples": setup_scaled,
        },
        "wall_s": {
            "median": statistics.median(walls_scaled),
            "raw_median": wall_s,
            "raw_quartiles": statistics.quantiles(walls, n=4),
            "raw_tail": tail(walls),
            "samples": walls,
            "scaled_samples": walls_scaled,
        },
        "peak_rss_mb": {"median": statistics.median(r.peak_rss_mb for r in runs),
                        "max": max(r.peak_rss_mb for r in runs)},
        "failed_frac": failed / attempted,
        "errors": [e for r in runs for e in r.errors][:10],
    }
    rows = runs[0].verdict.rows
    if workload.command == "sweep" and rows:
        report["rows_per_s"] = rows / wall_s
    if workload.mc_points:
        ses = runs[0].verdict.mc_std_errors
        report["mc_trials_per_s"] = runs[0].verdict.mc_trials / wall_s
        if ses:
            report["mc_time_to_se_s"] = wall_s * statistics.fmean((se / 0.01) ** 2 for se in ses)
        report["mc_worst_z"] = runs[0].verdict.mc_worst_z
    values = {"setup_s": report["setup_s"]["median"], "wall_s": report["wall_s"]["median"],
              "peak_rss_mb": report["peak_rss_mb"]["median"]}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hetcache", "__init__.py")):
        print(f"no hetcache source under {SRC}: run from the repository root", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    workload = wl.WORKLOADS[args.workload]
    if args.trace:
        import layers

        result, report = layers.traced(workload, args.seed)
    else:
        result, report = measure(workload, args.seed, args.seconds)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
