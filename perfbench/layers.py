"""The traced run: per-layer metrics for params, analytic, geometry_sim, the
process pool, experiments and cli.

Two parts, both timed from the benchmark's own files:
  * a fixed layer suite, the same for every workload: fresh-interpreter
    import probes, per-call timings of the public functions at the fig2
    operating point, call counts taken by wrapping module attributes, and
    estimate_outage at one and two workers;
  * attribution of the workload's own CLI command: one run with spans
    recorded (traced_cli.py) and one without, both at one worker because
    spans inside pool workers are not collected. Their wall-time difference
    is the tracing overhead.
README.md maps each metric to the end-to-end metric it should move.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import itertools
import os
import statistics
import sys
import time

import run
import spans as spans_mod
import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))

IMPORT_REPEATS = 3
IMPORT_PROBE = "import time; s = time.perf_counter(); import {mod}; print(time.perf_counter() - s)"
LIBRARY_SIZES = (100, 1000, 10_000, 1_000_000)
SIM_LAMBDAS = (0.05, 0.2)
COUNT_REALIZATIONS = 5
POOL_REALIZATIONS = 100  # as in fig2.cfg
ATTRIBUTION_PAIRS = 3


def per_call(fn, min_seconds: float = 0.05, repeat: int = 5) -> float:
    """Median seconds per call of ``fn()`` over ``repeat`` batches.

    Each batch repeats the call until it lasts at least ``min_seconds``;
    calls slower than that are timed one at a time.
    """
    number = 1
    while True:
        start = time.perf_counter()
        for _ in range(number):
            fn()
        if time.perf_counter() - start >= min_seconds:
            break
        number *= 2
    samples = []
    for _ in range(repeat):
        start = time.perf_counter()
        for _ in range(number):
            fn()
        samples.append((time.perf_counter() - start) / number)
    return statistics.median(samples)


def once(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def import_seconds(module: str) -> float | None:
    out = os.path.join(run.WORK, "import_probe.out")
    samples = []
    for _ in range(IMPORT_REPEATS):
        code, _, _ = run.run_child([sys.executable, "-c", IMPORT_PROBE.format(mod=module)], out)
        if code != 0:
            return None
        samples.append(float(run.read_text(out).strip()))
    return statistics.median(samples)


@contextlib.contextmanager
def counting(module, attr: str):
    """Count calls to ``module.attr`` made through the module's namespace."""
    original = getattr(module, attr)
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    setattr(module, attr, counted)
    try:
        yield calls
    finally:
        setattr(module, attr, original)


class CountingRng:
    """Generator proxy counting the exponential draws made with ``size``."""

    def __init__(self, rng) -> None:
        self._rng = rng
        self.drawn = 0

    def exponential(self, scale=1.0, size=None):
        if size is not None:
            self.drawn += int(size)
        return self._rng.exponential(scale, size)


def _fig2_setup(hc, **overrides):
    return hc.setup_from_config(wl.FIG2_MODEL | {k: str(v) for k, v in overrides.items()})


def analytic_layer(hc, m: dict) -> None:
    analytic = hc.analytic
    base = _fig2_setup(hc).params
    quad = dataclasses.replace(base, alpha=3.5)
    ratios = {
        "k1": base.gamma * base.p_mbs / base.p_sbs,
        "k2": base.gamma,
        "k4": base.gamma * base.p_sbs / base.p_mbs,
    }
    m["analytic.kernel_exact_us"] = 1e6 * per_call(lambda: hc.kernel_integral(base.gamma, 4.0))
    for label, x in ratios.items():
        m[f"analytic.kernel_quad_us.{label}"] = 1e6 * per_call(lambda x=x: hc.kernel_integral(x, 3.5))
    m["analytic.total_outage_us.a4"] = 1e6 * per_call(lambda: hc.total_outage(base, 1.0))
    m["analytic.total_outage_us.a3_5"] = 1e6 * per_call(lambda: hc.total_outage(quad, 1.0))

    for size in LIBRARY_SIZES:
        library = hc.ContentLibrary.from_normalized(0.3, size)
        requests = hc.zipf_request_distribution(size, 0.8)
        for policy in (hc.CachePolicy.PCP, hc.CachePolicy.UCP):
            call = functools.partial(hc.average_outage, base, policy, library, requests)
            seconds = once(call) if size >= 1_000_000 else per_call(call, repeat=3)
            m[f"analytic.average_outage_ms.{policy.value}.c{size}"] = 1e3 * seconds

    # One analytic-grid row per policy: alpha 3.5, |C| = 1000, d_tilde 0.3.
    grid = _fig2_setup(hc, **wl.GRID_OVERRIDES)
    for policy in (hc.CachePolicy.PCP, hc.CachePolicy.UCP):
        with (
            counting(analytic, "kernel_integral") as kernel_calls,
            counting(analytic, "total_outage") as total_calls,
        ):
            analytic.average_outage(grid.params, policy, grid.library, grid.requests)
        m[f"analytic.kernel_calls_per_row.{policy.value}"] = kernel_calls[0]
        m[f"analytic.total_outage_calls_per_row.{policy.value}"] = total_calls[0]


def sim_layer(hc, seed: int, m: dict) -> None:
    sim = hc.geometry_sim
    m["sim.stream_rng_us"] = 1e6 * per_call(lambda: sim.stream_rng(seed, "fading", 7))
    mbs_points = []
    for lam in SIM_LAMBDAS:
        for policy in (hc.CachePolicy.PCP, hc.CachePolicy.UCP):
            setup = _fig2_setup(hc, lambda_sbs=lam, policy=policy.value)
            window = sim.default_window(setup.params)
            rng = sim.stream_rng(seed, "geometry", 0)
            m[f"sim.realize_network_ms.{policy.value}.l{lam}"] = 1e3 * per_call(
                lambda: sim.realize_network(setup.params, setup.policy, setup.library, window, rng)
            )

        setup = _fig2_setup(hc, lambda_sbs=lam)
        window = sim.default_window(setup.params)
        realizations = [
            sim.realize_network(
                setup.params, setup.policy, setup.library, window,
                sim.stream_rng(seed, "geometry", r), cache_rng=sim.stream_rng(seed, "caches", r),
            )
            for r in range(COUNT_REALIZATIONS)
        ]
        mbs_points += [len(r.mbs_points) for r in realizations]
        active = [len(r.active_sbs_points) for r in realizations]
        m[f"sim.points_sbs_active.l{lam}"] = statistics.fmean(active)

        counter = CountingRng(sim.stream_rng(seed, "fading", 0))
        for realization in realizations:
            for content in range(1, setup.library.size + 1):
                sim.simulate_request(realization, content, setup.params, counter)
        trials = COUNT_REALIZATIONS * setup.library.size
        interferers = counter.drawn / trials
        m[f"sim.interferers_per_trial.l{lam}"] = interferers

        contents = itertools.cycle(range(1, setup.library.size + 1))
        fading = sim.stream_rng(seed, "fading", 1)
        request_s = per_call(
            lambda: sim.simulate_request(realizations[0], next(contents), setup.params, fading)
        )
        m[f"sim.simulate_request_us.l{lam}"] = 1e6 * request_s
        m[f"sim.ns_per_interferer.l{lam}"] = 1e9 * request_s / interferers
    m["sim.points_mbs"] = statistics.fmean(mbs_points)


def _estimate(hc, setup, seed: int, realizations: int, workers: int):
    return lambda: hc.estimate_outage(
        setup.params, setup.policy, setup.library, setup.requests,
        realizations=realizations, seed=seed, workers=workers,
    )


def pool_layer(hc, seed: int, m: dict) -> None:
    fig2 = _fig2_setup(hc)
    sparse = _fig2_setup(hc, lambda_sbs=max(wl.SPARSE_LAMBDAS), policy="ucp")
    m["sim.realization_ms"] = 1e3 * per_call(_estimate(hc, fig2, seed, 1, 1), min_seconds=0.1)
    for label, setup in (("fig2", fig2), ("sparse", sparse)):
        w1 = once(_estimate(hc, setup, seed, POOL_REALIZATIONS, 1))
        w2 = once(_estimate(hc, setup, seed, POOL_REALIZATIONS, 2))
        m[f"pool.estimate_outage_s.w1.{label}"] = w1
        m[f"pool.estimate_outage_s.w2.{label}"] = w2
        m[f"pool.speedup_w2.{label}"] = w1 / w2
    m["sim.estimate_outage_s"] = m["pool.estimate_outage_s.w1.fig2"]
    w1 = statistics.median(once(_estimate(hc, sparse, seed, 2, 1)) for _ in range(3))
    w2 = statistics.median(once(_estimate(hc, sparse, seed, 2, 2)) for _ in range(3))
    m["pool.startup_ms"] = 1e3 * (w2 - w1)


def attribute_cli(workload: wl.Workload, seed: int, m: dict, report: dict) -> list[run.CliRun]:
    """Run the workload's command untraced and traced, in alternating pairs, at one worker."""
    expected = wl.load_expected()
    input_path, input_text = run.write_input(workload, seed)
    spans_path = os.path.join(run.WORK, workload.name, "spans.json")
    traced_prefix = [sys.executable, os.path.join(HERE, "traced_cli.py"), spans_path, "--"]
    reference: list[bytes | None] = [None]
    run.probe_setup(input_path)  # untimed: writes bytecode caches in a fresh checkout
    pairs = [
        tuple(
            run.CliRun(workload, input_path, input_text, expected, reference, workers=1, prefix=prefix)
            for prefix in (None, traced_prefix)
        )
        for _ in range(ATTRIBUTION_PAIRS)
    ]
    cli_runs = [r for pair in pairs for r in pair]
    m["trace.overhead_s"] = statistics.median(traced.wall_s - plain.wall_s for plain, traced in pairs)
    report["wall_s_at_one_worker"] = {
        "untraced": [plain.wall_s for plain, _ in pairs],
        "traced": [traced.wall_s for _, traced in pairs],
    }
    traced = pairs[-1][1]
    if not traced.ok:
        return cli_runs

    recorded = spans_mod.load(spans_path)
    summary = spans_mod.summarize(recorded)
    root = summary["cli.main"]["total_s"]

    def total(name: str) -> float:
        return summary.get(name, {}).get("total_s", 0.0)

    engines = total("analytic.average_outage") + total("geometry_sim.estimate_outage")
    rows = traced.verdict.rows
    orchestration = total("experiments.run_sweep") if workload.command == "sweep" else root
    m["cli.main_s"] = root
    m["experiments.analytic_share"] = total("analytic.average_outage") / root
    m["experiments.mc_share"] = total("geometry_sim.estimate_outage") / root
    m["experiments.sweep_overhead_ms_per_row"] = 1e3 * (orchestration - engines) / rows
    report["spans"] = summary
    return cli_runs


def traced(workload: wl.Workload, seed: int) -> tuple[dict, dict]:
    """The per-layer run: (result line, report)."""
    sys.path.insert(0, run.SRC)
    import hetcache as hc

    values: dict[str, float] = {}
    report: dict = {"workload": workload.name, "environment": run.environment(seed)}
    cli_runs = attribute_cli(workload, seed, values, report)
    values["setup.import_s"] = import_seconds("hetcache")
    values["setup.scipy_import_s"] = import_seconds("scipy.integrate, scipy.special")
    analytic_layer(hc, values)
    sim_layer(hc, seed, values)
    pool_layer(hc, seed, values)

    failed = sum(not r.ok for r in cli_runs) + sum(
        values[k] is None for k in ("setup.import_s", "setup.scipy_import_s")
    )
    report["errors"] = [e for r in cli_runs for e in r.errors][:10]
    metrics = {name: {"value": values.get(name), "unit": unit} for name, unit in PER_LAYER}
    result = {"correct": failed == 0, "attempted": len(cli_runs) + 2, "failed": failed}
    return result | {"metrics": metrics}, report


#: Every per-layer metric as (name, unit), in BENCHMARK.json order.
PER_LAYER = [
    ("setup.import_s", "s"),
    ("setup.scipy_import_s", "s"),
    ("cli.main_s", "s"),
    ("trace.overhead_s", "s"),
    ("analytic.kernel_exact_us", "us"),
    *((f"analytic.kernel_quad_us.{k}", "us") for k in ("k1", "k2", "k4")),
    ("analytic.total_outage_us.a4", "us"),
    ("analytic.total_outage_us.a3_5", "us"),
    *(
        (f"analytic.average_outage_ms.{p}.c{n}", "ms")
        for n in LIBRARY_SIZES
        for p in ("pcp", "ucp")
    ),
    *(
        (f"analytic.{c}_calls_per_row.{p}", "count")
        for c in ("kernel", "total_outage")
        for p in ("pcp", "ucp")
    ),
    ("sim.stream_rng_us", "us"),
    *((f"sim.realize_network_ms.{p}.l{lam}", "ms") for lam in SIM_LAMBDAS for p in ("pcp", "ucp")),
    ("sim.points_mbs", "count"),
    *((f"sim.points_sbs_active.l{lam}", "count") for lam in SIM_LAMBDAS),
    *((f"sim.simulate_request_us.l{lam}", "us") for lam in SIM_LAMBDAS),
    *((f"sim.interferers_per_trial.l{lam}", "count") for lam in SIM_LAMBDAS),
    *((f"sim.ns_per_interferer.l{lam}", "ns") for lam in SIM_LAMBDAS),
    ("sim.realization_ms", "ms"),
    ("sim.estimate_outage_s", "s"),
    *(
        (f"pool.estimate_outage_s.{w}.{label}", "s")
        for label in ("fig2", "sparse")
        for w in ("w1", "w2")
    ),
    *((f"pool.speedup_w2.{label}", "x") for label in ("fig2", "sparse")),
    ("pool.startup_ms", "ms"),
    ("experiments.sweep_overhead_ms_per_row", "ms"),
    ("experiments.analytic_share", "fraction"),
    ("experiments.mc_share", "fraction"),
]
