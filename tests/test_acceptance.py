"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Criterion 6 is a soft figure-read check: it reports and warns but
never fails.
"""

import json
import math
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest
from scipy import stats

from hetcache import (
    CachePolicy,
    ContentLibrary,
    McBudget,
    ModelSetup,
    SimWindow,
    SweepSpec,
    SystemParams,
    Tier,
    Variant,
    average_outage,
    estimate_outage,
    kernel_integral,
    kernels,
    run_sweep,
    sbs_hit_probability,
    total_outage,
    zipf_request_distribution,
)
from hetcache.cli import _load_config
from hetcache.experiments import sweep_spec_from_config

from oracles import (
    fig2_params,
    kernel_quadrature,
    request_outcomes,
    success_mbs_integral,
    success_sbs_integral,
    truncated_rayleigh_cdf,
)


def note(criterion: int, message: str) -> None:
    print(f"[criterion {criterion}] {message}")


def library30() -> ContentLibrary:
    return ContentLibrary.from_normalized(0.3, 100)


def combo_table():
    lib = library30()
    lib0 = ContentLibrary(size=100, cache_slots=0)
    zipf = zipf_request_distribution(100, 0.8)
    unif = zipf_request_distribution(100, 0.0)
    return [
        ("none", CachePolicy.UCP, lib0, unif),
        ("ucp:uniform", CachePolicy.UCP, lib, unif),
        ("ucp:zipf", CachePolicy.UCP, lib, zipf),
        ("pcp:uniform", CachePolicy.PCP, lib, unif),
        ("pcp:zipf", CachePolicy.PCP, lib, zipf),
    ]


def test_criterion_1_kernel_oracle():
    start = time.perf_counter()
    for gamma in (0.01, 0.1, 1.0, 10.0):
        assert kernel_quadrature(gamma, 4.0) == pytest.approx(kernel_integral(gamma, 4.0), rel=1e-8)
    equal_power = kernels(
        SystemParams(
            lambda_mbs=1e-4, lambda_sbs=0.2, beta=0.5, p_max_mbs=4.0, p_max_sbs=2.0,
            alpha=4.0, gamma=1.0, r_sbs=5.0, r_mbs=250.0,
        )
    )
    for k in (equal_power.k1, equal_power.k2, equal_power.k3, equal_power.k4):
        assert k == pytest.approx(math.pi / 4.0, rel=1e-12)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    note(1, f"PASS: quadrature matches arctan form to 1e-8; pi/4 at unit threshold ({elapsed:.2f}s)")


def test_criterion_2_propositions_equal_their_integrals():
    start = time.perf_counter()
    worst = 0.0
    for gamma_db in (-20.0, -10.0, 0.0):
        for lam in (0.01, 0.1, 0.3):
            for beta in (0.02, 0.05, 0.5):
                p = fig2_params(lambda_sbs=lam, beta=beta, gamma_db=gamma_db)
                breakdown = total_outage(p, 0.3)
                d_sbs = abs(breakdown.p_out_sbs - (1.0 - success_sbs_integral(p, 0.3)))
                d_mbs = abs(breakdown.p_out_mbs - (1.0 - success_mbs_integral(p)))
                worst = max(worst, d_sbs, d_mbs)
                assert d_sbs <= 1e-7 and d_mbs <= 1e-7
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    note(2, f"PASS: 27-point closed-form vs integral, worst |diff| = {worst:.2e} ({elapsed:.2f}s)")


def test_criterion_3_analytic_monte_carlo_agreement():
    start = time.perf_counter()
    lines = []
    for lam in (0.01, 0.05, 0.1, 0.2):
        p = fig2_params(lambda_sbs=lam)
        for ci, (label, policy, lib, requests) in enumerate(combo_table()):
            analytic = average_outage(p, policy, lib, requests)
            seed = int(np.random.SeedSequence([3000, ci]).generate_state(1, np.uint64)[0])
            _, mc = estimate_outage(
                p, policy, lib, requests, realizations=100, trials_per_content=1, seed=seed
            )
            tolerance = max(0.02, 3.0 * mc.std_error)
            diff = abs(mc.mean - analytic)
            lines.append(f"lambda={lam} {label}: |{mc.mean:.4f}-{analytic:.4f}|={diff:.4f} tol={tolerance:.4f}")
            assert diff <= tolerance, lines[-1]
    # absolute agreement at a larger budget (>= 1e4 trials)
    p = fig2_params(lambda_sbs=0.05)
    lib = library30()
    zipf = zipf_request_distribution(100, 0.8)
    analytic = average_outage(p, CachePolicy.PCP, lib, zipf)
    _, mc = estimate_outage(p, CachePolicy.PCP, lib, zipf, realizations=3000, seed=424242)
    assert abs(mc.mean - analytic) <= 0.02
    elapsed = time.perf_counter() - start
    note(3, f"PASS: 20 grid points within max(0.02, 3se); high-budget |diff|="
            f"{abs(mc.mean - analytic):.4f} <= 0.02 ({elapsed:.0f}s)")


def test_criterion_4_served_distance_law():
    # 2e4 independent realizations, one trial each; r_mbs shrunk so the
    # window stays small (the SBS distance law involves only r_sbs and
    # beta*B*lambda_sbs*P_c, which keep their benchmark values)
    start = time.perf_counter()
    p = fig2_params(r_mbs=6.0)
    window = SimWindow(40.0, guard=14.0)
    outcomes = request_outcomes(
        p, CachePolicy.PCP, library30(), content=1, window=window,
        realizations=20000, trials=1, seed=2024,
    )
    served = np.array([o.server_distance for o in outcomes if o.tier is Tier.SBS])
    assert served.size >= 10000
    nu = p.beta * p.lambda_sbs  # B = 1, P_c = 1
    result = stats.kstest(served, truncated_rayleigh_cdf(nu, p.r_sbs))
    assert result.pvalue > 1e-3
    # the hit rate itself validates the coverage exponent
    hit = np.mean([o.tier is Tier.SBS for o in outcomes])
    expected = sbs_hit_probability(p, 1.0)
    z = (hit - expected) / math.sqrt(expected * (1.0 - expected) / len(outcomes))
    assert abs(z) <= 3.0
    elapsed = time.perf_counter() - start
    note(4, f"PASS: KS p={result.pvalue:.3f} over {served.size} served samples; "
            f"hit-rate z={z:+.2f} ({elapsed:.0f}s)")


def _density_setup():
    lib = library30()
    zipf = zipf_request_distribution(100, 0.8)
    unif = zipf_request_distribution(100, 0.0)
    setup = ModelSetup(params=fig2_params(), policy=CachePolicy.PCP, library=lib, requests=zipf)
    variants = (
        Variant("none", CachePolicy.UCP, unif, no_cache=True),
        Variant("ucp:uniform", CachePolicy.UCP, unif),
        Variant("pcp:zipf", CachePolicy.PCP, zipf),
    )
    return setup, variants


def test_criterion_5_qualitative_figure_reproduction():
    setup, variants = _density_setup()
    grid = (0.01, 0.02, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.5)
    res = run_sweep(SweepSpec(base=setup, axis1=("lambda_sbs", grid), variants=variants))

    def curve(label):
        return [r.avg_outage for r in res.rows if r.variant == label]

    # (a) without caching, densification only increases interference
    none_curve = curve("none")
    assert all(b >= a for a, b in zip(none_curve, none_curve[1:]))

    # (b) the skewed-popularity PCP curve peaks at a smaller density than
    # the uniform UCP curve
    peak_pcp = grid[int(np.argmax(curve("pcp:zipf")))]
    peak_ucp = grid[int(np.argmax(curve("ucp:uniform")))]
    assert peak_pcp < peak_ucp

    # (c) every threshold-sweep curve is nondecreasing, both engines
    gammas = tuple(np.linspace(-20.0, 10.0, 13))
    gres = run_sweep(SweepSpec(base=setup, axis1=("gamma", gammas), variants=variants))
    for label in ("none", "ucp:uniform", "pcp:zipf"):
        cv = [r.avg_outage for r in gres.rows if r.variant == label]
        assert all(b >= a - 1e-12 for a, b in zip(cv, cv[1:]))
    mc_spec = SweepSpec(
        base=setup, axis1=("gamma", (-20.0, -10.0, 0.0, 10.0)),
        variants=(variants[2],), engines=("montecarlo",), mc=McBudget(1, 40), seed=5,
    )
    mc_curve = [r.avg_outage for r in run_sweep(mc_spec).rows]
    assert all(b >= a for a, b in zip(mc_curve, mc_curve[1:]))

    note(5, f"PASS: no-caching curve nondecreasing; plateau onset {peak_pcp} < {peak_ucp}; "
            "threshold curves nondecreasing (analytic and Monte-Carlo)")


def test_criterion_6_figure_read_soft_checks():
    # figure-read values with unknown grid coordinates: report, never fail
    spec = sweep_spec_from_config(_load_config("fig3.spec"), 0)
    res = run_sweep(spec)
    verdicts = []
    for label, target in (("pcp", 0.46), ("ucp", 0.50)):
        full_spectrum = [r.avg_outage for r in res.rows if r.variant == label and r.axes[1] == 1.0]
        peak = max(full_spectrum)
        ok = abs(peak - target) <= 0.05
        verdicts.append(f"{label} full-spectrum max {peak:.3f} vs {target}+-0.05 -> "
                        f"{'ok' if ok else 'MISS'}")
        if not ok:
            warnings.warn(f"figure-read soft check missed: {verdicts[-1]}", stacklevel=1)
    note(6, "SOFT: " + "; ".join(verdicts))


def test_criterion_7_policy_and_skew_exactness():
    p = fig2_params()
    full = ContentLibrary(size=100, cache_slots=100)
    zipf = zipf_request_distribution(100, 0.8)
    assert average_outage(p, CachePolicy.UCP, full, zipf) == average_outage(
        p, CachePolicy.PCP, full, zipf
    )
    assert np.array_equal(
        zipf_request_distribution(100, 0.0).weights, np.full(100, 1.0 / 100.0)
    )
    lib = library30()
    unif = zipf_request_distribution(100, 0.0)
    assert average_outage(p, CachePolicy.UCP, lib, zipf_request_distribution(100, 0.0)) == \
        average_outage(p, CachePolicy.UCP, lib, unif)
    note(7, "PASS: full-cache policies bitwise identical; zero-skew equals uniform bitwise")


MINI_CFG = """
lambda_mbs = 0.0001
lambda_sbs = 0.02
beta = 0.05
p_max_mbs = 43
p_max_sbs = 23
alpha = 4
gamma = -10
r_sbs = 5
r_mbs = 250
library_size = 5
d_tilde = 0.4
policy = pcp
delta = 0.8
realizations = 15
trials_per_content = 1
"""

MINI_SPEC = MINI_CFG + """
axis1 = lambda_sbs
axis1_values = 0.01, 0.02
variants = ucp, pcp
engines = analytic, montecarlo
"""


def _cli(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "hetcache", *argv], capture_output=True, check=False
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_criterion_8_cli_determinism(tmp_path):
    cfg = tmp_path / "mini.cfg"
    cfg.write_text(MINI_CFG)
    spec = tmp_path / "mini.spec"
    spec.write_text(MINI_SPEC)

    code_a, out_a, _ = _cli("analytic", "--config", str(cfg), "--content-rank", "1")
    code_b, out_b, _ = _cli("analytic", "--config", str(cfg), "--content-rank", "1")
    assert code_a == code_b == 0 and out_a == out_b

    runs = [
        _cli("simulate", "--config", str(cfg), "--seed", "9"),
        _cli("simulate", "--config", str(cfg), "--seed", "9"),
        _cli("simulate", "--config", str(cfg), "--seed", "9", "--workers", "2"),
        _cli("simulate", "--config", str(cfg), "--seed", "9", "--workers", "3"),
    ]
    assert all(code == 0 for code, _, _ in runs)
    outputs = {out for _, out, _ in runs}
    assert len(outputs) == 1

    tables = []
    stdouts = []
    for i, workers in enumerate(("1", "2")):
        out_csv = tmp_path / f"sweep{i}.csv"
        code, out, _ = _cli("sweep", "--spec", str(spec), "--out", str(out_csv),
                            "--seed", "9", "--workers", workers)
        assert code == 0
        stdouts.append(out.replace(str(out_csv).encode(), b"OUT"))
        tables.append(out_csv.read_bytes())
    assert tables[0] == tables[1]
    assert stdouts[0] == stdouts[1]
    parsed = json.loads(runs[0][1])
    note(8, f"PASS: byte-identical analytic/simulate output (avg mean {parsed['average']['mean']:.3f}); "
            "sweep CSV byte-identical for any worker count")
