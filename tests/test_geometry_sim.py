import math

import numpy as np
import pytest
from scipy import stats

from hetcache import (
    CachePolicy,
    ConfigError,
    ContentLibrary,
    INTERFERENCE_ALL,
    InvalidRankError,
    NetworkRealization,
    SimWindow,
    SystemParams,
    Tier,
    default_window,
    estimate_outage,
    realize_network,
    sample_ppp,
    sbs_hit_probability,
    simulate_outcomes,
    simulate_request,
    stream_rng,
    thin,
    zipf_request_distribution,
)

from oracles import fig2_params, truncated_rayleigh_cdf


class FixedGains:
    """Stand-in RNG whose exponential draws are all exactly 1."""

    def exponential(self, size=None):
        return 1.0 if size is None else np.ones(size)


def single_content_params(**overrides):
    return fig2_params(**overrides)


def make_realization(sbs_xy, cached, mbs_xy=(), library_size=1):
    sbs = np.array(sbs_xy, dtype=float).reshape(-1, 2)
    caches = np.zeros((len(sbs), library_size), dtype=bool)
    for j, has in enumerate(cached):
        caches[j, 0] = has
    return NetworkRealization(
        mbs_points=np.array(mbs_xy, dtype=float).reshape(-1, 2),
        active_sbs_points=sbs,
        sbs_caches=caches,
    )


class TestStreams:
    def test_reproducible_and_independent(self):
        a = stream_rng(7, "geometry", 3).random(5)
        b = stream_rng(7, "geometry", 3).random(5)
        c = stream_rng(7, "caches", 3).random(5)
        d = stream_rng(7, "geometry", 4).random(5)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert not np.array_equal(a, d)

    def test_unknown_stream(self):
        with pytest.raises(ConfigError):
            stream_rng(7, "nope")


class TestWindow:
    def test_area_and_coverage(self):
        sq = SimWindow(1000.0)
        assert sq.area() == 1e6
        assert sq.covered_radius() == 500.0

    def test_default_window_side(self):
        assert default_window(fig2_params()).side == 1000.0
        wide = default_window(fig2_params(r_mbs=400.0))
        assert wide.side == 1300.0

    def test_points_stay_inside(self):
        rng = stream_rng(1, "geometry", 0)
        sq = SimWindow(100.0)
        pts = sq.sample_points(1000, rng)
        assert np.all(np.abs(pts) <= 50.0)

    def test_too_small_window_rejected(self):
        p = fig2_params()
        lib = ContentLibrary(size=10, cache_slots=3)
        with pytest.raises(ConfigError):
            realize_network(p, CachePolicy.PCP, lib, SimWindow(600.0),
                            stream_rng(0, "geometry", 0))


class TestSamplePpp:
    def test_zero_intensity_empty(self):
        pts = sample_ppp(0.0, SimWindow(1000.0), stream_rng(0, "geometry", 0))
        assert pts.shape == (0, 2)

    def test_determinism(self):
        win = SimWindow(500.0)
        a = sample_ppp(0.01, win, stream_rng(13, "geometry", 2))
        b = sample_ppp(0.01, win, stream_rng(13, "geometry", 2))
        assert np.array_equal(a, b)

    def test_negative_intensity_rejected(self):
        with pytest.raises(Exception):
            sample_ppp(-1.0, SimWindow(100.0), stream_rng(0, "geometry", 0))

    def test_count_law(self):
        # mean count over 1e4 draws within the 1e-4-significance band
        win = SimWindow(1000.0)
        rng = stream_rng(11, "geometry", 0)
        counts = np.array([len(sample_ppp(0.01, win, rng)) for _ in range(10000)])
        z = (counts.mean() - 1e4) / (math.sqrt(1e4) / math.sqrt(counts.size))
        assert abs(z) <= 3.89  # two-sided 1e-4 quantile


class TestThinning:
    def test_bounds(self):
        rng = stream_rng(0, "caches", 0)
        with pytest.raises(Exception):
            thin(np.zeros((3, 2)), 1.5, rng)

    def test_equivalence_to_direct_sampling(self):
        # direct sampling at beta*lambda vs thinning a lambda process:
        # equal count means (z-test) and equal nearest-distance law (KS),
        # both at significance 1e-3
        win = SimWindow(200.0, guard=0.0)
        rng_a = stream_rng(21, "geometry", 1)
        rng_b = stream_rng(22, "geometry", 2)
        lam, beta = 0.002, 0.3
        direct_counts, thinned_counts = [], []
        direct_nn, thinned_nn = [], []
        for _ in range(10000):
            pts = sample_ppp(beta * lam, win, rng_a)
            direct_counts.append(len(pts))
            if len(pts):
                direct_nn.append(float(np.hypot(pts[:, 0], pts[:, 1]).min()))
            kept = thin(sample_ppp(lam, win, rng_b), beta, rng_b)
            thinned_counts.append(len(kept))
            if len(kept):
                thinned_nn.append(float(np.hypot(kept[:, 0], kept[:, 1]).min()))
        dc = np.array(direct_counts, dtype=float)
        tc = np.array(thinned_counts, dtype=float)
        z = (dc.mean() - tc.mean()) / math.sqrt(dc.var(ddof=1) / dc.size + tc.var(ddof=1) / tc.size)
        assert abs(z) <= 3.29  # two-sided 1e-3 quantile
        ks = stats.ks_2samp(direct_nn, thinned_nn)
        assert ks.pvalue > 1e-3


class TestRealizeNetwork:
    def test_pcp_caches_identical_top_d(self):
        p = fig2_params(lambda_sbs=0.05)
        lib = ContentLibrary(size=20, cache_slots=6)
        real = realize_network(p, CachePolicy.PCP, lib, default_window(p),
                               stream_rng(1, "geometry", 0))
        assert real.sbs_caches.shape == (len(real.active_sbs_points), 20)
        expected = np.zeros(20, dtype=bool)
        expected[:6] = True
        assert np.all(real.sbs_caches == expected)

    def test_ucp_full_cache(self):
        p = fig2_params(lambda_sbs=0.05)
        lib = ContentLibrary(size=20, cache_slots=20)
        real = realize_network(p, CachePolicy.UCP, lib, default_window(p),
                               stream_rng(2, "geometry", 0))
        assert np.all(real.sbs_caches)

    def test_ucp_cache_sizes_and_inclusion_frequency(self):
        # one realization with ~1e4 active SBSs; every content's inclusion
        # frequency within 3 sigma of d / |C|
        p = fig2_params()
        lib = ContentLibrary(size=100, cache_slots=30)
        real = realize_network(p, CachePolicy.UCP, lib, default_window(p),
                               stream_rng(3, "geometry", 0),
                               cache_rng=stream_rng(3, "caches", 0))
        m = len(real.active_sbs_points)
        assert m > 5000
        assert np.all(real.sbs_caches.sum(axis=1) == 30)
        freq = real.sbs_caches.mean(axis=0)
        sigma = math.sqrt(0.3 * 0.7 / m)
        assert np.all(np.abs(freq - 0.3) <= 3.0 * sigma)

    def test_points_inside_window(self):
        p = fig2_params(lambda_sbs=0.01)
        lib = ContentLibrary(size=5, cache_slots=1)
        win = default_window(p)
        real = realize_network(p, CachePolicy.UCP, lib, win, stream_rng(4, "geometry", 0))
        assert np.all(np.abs(real.active_sbs_points) <= win.side / 2)
        assert np.all(np.abs(real.mbs_points) <= win.side / 2)


class TestSimulateRequest:
    def test_empty_network_misses(self):
        real = make_realization([], [], mbs_xy=[])
        out = simulate_request(real, 1, single_content_params(), stream_rng(0, "fading", 0))
        assert out.tier is Tier.MISS
        assert out.success is False
        assert out.server_distance is None and out.sir is None

    def test_single_interferer_sir_arithmetic(self):
        # server gain 1 at distance 1, one interferer gain 1 at distance 2,
        # equal powers, alpha = 4: SIR = 2^4 = 16
        params = SystemParams(
            lambda_mbs=0.0, lambda_sbs=1.0, beta=1.0, p_max_mbs=1.0, p_max_sbs=1.0,
            alpha=4.0, gamma=0.1, r_sbs=5.0, r_mbs=250.0,
        )
        real = make_realization([(1.0, 0.0), (2.0, 0.0)], [True, False])
        out = simulate_request(real, 1, params, FixedGains())
        assert out.tier is Tier.SBS
        assert out.server_distance == 1.0
        assert out.sir == pytest.approx(16.0, rel=1e-12)
        assert out.success is True

    def test_association_prefers_nearest_holder_not_nearest_sbs(self):
        params = single_content_params()
        real = make_realization(
            [(1.0, 0.0), (0.0, 2.0), (3.0, 0.0)], [False, True, True]
        )
        out = simulate_request(real, 1, params, stream_rng(5, "fading", 0))
        assert out.tier is Tier.SBS
        assert out.server_distance == 2.0

    def test_miss_beyond_radii(self):
        params = single_content_params()
        real = make_realization([(10.0, 0.0)], [True], mbs_xy=[(300.0, 0.0)])
        out = simulate_request(real, 1, params, stream_rng(6, "fading", 0))
        assert out.tier is Tier.MISS and out.success is False

    def test_mbs_fallback(self):
        params = single_content_params()
        real = make_realization([(10.0, 0.0)], [True], mbs_xy=[(100.0, 0.0)])
        out = simulate_request(real, 1, params, stream_rng(7, "fading", 0))
        assert out.tier is Tier.MBS
        assert out.server_distance == 100.0

    def test_no_interferers_gives_infinite_sir(self):
        params = single_content_params()
        real = make_realization([(1.0, 0.0)], [True])
        out = simulate_request(real, 1, params, stream_rng(8, "fading", 0))
        assert out.sir == math.inf and out.success is True

    def test_interference_conventions_differ_inside_serving_disc(self):
        # an interferer closer than the server is silent under the matched
        # convention and audible under the physical one
        params = SystemParams(
            lambda_mbs=0.0, lambda_sbs=1.0, beta=1.0, p_max_mbs=1.0, p_max_sbs=1.0,
            alpha=4.0, gamma=0.1, r_sbs=5.0, r_mbs=250.0,
        )
        real = make_realization([(2.0, 0.0), (1.0, 0.0)], [True, False])
        matched = simulate_request(real, 1, params, FixedGains())
        physical = simulate_request(real, 1, params, FixedGains(), interference=INTERFERENCE_ALL)
        assert matched.sir == math.inf
        assert physical.sir == pytest.approx((1.0 / 16.0) / 1.0, rel=1e-12)

    def test_tie_counts_as_failure(self):
        params = SystemParams(
            lambda_mbs=0.0, lambda_sbs=1.0, beta=1.0, p_max_mbs=1.0, p_max_sbs=1.0,
            alpha=4.0, gamma=16.0, r_sbs=5.0, r_mbs=250.0,
        )
        real = make_realization([(1.0, 0.0), (2.0, 0.0)], [True, False])
        out = simulate_request(real, 1, params, FixedGains())
        assert out.sir == pytest.approx(16.0, rel=1e-12)
        assert out.success is False  # SIR must strictly exceed gamma

    def test_invalid_rank(self):
        real = make_realization([(1.0, 0.0)], [True])
        with pytest.raises(InvalidRankError):
            simulate_request(real, 2, single_content_params(), stream_rng(9, "fading", 0))


class TestEstimateOutage:
    def test_determinism_and_worker_invariance(self):
        p = fig2_params(lambda_sbs=0.02)
        lib = ContentLibrary(size=10, cache_slots=3)
        req = zipf_request_distribution(10, 0.8)
        ref_pc, ref_avg = estimate_outage(p, CachePolicy.UCP, lib, req,
                                          realizations=30, trials_per_content=2, seed=5)
        again_pc, again_avg = estimate_outage(p, CachePolicy.UCP, lib, req,
                                              realizations=30, trials_per_content=2, seed=5)
        parallel_pc, parallel_avg = estimate_outage(p, CachePolicy.UCP, lib, req,
                                                    realizations=30, trials_per_content=2,
                                                    seed=5, workers=3)
        assert ref_pc == again_pc and ref_avg == again_avg
        assert ref_pc == parallel_pc and ref_avg == parallel_avg

    def test_nothing_can_serve_gives_exact_one(self):
        p = SystemParams(
            lambda_mbs=0.0, lambda_sbs=0.2, beta=0.0, p_max_mbs=19.95,
            p_max_sbs=0.1995, alpha=4.0, gamma=0.1, r_sbs=5.0, r_mbs=250.0,
        )
        lib = ContentLibrary(size=5, cache_slots=2)
        req = zipf_request_distribution(5, 0.0)
        per_content, avg = estimate_outage(p, CachePolicy.UCP, lib, req,
                                           realizations=20, trials_per_content=2, seed=1)
        assert all(est.mean == 1.0 and est.std_error == 0.0 for est in per_content)
        assert avg.mean == 1.0 and avg.std_error == 0.0

    def test_per_content_std_error_formula(self):
        p = fig2_params(lambda_sbs=0.02)
        lib = ContentLibrary(size=4, cache_slots=2)
        req = zipf_request_distribution(4, 0.0)
        per_content, avg = estimate_outage(p, CachePolicy.PCP, lib, req,
                                           realizations=50, trials_per_content=1, seed=2)
        for est in per_content:
            assert est.trials == 50
            assert est.std_error == math.sqrt(est.mean * (1.0 - est.mean) / est.trials)
        assert avg.trials == 200
        assert avg.mean == pytest.approx(float(np.mean([e.mean for e in per_content])), rel=1e-12)

    def test_invalid_budgets(self):
        p = fig2_params()
        lib = ContentLibrary(size=2, cache_slots=1)
        req = zipf_request_distribution(2, 0.0)
        with pytest.raises(ConfigError):
            estimate_outage(p, CachePolicy.UCP, lib, req, realizations=0)
        with pytest.raises(ConfigError):
            estimate_outage(p, CachePolicy.UCP, lib, req, trials_per_content=0)

    def test_request_size_mismatch(self):
        p = fig2_params()
        with pytest.raises(ConfigError):
            estimate_outage(p, CachePolicy.UCP, ContentLibrary(size=4, cache_slots=1),
                            zipf_request_distribution(3, 0.0))

    def test_monotone_degradation_without_caching(self):
        # d = 0: densification only adds interference
        lib = ContentLibrary(size=1, cache_slots=0)
        req = zipf_request_distribution(1, 0.0)
        means, errors = [], []
        for lam in (0.05, 0.1, 0.2):
            p = fig2_params(lambda_sbs=lam)
            _, avg = estimate_outage(p, CachePolicy.UCP, lib, req,
                                     realizations=150, trials_per_content=30, seed=6)
            means.append(avg.mean)
            errors.append(avg.std_error)
        for i in range(len(means) - 1):
            slack = math.hypot(errors[i], errors[i + 1])
            assert means[i + 1] >= means[i] - slack


class TestDistributionLaws:
    def test_hit_rate_and_distance_law(self):
        # Benchmark SBS-side parameters; r_mbs shrunk so the window stays
        # small (the SBS laws depend only on beta*B*lambda_sbs*P_c and r_sbs)
        p = fig2_params(r_mbs=6.0)
        win = SimWindow(40.0, guard=14.0)
        lib = ContentLibrary.from_normalized(0.3, 100)
        outcomes = simulate_outcomes(p, CachePolicy.PCP, lib, content=1, window=win,
                                     realizations=4000, trials_per_content=1, seed=77)
        hits = np.array([o.tier is Tier.SBS for o in outcomes])
        ana = sbs_hit_probability(p, 1.0)
        z = (hits.mean() - ana) / math.sqrt(ana * (1.0 - ana) / hits.size)
        assert abs(z) <= 3.0

        served = np.array([o.server_distance for o in outcomes if o.tier is Tier.SBS])
        nu = p.beta * p.lambda_sbs  # B = 1, P_c = 1
        ks = stats.kstest(served, truncated_rayleigh_cdf(nu, p.r_sbs))
        assert ks.pvalue > 1e-3

    def test_window_sensitivity(self):
        # doubling the window moves the estimate by < 0.005 plus noise
        p = fig2_params(lambda_sbs=0.05)
        lib = ContentLibrary(size=10, cache_slots=3)
        req = zipf_request_distribution(10, 0.8)
        _, base = estimate_outage(p, CachePolicy.PCP, lib, req,
                                  window=default_window(p), realizations=2000, seed=9)
        _, doubled = estimate_outage(p, CachePolicy.PCP, lib, req,
                                     window=SimWindow(2000.0), realizations=2000, seed=9)
        shift = abs(base.mean - doubled.mean)
        assert shift <= 0.005 + 3.0 * math.hypot(base.std_error, doubled.std_error)
