import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from hetcache import (
    CachePolicy,
    ConfigError,
    ContentLibrary,
    INTERFERENCE_ALL,
    INTERFERENCE_BEYOND_SERVER,
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
    zipf_request_distribution,
)

from hetcache import geometry_sim
from hetcache.geometry_sim import FADE_BLOCK_DOUBLES, _fading_sir, _failures, _outcomes, _servers

from oracles import fig2_params, thin, truncated_rayleigh_cdf, unit_fade_request


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
    def test_equivalence_to_direct_sampling(self):
        # realize_network samples at beta*lambda directly; the thinning
        # theorem says that equals thinning a lambda process (oracle thin):
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


def within_r_sbs(real, params):
    return np.flatnonzero(np.hypot(*real.active_sbs_points.T) <= params.r_sbs)


class TestRealizeNetwork:
    def test_pcp_caches_identical_top_d(self):
        p = fig2_params(lambda_sbs=0.2, beta=1.0)
        lib = ContentLibrary(size=20, cache_slots=6)
        real = realize_network(p, CachePolicy.PCP, lib, default_window(p),
                               stream_rng(1, "geometry", 0))
        near = within_r_sbs(real, p)
        assert near.size > 0
        assert np.array_equal(real.cached_sbs, near)
        assert real.sbs_caches.shape == (near.size, 20)
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
        # caches are drawn only within r_sbs, so widen it to ~6e3 cache rows;
        # every content's inclusion frequency within 3 sigma of d / |C|
        p = replace(fig2_params(beta=1.0), r_sbs=100.0)
        lib = ContentLibrary(size=100, cache_slots=30)
        real = realize_network(p, CachePolicy.UCP, lib, default_window(p),
                               stream_rng(3, "geometry", 0),
                               cache_rng=stream_rng(3, "caches", 0))
        assert np.array_equal(real.cached_sbs, within_r_sbs(real, p))
        m = real.sbs_caches.shape[0]
        assert m > 5000
        assert np.all(real.sbs_caches.sum(axis=1) == 30)
        freq = real.sbs_caches.mean(axis=0)
        sigma = math.sqrt(0.3 * 0.7 / m)
        assert np.all(np.abs(freq - 0.3) <= 3.0 * sigma)

    def test_ucp_cache_rows_only_within_r_sbs(self):
        # beta = 1, lambda_sbs = 0.2, |C| = 1e4: a row per active SBS would
        # be ~2e5 x 1e4 bools (~2 GB); only the SBSs within r_sbs get one
        p = fig2_params(lambda_sbs=0.2, beta=1.0)
        lib = ContentLibrary(size=10_000, cache_slots=3000)
        real = realize_network(p, CachePolicy.UCP, lib, default_window(p),
                               stream_rng(4, "geometry", 0),
                               cache_rng=stream_rng(4, "caches", 0))
        near = within_r_sbs(real, p)
        assert len(real.active_sbs_points) > 150_000
        assert np.array_equal(real.cached_sbs, near)
        assert real.sbs_caches.shape == (near.size, 10_000)
        assert np.all(real.sbs_caches.sum(axis=1) == 3000)

    def test_cached_sbs_validated(self):
        with pytest.raises(ConfigError):
            NetworkRealization(np.empty((0, 2)), np.zeros((2, 2)), np.ones((1, 1), bool))
        with pytest.raises(ConfigError):
            NetworkRealization(np.empty((0, 2)), np.zeros((2, 2)), np.ones((2, 1), bool),
                               cached_sbs=[1, 0])

    def test_serving_sbs_without_cache_row_refused(self):
        real = NetworkRealization(np.empty((0, 2)), [(1.0, 0.0), (30.0, 0.0)],
                                  np.ones((1, 1), bool), cached_sbs=[1])
        with pytest.raises(ConfigError):
            simulate_request(real, 1, single_content_params(), FixedGains())

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


class CountingExponential:
    """RNG stub exposing only ``exponential(scale, size)`` with an integer size."""

    def __init__(self, rng):
        self._rng = rng
        self.calls = 0

    def exponential(self, scale=1.0, size=None):
        assert isinstance(size, int)
        self.calls += 1
        return self._rng.exponential(scale, size)


class TestRealizationKernel:
    # Unit fades, alpha = 4, p_sbs = 1, p_mbs = 4. SBS a (1, 0) holds rank 1,
    # b (0, 2) holds rank 2, c (10, 0) lies beyond r_sbs = 5 holding every
    # rank; MBSs at 100 m and 200 m. Ranks 3 and 4 fall back to the MBS, or
    # miss when both MBSs sit beyond r_mbs = 250.
    PARAMS = SystemParams(
        lambda_mbs=1e-4, lambda_sbs=1.0, beta=1.0, p_max_mbs=4.0, p_max_sbs=1.0,
        alpha=4.0, gamma=10.0, r_sbs=5.0, r_mbs=250.0,
    )
    A, B, C = 1.0, 2.0**-4, 10.0**-4

    def realization(self, mbs_xy):
        caches = np.zeros((3, 4), dtype=bool)
        caches[0, 0] = caches[1, 1] = True
        caches[2, :] = True
        return NetworkRealization(
            mbs_points=np.array(mbs_xy, dtype=float),
            active_sbs_points=np.array([(1.0, 0.0), (0.0, 2.0), (10.0, 0.0)]),
            sbs_caches=caches,
        )

    def expected(self, interference, mbs_near, mbs_far):
        """(tiers, distances, SIRs) by hand, for MBS gains 4 r^-4."""
        a, b, c, m1, m2 = self.A, self.B, self.C, 4.0 * mbs_near**-4, 4.0 * mbs_far**-4
        if interference == INTERFERENCE_ALL:
            sir = [a / (b + c + m1 + m2), b / (a + c + m1 + m2), m1 / (a + b + c + m2)]
        else:
            sir = [a / (b + c + m1 + m2), b / (c + m1 + m2), m1 / m2]
        if mbs_near > self.PARAMS.r_mbs:
            return [Tier.SBS, Tier.SBS, Tier.MISS, Tier.MISS], [1.0, 2.0], sir[:2]
        return [Tier.SBS, Tier.SBS, Tier.MBS, Tier.MBS], [1.0, 2.0, mbs_near, mbs_near], sir + sir[2:]

    @pytest.mark.parametrize("interference", [INTERFERENCE_BEYOND_SERVER, INTERFERENCE_ALL])
    @pytest.mark.parametrize("mbs_near, mbs_far", [(100.0, 200.0), (300.0, 400.0)])
    @pytest.mark.parametrize("trials", [1, 3])
    def test_multi_content_against_hand_values(self, interference, mbs_near, mbs_far, trials):
        real = self.realization([(mbs_near, 0.0), (0.0, mbs_far)])
        tiers, distances, sir = self.expected(interference, mbs_near, mbs_far)
        n_served = len(distances)
        groups = [(requests.tolist(), tier, distance) for requests, tier, distance, _, _
                  in _servers(real, np.arange(1, 5), self.PARAMS, interference)]
        expected_groups = [([0], Tier.SBS, 1.0), ([1], Tier.SBS, 2.0)]
        if n_served == 4:
            expected_groups.append(([2, 3], Tier.MBS, mbs_near))
        assert groups == expected_groups
        failures = [0 if s > self.PARAMS.gamma else trials for s in sir] + [trials] * (4 - n_served)
        counted = _failures(real, np.arange(1, 5), self.PARAMS, FixedGains(), interference, trials)
        assert counted.tolist() == failures
        for rank in range(1, 5):
            outs = _outcomes(real, rank, self.PARAMS, FixedGains(), interference, trials)
            assert len(outs) == trials
            assert all(o.tier is tiers[rank - 1] for o in outs)
            assert sum(not o.success for o in outs) == failures[rank - 1]
            if rank <= n_served:
                assert all(o.server_distance == distances[rank - 1] for o in outs)
                assert all(o.sir == pytest.approx(sir[rank - 1], rel=1e-12) for o in outs)
            else:
                assert all(o.server_distance is None and o.sir is None for o in outs)
            assert simulate_request(real, rank, self.PARAMS, FixedGains(), interference) == outs[0]

    @pytest.mark.parametrize("interference", [INTERFERENCE_BEYOND_SERVER, INTERFERENCE_ALL])
    @pytest.mark.parametrize("policy", [CachePolicy.PCP, CachePolicy.UCP])
    def test_matches_per_request_loop(self, policy, interference):
        # random geometry with ~16 SBSs within r_sbs and ~8 MBSs
        p = replace(fig2_params(lambda_sbs=0.2, beta=1.0, r_mbs=20.0), lambda_mbs=0.005)
        lib = ContentLibrary(size=40, cache_slots=12)
        contents = np.arange(1, lib.size + 1)
        for r in range(3):
            real = realize_network(p, policy, lib, SimWindow(40.0, guard=0.0),
                                   stream_rng(9, "geometry", r), cache_rng=stream_rng(9, "caches", r))
            served = {}
            for requests, _, distance, signal_gain, gains in _servers(real, contents, p, interference):
                sir = signal_gain / gains.sum() if gains.size else math.inf
                served.update((int(contents[i]), (distance, sir)) for i in requests)
            for rank in contents:
                dist, sir = unit_fade_request(real, rank, p, interference == INTERFERENCE_BEYOND_SERVER)
                expected = (dist, None if sir is None else pytest.approx(sir, rel=1e-12))
                assert served.get(rank, (None, None)) == expected
                out = _outcomes(real, rank, p, FixedGains(), interference, 1)[0]
                assert (out.server_distance, out.sir) == expected

    @pytest.mark.parametrize("policy", [CachePolicy.PCP, CachePolicy.UCP])
    def test_one_fading_call_per_server_block(self, policy):
        # a per-rank loop would make |C| * trials calls; the kernel makes at
        # most (distinct servers) x (blocks per server)
        # ~16 SBSs within r_sbs among ~320 in a small window
        p = fig2_params(lambda_sbs=0.2, beta=1.0, r_mbs=20.0)
        window = SimWindow(40.0, guard=0.0)
        lib = ContentLibrary(size=100, cache_slots=30)
        contents = np.arange(1, lib.size + 1)
        trials = 3
        for r in range(5):
            real = realize_network(p, policy, lib, window, stream_rng(8, "geometry", r),
                                   cache_rng=stream_rng(8, "caches", r))
            counter = CountingExponential(stream_rng(8, "fading", r))
            _failures(real, contents, p, counter, INTERFERENCE_BEYOND_SERVER, trials)
            servers = sum(1 for _ in _servers(real, contents, p, INTERFERENCE_BEYOND_SERVER))
            width = len(real.mbs_points) + len(real.active_sbs_points)
            blocks = math.ceil(lib.size * trials / max(1, FADE_BLOCK_DOUBLES // width))
            assert servers * blocks < lib.size * trials
            assert servers > (policy is CachePolicy.UCP)
            assert 0 < counter.calls <= servers * blocks

    def test_failure_counts_match_sirs(self, monkeypatch):
        # blocks of 2 rows split the 7-trial runs of the ranks mid-run; the
        # counts must equal those of each server's whole SIR matrix, and
        # those of the default blocks (the fades do not depend on the blocks)
        p = replace(fig2_params(lambda_sbs=0.2, beta=1.0, r_mbs=20.0), lambda_mbs=0.005)
        lib = ContentLibrary(size=30, cache_slots=9)
        real = realize_network(p, CachePolicy.UCP, lib, SimWindow(40.0, guard=0.0),
                               stream_rng(5, "geometry", 0), cache_rng=stream_rng(5, "caches", 0))
        contents = np.arange(1, lib.size + 1)
        default = _failures(real, contents, p, stream_rng(5, "fading", 0), INTERFERENCE_ALL, 7)
        expected = np.full(lib.size, 7)
        rng = stream_rng(5, "fading", 0)
        for requests, _, _, signal_gain, gains in _servers(real, contents, p, INTERFERENCE_ALL):
            sir = np.concatenate([b for _, b in _fading_sir(signal_gain, gains, requests.size * 7, rng)])
            expected[requests] = 7 - np.count_nonzero(sir.reshape(-1, 7) > p.gamma, axis=1)
        width = len(real.mbs_points) + len(real.active_sbs_points)  # "all": every point
        monkeypatch.setattr(geometry_sim, "FADE_BLOCK_DOUBLES", 2 * width)
        split = _failures(real, contents, p, stream_rng(5, "fading", 0), INTERFERENCE_ALL, 7)
        assert 0 < split.sum() < lib.size * 7
        assert np.array_equal(split, expected)
        assert np.array_equal(default, expected)

    def test_memory_flat_in_trials(self):
        # 4 ranks x 250k trials: a kept SIR matrix alone would be 8 MB
        real = self.realization([(100.0, 0.0), (0.0, 200.0)])
        trials = 250_000
        tracemalloc.start()
        try:
            failures = _failures(real, np.arange(1, 5), self.PARAMS, stream_rng(1, "fading", 0),
                                 INTERFERENCE_ALL, trials)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        sbs_ranks, mbs_ranks = failures[:2], failures[2:]
        assert np.all((sbs_ranks > 0) & (sbs_ranks < trials))
        assert np.all(mbs_ranks == trials)  # SIR m1 / (a + b + c + m2) is far below gamma
        assert peak < 4 * 8 * FADE_BLOCK_DOUBLES


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


class TestFrozenDrawOrder:
    # Frozen simulator outputs: any change to association, interferer sets or
    # the order of the draws on any stream moves them. r_mbs = 60 m makes
    # misses common.
    PARAMS = fig2_params(lambda_sbs=0.2, r_mbs=60.0)
    LIBRARY = ContentLibrary(size=10, cache_slots=3)
    FAILURES = {
        (CachePolicy.PCP, INTERFERENCE_BEYOND_SERVER, 1): [9, 9, 7, 13, 15, 12, 14, 14, 13, 13],
        (CachePolicy.PCP, INTERFERENCE_BEYOND_SERVER, 3): [25, 25, 21, 37, 39, 42, 38, 41, 40, 38],
        (CachePolicy.PCP, INTERFERENCE_ALL, 1): [10, 9, 9, 19, 17, 19, 18, 19, 19, 19],
        (CachePolicy.PCP, INTERFERENCE_ALL, 3): [28, 28, 27, 57, 57, 56, 55, 57, 56, 57],
        (CachePolicy.UCP, INTERFERENCE_BEYOND_SERVER, 1): [10, 14, 10, 10, 11, 12, 11, 13, 7, 11],
        (CachePolicy.UCP, INTERFERENCE_BEYOND_SERVER, 3): [33, 34, 26, 31, 32, 32, 29, 37, 25, 33],
        (CachePolicy.UCP, INTERFERENCE_ALL, 1): [17, 15, 14, 17, 14, 15, 13, 16, 13, 17],
        (CachePolicy.UCP, INTERFERENCE_ALL, 3): [47, 42, 42, 50, 46, 45, 43, 53, 37, 48],
    }
    # simulate_outcomes for rank 2, 4 realizations x 3 trials: one tier and
    # distance per realization, SIRs per trial. Realization 0 misses; 1 and 3
    # are served alike under both policies, 2 by an SBS (PCP) or the MBS (UCP).
    TIERS = {CachePolicy.PCP: "xmss", CachePolicy.UCP: "xmms"}
    DISTANCES = {
        CachePolicy.PCP: [None, 8.082734321373445, 0.29624465940983874, 4.581370335280274],
        CachePolicy.UCP: [None, 8.082734321373445, 50.29091763056887, 4.581370335280274],
    }
    SIRS_R1 = {
        INTERFERENCE_BEYOND_SERVER: [0.19482283043074977, 1.1709469720895378, 7.0184229202387325],
        INTERFERENCE_ALL: [0.10794929372123432, 0.10369980913731539, 2.8481188941369338],
    }
    SIRS_R2 = {
        (CachePolicy.PCP, INTERFERENCE_BEYOND_SERVER): [5646.498322354418, 2999.7947742304036, 14722.570038626058],
        (CachePolicy.PCP, INTERFERENCE_ALL): [5646.498322354418, 2999.7947742304036, 14722.570038626058],
        (CachePolicy.UCP, INTERFERENCE_BEYOND_SERVER): [0.056512931930099146, 0.17013841395269602, 0.07151087222883568],
        (CachePolicy.UCP, INTERFERENCE_ALL): [7.3738256177046415e-09, 1.776130381400901e-09, 2.8444938710826768e-08],
    }
    SIRS_R3 = [0.07901233606544349, 0.7768535547395935, 1.1513207514236021]

    @pytest.mark.parametrize("policy, interference, trials", list(FAILURES))
    def test_estimate_outage_failure_counts(self, policy, interference, trials):
        per_content, _ = estimate_outage(
            self.PARAMS, policy, self.LIBRARY, zipf_request_distribution(10, 0.8),
            realizations=20, trials_per_content=trials, seed=8, interference=interference,
        )
        counts = [round(est.mean * est.trials) for est in per_content]
        assert counts == self.FAILURES[policy, interference, trials]

    @pytest.mark.parametrize("interference", [INTERFERENCE_BEYOND_SERVER, INTERFERENCE_ALL])
    @pytest.mark.parametrize("policy", [CachePolicy.PCP, CachePolicy.UCP])
    def test_simulate_outcomes_trials(self, policy, interference):
        outcomes = simulate_outcomes(self.PARAMS, policy, self.LIBRARY, content=2, realizations=4,
                                     trials_per_content=3, seed=8, interference=interference)
        tiers = {"x": Tier.MISS, "m": Tier.MBS, "s": Tier.SBS}
        expected_tiers = [tiers[t] for t in self.TIERS[policy] for _ in range(3)]
        assert [o.tier for o in outcomes] == expected_tiers
        assert [o.server_distance for o in outcomes] == [d for d in self.DISTANCES[policy] for _ in range(3)]
        sirs = [None] * 3 + self.SIRS_R1[interference] + self.SIRS_R2[policy, interference] + self.SIRS_R3
        for outcome, sir in zip(outcomes, sirs, strict=True):
            if sir is None:
                assert outcome.sir is None and outcome.success is False
            else:
                assert outcome.sir == pytest.approx(sir, rel=1e-12)
                assert outcome.success == (outcome.sir > self.PARAMS.gamma)
