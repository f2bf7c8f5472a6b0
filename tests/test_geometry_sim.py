import importlib
import math
import sys
import time
import warnings
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
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
    sbs_hit_probability,
    simulate_request,
    stream_rng,
    zipf_request_distribution,
)

import hetcache
from hetcache import geometry_sim
from hetcache.geometry_sim import _servers, _sir, _success

from oracles import (
    fade_drawn_success,
    fig2_params,
    request_outcomes,
    squared_norms,
    thin,
    traced_peak,
    truncated_rayleigh_cdf,
    unit_fade_request,
)


class FixedGains:
    """Stand-in RNG whose exponential draws are all exactly 1."""

    def exponential(self, size=None):
        return 1.0 if size is None else np.ones(size)


def single_content_params(**overrides):
    return fig2_params(**overrides)


def associate(realization, contents, params, interference):
    """``_servers``' groups of the ranks in ``contents`` at a realization, by position in ``contents``.

    Each group carries its server's distance, the square root of its
    squared distance, in place of the server's link index.
    """
    sq = np.concatenate([realization.mbs_points, realization.active_sbs_points])
    links = geometry_sim._links(realization.mbs_points.size, sq, params)
    for requests, tier, index, signal_gain, gains in _servers(
        links, realization.sbs_caches[:, contents - 1], realization.cached_sbs, params, interference
    ):
        yield requests, tier, math.sqrt(sq[index]), signal_gain, gains


def realization_failures(reads, seed, trials_per_content, interference, r_index):
    """``_realization_failures`` of the (point, policy) reads of one call."""
    queries = [(point, policy, zipf_request_distribution(point[1].size, 0.8)) for point, policy in reads]
    networks, _ = geometry_sim._plan(queries, trials_per_content)
    return geometry_sim._realization_failures(
        networks, geometry_sim._Streams(seed), trials_per_content, interference, r_index
    )


def make_realization(sbs_xy, cached, mbs_xy=(), library_size=1):
    """A realization of the hand layout at (x, y) positions ``sbs_xy`` and ``mbs_xy``."""
    sbs = squared_norms(sbs_xy)
    caches = np.zeros((sbs.size, library_size), dtype=bool)
    for j, has in enumerate(cached):
        caches[j, 0] = has
    return NetworkRealization(mbs_points=squared_norms(mbs_xy), active_sbs_points=sbs, sbs_caches=caches)


class TestStreams:
    def test_reproducible_and_independent(self):
        a = stream_rng(7, "geometry", 3).random(5)
        b = stream_rng(7, "geometry", 3).random(5)
        c = stream_rng(7, "caches", 3).random(5)
        d = stream_rng(7, "geometry", 4).random(5)
        assert np.array_equal(a, b)
        assert np.array_equal(a, stream_rng(np.int64(7), "geometry", np.uint64(3)).random(5))
        assert not np.array_equal(a, c)
        assert not np.array_equal(a, d)

    def test_unknown_stream(self):
        with pytest.raises(ConfigError):
            stream_rng(7, "nope")

    def test_index_outside_the_period_refused(self):
        # advancing by r * 2^64 wraps at r = 2^64: such an index would read
        # the stream of another realization again
        with pytest.raises(ConfigError, match=r"realization index must lie in \[0, 2\*\*64\)"):
            stream_rng(7, "geometry", 2**64)

    @pytest.mark.parametrize("seed, r, message", [
        (1.5, 0, "seed must be an integer, got 1.5"),
        (-1, 0, "seed must be >= 0, got -1"),
        (1, 1.5, "realization index must be an integer, got 1.5"),
        (1, -1, "realization index must be >= 0, got -1"),
    ])
    def test_seed_and_index_must_be_integers_from_0(self, seed, r, message):
        # 1.5 read seed 1's stream, or realization 1's, and a negative seed
        # raised numpy's ValueError
        with pytest.raises(ConfigError, match=message):
            stream_rng(seed, "geometry", r)

    @pytest.mark.parametrize("name, sid", [("geometry", 1), ("caches", 2), ("fading", 3)])
    @pytest.mark.parametrize("r", [0, 1, 5, 2**64 - 1])
    def test_realization_r_is_the_base_generator_advanced_by_r_times_2_64(self, name, sid, r):
        # one PCG64DXSM per (seed, stream), jumped by hand; the estimator's
        # reused generator gives the same draws, also after serving another r
        bits = np.random.PCG64DXSM(np.random.SeedSequence(7, spawn_key=(sid,)))
        bits.advance(r * 2**64)
        expected = np.random.Generator(bits).random(6)
        assert stream_rng(7, name, r).random(6).tolist() == expected.tolist()
        streams = geometry_sim._Streams(7)
        streams.at(name, 3).random(2)
        assert streams.at(name, r).random(6).tolist() == expected.tolist()


class TestWindow:
    def test_area_and_coverage(self):
        # the disc of the 1000 m square's area; accepted while side / 2
        # reaches r_mbs + guard, as the square was
        disc = SimWindow(1000.0)
        assert disc.area() == 1e6
        assert disc.radius() == 1000.0 / math.sqrt(math.pi)
        assert math.pi * disc.radius() ** 2 == pytest.approx(disc.area(), rel=1e-15)
        params = fig2_params()  # r_mbs + guard = 500 m
        geometry_sim._check_window(params, disc)
        # refused below side / 2 = 500 m, though the disc's 563.6 m radius would contain 500 m
        assert SimWindow(999.0).radius() > 500.0
        with pytest.raises(ConfigError, match=r"side / 2 = 499.5 m must reach r_mbs \+ guard = 500.0 m"):
            geometry_sim._check_window(params, SimWindow(999.0))

    @pytest.mark.parametrize("side", [0.0, -1.0, math.nan, math.inf, 1.4e154])
    def test_side_needs_a_finite_positive_area(self, side):
        with pytest.raises(ConfigError, match="window side"):
            SimWindow(side)

    def test_default_window_side(self):
        assert default_window(fig2_params()).side == 1000.0
        wide = default_window(fig2_params(r_mbs=400.0))
        assert wide.side == 1300.0

    def test_too_small_window_rejected(self):
        p = fig2_params()
        lib = ContentLibrary(size=10, cache_slots=3)
        with pytest.raises(ConfigError):
            realize_network(p, CachePolicy.PCP, lib, SimWindow(600.0),
                            stream_rng(0, "geometry", 0))


def sbs_squared_distances(intensity, window, rng):
    """The SBS squared distances the sampler draws at active-SBS density ``intensity`` and no MBS."""
    params = replace(fig2_params(lambda_sbs=intensity, beta=1.0), lambda_mbs=0.0)
    mbs, sq = geometry_sim._squared_distances(params, window, rng)
    assert mbs == 0
    return sq


class TestSquaredDistances:
    def test_zero_intensity_empty(self):
        sq = sbs_squared_distances(0.0, SimWindow(1000.0), stream_rng(0, "geometry", 0))
        assert sq.shape == (0,)

    def test_determinism(self):
        win = SimWindow(500.0)
        a = sbs_squared_distances(0.01, win, stream_rng(13, "geometry", 2))
        b = sbs_squared_distances(0.01, win, stream_rng(13, "geometry", 2))
        assert np.array_equal(a, b)

    def test_count_law(self):
        # mean count on the disc of area 1e6 over 1e4 draws within the
        # 1e-4-significance band of Poisson(lambda * side^2)
        win = SimWindow(1000.0)
        rng = stream_rng(11, "geometry", 0)
        counts = np.array([sbs_squared_distances(0.01, win, rng).size for _ in range(10000)])
        z = (counts.mean() - 1e4) / (math.sqrt(1e4) / math.sqrt(counts.size))
        assert abs(z) <= 3.89  # two-sided 1e-4 quantile

    def test_squared_distances_uniform_on_the_disc(self):
        # given the count, r^2 / R^2 ~ U(0, 1) (the mapping theorem): KS at
        # significance 1e-3 over the ~1e4 points of one draw
        win = SimWindow(1000.0)
        sq = sbs_squared_distances(0.01, win, stream_rng(12, "geometry", 0))
        assert sq.size > 9000
        assert np.all((sq >= 0.0) & (sq < win.radius() ** 2))
        assert stats.kstest(sq / win.radius() ** 2, "uniform").pvalue > 1e-3

    def test_one_uniform_per_point_after_each_count(self):
        # the MBS count, the MBS draws, the SBS count, the SBS draws: one
        # double per point, drawn by random() after its tier's count
        params = fig2_params(lambda_sbs=0.2)
        calls = []

        class Recording:
            def __init__(self, rng):
                self._rng = rng

            def poisson(self, lam):
                calls.append("count")
                return self._rng.poisson(lam)

            def random(self, size=None, out=None):
                calls.append(np.size(out) if size is None else size)
                return self._rng.random(size, out=out)

        mbs, sq = geometry_sim._squared_distances(params, default_window(params),
                                                  Recording(stream_rng(3, "geometry", 0)))
        assert calls == ["count", mbs, "count", sq.size - mbs]
        assert 0 < mbs < sq.size


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
            sq = sbs_squared_distances(beta * lam, win, rng_a)
            direct_counts.append(len(sq))
            if len(sq):
                direct_nn.append(float(sq.min()))
            kept = thin(sbs_squared_distances(lam, win, rng_b), beta, rng_b)
            thinned_counts.append(len(kept))
            if len(kept):
                thinned_nn.append(float(kept.min()))
        dc = np.array(direct_counts, dtype=float)
        tc = np.array(thinned_counts, dtype=float)
        z = (dc.mean() - tc.mean()) / math.sqrt(dc.var(ddof=1) / dc.size + tc.var(ddof=1) / tc.size)
        assert abs(z) <= 3.29  # two-sided 1e-3 quantile
        ks = stats.ks_2samp(direct_nn, thinned_nn)
        assert ks.pvalue > 1e-3


def within_r_sbs(real, params):
    return np.flatnonzero(np.sqrt(real.active_sbs_points) <= params.r_sbs)


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
            NetworkRealization(np.empty(0), np.zeros(2), np.ones((1, 1), bool))
        with pytest.raises(ConfigError):
            NetworkRealization(np.empty(0), np.zeros(2), np.ones((2, 1), bool), cached_sbs=[1, 0])

    @pytest.mark.parametrize("field", ["mbs_points", "active_sbs_points"])
    @pytest.mark.parametrize("values, message", [
        # (n, 2) positions would flatten into 2n bogus squared distances
        ([(1.0, 0.0), (0.0, 2.0)], r"shape \(2, 2\)"),
        ([[1.0]], r"shape \(1, 1\)"),
        ([1.0, -1e-300], "least -1e-300"),
        ([math.nan, 1.0], "least nan"),
    ])
    def test_squared_distances_validated(self, field, values, message):
        layout = {"mbs_points": np.empty(0), "active_sbs_points": np.empty(0)} | {field: values}
        with pytest.raises(ConfigError, match=f"{field} must be 1-D squared distances >= 0, got .*{message}"):
            NetworkRealization(**layout, sbs_caches=np.ones((0, 1), bool), cached_sbs=[])

    def test_serving_sbs_without_cache_row_refused(self):
        # SBS 0 lies within r_sbs = 5 m but holds no cache row, while SBS 1
        # at 30 m holds one; with SBS 0 moved out to 6 m the same rows are a
        # valid realization, and with no MBS the request misses
        params = single_content_params()
        real = NetworkRealization(np.empty(0), [1.0, 900.0], np.ones((1, 1), bool), cached_sbs=[1])
        with pytest.raises(ConfigError, match="within r_sbs can serve but the realization holds no cache for it"):
            simulate_request(real, 1, params, FixedGains())
        real.active_sbs_points[0] = 36.0
        assert simulate_request(real, 1, params, FixedGains()).tier is Tier.MISS

    @pytest.mark.parametrize("beyond", [False, True])
    def test_links_on_their_radius_serve(self, monkeypatch, beyond):
        # squared distances decide "within", in realize_network as in
        # association: an SBS at squared distance 25 sits exactly at
        # r_sbs = 5 and an MBS at 62500 exactly at r_mbs = 250, so the SBS
        # gets a cache row and serves rank 1 and the MBS serves rank 2, in a
        # realization and in the estimator; one ulp farther out, both ranks miss
        params = single_content_params()
        out = (lambda y: math.nextafter(y, math.inf)) if beyond else (lambda y: y)
        sq = np.array([out(62500.0), out(25.0)])
        monkeypatch.setattr(geometry_sim, "_squared_distances", lambda *args: (1, sq.copy()))
        library = ContentLibrary(size=2, cache_slots=1)
        real = realize_network(params, CachePolicy.PCP, library, default_window(params),
                               stream_rng(0, "geometry", 0))
        outcomes = [simulate_request(real, rank, params, FixedGains()) for rank in (1, 2)]
        per_content, _ = estimate_outage(params, CachePolicy.PCP, library, zipf_request_distribution(2, 0.0),
                                         realizations=3, seed=1)
        if beyond:
            assert real.cached_sbs.tolist() == []
            assert [o.tier for o in outcomes] == [Tier.MISS, Tier.MISS]
            assert [e.mean for e in per_content] == [1.0, 1.0]
        else:
            assert real.cached_sbs.tolist() == [0]
            assert [(o.tier, o.server_distance) for o in outcomes] == [(Tier.SBS, 5.0), (Tier.MBS, 250.0)]
            assert [e.mean for e in per_content] == [0.0, 0.0]

    @pytest.mark.parametrize("policy", [CachePolicy.PCP, CachePolicy.UCP])
    def test_squared_distances_are_the_estimators(self, policy):
        # a realization keeps the squared distances the estimator draws on
        # the same geometry stream, bit for bit, MBSs first
        p = fig2_params(lambda_sbs=0.01)
        lib = ContentLibrary(size=5, cache_slots=1)
        win = default_window(p)
        real = realize_network(p, policy, lib, win, stream_rng(4, "geometry", 0))
        mbs, sq = geometry_sim._squared_distances(p, win, stream_rng(4, "geometry", 0))
        assert real.mbs_points.size == mbs > 50 and sq.size > 500
        assert np.array_equal(np.concatenate([real.mbs_points, real.active_sbs_points]), sq)
        assert np.all(sq < win.radius() ** 2)


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench_layers(monkeypatch):
    """perfbench's ``layers`` module, imported from its directory; its modules are unloaded afterwards."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        yield importlib.import_module("layers")
    finally:
        for name, module in list(sys.modules.items()):
            if Path(getattr(module, "__file__", None) or "/").parent == PERFBENCH:
                del sys.modules[name]


def test_benchmark_sim_layer_runs(perfbench_layers, monkeypatch):
    # the per-layer benchmark calls stream_rng, realize_network and
    # simulate_request and reads len() of a realization's point arrays:
    # with each timed function called once, every sim.* metric that
    # sim_layer declares is set, finite and positive
    def one_call(fn, *args, **kwargs):
        start = time.perf_counter()
        fn()
        return time.perf_counter() - start

    monkeypatch.setattr(perfbench_layers, "per_call", one_call)
    metrics = {}
    perfbench_layers.sim_layer(hetcache, 7, metrics)
    declared = {name for name, _ in perfbench_layers.PER_LAYER if name.startswith("sim.")}
    assert set(metrics) == declared - {"sim.realization_ms", "sim.estimate_outage_s"}  # those two: pool_layer
    assert {name: value for name, value in metrics.items() if not (math.isfinite(value) and value > 0)} == {}


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

    def test_interference_underflowing_to_zero_gives_infinite_sir(self):
        # every interferer gain underflowed to 0: the sum is 0, and the SIR
        # is +inf as with no interferer, without a division warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sir = _sir(1e-300, np.zeros(3), np.ones((2, 4)))
        assert sir.tolist() == [math.inf, math.inf]

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

    @pytest.mark.parametrize("rank", [0, 2, 1.5])
    def test_invalid_rank(self, rank):
        # 1.5 died in numpy slicing with TypeError; a numpy integer is a rank
        real = make_realization([(1.0, 0.0)], [True])
        with pytest.raises(InvalidRankError, match=f"content rank must lie in 1..1, got {rank}"):
            simulate_request(real, rank, single_content_params(), stream_rng(9, "fading", 0))
        assert simulate_request(real, np.int64(1), single_content_params(), FixedGains()).tier is Tier.SBS

    def test_unknown_interference_convention(self):
        real = make_realization([(1.0, 0.0)], [True])
        with pytest.raises(ConfigError, match="interference convention 'bogus'"):
            simulate_request(real, 1, single_content_params(), FixedGains(), interference="bogus")


@st.composite
def link_layouts(draw):
    """MBS and SBS positions in a window of half-side 0.5 m to 500 km, often on its edge."""
    half = draw(st.floats(0.5, 5e5))
    edge = st.sampled_from([half, -half, math.nextafter(half, 0.0), -math.nextafter(half, 0.0)])
    point = st.tuples(*[st.one_of(st.floats(-half, half), edge)] * 2)
    mbs, sbs = draw(st.lists(point, max_size=4)), draw(st.lists(point, max_size=16))
    return np.array(mbs, dtype=float).reshape(-1, 2), np.array(sbs, dtype=float).reshape(-1, 2)


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
            mbs_points=squared_norms(mbs_xy),
            active_sbs_points=squared_norms([(1.0, 0.0), (0.0, 2.0), (10.0, 0.0)]),
            sbs_caches=caches,
        )

    def gains(self, interference, mbs_near, mbs_far):
        """(signal gain, interferer gains) of servers a, b and the near MBS, by hand."""
        a, b, c, m1, m2 = self.A, self.B, self.C, 4.0 * mbs_near**-4, 4.0 * mbs_far**-4
        if interference == INTERFERENCE_ALL:
            return [(a, [b, c, m1, m2]), (b, [a, c, m1, m2]), (m1, [a, b, c, m2])]
        return [(a, [b, c, m1, m2]), (b, [c, m1, m2]), (m1, [m2])]

    def expected(self, interference, mbs_near, mbs_far):
        """(tiers, distances, SIRs) by hand, for MBS gains 4 r^-4."""
        sir = [signal / sum(gains) for signal, gains in self.gains(interference, mbs_near, mbs_far)]
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
                  in associate(real, np.arange(1, 5), self.PARAMS, interference)]
        expected_groups = [([0], Tier.SBS, 1.0), ([1], Tier.SBS, 2.0)]
        if n_served == 4:
            expected_groups.append(([2, 3], Tier.MBS, mbs_near))
        assert groups == expected_groups
        failures = [0 if s > self.PARAMS.gamma else trials for s in sir] + [trials] * (4 - n_served)
        for rank in range(1, 5):
            outs = [simulate_request(real, rank, self.PARAMS, FixedGains(), interference)
                    for _ in range(trials)]
            assert all(o.tier is tiers[rank - 1] for o in outs)
            assert sum(not o.success for o in outs) == failures[rank - 1]
            if rank <= n_served:
                assert all(o.server_distance == distances[rank - 1] for o in outs)
                assert all(o.sir == pytest.approx(sir[rank - 1], rel=1e-12) for o in outs)
            else:
                assert all(o.server_distance is None and o.sir is None for o in outs)

    @pytest.mark.parametrize("interference", [INTERFERENCE_BEYOND_SERVER, INTERFERENCE_ALL])
    @pytest.mark.parametrize("mbs_near, mbs_far", [(100.0, 200.0), (300.0, 400.0)])
    def test_success_probability_against_the_hand_product(self, monkeypatch, interference, mbs_near, mbs_far):
        gamma = self.PARAMS.gamma
        real = self.realization([(mbs_near, 0.0), (0.0, mbs_far)])
        groups = list(associate(real, np.arange(1, 5), self.PARAMS, interference))
        successes = [_success(signal_gain, gains, gamma) for _, _, _, signal_gain, gains in groups]
        hand = [math.prod(1.0 / (1.0 + gamma * g / signal) for g in gains)
                for signal, gains in self.gains(interference, mbs_near, mbs_far)]
        assert successes == pytest.approx(hand[: len(groups)], rel=1e-12)
        # a trial fails when its uniform is not below its group's probability:
        # the first trial of each served rank draws exactly it, a tie, and fails
        uniforms = stream_rng(1, "fading", 0).random((4, 50))
        per_rank = np.full(4, np.nan)  # a missed rank compares nothing and fails every trial
        for (requests, _, _, _, _), p in zip(groups, successes):
            per_rank[requests] = p
        served = ~np.isnan(per_rank)
        uniforms[served, 0] = per_rank[served]
        expected = np.where(served, np.count_nonzero(uniforms >= per_rank[:, None], axis=1), 50)
        # one read of the hand layout, whose SBSs a and b are those within r_sbs
        sq = np.concatenate([real.mbs_points, real.active_sbs_points])
        monkeypatch.setattr(geometry_sim, "_squared_distances", lambda *args: (real.mbs_points.size, sq.copy()))
        monkeypatch.setattr(geometry_sim, "_caches", lambda *args: real.sbs_caches[:2])
        library = ContentLibrary(size=4, cache_slots=1)
        network = (self.PARAMS, default_window(self.PARAMS), {(CachePolicy.UCP, library): [(0, gamma)]})
        streams = stream_rng(1, "geometry", 0), partial(stream_rng, 1, "caches", 0)
        [(query, failures)] = geometry_sim._network_failures(network, *streams, interference, uniforms)
        assert query == 0
        assert failures.tolist() == expected.tolist()
        assert 0 < expected[0] < 50  # link a passes some trials, not all

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(link_layouts(), st.sampled_from([2.5, 3.0, 3.5, 4.0, 5.0]))
    def test_links_against_the_hypot_gains(self, layout, alpha):
        # p * (x^2 + y^2)^(-alpha/2) stays within a few ulps of p * hypot^-alpha;
        # a link at or next to the origin is +inf in both
        mbs, sbs = layout
        params = fig2_params(alpha=alpha)
        points = np.concatenate([mbs, sbs])
        links = geometry_sim._links(len(mbs), squared_norms(points), params)
        dist = np.hypot(*points.T)
        power = np.repeat([params.p_mbs, params.p_sbs], [len(mbs), len(sbs)])
        with np.errstate(divide="ignore", over="ignore"):
            expected = power * np.power(dist, -alpha)
        np.testing.assert_allclose(links.gain, expected, rtol=1e-14, atol=0.0)

    def test_links_at_the_extremes(self):
        # a link at the origin, or so near it that its squared distance
        # underflows or its gain overflows, has an infinite gain, without a
        # RuntimeWarning (which the suite turns into an error); the edge of
        # the largest disc SimWindow accepts keeps a finite squared distance
        window = SimWindow(1.3e154)
        edge = np.array([[window.radius(), 0.0]])
        sbs = np.array([[0.0, 0.0], [1e-200, 0.0], [0.0, 1e-140]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sq = squared_norms(np.concatenate([edge, sbs]))
            links = geometry_sim._links(1, sq, fig2_params())
        assert math.isfinite(links.sq[0]) and links.gain[0] == 0.0
        assert links.sq[1:].tolist() == [0.0, 0.0, 1e-280] and links.gain[1:].tolist() == [math.inf] * 3

    def test_success_probability_bounds(self):
        # no interferer always succeeds; an overflowing term never does, and
        # a zero gain adds nothing even where gamma / signal gain overflows
        assert _success(1.0, np.empty(0), 10.0) == 1.0
        assert _success(1e-300, np.array([1.0]), 1e10) == 0.0
        assert _success(1e-300, np.array([0.0]), 1e10) == 1.0

    def test_success_matches_fade_drawn_rate(self):
        # the identity itself: per server group, the share of 4000 fade-drawn
        # trials whose SIR exceeds gamma against the exact probability, in a
        # dense UCP layout (lambda_sbs = 0.2, beta = 0.6) with many groups
        p = fig2_params(lambda_sbs=0.2, beta=0.6, r_mbs=6.0)
        lib, trials, z = ContentLibrary(size=20, cache_slots=6), 4000, []
        for r in range(10):
            real = realize_network(p, CachePolicy.UCP, lib, SimWindow(40.0, guard=14.0),
                                   stream_rng(15, "geometry", r), cache_rng=stream_rng(15, "caches", r))
            fading = stream_rng(15, "fading", r)
            for _, _, _, signal_gain, gains in associate(real, np.arange(1, lib.size + 1), p,
                                                         INTERFERENCE_BEYOND_SERVER):
                exact = _success(signal_gain, gains, p.gamma)
                drawn = fade_drawn_success(signal_gain, gains, p.gamma, trials, fading)
                z.append((drawn - exact) / math.sqrt(exact * (1.0 - exact) / trials))
        assert len(z) > 50
        assert max(map(abs, z)) <= 4.0

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
            for requests, _, distance, signal_gain, gains in associate(real, contents, p, interference):
                sir = signal_gain / gains.sum() if gains.size else math.inf
                served.update((int(contents[i]), (distance, sir)) for i in requests)
            for rank in contents:
                dist, sir = unit_fade_request(real, rank, p, interference == INTERFERENCE_BEYOND_SERVER)
                expected = (dist, None if sir is None else pytest.approx(sir, rel=1e-12))
                assert served.get(rank, (None, None)) == expected
                out = simulate_request(real, rank, p, FixedGains(), interference)
                assert (out.server_distance, out.sir) == expected


class TestSharedFading:
    # three grid points of one variant: lambda_sbs 0.05, 0.1 and 0.2 in a small
    # window, so their interferer sets and server groups differ
    WINDOW = SimWindow(40.0, guard=0.0)
    LIBRARY = ContentLibrary(size=30, cache_slots=9)

    def points(self):
        base = replace(fig2_params(beta=1.0, r_mbs=20.0), lambda_mbs=0.005)
        return tuple((replace(base, lambda_sbs=lam), self.LIBRARY, self.WINDOW) for lam in (0.05, 0.1, 0.2))

    @pytest.mark.parametrize("interference", [INTERFERENCE_BEYOND_SERVER, INTERFERENCE_ALL])
    def test_thresholds_and_policies_paired_in_one_realization(self, interference):
        # thresholds g1 < g2 < g3 under both policies in one realization: each
        # rank's failures are nondecreasing in the threshold, and a rank that
        # PCP and UCP serve from the same server fails the same trials
        params, library, window = self.points()[2]
        policies = (CachePolicy.PCP, CachePolicy.UCP)
        thresholds = (0.05, params.gamma, 1.0)
        reads = tuple(((replace(params, gamma=gamma), library, window), policy)
                      for policy in policies for gamma in thresholds)
        counts = realization_failures(reads, 6, 200, interference, 0)
        pcp, ucp = np.reshape(counts, (2, 3, library.size))
        for per_gamma in (pcp, ucp):
            assert np.all(np.diff(per_gamma, axis=0) >= 0)
            assert np.any(np.diff(per_gamma, axis=0) > 0)
        servers = []
        for policy in policies:
            real = realize_network(params, policy, library, window, stream_rng(6, "geometry", 0),
                                   cache_rng=stream_rng(6, "caches", 0))
            server = np.full(library.size, -1.0)  # a missed rank has no server
            for requests, _, distance, _, _ in associate(real, np.arange(1, library.size + 1), params, interference):
                server[requests] = distance
            servers.append(server)
        same = servers[0] == servers[1]
        assert 0 < same.sum() < library.size  # some ranks shared, some not
        assert np.array_equal(pcp[:, same], ucp[:, same])
        assert not np.array_equal(pcp, ucp)

    def test_one_block_of_uniforms_for_the_largest_library(self, monkeypatch):
        # libraries of 30 and 12 ranks in one call: each realization draws
        # one (30, trials) block, and the 12-rank read compares its first 12
        # rows, so each query still equals its one-point call
        (p0, _, window), (p1, _, _) = self.points()[:2]
        small = ContentLibrary(size=12, cache_slots=4)
        queries = [((p1, small, window), CachePolicy.UCP, zipf_request_distribution(12, 0.8)),
                   ((p0, self.LIBRARY, window), CachePolicy.UCP, zipf_request_distribution(30, 0.8))]
        shapes = []
        real_stream = geometry_sim._Streams.at

        class Recording:
            def __init__(self, rng):
                self._rng = rng

            def random(self, shape):
                shapes.append(shape)
                return self._rng.random(shape)

        def stream(streams, name, r):
            rng = real_stream(streams, name, r)
            return Recording(rng) if name == "fading" else rng

        monkeypatch.setattr(geometry_sim._Streams, "at", stream)
        results = geometry_sim.estimate_batch(queries, 6, trials_per_content=2, realizations=3)
        assert shapes == [(30, 2)] * 3
        monkeypatch.undo()
        self.assert_standalone(queries, results, 2)

    def test_failure_counts_match_the_stream_by_hand(self):
        # UCP at lambda_sbs = 0.2 under "all", 7 trials: each rank's count is
        # the number of its row of the fading stream's (30, 7) uniforms not
        # below its server's hand product, and a missed rank fails all 7
        point = self.points()[2]
        params, library, window = point
        [counts] = realization_failures(((point, CachePolicy.UCP),), 5, 7, INTERFERENCE_ALL, 0)
        real = realize_network(params, CachePolicy.UCP, library, window, stream_rng(5, "geometry", 0),
                               cache_rng=stream_rng(5, "caches", 0))
        uniforms = stream_rng(5, "fading", 0).random((library.size, 7))
        expected = [7] * library.size
        groups = list(associate(real, np.arange(1, library.size + 1), params, INTERFERENCE_ALL))
        for requests, _, _, signal_gain, gains in groups:
            p = math.prod(1.0 / (1.0 + params.gamma * g / signal_gain) for g in gains)
            for rank in requests:
                expected[rank] = sum(u >= p for u in uniforms[rank])
        assert len(groups) > 5
        assert 0 < sum(expected) < library.size * 7
        assert counts.tolist() == expected

    def test_memory_bounded_by_the_uniform_block(self):
        # the three points under both policies, 30 ranks x 20k trials: the
        # uniforms take 4.8 MB, while one fade per link at the 88 to 330
        # transmitters of a point would take over 400 MB; the peak stays
        # within three blocks however many interferers or reads there are
        reads = tuple((point, policy) for point in self.points() for policy in (CachePolicy.PCP, CachePolicy.UCP))
        trials = 20_000
        counts, peak = traced_peak(lambda: realization_failures(reads, 6, trials, INTERFERENCE_ALL, 0))
        assert peak < 3 * 8 * self.LIBRARY.size * trials
        for per_read in counts:
            assert 0 < per_read.sum() < self.LIBRARY.size * trials

    @pytest.mark.parametrize("policy", [CachePolicy.PCP, CachePolicy.UCP])
    def test_memory_of_a_call_is_that_of_its_largest_network(self, policy):
        # networks of 1e5, 2e5 and 4e5 expected points in one call: a task
        # drops each network before it draws the next, so the call peaks at
        # the largest one's own peak, not near their sum (1.4 times it when
        # a task held them all)
        library = ContentLibrary(size=5, cache_slots=2)
        requests = zipf_request_distribution(5, 0.8)
        queries = []
        for lambda_sbs in (0.1, 0.2, 0.4):
            params = fig2_params(lambda_sbs=lambda_sbs, beta=1.0)
            queries.append(((params, library, default_window(params)), policy, requests))
        assert self.peak(queries) < 1.1 * self.peak(queries[-1:])

    def test_memory_of_a_network_is_that_of_its_points_not_its_server_groups(self):
        # beta = 1 and r_sbs = 16.6 m put ~87 SBSs within r_sbs (72 at seed
        # 3): UCP with |C| = 1000 and d = 10 serves from each of them, one
        # server group apiece, where PCP has 2. A network's reads hold one
        # group's interferer gains at a time, so UCP peaks like PCP, not 12
        # times higher as when every group was held
        params = replace(fig2_params(lambda_sbs=0.1, beta=1.0), r_sbs=16.6)
        library = ContentLibrary(size=1000, cache_slots=10)
        point = (params, library, default_window(params))
        requests = zipf_request_distribution(library.size, 0.8)
        pcp, ucp = (self.peak([(point, policy, requests)]) for policy in (CachePolicy.PCP, CachePolicy.UCP))
        assert ucp < 1.5 * pcp

    def test_no_hypot_per_link_in_the_estimator(self, monkeypatch):
        # PCP and UCP with SBSs within r_sbs: gains and every association test
        # come from squared distances, so np.hypot is never called
        point = self.points()[2]
        requests = zipf_request_distribution(self.LIBRARY.size, 0.8)
        queries = [(point, policy, requests) for policy in (CachePolicy.PCP, CachePolicy.UCP)]
        tiers, elements = [], []
        real_servers, real_hypot = geometry_sim._servers, np.hypot

        def servers(*args):
            for group in real_servers(*args):
                tiers.append(group[1])
                yield group

        def hypot(*args, **kwargs):
            elements.append(np.broadcast(*args[:2]).size)
            return real_hypot(*args, **kwargs)

        monkeypatch.setattr(geometry_sim, "_servers", servers)
        monkeypatch.setattr(np, "hypot", hypot)
        results = geometry_sim.estimate_batch(queries, 6, realizations=3)
        assert Tier.SBS in tiers
        assert elements == []
        monkeypatch.undo()
        self.assert_standalone(queries, results, 1)

    @staticmethod
    def peak(queries):
        """Traced peak of one realization of ``queries`` at seed 3."""
        return traced_peak(lambda: geometry_sim.estimate_batch(queries, 3, realizations=1))[1]

    def mixed_queries(self):
        """Queries at one seed that interleave the networks and repeat one query.

        UCP at the first two points, PCP at the last two, UCP at the middle
        point again under a second request law, and the second query again.
        """
        p0, p1, p2 = self.points()
        zipf, uniform = (zipf_request_distribution(self.LIBRARY.size, delta) for delta in (0.8, 0.0))
        return [
            (p0, CachePolicy.UCP, zipf),
            (p1, CachePolicy.PCP, zipf),
            (p2, CachePolicy.PCP, zipf),
            (p1, CachePolicy.UCP, uniform),
            (p0, CachePolicy.UCP, zipf),
            (p1, CachePolicy.PCP, zipf),
        ]

    def assert_standalone(self, queries, results, trials, realizations=3):
        """Each result, in query order, equals its query's one-point call."""
        for ((params, library, window), policy, requests), result in zip(queries, results, strict=True):
            assert result == estimate_outage(params, policy, library, requests, window=window,
                                             trials_per_content=trials, realizations=realizations, seed=6)

    #: The per-realization budgets as they stand, or tightened to fit only
    #: the largest network's points, its cache set's entries, or both. A
    #: task holds one network at a time, so no budget changes what a call
    #: samples.
    BUDGETS = ("none", "points", "entries", "both")

    @pytest.mark.parametrize("budget", BUDGETS)
    @pytest.mark.parametrize("trials", [1, 3])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_task_per_realization_samples_each_network_once(
        self, monkeypatch, usable_cpus, recorded_pools, pool_at_any_work, workers, trials, budget
    ):
        usable_cpus(2)
        queries = self.mixed_queries()
        points, entries = geometry_sim._point_load(*self.points()[2])
        if budget in ("points", "both"):
            monkeypatch.setattr(geometry_sim, "MAX_POINTS_PER_REALIZATION", points)
        if budget in ("entries", "both"):
            monkeypatch.setattr(geometry_sim, "MAX_CACHE_ENTRIES_PER_REALIZATION", entries)
        tasks, sampled, associated = [], [], []
        real_task, real_sample, real_servers = (
            geometry_sim._realization_failures, geometry_sim._squared_distances, geometry_sim._servers
        )
        monkeypatch.setattr(geometry_sim, "_realization_failures",
                            lambda *args: tasks.append(args[-1]) or real_task(*args))
        monkeypatch.setattr(geometry_sim, "_squared_distances",
                            lambda params, *args: sampled.append(params.lambda_sbs) or real_sample(params, *args))
        monkeypatch.setattr(geometry_sim, "_servers",
                            lambda *args: associated.append(tasks[-1]) or real_servers(*args))
        results = geometry_sim.estimate_batch(queries, 6, trials_per_content=trials, realizations=3, workers=workers)
        assert tasks == [0, 1, 2]
        # four cache sets over three networks: lambda_sbs 0.1 serves UCP and
        # PCP from one sample, and a repeated query shares its cache set
        assert sampled == [0.05, 0.1, 0.2] * 3
        assert associated == [task for task in tasks for _ in range(4)]
        assert [pool.max_workers for pool in recorded_pools] == ([2] if workers == 2 else [])
        assert all(pool.shut_down for pool in recorded_pools)
        monkeypatch.undo()
        self.assert_standalone(queries, results, trials)
        assert results[5] == results[1]  # the repeat equals its first occurrence
        # the policies differ where a cache can serve: the reads are not copies
        assert results[1][0] != results[3][0]

    def test_shared_network_sampled_once_per_realization(self, monkeypatch):
        sampled = []
        real = geometry_sim._squared_distances

        def sample(params, *args):
            sampled.append(params.lambda_sbs)
            return real(params, *args)

        monkeypatch.setattr(geometry_sim, "_squared_distances", sample)
        geometry_sim.estimate_batch(self.mixed_queries(), 6, realizations=3)
        # four reads, three networks: lambda_sbs 0.1 serves UCP and PCP from one sample
        assert sampled == [0.05, 0.1, 0.2] * 3

    @pytest.mark.parametrize("realizations", [1, 3, 12])
    def test_each_stream_built_once_per_call(self, monkeypatch, realizations):
        # three networks, UCP caches at two of them, SBSs within r_sbs: a
        # call builds one SeedSequence and one bit generator per stream it
        # reads, whatever its realizations; each realization, network and
        # UCP cache set restores and advances its stream, and the geometry
        # stream gives one double per point, so each query still equals its
        # one-point call
        queries = self.mixed_queries()
        keys, built, doubles, points, reads = [], [], [], [], []
        real_seeds, real_bits = np.random.SeedSequence, np.random.PCG64DXSM
        real_stream, real_sample = geometry_sim._Streams.at, geometry_sim._squared_distances

        class Recording:
            def __init__(self, rng):
                self._rng = rng

            def poisson(self, lam):
                return self._rng.poisson(lam)

            def random(self, size=None, out=None):
                doubles.append(np.size(out) if size is None else size)
                return self._rng.random(size, out=out)

        def stream(streams, name, r):
            reads.append((name, r))
            rng = real_stream(streams, name, r)
            return Recording(rng) if name == "geometry" else rng

        def sample(*args):
            mbs, sq = real_sample(*args)
            points.append(sq.size)
            return mbs, sq

        monkeypatch.setattr(np.random, "SeedSequence",
                            lambda *args, **kwargs: keys.append(kwargs["spawn_key"]) or real_seeds(*args, **kwargs))
        monkeypatch.setattr(np.random, "PCG64DXSM", lambda *args: built.append(args) or real_bits(*args))
        monkeypatch.setattr(geometry_sim._Streams, "at", stream)
        monkeypatch.setattr(geometry_sim, "_squared_distances", sample)
        results = geometry_sim.estimate_batch(queries, 6, trials_per_content=2, realizations=realizations)
        assert sorted(keys) == [(1,), (2,), (3,)] and len(built) == 3
        # some realization draws two UCP cache sets from its one caches
        # stream, so the stream is reset within a realization too
        cache_reads = [r for name, r in reads if name == "caches"]
        assert max(cache_reads.count(r) for r in range(realizations)) == 2
        assert len(points) == 3 * realizations
        assert sum(doubles) == sum(points) > 0
        monkeypatch.undo()
        self.assert_standalone(queries, results, 2, realizations)

    def test_gamma_points_share_one_network(self, monkeypatch):
        # three thresholds at one (params but gamma, window) under both
        # policies: per realization the network is sampled once, UCP's
        # caches are drawn once, and each cache set is associated once; each
        # point still reads what it reads alone
        params = self.points()[1][0]
        requests = zipf_request_distribution(self.LIBRARY.size, 0.8)
        queries = [
            ((replace(params, gamma=gamma), self.LIBRARY, self.WINDOW), policy, requests)
            for gamma in (0.1, 1.0, 10.0)
            for policy in (CachePolicy.UCP, CachePolicy.PCP)
        ]
        sampled, associated, streams = [], [], []
        real, real_servers, real_stream = geometry_sim._squared_distances, geometry_sim._servers, geometry_sim._Streams.at
        monkeypatch.setattr(geometry_sim, "_squared_distances", lambda *args: sampled.append(args) or real(*args))
        monkeypatch.setattr(geometry_sim, "_servers", lambda *args: associated.append(args) or real_servers(*args))
        monkeypatch.setattr(geometry_sim._Streams, "at", lambda *args: streams.append(args[1]) or real_stream(*args))
        results = geometry_sim.estimate_batch(queries, 6, trials_per_content=2, realizations=3)
        assert len(sampled) == 3
        assert len(associated) == 2 * 3  # the UCP and the PCP caches
        assert [streams.count(name) for name in ("geometry", "caches", "fading")] == [3, 3, 3]
        monkeypatch.undo()
        self.assert_standalone(queries, results, 2)
        # a higher threshold fails more: the gamma points are not copies
        ucp = [average.mean for (_, average) in results[::2]]
        assert ucp[0] < ucp[1] < ucp[2]

    def test_reads_with_equal_caches_share_one_association(self, monkeypatch):
        # with no SBS both policies' caches are empty, so one association
        # serves both; at lambda_sbs = 0.1 their caches differ and each is
        # associated alone
        requests = zipf_request_distribution(self.LIBRARY.size, 0.8)
        associated = []
        real = geometry_sim._servers
        monkeypatch.setattr(geometry_sim, "_servers", lambda *args: associated.append(args) or real(*args))
        for lambda_sbs, shared in ((0.0, True), (0.1, False)):
            params = replace(self.points()[0][0], lambda_sbs=lambda_sbs)
            point = (params, self.LIBRARY, self.WINDOW)
            queries = [(point, policy, requests) for policy in (CachePolicy.UCP, CachePolicy.PCP)]
            associated.clear()
            results = geometry_sim.estimate_batch(queries, 6, trials_per_content=2, realizations=3)
            assert len(associated) == (1 if shared else 2) * 3
            assert (results[0] == results[1]) is shared
            self.assert_standalone(queries, results, 2)

    @pytest.mark.parametrize("lambda_sbs", [0.0, 0.1])
    def test_each_threshold_counted_once_per_server_group(self, monkeypatch, lambda_sbs):
        # five reads at two thresholds, UCP and PCP at each and one repeated:
        # each server group takes one success probability per distinct
        # gamma, not one per read, whether the policies share an association
        # (no SBS) or not; each result still equals its one-point call
        params = replace(self.points()[0][0], lambda_sbs=lambda_sbs)
        requests = zipf_request_distribution(self.LIBRARY.size, 0.8)
        queries = [
            ((replace(params, gamma=gamma), self.LIBRARY, self.WINDOW), policy, requests)
            for gamma in (0.1, 1.0)
            for policy in (CachePolicy.UCP, CachePolicy.PCP)
        ]
        queries.append(queries[0])
        groups, successes = [], []
        real_servers, real_success = geometry_sim._servers, geometry_sim._success

        def servers(*args):
            for group in real_servers(*args):
                groups.append(group)
                yield group

        monkeypatch.setattr(geometry_sim, "_servers", servers)
        monkeypatch.setattr(geometry_sim, "_success", lambda *args: successes.append(args) or real_success(*args))
        results = geometry_sim.estimate_batch(queries, 6, trials_per_content=2, realizations=3)
        assert groups
        assert len(successes) == 2 * len(groups)
        monkeypatch.undo()
        self.assert_standalone(queries, results, 2)
        assert results[4] == results[0]


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

    @pytest.mark.parametrize(
        "workers,realizations,cpus,started",
        [
            (5000, 100, 2, 2),  # capped at the CPUs
            (5000, 3, 8, 3),  # capped at the realizations
            (2, 30, 8, 2),
            (4, 30, None, None),  # CPU count unknown: serial
            (3, 1, 8, None),  # one realization: serial
            (1, 30, 8, None),
        ],
    )
    def test_pool_size_capped(self, usable_cpus, recorded_pools, pool_at_any_work, workers, realizations, cpus, started):
        usable_cpus(cpus)
        p = fig2_params(lambda_sbs=0.02)
        lib = ContentLibrary(size=4, cache_slots=2)
        req = zipf_request_distribution(4, 0.8)
        run = partial(estimate_outage, p, CachePolicy.PCP, lib, req, realizations=realizations, seed=2)
        pooled = run(workers=workers)
        assert [pool.max_workers for pool in recorded_pools] == ([] if started is None else [started])
        assert all(pool.shut_down for pool in recorded_pools)
        assert pooled == run(workers=1)

    def test_standalone_calls_open_a_pool_each(self, usable_cpus, recorded_pools, pool_at_any_work):
        usable_cpus(2)
        lib = ContentLibrary(size=4, cache_slots=2)
        run = partial(estimate_outage, fig2_params(lambda_sbs=0.02), CachePolicy.PCP, lib,
                      zipf_request_distribution(4, 0.8), realizations=4, workers=2)
        run(seed=1)
        assert len(recorded_pools) == 1 and recorded_pools[0].shut_down
        run(seed=2)
        assert len(recorded_pools) == 2 and recorded_pools[1].shut_down

    def test_pool_capped_at_the_affinity_set(self, monkeypatch, recorded_pools):
        # two CPUs on the machine, one of them allowed to this process
        monkeypatch.setattr(geometry_sim.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(geometry_sim.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        lib = ContentLibrary(size=4, cache_slots=2)
        run = partial(estimate_outage, fig2_params(lambda_sbs=0.02), CachePolicy.PCP, lib,
                      zipf_request_distribution(4, 0.8), realizations=4, seed=2)
        pooled = run(workers=2)
        assert recorded_pools == []
        assert pooled == run(workers=1)

    @pytest.mark.parametrize("cpus,started", [(1, None), (2, 2)])
    def test_cpu_count_without_an_affinity_set(self, monkeypatch, recorded_pools, pool_at_any_work, cpus, started):
        monkeypatch.delattr(geometry_sim.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(geometry_sim.os, "cpu_count", lambda: cpus)
        lib = ContentLibrary(size=4, cache_slots=2)
        run = partial(estimate_outage, fig2_params(lambda_sbs=0.02), CachePolicy.PCP, lib,
                      zipf_request_distribution(4, 0.8), realizations=4, seed=2)
        pooled = run(workers=2)
        assert [pool.max_workers for pool in recorded_pools] == ([] if started is None else [started])
        assert pooled == run(workers=1)

    @pytest.mark.parametrize("workers,realizations,cpus,started", [(2, 4, 2, 2), (5000, 3, 8, 3), (3, 30, 2, 2)])
    def test_pool_opened_only_when_the_work_reaches_the_threshold(
        self, monkeypatch, usable_cpus, recorded_pools, workers, realizations, cpus, started
    ):
        # UCP and PCP at one point and PCP at a second: the expected work
        # counts each of the two networks once per realization, and for each
        # read a quarter of its network's points and of its 4 x 3 uniforms
        usable_cpus(cpus)
        lib = ContentLibrary(size=4, cache_slots=2)
        requests = zipf_request_distribution(4, 0.8)
        points = [(p, lib, default_window(p)) for p in (fig2_params(lambda_sbs=0.02), fig2_params(lambda_sbs=0.05))]
        queries = [(points[0], CachePolicy.UCP, requests), (points[0], CachePolicy.PCP, requests),
                   (points[1], CachePolicy.PCP, requests)]
        run = partial(geometry_sim.estimate_batch, queries, 2, trials_per_content=3, realizations=realizations)
        p0, p1 = (geometry_sim._point_load(*point)[0] for point in points)
        work = realizations * (p0 + (p0 + 12) / 4 + (p0 + 12) / 4 + p1 + (p1 + 12) / 4)  # in the plan's order
        assert work < geometry_sim.POOL_MIN_WORK  # a call this small runs serially as it stands
        serial = run(workers=1)
        for threshold, pools in (
            (geometry_sim.POOL_MIN_WORK, []),
            (math.nextafter(work, math.inf), []),
            (work, [started]),
            (0, [started]),
        ):
            monkeypatch.setattr(geometry_sim, "POOL_MIN_WORK", threshold)
            recorded_pools.clear()
            assert run(workers=workers) == serial
            assert [pool.max_workers for pool in recorded_pools] == pools
            assert all(pool.shut_down for pool in recorded_pools)

    def test_empty_call_opens_no_pool_and_runs_no_task(self, monkeypatch, usable_cpus, recorded_pools, pool_at_any_work):
        usable_cpus(2)
        monkeypatch.setattr(geometry_sim, "_realization_failures", lambda *args: pytest.fail("a task ran"))
        assert geometry_sim.estimate_batch([], 3, realizations=5, workers=2) == []
        assert recorded_pools == []
        with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):  # the arguments are still checked
            geometry_sim.estimate_batch([], -1, workers=2)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_real_pool_matches_serial(self, monkeypatch, usable_cpus, pool_at_any_work, workers):
        # worker processes, not the in-process stub, give the serial bytes
        import concurrent.futures

        usable_cpus(3)
        opened = []
        real = concurrent.futures.ProcessPoolExecutor
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            lambda max_workers: opened.append(max_workers) or real(max_workers=max_workers))
        p = fig2_params(lambda_sbs=0.02)
        lib = ContentLibrary(size=10, cache_slots=3)
        queries = [((p, lib, default_window(p)), policy, zipf_request_distribution(10, 0.8))
                   for policy in (CachePolicy.UCP, CachePolicy.PCP)]
        run = partial(geometry_sim.estimate_batch, queries, 5, trials_per_content=2, realizations=30)
        assert run(workers=workers) == run(workers=1)
        assert opened == [workers]

    @pytest.mark.parametrize("workers", [0, -1])
    def test_fewer_than_one_worker_refused(self, workers):
        lib = ContentLibrary(size=4, cache_slots=2)
        with pytest.raises(ConfigError, match="workers"):
            estimate_outage(fig2_params(), CachePolicy.PCP, lib, zipf_request_distribution(4, 0.8),
                            realizations=2, workers=workers)

    @pytest.mark.parametrize(
        "size,delta,realizations",
        [(5, 0.0, 20), (100, 0.8, 1), (100, 0.8, 2), (100, 0.8, 3)],
    )
    def test_nothing_can_serve_gives_exact_one(self, size, delta, realizations):
        p = SystemParams(
            lambda_mbs=0.0, lambda_sbs=0.0, beta=0.5, p_max_mbs=19.95,
            p_max_sbs=0.1995, alpha=4.0, gamma=0.1, r_sbs=5.0, r_mbs=250.0,
        )
        lib = ContentLibrary(size=size, cache_slots=2)
        req = zipf_request_distribution(size, delta)
        per_content, avg = estimate_outage(p, CachePolicy.UCP, lib, req,
                                           realizations=realizations, trials_per_content=2, seed=1)
        assert all(est.mean == 1.0 and est.std_error == 0.0 for est in per_content)
        if size == 5:  # five uniform weights sum to exactly 1
            assert avg.mean == 1.0 and avg.std_error == 0.0
        else:  # other weights may miss 1 by an ulp, but the mean stays a probability
            assert 1.0 - 1e-12 <= avg.mean <= 1.0

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
        with pytest.raises(ConfigError, match=r"realizations must be below 2\*\*64"):
            estimate_outage(p, CachePolicy.UCP, lib, req, realizations=2**64)
        with pytest.raises(ConfigError):
            estimate_outage(p, CachePolicy.UCP, lib, req, trials_per_content=0)

    def test_refused_before_sampling(self, monkeypatch):
        monkeypatch.setattr(geometry_sim, "_squared_distances", lambda *a, **k: pytest.fail("sampled"))

        def call(p, lib, **options):
            requests = zipf_request_distribution(lib.size, 0.8)
            return estimate_outage(p, CachePolicy.UCP, lib, requests, realizations=1, **options)

        with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
            call(fig2_params(), ContentLibrary(size=4, cache_slots=2), seed=-1)
        with pytest.raises(ConfigError, match="interference convention 'bogus'"):
            call(fig2_params(), ContentLibrary(size=4, cache_slots=2), interference="bogus")
        # ~2.5e8 expected cache entries in a window of ~2e5 expected points
        wide = replace(fig2_params(lambda_sbs=0.2, beta=1.0), r_sbs=200.0)
        with pytest.raises(ConfigError, match="cache.*budget"):
            call(wide, ContentLibrary(size=10_000, cache_slots=3000))

    @pytest.mark.parametrize("name", ["trials_per_content", "realizations", "workers", "seed"])
    def test_non_integer_count_refused_before_sampling(self, monkeypatch, name):
        monkeypatch.setattr(geometry_sim, "_squared_distances", lambda *a, **k: pytest.fail("sampled"))
        lib = ContentLibrary(size=4, cache_slots=2)
        with pytest.raises(ConfigError, match=f"{name} must be an integer, got 1.5"):
            estimate_outage(fig2_params(), CachePolicy.UCP, lib, zipf_request_distribution(4, 0.8),
                            **{"realizations": 1, name: 1.5})

    def test_numpy_integer_counts_give_the_plain_int_result(self, usable_cpus):
        usable_cpus(2)
        lib = ContentLibrary(size=4, cache_slots=2)
        requests = zipf_request_distribution(4, 0.8)
        counts = dict(trials_per_content=2, realizations=3, seed=5, workers=2)
        plain = estimate_outage(fig2_params(lambda_sbs=0.02), CachePolicy.PCP, lib, requests, **counts)
        numpy = estimate_outage(fig2_params(lambda_sbs=0.02), CachePolicy.PCP, lib, requests,
                                **{key: np.int64(value) for key, value in counts.items()})
        assert numpy == plain
        assert type(numpy[1].trials) is int

    def test_too_small_window_refused_before_any_pool(self, monkeypatch, usable_cpus, recorded_pools):
        monkeypatch.setattr(geometry_sim, "_squared_distances", lambda *a, **k: pytest.fail("sampled"))
        usable_cpus(2)
        lib = ContentLibrary(size=4, cache_slots=2)
        with pytest.raises(ConfigError, match=r"side / 2 = 50.0 m must reach r_mbs \+ guard = 500.0 m"):
            estimate_outage(fig2_params(), CachePolicy.PCP, lib, zipf_request_distribution(4, 0.8),
                            window=SimWindow(100.0), realizations=4, workers=2)
        assert recorded_pools == []

    def test_uniforms_over_the_budget_refused_before_sampling(self, monkeypatch):
        # 4 ranks x 10 trials fill a budget of 40 uniforms; 11 trials exceed it
        monkeypatch.setattr(geometry_sim, "MAX_UNIFORMS_PER_REALIZATION", 40)
        lib = ContentLibrary(size=4, cache_slots=2)
        run = partial(estimate_outage, fig2_params(lambda_sbs=0.02), CachePolicy.PCP, lib,
                      zipf_request_distribution(4, 0.8), realizations=1, seed=2)
        assert run(trials_per_content=10)[1].trials == 40
        monkeypatch.setattr(geometry_sim, "_squared_distances", lambda *a, **k: pytest.fail("sampled"))
        with pytest.raises(ConfigError, match=r"trials_per_content = 11 draw 44 uniforms.*budget of 4e\+01"):
            run(trials_per_content=11)

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
        outcomes = request_outcomes(p, CachePolicy.PCP, lib, content=1, window=win,
                                    realizations=4000, trials=1, seed=77)
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
        (CachePolicy.PCP, INTERFERENCE_BEYOND_SERVER, 1): [7, 8, 7, 17, 16, 17, 16, 17, 18, 17],
        (CachePolicy.PCP, INTERFERENCE_BEYOND_SERVER, 3): [22, 23, 26, 51, 50, 50, 53, 52, 54, 55],
        (CachePolicy.PCP, INTERFERENCE_ALL, 1): [9, 9, 9, 20, 20, 20, 20, 20, 20, 20],
        (CachePolicy.PCP, INTERFERENCE_ALL, 3): [27, 28, 29, 60, 60, 60, 60, 60, 60, 60],
        (CachePolicy.UCP, INTERFERENCE_BEYOND_SERVER, 1): [10, 14, 13, 16, 12, 14, 12, 14, 14, 14],
        (CachePolicy.UCP, INTERFERENCE_BEYOND_SERVER, 3): [32, 41, 41, 47, 37, 42, 40, 42, 42, 47],
        (CachePolicy.UCP, INTERFERENCE_ALL, 1): [14, 16, 16, 18, 15, 17, 17, 18, 15, 18],
        (CachePolicy.UCP, INTERFERENCE_ALL, 3): [42, 48, 48, 54, 46, 51, 49, 55, 49, 54],
    }
    # request_outcomes for rank 2, 4 realizations x 3 trials: one tier and
    # distance per realization, SIRs per trial. Realizations 0 and 2 are
    # served alike by an SBS under both policies and conventions (no
    # transmitter lies inside the serving disc), 1 by the MBS, and 3 by an
    # SBS (PCP) or not at all (UCP).
    TIERS = {CachePolicy.PCP: "smss", CachePolicy.UCP: "smsx"}
    DISTANCES = {
        CachePolicy.PCP: [0.44327642763039116, 55.399598140233024, 0.7751262214850875, 3.631030559021704],
        CachePolicy.UCP: [0.44327642763039116, 55.399598140233024, 0.7751262214850875, None],
    }
    SIRS_R0 = [28227.360671001254, 2641.59961038647, 3016.8929110973877]
    SIRS_R1 = {
        INTERFERENCE_BEYOND_SERVER: [0.04440086604734423, 0.053724011578903184, 0.0048872310856553245],
        INTERFERENCE_ALL: [0.0007217913244784772, 0.00011775004734793119, 0.0002979927696814715],
    }
    SIRS_R2 = [1.9249303802334894, 108.17298913515813, 292.1079034125976]
    SIRS_R3 = {
        CachePolicy.PCP: [1.6094503575202967, 0.43755647800169445, 0.3045129929522959],
        CachePolicy.UCP: [None] * 3,
    }

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
    def test_request_outcomes_trials(self, policy, interference):
        outcomes = request_outcomes(self.PARAMS, policy, self.LIBRARY, content=2,
                                    window=default_window(self.PARAMS), realizations=4, trials=3,
                                    seed=8, interference=interference)
        tiers = {"x": Tier.MISS, "m": Tier.MBS, "s": Tier.SBS}
        expected_tiers = [tiers[t] for t in self.TIERS[policy] for _ in range(3)]
        assert [o.tier for o in outcomes] == expected_tiers
        assert [o.server_distance for o in outcomes] == [d for d in self.DISTANCES[policy] for _ in range(3)]
        sirs = self.SIRS_R0 + self.SIRS_R1[interference] + self.SIRS_R2 + self.SIRS_R3[policy]
        for outcome, sir in zip(outcomes, sirs, strict=True):
            if sir is None:
                assert outcome.sir is None and outcome.success is False
            else:
                assert outcome.sir == pytest.approx(sir, rel=1e-12)
                assert outcome.success == (outcome.sir > self.PARAMS.gamma)
