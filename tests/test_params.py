import math

import numpy as np
import pytest

from hetcache import (
    CachePolicy,
    ConfigError,
    ContentLibrary,
    InvalidLibraryError,
    InvalidRankError,
    ModelSetup,
    RequestDistribution,
    SystemParams,
    db_to_linear,
    dbm_to_watts,
    parse_config_text,
    replication_probability,
    setup_from_config,
    zipf_request_distribution,
)

from oracles import fig2_params


class TestUnitConversions:
    def test_db_to_linear(self):
        assert db_to_linear(-10.0) == pytest.approx(0.1, rel=1e-15)
        assert db_to_linear(0.0) == 1.0
        assert db_to_linear(20.0) == pytest.approx(100.0, rel=1e-15)

    def test_dbm_to_watts(self):
        assert dbm_to_watts(30.0) == pytest.approx(1.0, rel=1e-15)
        assert dbm_to_watts(43.0) == pytest.approx(19.952623149688797, rel=1e-15)
        assert dbm_to_watts(23.0) == pytest.approx(0.19952623149688797, rel=1e-15)


class TestSystemParams:
    def test_from_db_converts_once(self):
        p = fig2_params()
        assert p.gamma == pytest.approx(0.1, rel=1e-15)
        assert p.p_max_mbs == pytest.approx(19.952623149688797, rel=1e-15)
        # per-channel powers: p_mbs / p_sbs = beta * p_max_mbs / p_max_sbs = 5
        assert p.p_mbs == p.p_max_mbs
        assert p.p_mbs / p.p_sbs == pytest.approx(5.0, rel=1e-12)

    def test_p_sbs_undefined_for_zero_access(self):
        p = fig2_params(beta=0.0)
        with pytest.raises(ConfigError):
            _ = p.p_sbs

    @pytest.mark.parametrize(
        "field,value",
        [
            ("alpha", 2.0),
            ("alpha", 1.5),
            ("beta", -0.1),
            ("beta", 1.5),
            ("gamma", 0.0),
            ("lambda_mbs", -1.0),
            ("r_sbs", 0.0),
            ("lambda_sbs", math.inf),
            ("r_mbs", math.inf),
            ("r_mbs", 1e200),  # r_mbs**2 alone overflows
            ("r_mbs", 7.6e153),  # only pi * r_mbs**2 does
            ("p_max_sbs", math.inf),
        ],
    )
    def test_invalid_values_rejected(self, field, value):
        kwargs = dict(
            lambda_mbs=1e-4, lambda_sbs=0.2, beta=0.05, p_max_mbs=19.95,
            p_max_sbs=0.1995, alpha=4.0, gamma=0.1, r_sbs=5.0, r_mbs=250.0,
        )
        kwargs[field] = value
        with pytest.raises(ConfigError):
            SystemParams(**kwargs)

    def test_radius_ordering_enforced(self):
        with pytest.raises(ConfigError):
            SystemParams(
                lambda_mbs=1e-4, lambda_sbs=0.2, beta=0.05, p_max_mbs=19.95,
                p_max_sbs=0.1995, alpha=4.0, gamma=0.1, r_sbs=250.0, r_mbs=5.0,
            )

    def test_subchannels_must_be_positive_integer(self):
        with pytest.raises(ConfigError):
            SystemParams(
                lambda_mbs=1e-4, lambda_sbs=0.2, beta=0.05, p_max_mbs=19.95,
                p_max_sbs=0.1995, alpha=4.0, gamma=0.1, r_sbs=5.0, r_mbs=250.0,
                subchannels_b=0,
            )


class TestZipfDistribution:
    def test_uniform_limit(self):
        # delta = 0: every content equally likely
        q = zipf_request_distribution(100, 0.0)
        assert np.array_equal(q.weights, np.full(100, 1.0 / 100.0))

    def test_two_contents_harmonic(self):
        # |C| = 2, delta = 1: normalizer 1 + 1/2
        q = zipf_request_distribution(2, 1.0)
        assert q.weights[0] == 2.0 / 3.0
        assert q.weights[1] == 1.0 / 3.0

    def test_against_high_precision_oracle(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        delta = mp.mpf("0.8")
        raw = [mp.power(c, -delta) for c in range(1, 101)]
        norm = mp.fsum(raw)
        expected = np.array([float(w / norm) for w in raw])
        q = zipf_request_distribution(100, 0.8)
        np.testing.assert_allclose(q.weights, expected, rtol=1e-12)
        assert abs(float(q.weights.sum()) - 1.0) <= 1e-12

    def test_nonincreasing_and_normalized(self):
        for delta in (0.0, 0.4, 0.8, 1.2, 3.0):
            q = zipf_request_distribution(257, delta)
            assert np.all(np.diff(q.weights) <= 0.0)
            assert abs(float(q.weights.sum()) - 1.0) <= 1e-12

    def test_zero_skew_equals_vanishing_skew_bitwise(self):
        # the delta -> 0 limit of the same formula, not a special case
        assert np.array_equal(
            zipf_request_distribution(100, 0.0).weights,
            zipf_request_distribution(100, 1e-300).weights,
        )

    def test_empty_library_rejected(self):
        with pytest.raises(InvalidLibraryError):
            zipf_request_distribution(0, 0.8)

    def test_negative_skew_rejected(self):
        with pytest.raises(ConfigError):
            zipf_request_distribution(10, -0.5)


class TestZipfMasses:
    @pytest.mark.parametrize("size", [1, 2, 257, 10_000])
    @pytest.mark.parametrize("delta", [0.0, 0.4, 0.8, 1.2, 3.0])
    def test_masses_match_weights(self, size, delta):
        q = zipf_request_distribution(size, delta)
        for d in (0, 1, size // 3, size):
            head, tail = q.mass(1, d), q.mass(d + 1, size)
            assert abs(head - math.fsum(q.weights[:d])) <= 1e-15
            assert abs(tail - math.fsum(q.weights[d:])) <= 1e-15
            if delta == 0.0:
                assert head == d / size
                assert tail == (size - d) / size
        assert q.mass(1, size) == 1.0

    def test_each_range_summed_once(self, monkeypatch):
        sums = []
        power_sum = RequestDistribution._power_sum
        monkeypatch.setattr(
            RequestDistribution, "_power_sum",
            lambda self, first, last: sums.append((first, last)) or power_sum(self, first, last),
        )
        q = zipf_request_distribution(100, 0.8)
        for _ in range(3):
            q.mass(1, 30)
            q.mass(31, 100)
        assert sorted(sums) == [(1, 30), (1, 100), (31, 100)]

    def test_weights_cached_and_read_only(self):
        q = zipf_request_distribution(10, 0.8)
        assert q.weights is q.weights
        assert q.weights.dtype == np.float64
        with pytest.raises(ValueError):
            q.weights[0] = 1.0

    def test_law_is_its_parameters(self):
        assert zipf_request_distribution(10, 0.8) == RequestDistribution(size=10, skew=0.8)
        with pytest.raises(InvalidLibraryError):
            RequestDistribution(size=0, skew=0.8)
        with pytest.raises(ConfigError):
            RequestDistribution(size=10, skew=-1.0)


class TestReplication:
    def test_pcp_top_d(self):
        lib = ContentLibrary(size=100, cache_slots=5)
        assert replication_probability(CachePolicy.PCP, 3, lib) == 1.0
        assert replication_probability(CachePolicy.PCP, 5, lib) == 1.0
        assert replication_probability(CachePolicy.PCP, 7, lib) == 0.0

    def test_ucp_fraction(self):
        lib = ContentLibrary(size=100, cache_slots=30)
        for c in (1, 17, 50, 100):
            assert replication_probability(CachePolicy.UCP, c, lib) == 0.30

    def test_rank_out_of_range(self):
        lib = ContentLibrary(size=10, cache_slots=3)
        for c in (0, 11, -2):
            with pytest.raises(InvalidRankError):
                replication_probability(CachePolicy.UCP, c, lib)

    def test_rank_must_be_integral(self):
        lib = ContentLibrary(size=10, cache_slots=3)
        assert replication_probability(CachePolicy.PCP, np.int64(3), lib) == 1.0
        with pytest.raises(InvalidRankError):
            replication_probability(CachePolicy.PCP, 3.0, lib)

    def test_total_replication_equals_cache_size(self):
        lib = ContentLibrary(size=100, cache_slots=30)
        pcp = math.fsum(replication_probability(CachePolicy.PCP, c, lib) for c in range(1, 101))
        ucp = math.fsum(replication_probability(CachePolicy.UCP, c, lib) for c in range(1, 101))
        assert pcp == 30.0
        assert ucp == pytest.approx(30.0, abs=1e-9)

    def test_depends_only_on_rank(self):
        # identical (rank, d, |C|) gives identical P_c regardless of construction
        a = ContentLibrary(size=50, cache_slots=20)
        b = ContentLibrary.from_normalized(0.4, 50)
        for c in (1, 20, 21, 50):
            for policy in CachePolicy:
                assert replication_probability(policy, c, a) == replication_probability(policy, c, b)


class TestCacheSizing:
    # a cache size comes from its library: ContentLibrary.from_normalized
    def test_exact_products(self):
        assert ContentLibrary.from_normalized(0.3, 100).cache_slots == 30
        assert ContentLibrary.from_normalized(1.0, 100).cache_slots == 100
        assert ContentLibrary.from_normalized(0.0, 100).cache_slots == 0

    def test_round_half_even(self):
        assert ContentLibrary.from_normalized(0.005, 100).cache_slots == 0
        assert ContentLibrary.from_normalized(0.015, 100).cache_slots == 2

    def test_bounds(self):
        with pytest.raises(ConfigError, match=r"d_tilde must lie in \[0, 1\], got 1.5"):
            ContentLibrary.from_normalized(1.5, 100)
        with pytest.raises(ConfigError, match="d_tilde"):
            ContentLibrary.from_normalized(-0.1, 100)

    def test_library_size_checked_first(self):
        for size in (0, 2.0):
            with pytest.raises(InvalidLibraryError, match=f"library_size must be an integer >= 1, got {size}"):
                ContentLibrary.from_normalized(1.5, size)

    def test_library_consistency(self):
        lib = ContentLibrary.from_normalized(0.3, 100)
        assert lib.cache_slots == 30
        with pytest.raises(ConfigError):
            ContentLibrary(size=10, cache_slots=11)


class TestConfigParsing:
    def test_basic_file(self):
        cfg = parse_config_text(
            """
            # comment
            lambda_mbs = 0.0001
            beta = 0.05   # trailing comment
            policy = pcp
            """
        )
        assert cfg == {"lambda_mbs": "0.0001", "beta": "0.05", "policy": "pcp"}

    def test_duplicate_key_named(self):
        with pytest.raises(ConfigError, match="beta"):
            parse_config_text("beta = 0.1\nbeta = 0.2\n")

    def test_malformed_line(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config_text("this is not a key value pair\n")

    def test_setup_from_config_roundtrip(self):
        cfg = parse_config_text(
            """
            lambda_mbs = 0.0001
            lambda_sbs = 0.2
            beta = 0.05
            subchannels_b = 1
            p_max_mbs = 43
            p_max_sbs = 23
            alpha = 4
            gamma = -10
            r_sbs = 5
            r_mbs = 250
            library_size = 100
            d_tilde = 0.3
            policy = pcp
            delta = 0.8
            """
        )
        setup = setup_from_config(cfg)
        assert setup.params == fig2_params()
        assert setup.library.cache_slots == 30
        assert setup.policy is CachePolicy.PCP
        assert setup.requests.skew == 0.8

    def test_missing_key_named(self):
        with pytest.raises(ConfigError, match="lambda_sbs"):
            setup_from_config({"lambda_mbs": "1e-4"})

    def test_bad_number_named(self):
        cfg = {"lambda_mbs": "abc"}
        with pytest.raises(ConfigError, match="lambda_mbs"):
            setup_from_config(cfg)

    def test_both_cache_keys_rejected(self):
        cfg = parse_config_text(
            "lambda_mbs=1e-4\nlambda_sbs=0.2\nbeta=0.05\np_max_mbs=43\np_max_sbs=23\n"
            "alpha=4\ngamma=-10\nr_sbs=5\nr_mbs=250\nlibrary_size=100\n"
            "d_tilde=0.3\ncache_slots=30\n"
        )
        with pytest.raises(ConfigError):
            setup_from_config(cfg)

    def test_unknown_policy_named(self):
        cfg = parse_config_text(
            "lambda_mbs=1e-4\nlambda_sbs=0.2\nbeta=0.05\np_max_mbs=43\np_max_sbs=23\n"
            "alpha=4\ngamma=-10\nr_sbs=5\nr_mbs=250\nlibrary_size=100\nd_tilde=0.3\npolicy=lru\n"
        )
        with pytest.raises(ConfigError, match="policy"):
            setup_from_config(cfg)

    def test_setup_requires_matching_sizes(self):
        with pytest.raises(ConfigError):
            ModelSetup(
                params=fig2_params(),
                policy=CachePolicy.UCP,
                library=ContentLibrary(size=100, cache_slots=30),
                requests=zipf_request_distribution(50, 0.8),
            )
