import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hetcache import analytic
from hetcache import (
    CachePolicy,
    ContentLibrary,
    DivergentIntegralError,
    DomainError,
    SystemParams,
    average_outage,
    combine_outage,
    kernel_integral,
    kernels,
    mbs_hit_probability,
    sbs_hit_probability,
    total_outage,
    zipf_request_distribution,
)

from oracles import fig2_params, kernel_quadrature, success_mbs_integral, success_sbs_integral

# Frozen oracle constants, computed with 50-digit mpmath evaluations of the
# same definitions (arctan kernel form; tier outage closed forms) at the
# benchmark configuration.
K_EQUAL_POWER_G01 = 0.096853408234038924938
K1_FIG2 = 0.43520987568355159874
K4_FIG2 = 0.019868244159357967721
HIT_SBS_FIG2 = 0.54406187223400376323
HIT_MBS_FIG2 = 0.99999999703074300344
OUT_SBS_FIG2 = 0.033755950446509828129
OUT_MBS_FIG2 = 0.67571190636996282043
TOTAL_PC1_FIG2 = 0.32644814753749978983
TOTAL_PC0_FIG2 = 0.67571190733285751134
AVG_PCP_ZIPF_FIG2 = 0.44097951029796712385
AVG_UCP_FIG2 = 0.54167875525120705213

# references for non-arctan path-loss exponents (mpmath hypergeometric
# closed form of the tail integral)
RHO_ALPHA22 = {0.1: 0.99207409490795730717, 1.0: 9.4316568296129897202}
RHO_ALPHA3 = {0.1: 0.1952671374379260562, 1.0: 1.6712976965294421067, 10.0: 10.262883117519118401}
RHO_ALPHA6 = {0.1: 0.048116569153610955793, 1.0: 0.37355072789142418039, 10.0: 1.6288058268530196501}


def mpmath_kernel(x, alpha):
    """x / (p - 1) * 2F1(1, 1 - 1/p; 2 - 1/p; -x), p = alpha / 2, at 40 digits."""
    with mpmath.workdps(40):
        p = mpmath.mpf(alpha) / 2
        x = mpmath.mpf(float(x))
        return float(x / (p - 1) * mpmath.hyp2f1(1, 1 - 1 / p, 2 - 1 / p, -x))


def equal_power_params(gamma_db=0.0, alpha=4.0):
    # beta * p_max_mbs == p_max_sbs makes the per-channel powers equal
    return SystemParams(
        lambda_mbs=1e-4, lambda_sbs=0.2, beta=0.5, p_max_mbs=4.0, p_max_sbs=2.0,
        alpha=alpha, gamma=10.0 ** (gamma_db / 10.0), r_sbs=5.0, r_mbs=250.0,
    )


class TestKernelIntegral:
    def test_unit_threshold_equal_powers_is_pi_over_four(self):
        p = equal_power_params(gamma_db=0.0)
        ks = kernels(p)
        for k in (ks.k1, ks.k2, ks.k3, ks.k4):
            assert k == pytest.approx(math.pi / 4.0, rel=1e-12)

    def test_equal_power_value_at_gamma_01(self):
        assert kernel_integral(0.1, 4.0) == pytest.approx(K_EQUAL_POWER_G01, rel=1e-13, abs=0.0)

    def test_vanishing_threshold(self):
        for x in (1e-12, 1e-9):
            assert 0.0 <= kernel_integral(x, 4.0) < 1e-5
        assert kernel_integral(0.0, 4.0) == 0.0

    def test_quadrature_matches_arctan_form(self):
        for gamma in (0.01, 0.1, 1.0, 10.0):
            assert kernel_quadrature(gamma, 4.0) == pytest.approx(kernel_integral(gamma, 4.0), rel=1e-8)

    @pytest.mark.parametrize(
        "alpha,table", [(2.2, RHO_ALPHA22), (3.0, RHO_ALPHA3), (6.0, RHO_ALPHA6)]
    )
    def test_quadrature_against_high_precision_reference(self, alpha, table):
        for x, expected in table.items():
            assert kernel_integral(x, alpha) == pytest.approx(expected, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("alpha", [2.0001, 2.05, 2.5, 3.0, 3.5, 5.0, 8.0, 20.0, 100.0, 1000.0])
    def test_against_mpmath_hypergeometric(self, alpha):
        # alpha near 2 and far above 8 probe the two ends of b = 1 - 2/alpha;
        # just above x = 1 the x > 1 branch would cancel without its rearrangement
        for x in np.concatenate([np.logspace(-6, 6, 97), np.linspace(1.0, 4.0, 61)]):
            assert kernel_integral(float(x), alpha) == pytest.approx(mpmath_kernel(x, alpha), rel=5e-15, abs=0.0)

    @pytest.mark.parametrize("alpha", [2.05, 3.5, 8.0, 100.0])
    def test_continuous_across_branch_switch(self, alpha):
        # x <= 1 takes the Pfaff series, x > 1 the rearranged 1/x form
        xs = (math.nextafter(1.0, 0.0), 1.0, math.nextafter(1.0, 2.0))
        below, at, above = (kernel_integral(x, alpha) for x in xs)
        for x, value in zip(xs, (below, at, above)):
            assert value == pytest.approx(mpmath_kernel(x, alpha), rel=5e-15, abs=0.0)
        assert abs(above - below) <= 2e-15 * at

    def test_divergent_for_alpha_at_most_two(self):
        for alpha in (2.0, 1.5, 0.5):
            with pytest.raises(DivergentIntegralError):
                kernel_integral(1.0, alpha)

    @pytest.mark.parametrize("alpha", [2.05, 3.5, 4.0, 6.0])
    def test_infinite_ratio_is_infinite_at_every_alpha(self, alpha):
        # both forms grow like x^(2/alpha); the 2F1 path once gave nan here
        assert kernel_integral(math.inf, alpha) == math.inf

    @pytest.mark.parametrize("alpha", [3.5, 4.0])
    def test_nan_ratio_refused(self, alpha):
        with pytest.raises(DomainError, match="nan"):
            kernel_integral(math.nan, alpha)

    def test_nan_alpha_refused(self):
        with pytest.raises(DivergentIntegralError, match="nan"):
            kernel_integral(1.0, math.nan)

    def test_nondecreasing_in_threshold(self):
        for alpha in (3.0, 4.0, 6.0):
            values = [kernel_integral(x, alpha) for x in np.logspace(-3, 2, 40)]
            assert all(b >= a for a, b in zip(values, values[1:]))

    def test_kernel_symmetry_under_equal_powers(self):
        for gdb in (-10.0, 0.0, 7.0):
            ks = kernels(equal_power_params(gamma_db=gdb))
            assert ks.k2 == ks.k3
            assert ks.k1 == pytest.approx(ks.k2, rel=1e-10)
            assert ks.k4 == pytest.approx(ks.k2, rel=1e-10)

    def test_fig2_kernels(self):
        ks = kernels(fig2_params())
        assert ks.k1 == pytest.approx(K1_FIG2, rel=1e-12, abs=0.0)
        assert ks.k2 == pytest.approx(K_EQUAL_POWER_G01, rel=1e-12, abs=0.0)
        assert ks.k3 == ks.k2
        assert ks.k4 == pytest.approx(K4_FIG2, rel=1e-12, abs=0.0)


class TestHitProbabilities:
    def test_sbs_hit_benchmark_value(self):
        # exponent 0.05 * 0.2 * pi * 25 = pi/4
        assert sbs_hit_probability(fig2_params(), 1.0) == pytest.approx(HIT_SBS_FIG2, rel=1e-14, abs=0.0)

    def test_sbs_hit_zero_cases(self):
        p = fig2_params()
        assert sbs_hit_probability(p, 0.0) == 0.0
        assert sbs_hit_probability(fig2_params(beta=0.0), 1.0) == 0.0
        assert sbs_hit_probability(fig2_params(lambda_sbs=0.0), 1.0) == 0.0

    def test_mbs_hit_benchmark_value(self):
        assert mbs_hit_probability(fig2_params()) == pytest.approx(HIT_MBS_FIG2, rel=1e-14, abs=0.0)

    def test_mbs_hit_vanishing_cases(self):
        p = fig2_params()
        assert mbs_hit_probability(SystemParams(**{**p.__dict__, "lambda_mbs": 0.0})) == 0.0
        tiny = SystemParams(**{**p.__dict__, "r_sbs": 1e-7, "r_mbs": 1e-6})
        assert mbs_hit_probability(tiny) <= 1e-12

    def test_sbs_hit_strictly_increasing(self):
        base = dict(lambda_sbs=0.1, beta=0.1)
        p0 = fig2_params(**base)
        h0 = sbs_hit_probability(p0, 0.5)
        assert sbs_hit_probability(fig2_params(lambda_sbs=0.2, beta=0.1), 0.5) > h0
        assert sbs_hit_probability(fig2_params(lambda_sbs=0.1, beta=0.2), 0.5) > h0
        assert sbs_hit_probability(p0, 0.7) > h0
        bigger_r = SystemParams(**{**p0.__dict__, "r_sbs": 7.0})
        assert sbs_hit_probability(bigger_r, 0.5) > h0
        two_ch = SystemParams(**{**p0.__dict__, "subchannels_b": 2})
        assert sbs_hit_probability(two_ch, 0.5) > h0


class TestOutageSbs:
    # the per-tier outages come from total_outage's breakdown (the MBS value
    # is the same at every P_c)
    def test_vanishing_threshold_yields_no_outage(self):
        p = fig2_params(gamma_db=-120.0)
        assert total_outage(p, 1.0).p_out_sbs <= 1e-6

    def test_benchmark_regression(self):
        assert total_outage(fig2_params(), 1.0).p_out_sbs == pytest.approx(OUT_SBS_FIG2, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("subchannels_b", [1, 2, 3])
    def test_matches_defining_integral(self, subchannels_b):
        for lam in (0.05, 0.2):
            for p_c in (0.3, 1.0):
                p = SystemParams(**{**fig2_params(lambda_sbs=lam).__dict__, "subchannels_b": subchannels_b})
                assert total_outage(p, p_c).p_out_sbs == pytest.approx(
                    1.0 - success_sbs_integral(p, p_c), abs=1e-7
                )

    def test_subnormal_replication_matches_defining_integral(self):
        # P_c = 5e-324 leaves a subnormal serving density, whose plain
        # normalizer 1 - e^(-nu pi r^2) loses its digits
        p = SystemParams(lambda_mbs=1e-3, lambda_sbs=1.0, beta=1.0, p_max_mbs=1.0, p_max_sbs=1.0,
                         alpha=4.0, gamma=1.0, r_sbs=10.0, r_mbs=111.0)
        assert total_outage(p, 5e-324).p_out_sbs == pytest.approx(1.0 - success_sbs_integral(p, 5e-324), abs=1e-7)


class TestOutageMbs:
    def test_vanishing_threshold_yields_no_outage(self):
        assert total_outage(fig2_params(gamma_db=-120.0), 1.0).p_out_mbs <= 1e-6

    def test_single_tier_limit(self):
        # no SBS interference; tiny threshold greater-than check
        p = fig2_params(lambda_sbs=0.0, gamma_db=-120.0)
        assert total_outage(p, 1.0).p_out_mbs <= 1e-6

    def test_benchmark_regression(self):
        assert total_outage(fig2_params(), 1.0).p_out_mbs == pytest.approx(OUT_MBS_FIG2, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("subchannels_b", [1, 2, 3])
    def test_matches_defining_integral(self, subchannels_b):
        for lam in (0.05, 0.2):
            for beta in (0.05, 0.5):
                p = SystemParams(**{**fig2_params(lambda_sbs=lam, beta=beta).__dict__, "subchannels_b": subchannels_b})
                assert total_outage(p, 1.0).p_out_mbs == pytest.approx(1.0 - success_mbs_integral(p), abs=1e-7)

    def test_sharply_peaked_integrand_matches_defining_integral(self):
        # alpha = 2.25 at gamma = 100 gives D = 489 per m^2: the integrand
        # lives within 0.26 m of the user, a sliver of [0, r_mbs = 111 m]
        p = SystemParams(lambda_mbs=1e-3, lambda_sbs=1.0, beta=1.0, p_max_mbs=1.0, p_max_sbs=1.0,
                         alpha=2.25, gamma=100.0, r_sbs=5.0, r_mbs=111.0)
        assert total_outage(p, 1.0).p_out_mbs == pytest.approx(1.0 - success_mbs_integral(p), abs=1e-7)


class TestTotalOutage:
    def test_breakdown_combination_is_exact(self):
        for p_c in (0.0, 0.3, 1.0):
            b = total_outage(fig2_params(), p_c)
            assert b.p_out_total == combine_outage(b.p_hit_sbs, b.p_hit_mbs, b.p_out_sbs, b.p_out_mbs)
            for v in (b.p_hit_sbs, b.p_hit_mbs, b.p_out_sbs, b.p_out_mbs, b.p_out_total):
                assert 0.0 <= v <= 1.0

    def test_saturated_sbs_hit_endpoint(self):
        # lambda_sbs huge: hit probability saturates to exactly 1.0
        p = fig2_params(lambda_sbs=50.0, beta=1.0)
        b = total_outage(p, 1.0)
        assert b.p_hit_sbs == 1.0
        assert b.p_out_total == b.p_out_sbs

    def test_nothing_can_serve(self):
        p = SystemParams(
            lambda_mbs=0.0, lambda_sbs=0.2, beta=0.05, p_max_mbs=19.95,
            p_max_sbs=0.1995, alpha=4.0, gamma=0.1, r_sbs=5.0, r_mbs=250.0,
        )
        b = total_outage(p, 0.0)
        assert b.p_hit_sbs == 0.0 and b.p_hit_mbs == 0.0
        assert b.p_out_total == 1.0

    def test_unreachable_branch_routed_not_raised(self):
        b = total_outage(fig2_params(), 0.0)
        assert b.p_hit_sbs == 0.0
        assert b.p_out_sbs == 1.0  # stored placeholder with zero weight
        assert b.p_out_total == pytest.approx(TOTAL_PC0_FIG2, rel=1e-12, abs=0.0)

    def test_benchmark_values(self):
        assert total_outage(fig2_params(), 1.0).p_out_total == pytest.approx(TOTAL_PC1_FIG2, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("p_c", [-0.5, -1e-9, math.nan, 1.5])
    def test_replication_probability_checked_on_entry(self, p_c):
        with pytest.raises(DomainError, match="replication probability"):
            total_outage(fig2_params(), p_c)

    def test_hit_probabilities_evaluated_once(self, monkeypatch):
        # whether kernels are needed is read from the two hit probabilities
        # the breakdown reports, not from a second evaluation
        calls = []
        for name in ("sbs_hit_probability", "mbs_hit_probability"):
            hit = getattr(analytic, name)
            monkeypatch.setattr(analytic, name, lambda *a, hit=hit, name=name: calls.append(name) or hit(*a))
        total_outage(fig2_params(), 1.0)
        assert sorted(calls) == ["mbs_hit_probability", "sbs_hit_probability"]

    def test_serving_density_positive_where_access_times_replication_underflows(self):
        # beta * P_c underflows to 0, but beta * B * lambda_sbs * P_c does not
        p = SystemParams(**{**fig2_params().__dict__, "lambda_sbs": 1e200, "beta": 1e-200})
        b = total_outage(p, 1e-200)
        assert b.p_hit_sbs > 0.0
        for v in b:
            assert 0.0 <= v <= 1.0

    @pytest.mark.parametrize("tiny", [{"lambda_sbs": 1e-320}, {"beta": 1e-170}], ids=["lambda_sbs", "beta"])
    def test_underflowing_success_denominator_takes_the_limit(self, tiny):
        # the SBS success ratio's denominator underflows to 0 here; the total
        # reaches the value of a small normal density
        b = total_outage(fig2_params(**tiny), 1.0)
        assert b.p_hit_sbs > 0.0 and 0.0 <= b.p_out_sbs <= 1.0
        assert b.p_out_total == total_outage(fig2_params(lambda_sbs=1e-200), 1.0).p_out_total


class TestAverageOutage:
    def test_single_content_degenerates_to_total(self):
        lib = ContentLibrary(size=1, cache_slots=1)
        req = zipf_request_distribution(1, 0.8)
        avg = average_outage(fig2_params(), CachePolicy.PCP, lib, req)
        assert avg == total_outage(fig2_params(), 1.0).p_out_total

    def test_uniform_requests_give_arithmetic_mean(self):
        p = fig2_params()
        lib = ContentLibrary(size=10, cache_slots=4)
        req = zipf_request_distribution(10, 0.0)
        per_content = [
            total_outage(p, 1.0 if c <= 4 else 0.0).p_out_total for c in range(1, 11)
        ]
        assert average_outage(p, CachePolicy.PCP, lib, req) == pytest.approx(
            float(np.mean(per_content)), rel=1e-14
        )

    def test_pcp_two_term_reduction(self):
        p = fig2_params()
        lib = ContentLibrary(size=100, cache_slots=30)
        req = zipf_request_distribution(100, 0.8)
        top_mass = float(req.weights[:30].sum())
        two_term = top_mass * total_outage(p, 1.0).p_out_total + (1.0 - top_mass) * total_outage(
            p, 0.0
        ).p_out_total
        assert average_outage(p, CachePolicy.PCP, lib, req) == pytest.approx(two_term, rel=1e-12)

    def test_benchmark_values(self):
        p = fig2_params()
        lib = ContentLibrary.from_normalized(0.3, 100)
        zipf = zipf_request_distribution(100, 0.8)
        assert average_outage(p, CachePolicy.PCP, lib, zipf) == pytest.approx(
            AVG_PCP_ZIPF_FIG2, rel=1e-12, abs=0.0
        )
        assert average_outage(p, CachePolicy.UCP, lib, zipf) == pytest.approx(
            AVG_UCP_FIG2, rel=1e-12, abs=0.0
        )

    def test_full_cache_policies_identical_bitwise(self):
        p = fig2_params()
        lib = ContentLibrary(size=100, cache_slots=100)
        req = zipf_request_distribution(100, 0.8)
        assert average_outage(p, CachePolicy.UCP, lib, req) == average_outage(
            p, CachePolicy.PCP, lib, req
        )

    @pytest.mark.parametrize("policy", [CachePolicy.PCP, CachePolicy.UCP])
    def test_kernels_evaluated_once_per_average(self, monkeypatch, policy):
        # PCP has two P_c groups (cached head, uncached tail); both share
        # one evaluation of the three distinct kernels
        ratios = []
        kernel = analytic.kernel_integral
        monkeypatch.setattr(analytic, "kernel_integral", lambda x, a: ratios.append(x) or kernel(x, a))
        lib = ContentLibrary.from_normalized(0.3, 1000)
        average_outage(fig2_params(alpha=3.5), policy, lib, zipf_request_distribution(1000, 0.8))
        assert len(ratios) == 3

    def test_no_kernels_when_no_tier_serves(self, monkeypatch):
        # no MBS and nothing cached: every request is a miss, no kernel is needed
        monkeypatch.setattr(analytic, "kernels", None)
        p = SystemParams(**{**fig2_params().__dict__, "lambda_mbs": 0.0})
        lib = ContentLibrary(size=10, cache_slots=0)
        assert average_outage(p, CachePolicy.PCP, lib, zipf_request_distribution(10, 0.8)) == 1.0

    def test_size_mismatch(self):
        with pytest.raises(DomainError):
            average_outage(
                fig2_params(),
                CachePolicy.UCP,
                ContentLibrary(size=100, cache_slots=30),
                zipf_request_distribution(10, 0.0),
            )


@st.composite
def system_params(draw) -> SystemParams:
    r_sbs = draw(st.floats(0.5, 30.0))
    return SystemParams(
        lambda_mbs=10.0 ** draw(st.floats(-6.0, -3.0)),
        lambda_sbs=10.0 ** draw(st.floats(-4.0, 0.5)),
        beta=draw(st.floats(0.01, 1.0)),
        p_max_mbs=10.0 ** draw(st.floats(-1.0, 2.0)),
        p_max_sbs=10.0 ** draw(st.floats(-2.0, 1.0)),
        alpha=draw(st.floats(2.1, 6.5)),
        gamma=10.0 ** draw(st.floats(-3.0, 2.0)),
        r_sbs=r_sbs,
        r_mbs=r_sbs + draw(st.floats(1.0, 500.0)),
        subchannels_b=draw(st.integers(1, 3)),
    )


# A fixed example set keeps the suite reproducible; 60 examples per
# property keep the whole class near half a second.
fast = settings(max_examples=60, deadline=None, derandomize=True, database=None)


class TestRandomizedBounds:
    @fast
    @given(system_params(), st.floats(0.0, 1.0))
    def test_probabilities_stay_in_unit_interval(self, p, p_c):
        b = total_outage(p, p_c)
        for v in (b.p_hit_sbs, b.p_hit_mbs, b.p_out_sbs, b.p_out_mbs, b.p_out_total):
            assert 0.0 <= v <= 1.0
        ks = kernels(p)
        assert ks.k2 == ks.k3
        for k in (ks.k1, ks.k2, ks.k4):
            assert k >= 0.0 and math.isfinite(k)

    @fast
    @given(system_params(), st.floats(0.0, 1.0, exclude_min=True))
    def test_tier_outages_match_defining_integrals(self, p, p_c):
        # an SBS tier whose serving density underflows to 0 cannot serve,
        # and its stored outage of 1 carries no weight
        b = total_outage(p, p_c)
        if b.p_hit_sbs > 0.0:
            assert b.p_out_sbs == pytest.approx(1.0 - success_sbs_integral(p, p_c), abs=1e-7)
        assert b.p_out_mbs == pytest.approx(1.0 - success_mbs_integral(p), abs=1e-7)

    @fast
    @given(system_params(), st.floats(0.0, 1.0), st.floats(1.0, 10.0))
    def test_outage_nondecreasing_in_threshold(self, p, p_c, factor):
        higher = SystemParams(**{**p.__dict__, "gamma": p.gamma * factor})
        assert total_outage(higher, p_c).p_out_total >= total_outage(p, p_c).p_out_total - 1e-12

    @fast
    @given(
        st.floats(10.0**-2.5, 1.0), st.floats(0.01, 1.0), st.floats(-30.0, 20.0), st.floats(2.1, 6.5),
        st.integers(1, 200), st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 2.0),
    )
    def test_pcp_outage_nonincreasing_in_cache_size(self, lam, beta, gamma_db, alpha, size, u, v, delta):
        # Benchmark powers and radii, where SBS service never fares worse
        # than the MBS fallback. With a weak SBS tier (0.01 W against 100 W)
        # caching can raise the outage, so this does not hold everywhere.
        p = fig2_params(lambda_sbs=lam, beta=beta, gamma_db=gamma_db, alpha=alpha)
        requests = zipf_request_distribution(size, delta)
        small, large = sorted((round(u * size), round(v * size)))
        assert average_outage(
            p, CachePolicy.PCP, ContentLibrary(size=size, cache_slots=large), requests
        ) <= average_outage(p, CachePolicy.PCP, ContentLibrary(size=size, cache_slots=small), requests) + 1e-12

    @fast
    @given(system_params(), st.integers(1, 200), st.floats(0.0, 2.0))
    def test_full_cache_policies_coincide(self, p, size, delta):
        library = ContentLibrary(size=size, cache_slots=size)
        requests = zipf_request_distribution(size, delta)
        assert average_outage(p, CachePolicy.UCP, library, requests) == average_outage(
            p, CachePolicy.PCP, library, requests
        )

    @fast
    @given(st.floats(2.05, 8.0), st.floats(-6.0, 6.0))
    def test_kernel_matches_defining_integral(self, alpha, log_x):
        x = 10.0**log_x
        assert kernel_integral(x, alpha) == pytest.approx(kernel_quadrature(x, alpha), rel=1e-9)
