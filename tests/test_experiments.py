import numpy as np
import pytest

from hetcache import (
    CachePolicy,
    ConfigError,
    ContentLibrary,
    McBudget,
    ModelSetup,
    SweepResult,
    SweepSpec,
    Variant,
    parse_config_text,
    run_sweep,
    sweep_spec_from_config,
    zipf_request_distribution,
)
from hetcache.cli import _load_config

from oracles import fig2_params


def base_setup(size=100, slots=30, delta=0.8):
    return ModelSetup(
        params=fig2_params(),
        policy=CachePolicy.PCP,
        library=ContentLibrary(size=size, cache_slots=slots),
        requests=zipf_request_distribution(size, delta),
    )


def variants(setup, *tokens):
    table = {
        "none": Variant("none", CachePolicy.UCP, 0, setup.requests, fixed_cache=True),
        "ucp": Variant("ucp", CachePolicy.UCP, setup.library.cache_slots, setup.requests),
        "pcp": Variant("pcp", CachePolicy.PCP, setup.library.cache_slots, setup.requests),
        "ucp:uniform": Variant(
            "ucp:uniform", CachePolicy.UCP, setup.library.cache_slots,
            zipf_request_distribution(setup.library.size, 0.0),
        ),
    }
    return tuple(table[t] for t in tokens)


class TestSweepSpecValidation:
    def test_axis_must_be_sweepable(self):
        s = base_setup()
        with pytest.raises(ConfigError, match="r_sbs"):
            SweepSpec(base=s, axis1=("r_sbs", (1.0, 2.0)), variants=variants(s, "pcp"))

    def test_values_must_be_sorted_and_nonempty(self):
        s = base_setup()
        with pytest.raises(ConfigError):
            SweepSpec(base=s, axis1=("beta", ()), variants=variants(s, "pcp"))
        with pytest.raises(ConfigError):
            SweepSpec(base=s, axis1=("beta", (0.5, 0.1)), variants=variants(s, "pcp"))

    @pytest.mark.parametrize("axis, bad", [("gamma", 4000.0), ("beta", 2.0), ("d_tilde", 1.5)])
    def test_out_of_model_axis_value_refused_at_construction(self, axis, bad):
        s = base_setup()
        with pytest.raises(ConfigError, match=axis):
            SweepSpec(base=s, axis1=(axis, (0.5, bad)), variants=variants(s, "pcp"))

    def test_unknown_engine(self):
        s = base_setup()
        with pytest.raises(ConfigError):
            SweepSpec(base=s, axis1=("beta", (0.1,)), variants=variants(s, "pcp"),
                      engines=("exact",))


class TestRunSweep:
    def test_single_point_grid_row_count(self):
        s = base_setup(size=10, slots=3)
        spec = SweepSpec(
            base=s, axis1=("lambda_sbs", (0.02,)), variants=variants(s, "pcp"),
            engines=("analytic", "montecarlo"), mc=McBudget(1, 10), seed=3,
        )
        res = run_sweep(spec)
        assert len(res.rows) == 2
        assert [r.engine for r in res.rows] == ["analytic", "montecarlo"]
        assert res.rows[0].std_error is None
        assert res.rows[1].std_error is not None
        assert all(r.wall_ms >= 0.0 for r in res.rows)

    def test_deterministic_given_seed(self):
        s = base_setup(size=10, slots=3)
        spec = SweepSpec(
            base=s, axis1=("lambda_sbs", (0.02, 0.05)), variants=variants(s, "pcp", "none"),
            engines=("analytic", "montecarlo"), mc=McBudget(1, 10), seed=3,
        )
        a, b = run_sweep(spec), run_sweep(spec)
        strip = lambda rows: [(r.axes, r.variant, r.engine, r.avg_outage, r.std_error) for r in rows]
        assert strip(a.rows) == strip(b.rows)  # wall_ms is the only nondeterministic field

    def test_full_cache_rows_identical_across_policies(self):
        s = base_setup()
        spec = SweepSpec(
            base=s, axis1=("d_tilde", (0.5, 1.0)), axis2=("beta", (0.05, 1.0)),
            variants=variants(s, "ucp", "pcp"),
        )
        res = run_sweep(spec)
        for beta in (0.05, 1.0):
            by = {r.variant: r.avg_outage for r in res.rows if r.axes == (1.0, beta)}
            assert by["ucp"] == by["pcp"]

    def test_no_caching_curve_nondecreasing_in_density(self):
        s = base_setup()
        spec = SweepSpec(
            base=s, axis1=("lambda_sbs", (0.01, 0.05, 0.1, 0.2, 0.5)),
            variants=variants(s, "none"),
        )
        res = run_sweep(spec)
        curve = [r.avg_outage for r in res.rows]
        assert all(b >= a for a, b in zip(curve, curve[1:]))

    def test_fixed_cache_variant_ignores_d_tilde_axis(self):
        s = base_setup()
        spec = SweepSpec(
            base=s, axis1=("d_tilde", (0.1, 0.9)), axis2=("beta", (0.05,)),
            variants=variants(s, "none"),
        )
        res = run_sweep(spec)
        vals = [r.avg_outage for r in res.rows]
        assert vals[0] == vals[1]  # cache pinned at zero either way

    def test_gamma_axis_in_db(self):
        s = base_setup()
        spec = SweepSpec(base=s, axis1=("gamma", (-20.0, -10.0, 0.0)),
                         variants=variants(s, "pcp"))
        res = run_sweep(spec)
        assert [r.axes[0] for r in res.rows] == [-20.0, -10.0, 0.0]
        curve = [r.avg_outage for r in res.rows]
        assert all(b >= a for a, b in zip(curve, curve[1:]))

    def test_gamma_monte_carlo_monotone_via_shared_streams(self):
        # grid points of one variant share random streams, so raising the
        # threshold can only flip successes to failures
        s = base_setup(size=10, slots=3)
        spec = SweepSpec(
            base=s, axis1=("gamma", (-20.0, -10.0, 0.0, 10.0)),
            variants=variants(s, "pcp"), engines=("montecarlo",),
            mc=McBudget(1, 25), seed=5,
        )
        res = run_sweep(spec)
        curve = [r.avg_outage for r in res.rows]
        assert all(b >= a for a, b in zip(curve, curve[1:]))


class TestCsvRoundTrip:
    def test_exact_round_trip(self, tmp_path):
        s = base_setup(size=10, slots=3)
        spec = SweepSpec(
            base=s, axis1=("d_tilde", (0.1, 0.3)), axis2=("beta", (0.05, 0.5)),
            variants=variants(s, "ucp", "pcp"), engines=("analytic", "montecarlo"),
            mc=McBudget(1, 5), seed=11,
        )
        res = run_sweep(spec)
        path = tmp_path / "sweep.csv"
        res.write_csv(str(path))
        back = SweepResult.read_csv(str(path))
        assert back == res  # floats serialized with 17 significant digits

    def test_header_layout(self):
        s = base_setup(size=4, slots=2)
        spec = SweepSpec(base=s, axis1=("d_tilde", (0.5,)), axis2=("beta", (0.1,)),
                         variants=variants(s, "pcp"))
        res = run_sweep(spec)
        assert res.to_csv_text().splitlines()[0] == "d_tilde,beta,policy,engine,avg_outage,std_error,wall_ms"


class TestSpecFiles:
    SPEC_TEXT = """
        lambda_mbs = 0.0001
        lambda_sbs = 0.2
        beta = 0.05
        p_max_mbs = 43
        p_max_sbs = 23
        alpha = 4
        gamma = -10
        r_sbs = 5
        r_mbs = 250
        library_size = 10
        d_tilde = 0.3
        policy = pcp
        delta = 0.8
        axis1 = lambda_sbs
        axis1_values = 0.01, 0.05
        variants = none, ucp:uniform, pcp:zipf
        engines = analytic
        seed = 4
    """

    def test_spec_parsing(self):
        spec = sweep_spec_from_config(parse_config_text(self.SPEC_TEXT))
        assert spec.axis1 == ("lambda_sbs", (0.01, 0.05))
        assert spec.axis2 is None
        assert [v.label for v in spec.variants] == ["none", "ucp:uniform", "pcp:zipf"]
        assert spec.variants[0].cache_slots == 0 and spec.variants[0].fixed_cache
        assert spec.variants[1].requests.skew == 0.0
        assert spec.variants[2].requests.skew == 0.8
        assert spec.seed == 4

    def test_seed_override(self):
        spec = sweep_spec_from_config(parse_config_text(self.SPEC_TEXT), seed=99)
        assert spec.seed == 99

    def test_axis2_values_without_axis2(self):
        text = self.SPEC_TEXT + "\naxis2_values = 1, 2\n"
        with pytest.raises(ConfigError, match="axis2"):
            sweep_spec_from_config(parse_config_text(text))

    def test_missing_variants(self):
        text = self.SPEC_TEXT.replace("variants = none, ucp:uniform, pcp:zipf", "")
        with pytest.raises(ConfigError, match="variants"):
            sweep_spec_from_config(parse_config_text(text))

    def test_unknown_variant_token(self):
        text = self.SPEC_TEXT.replace("none, ucp:uniform, pcp:zipf", "lfu")
        with pytest.raises(ConfigError, match="lfu"):
            sweep_spec_from_config(parse_config_text(text))

    def test_bundled_specs_load(self):
        fig3 = sweep_spec_from_config(_load_config("fig3.spec"))
        assert fig3.axis1[0] == "d_tilde" and fig3.axis2[0] == "beta"
        assert {v.label for v in fig3.variants} == {"ucp", "pcp"}
        fig4 = sweep_spec_from_config(_load_config("fig4.spec"))
        assert fig4.axis1[0] == "gamma"
        assert [v.label for v in fig4.variants] == ["none", "ucp:zipf", "pcp:zipf"]
