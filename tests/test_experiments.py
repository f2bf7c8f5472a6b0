import multiprocessing
import re
from dataclasses import replace

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
    analytic,
    average_outage,
    db_to_linear,
    experiments,
    geometry_sim,
    parse_config_text,
    run_sweep,
    sweep_spec_from_config,
    zipf_request_distribution,
)
from hetcache.cli import _load_config, main

from oracles import fig2_params, parse_sweep_csv


def base_setup(size=100, slots=30, delta=0.8):
    return ModelSetup(
        params=fig2_params(),
        policy=CachePolicy.PCP,
        library=ContentLibrary(size=size, cache_slots=slots),
        requests=zipf_request_distribution(size, delta),
    )


def variants(setup, *tokens):
    table = {
        "none": Variant("none", CachePolicy.UCP, setup.requests, no_cache=True),
        "ucp": Variant("ucp", CachePolicy.UCP, setup.requests),
        "pcp": Variant("pcp", CachePolicy.PCP, setup.requests),
        "ucp:uniform": Variant("ucp:uniform", CachePolicy.UCP, zipf_request_distribution(setup.library.size, 0.0)),
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

    def test_repeated_axis_refused(self):
        s = base_setup()
        with pytest.raises(ConfigError, match="axis 'gamma' is given as both axis1 and axis2"):
            SweepSpec(base=s, axis1=("gamma", (-10.0, 0.0)), axis2=("gamma", (-5.0,)),
                      variants=variants(s, "pcp"))

    def test_repeated_variant_label_refused(self):
        s = base_setup()
        with pytest.raises(ConfigError, match="variant 'pcp' is given more than once"):
            SweepSpec(base=s, axis1=("beta", (0.1,)), variants=variants(s, "pcp", "ucp", "pcp"))

    def test_repeated_engine_refused(self):
        s = base_setup()
        with pytest.raises(ConfigError, match="engine 'analytic' is given more than once"):
            SweepSpec(base=s, axis1=("beta", (0.1,)), variants=variants(s, "pcp"),
                      engines=("analytic", "montecarlo", "analytic"))

    def test_negative_seed_refused(self):
        s = base_setup()
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            SweepSpec(base=s, axis1=("beta", (0.1,)), variants=variants(s, "pcp"), seed=-1)

    @pytest.mark.parametrize("realizations", [0, -3])
    def test_monte_carlo_budget_below_one_refused(self, realizations):
        with pytest.raises(ConfigError, match="realizations must be >= 1"):
            McBudget(realizations=realizations)

    def test_non_integer_monte_carlo_budget_refused(self):
        with pytest.raises(ConfigError, match="realizations must be an integer, got 2.5"):
            McBudget(realizations=2.5)

    @pytest.mark.parametrize("value, message", [
        ("2", "trials_per_content must be 1, got 2: .*raise realizations"),
        ("0", "trials_per_content must be 1, got 0"),
        ("100001", "trials_per_content must be 1, got 100001"),
        ("1.5", "key 'trials_per_content': expected an integer"),
    ])
    def test_legacy_trials_key_refused_unless_one(self, value, message):
        # a realization simulates one request per content; the key is still
        # read, and only 1, the budget of a file without it, is accepted
        assert McBudget.from_config({"trials_per_content": "1"}) == McBudget.from_config({}) == McBudget()
        with pytest.raises(ConfigError, match=message):
            McBudget.from_config({"trials_per_content": value})

    @pytest.mark.parametrize("field, value", [("seed", 1.5), ("workers", 2.0)])
    def test_non_integer_seed_or_workers_refused(self, field, value):
        s = base_setup()
        with pytest.raises(ConfigError, match=f"{field} must be an integer, got {value}"):
            SweepSpec(base=s, axis1=("beta", (0.1,)), variants=variants(s, "pcp"), **{field: value})

    def test_numpy_integer_settings_give_the_plain_int_table(self):
        s = base_setup(size=10, slots=3)

        def spec(integer):
            return SweepSpec(
                base=s, axis1=("lambda_sbs", (0.02,)), variants=variants(s, "pcp"),
                engines=("montecarlo",), mc=McBudget(integer(3)), seed=integer(5),
                workers=integer(1),
            )

        assert run_sweep(spec(np.int64)) == run_sweep(spec(int))


class TestRunSweep:
    def test_single_point_grid_row_count(self):
        s = base_setup(size=10, slots=3)
        spec = SweepSpec(
            base=s, axis1=("lambda_sbs", (0.02,)), variants=variants(s, "pcp"),
            engines=("analytic", "montecarlo"), mc=McBudget(10), seed=3,
        )
        res = run_sweep(spec)
        assert len(res.rows) == 2
        assert [r.engine for r in res.rows] == ["analytic", "montecarlo"]
        assert res.rows[0].std_error is None
        assert res.rows[1].std_error is not None

    def test_deterministic_given_seed(self):
        s = base_setup(size=10, slots=3)
        spec = SweepSpec(
            base=s, axis1=("lambda_sbs", (0.02, 0.05)), variants=variants(s, "pcp", "none"),
            engines=("analytic", "montecarlo"), mc=McBudget(10), seed=3,
        )
        assert run_sweep(spec) == run_sweep(spec)

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
            mc=McBudget(25), seed=5,
        )
        res = run_sweep(spec)
        curve = [r.avg_outage for r in res.rows]
        assert all(b >= a for a, b in zip(curve, curve[1:]))


class TestEvaluateOnce:
    # the analytic-grid shape: 16 gamma x 20 d_tilde x {none, ucp, pcp} at
    # alpha 3.5 and |C| = 1000
    GAMMAS_DB = tuple(float(g) for g in range(-20, -4))
    D_TILDES = tuple(round(0.05 * k, 2) for k in range(1, 21))

    def grid_spec(self, gamma_first):
        s = ModelSetup(
            params=fig2_params(alpha=3.5),
            policy=CachePolicy.PCP,
            library=ContentLibrary(size=1000, cache_slots=300),
            requests=zipf_request_distribution(1000, 0.8),
        )
        axes = [("gamma", self.GAMMAS_DB), ("d_tilde", self.D_TILDES)]
        if not gamma_first:
            axes.reverse()
        return SweepSpec(
            base=s, axis1=axes[0], axis2=axes[1], variants=variants(s, "none", "ucp", "pcp")
        )

    @pytest.mark.parametrize("gamma_first", [True, False])
    def test_rows_equal_standalone_calls(self, gamma_first):
        spec = self.grid_spec(gamma_first)
        rows = run_sweep(spec).rows
        assert len(rows) == 960
        table = {v.label: v for v in spec.variants}
        for row in rows:
            axes = dict(zip(spec.axis_names, row.axes))
            variant = table[row.variant]
            params = replace(spec.base.params, gamma=db_to_linear(axes["gamma"]))
            library = ContentLibrary(1000, 0) if variant.no_cache else (
                ContentLibrary.from_normalized(axes["d_tilde"], 1000)
            )
            alone = average_outage(params, variant.policy, library, variant.requests)
            assert row.avg_outage == alone

    def test_kernels_per_gamma_and_rows_per_distinct_input(self, monkeypatch):
        kernel_gammas, row_inputs = [], []
        real_kernels, real_average = analytic.kernels, experiments.average_outage
        monkeypatch.setattr(
            analytic, "kernels", lambda p: kernel_gammas.append(p.gamma) or real_kernels(p)
        )
        monkeypatch.setattr(
            experiments, "average_outage", lambda *a: row_inputs.append(a[:4]) or real_average(*a)
        )
        run_sweep(self.grid_spec(gamma_first=True))
        assert sorted(kernel_gammas) == [db_to_linear(g) for g in self.GAMMAS_DB]
        assert len(row_inputs) == 656 == len(set(row_inputs))  # 16 none + 2 * 16 * 20

    @pytest.mark.parametrize("gamma_first", [True, False])
    def test_total_outage_once_per_gamma_and_replication(self, monkeypatch, gamma_first):
        # per gamma: P_c 0 (none, PCP tail), 1 (PCP head, UCP at d_tilde 1)
        # and the 19 other UCP fractions d_tilde
        inputs = []
        real = analytic.total_outage
        monkeypatch.setattr(
            analytic, "total_outage",
            lambda p, p_c, ks=None: inputs.append((p.gamma, p_c)) or real(p, p_c, ks),
        )
        run_sweep(self.grid_spec(gamma_first))
        assert len(inputs) == 336 == len(set(inputs)) == 16 * 21

    def test_parameter_axis2_applied_once_per_axis1_params(self, monkeypatch):
        # d_tilde x gamma: every d_tilde value shares one axis1 parameter set,
        # so each gamma value builds its SystemParams once, not once per d_tilde
        spec = self.grid_spec(gamma_first=False)
        whole = run_sweep(spec)
        applied = []
        real = experiments._apply_axis
        monkeypatch.setattr(
            experiments, "_apply_axis", lambda p, lib, name, v: applied.append(name) or real(p, lib, name, v)
        )
        assert run_sweep(spec) == whole
        assert applied.count("gamma") == 16
        assert applied.count("d_tilde") == 20

    def test_monte_carlo_none_rows_estimated_once(self, monkeypatch):
        s = base_setup(size=10, slots=3)
        spec = SweepSpec(
            base=s, axis1=("d_tilde", (0.2, 0.5, 0.9)), variants=variants(s, "none", "pcp"),
            engines=("montecarlo",), mc=McBudget(4), seed=11,
        )
        calls = []
        real = experiments.estimate_outage
        monkeypatch.setattr(
            experiments, "estimate_outage", lambda queries, *a, **k: calls.append(queries) or real(queries, *a, **k)
        )
        rows = run_sweep(spec).rows
        # one call of distinct queries, in grid order: the none variant's one
        # distinct input, then pcp's three
        [queries] = calls
        assert len(queries) == len(set(queries)) == 1 + 3
        assert [(policy.value, library.cache_slots) for _, policy, library, _ in queries] == [
            ("ucp", 0), ("pcp", 2), ("pcp", 5), ("pcp", 9)
        ]
        [(_, alone)] = real(
            [(s.params, CachePolicy.UCP, ContentLibrary(10, 0), s.requests)], 11,
            budget=McBudget(4), workers=1,
        )
        none_rows = [(r.avg_outage, r.std_error) for r in rows if r.variant == "none"]
        assert none_rows == [(alone.mean, alone.std_error)] * 3

    def test_equal_variants_share_the_closed_form_and_the_monte_carlo_reads(self, monkeypatch):
        s = base_setup(size=10, slots=3)
        [ucp] = variants(s, "ucp")
        spec = SweepSpec(
            base=s, axis1=("d_tilde", (0.2, 0.5)), axis2=("beta", (0.05, 0.5)),
            variants=(ucp, ucp._replace(label="ucp:zipf")), engines=("analytic", "montecarlo"),
            mc=McBudget(4), seed=11,
        )
        row_inputs, calls, tasks = [], [], []
        real_average, real_estimate = experiments.average_outage, experiments.estimate_outage
        real_task = geometry_sim._realization_failures

        def estimate(queries, seed, **options):
            calls.append((queries, seed, real_estimate(queries, seed, **options)))
            return calls[-1][2]

        def task(networks, *args):
            tasks.append([reads for *_, cache_sets in networks for reads in cache_sets.values()])
            return real_task(networks, *args)

        monkeypatch.setattr(
            experiments, "average_outage", lambda *a: row_inputs.append(a[:4]) or real_average(*a)
        )
        monkeypatch.setattr(experiments, "estimate_outage", estimate)
        monkeypatch.setattr(geometry_sim, "_realization_failures", task)
        rows = run_sweep(spec).rows
        # one closed-form value per grid point, shared by both labels
        assert len(row_inputs) == 4 == len(set(row_inputs))
        # one call at the master seed, one query per grid point, shared by both
        # labels under the closed forms' keys
        [(queries, seed, estimates)] = calls
        assert list(queries) == row_inputs and seed == 11
        # each realization reads every point once, for both labels: four
        # cache sets of one read each
        assert len(tasks) == 4
        assert all(sorted(query for [(query, _)] in reads) == [0, 1, 2, 3] for reads in tasks)
        for label in ("ucp", "ucp:zipf"):
            mc_rows = [r for r in rows if (r.variant, r.engine) == (label, "montecarlo")]
            assert [(r.avg_outage, r.std_error) for r in mc_rows] == [
                (avg.mean, avg.std_error) for _, avg in estimates
            ]
        analytic_rows = {
            label: [(r.axes, r.avg_outage) for r in rows if (r.variant, r.engine) == (label, "analytic")]
            for label in ("ucp", "ucp:zipf")
        }
        assert analytic_rows["ucp"] == analytic_rows["ucp:zipf"]

    def test_errors_are_not_memoized(self, monkeypatch, tmp_path, capsys):
        message = "p_sbs is undefined: beta * subchannels_b == 0"
        s = base_setup()
        spec = SweepSpec(base=s, axis1=("beta", (0.0, 0.05)), variants=variants(s, "none", "pcp"))
        kernel_calls = []
        real = analytic.kernels
        monkeypatch.setattr(analytic, "kernels", lambda p: kernel_calls.append(p) or real(p))
        for attempt in (1, 2):
            with pytest.raises(ConfigError, match=re.escape(message)):
                run_sweep(spec)
            assert len(kernel_calls) == attempt  # the first row raises afresh every time
        spec_file = tmp_path / "beta.spec"
        spec_file.write_text(TestSpecFiles.SPEC_TEXT.replace("axis1 = lambda_sbs", "axis1 = beta")
                             .replace("axis1_values = 0.01, 0.05", "axis1_values = 0, 0.05"))
        assert main(["sweep", "--spec", str(spec_file), "--out", str(tmp_path / "out.csv")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()


class TestSharedFading:
    # the grid points of every variant read one fading stream per
    # realization; every Monte-Carlo row must equal the standalone estimate
    # of its point at the master seed
    GRIDS = {
        "lambda_sbs x beta": (("lambda_sbs", (0.01, 0.05)), ("beta", (0.05, 0.2))),
        "d_tilde x gamma": (("d_tilde", (0.2, 0.9)), ("gamma", (-10.0, 5.0))),
    }

    def spec(self, grid, realizations, workers):
        s = base_setup(size=10, slots=3)
        axis1, axis2 = self.GRIDS[grid]
        return SweepSpec(
            base=s, axis1=axis1, axis2=axis2, variants=variants(s, "none", "ucp", "pcp"),
            engines=("montecarlo",), mc=McBudget(realizations), seed=13, workers=workers,
        )

    # at one realization every row's standard error is None, as alone
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("realizations", [1, 3])
    @pytest.mark.parametrize("grid", list(GRIDS))
    def test_rows_equal_standalone_estimates(self, grid, realizations, workers):
        spec = self.spec(grid, realizations, workers)
        rows = run_sweep(spec).rows
        assert multiprocessing.active_children() == []
        for row in rows:
            variant = next(v for v in spec.variants if v.label == row.variant)
            params = spec.base.params
            library = ContentLibrary(10, 0) if variant.no_cache else spec.base.library
            for name, value in zip(spec.axis_names, row.axes):
                if name == "d_tilde":
                    library = library if variant.no_cache else ContentLibrary.from_normalized(value, 10)
                else:
                    params = replace(params, **{name: db_to_linear(value) if name == "gamma" else value})
            _, alone = geometry_sim.estimate_outage(
                params, variant.policy, library, variant.requests,
                window=geometry_sim.default_window(params, spec.mc.guard), realizations=realizations, seed=13,
            )
            assert (row.avg_outage, row.std_error) == (alone.mean, alone.std_error)


class TestCsvRoundTrip:
    def test_exact_round_trip(self, tmp_path):
        s = base_setup(size=10, slots=3)
        spec = SweepSpec(
            base=s, axis1=("d_tilde", (0.1, 0.3)), axis2=("beta", (0.05, 0.5)),
            variants=variants(s, "ucp", "pcp"), engines=("analytic", "montecarlo"),
            mc=McBudget(5), seed=11,
        )
        res = run_sweep(spec)
        path = tmp_path / "sweep.csv"
        res.write_csv(str(path))
        back = parse_sweep_csv(path.read_text())
        assert back == res  # floats serialized with 17 significant digits

    def test_header_layout(self):
        s = base_setup(size=4, slots=2)
        spec = SweepSpec(base=s, axis1=("d_tilde", (0.5,)), axis2=("beta", (0.1,)),
                         variants=variants(s, "pcp"))
        res = run_sweep(spec)
        assert res.to_csv_text().splitlines()[0] == "d_tilde,beta,policy,engine,avg_outage,std_error"


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
        spec = sweep_spec_from_config(parse_config_text(self.SPEC_TEXT), 0)
        assert spec.axis1 == ("lambda_sbs", (0.01, 0.05))
        assert spec.axis2 is None
        assert [v.label for v in spec.variants] == ["none", "ucp:uniform", "pcp:zipf"]
        assert spec.variants[0].no_cache
        assert not any(v.no_cache for v in spec.variants[1:])
        assert spec.variants[1].requests.skew == 0.0
        assert spec.variants[2].requests is spec.base.requests

    def test_seed_override(self):
        # the spec builder reads no seed key: the CLI resolves the seed first
        text = self.SPEC_TEXT.replace("seed = 4", "seed = x")
        assert sweep_spec_from_config(parse_config_text(text), seed=99).seed == 99
        with pytest.raises(TypeError):
            sweep_spec_from_config(parse_config_text(self.SPEC_TEXT))

    def test_axis2_values_without_axis2(self):
        text = self.SPEC_TEXT + "\naxis2_values = 1, 2\n"
        with pytest.raises(ConfigError, match="axis2"):
            sweep_spec_from_config(parse_config_text(text), 0)

    def test_missing_variants(self):
        text = self.SPEC_TEXT.replace("variants = none, ucp:uniform, pcp:zipf", "")
        with pytest.raises(ConfigError, match="variants"):
            sweep_spec_from_config(parse_config_text(text), 0)

    def test_unknown_variant_token(self):
        text = self.SPEC_TEXT.replace("none, ucp:uniform, pcp:zipf", "lfu")
        with pytest.raises(ConfigError, match="lfu"):
            sweep_spec_from_config(parse_config_text(text), 0)

    @pytest.mark.parametrize(
        "tokens, named",
        [("pcp, pcp", "'pcp'"), ("ucp, UCP", "'ucp'"), ("ucp:zipf, Ucp:Zipf", "'ucp:zipf'")],
    )
    def test_repeated_variant_token_refused(self, tokens, named):
        text = self.SPEC_TEXT.replace("none, ucp:uniform, pcp:zipf", tokens)
        with pytest.raises(ConfigError, match=f"variant {named} is given more than once"):
            sweep_spec_from_config(parse_config_text(text), 0)

    def test_distinct_variant_labels_kept(self):
        text = self.SPEC_TEXT.replace("none, ucp:uniform, pcp:zipf", "ucp, ucp:zipf")
        spec = sweep_spec_from_config(parse_config_text(text), 0)
        assert [v.label for v in spec.variants] == ["ucp", "ucp:zipf"]

    def test_bundled_specs_load(self):
        fig3 = sweep_spec_from_config(_load_config("fig3.spec"), 0)
        assert fig3.axis1[0] == "d_tilde" and fig3.axis2[0] == "beta"
        assert {v.label for v in fig3.variants} == {"ucp", "pcp"}
        fig4 = sweep_spec_from_config(_load_config("fig4.spec"), 0)
        assert fig4.axis1[0] == "gamma"
        assert [v.label for v in fig4.variants] == ["none", "ucp:zipf", "pcp:zipf"]


class TestSharedPool:
    MC_SPEC = TestSpecFiles.SPEC_TEXT.replace(
        "engines = analytic", "engines = analytic, montecarlo\n        realizations = 4"
    )

    def mc_spec(self, workers):
        s = base_setup(size=10, slots=3)
        return SweepSpec(
            base=s, axis1=("lambda_sbs", (0.02, 0.05)), variants=variants(s, "pcp", "ucp"),
            engines=("analytic", "montecarlo"), mc=McBudget(6), seed=7, workers=workers,
        )

    def run_cli_sweep(self, tmp_path, text, *flags):
        spec = tmp_path / "mc.spec"
        spec.write_text(text)
        return main(["sweep", "--spec", str(spec), "--out", str(tmp_path / "out.csv"), *flags])

    def test_monte_carlo_rows_share_one_pool(self, usable_cpus, recorded_pools, pool_at_any_work):
        usable_cpus(2)
        pooled = run_sweep(self.mc_spec(workers=2))
        assert [pool.max_workers for pool in recorded_pools] == [2]
        assert recorded_pools[0].shut_down
        assert pooled == run_sweep(self.mc_spec(workers=1))
        assert len(recorded_pools) == 1  # the serial sweep opened none

    def test_reads_count_toward_the_pool_threshold(self, monkeypatch, usable_cpus, recorded_pools):
        # fig4's gamma axis at 160 realizations: 21 reads of one network,
        # whose points alone (1.01e4 per realization) sit below the
        # threshold; each read's pass over the network's gains adds a
        # quarter of them, and a pool pays
        usable_cpus(2)
        spec = sweep_spec_from_config(_load_config("fig4.spec"), 1)
        spec = replace(spec, engines=("analytic", "montecarlo"), workers=2, mc=replace(spec.mc, realizations=160))
        point = spec.base.params, spec.base.library, geometry_sim.default_window(spec.base.params, spec.mc.guard)
        points = geometry_sim._point_load(*point)[0]
        assert spec.mc.realizations * points < geometry_sim.POOL_MIN_WORK
        assert spec.mc.realizations * (points + 21 * (points + 100) / 4) >= geometry_sim.POOL_MIN_WORK
        monkeypatch.setattr(geometry_sim, "_realization_failures",
                            lambda *args: [np.zeros(100, dtype=int)] * 21)
        assert len(run_sweep(spec).rows) == 42
        assert [pool.max_workers for pool in recorded_pools] == [2]

    def test_real_pool_matches_serial_and_leaves_no_worker(self, pool_at_any_work):
        pooled = run_sweep(self.mc_spec(workers=2))
        assert multiprocessing.active_children() == []
        assert pooled == run_sweep(self.mc_spec(workers=1))

    def test_pool_shut_down_when_a_row_raises(
        self, monkeypatch, usable_cpus, recorded_pools, pool_at_any_work, tmp_path, capsys
    ):
        # the pcp:zipf caches raise in a task that the pool maps
        usable_cpus(2)
        real = geometry_sim._caches

        def caches(policy, *args):
            if policy is CachePolicy.PCP:
                raise RuntimeError("sampling failed")
            return real(policy, *args)

        monkeypatch.setattr(geometry_sim, "_caches", caches)
        assert self.run_cli_sweep(tmp_path, self.MC_SPEC, "--workers", "2") == 1
        assert "sampling failed" in capsys.readouterr().err
        assert [pool.max_workers for pool in recorded_pools] == [2]
        assert recorded_pools[0].shut_down

    def test_bad_point_refused_before_any_work(self, monkeypatch, usable_cpus, recorded_pools, tmp_path, capsys):
        # the second lambda_sbs expects 1e9 points in the window, over the
        # simulator's budget: refused before any row, realization or pool
        usable_cpus(2)
        calls = []
        monkeypatch.setattr(geometry_sim, "_squared_distances", lambda *a, **k: calls.append(a))
        real = experiments.average_outage
        monkeypatch.setattr(experiments, "average_outage", lambda *a: calls.append(a) or real(*a))
        text = self.MC_SPEC.replace("axis1_values = 0.01, 0.05", "axis1_values = 0.01, 20000")
        assert self.run_cli_sweep(tmp_path, text, "--workers", "2") == 2
        assert "budget" in capsys.readouterr().err
        assert calls == []
        assert recorded_pools == []
        assert not (tmp_path / "out.csv").exists()

    def test_closed_form_refusal_before_any_realization(self, monkeypatch, usable_cpus, recorded_pools, tmp_path, capsys):
        # beta = 0 leaves p_sbs undefined: the kernels refuse it before the
        # Monte-Carlo call samples anything or opens a pool
        usable_cpus(2)
        calls = []
        monkeypatch.setattr(geometry_sim, "_squared_distances", lambda *a, **k: calls.append(a))
        text = self.MC_SPEC.replace("axis1 = lambda_sbs", "axis1 = beta")
        text = text.replace("axis1_values = 0.01, 0.05", "axis1_values = 0, 0.05")
        assert self.run_cli_sweep(tmp_path, text, "--workers", "2") == 2
        assert "p_sbs is undefined" in capsys.readouterr().err
        assert calls == []
        assert recorded_pools == []
        assert not (tmp_path / "out.csv").exists()

    def test_analytic_sweep_opens_no_pool(self, usable_cpus, recorded_pools):
        usable_cpus(2)
        spec = sweep_spec_from_config(parse_config_text(TestSpecFiles.SPEC_TEXT), 0, workers=2)
        run_sweep(spec)
        assert recorded_pools == []

    @pytest.mark.parametrize("key", ["realizations", "trials_per_content"])
    def test_bad_budget_refused_before_any_row(self, monkeypatch, tmp_path, capsys, key):
        calls = []
        real = experiments.average_outage
        monkeypatch.setattr(experiments, "average_outage", lambda *a: calls.append(a) or real(*a))
        text = self.MC_SPEC.replace("realizations = 4", f"{key} = 0")
        assert self.run_cli_sweep(tmp_path, text, "--workers", "2") == 2
        message = "realizations must be >= 1" if key == "realizations" else "trials_per_content must be 1, got 0"
        assert message in capsys.readouterr().err
        assert calls == []
        assert not (tmp_path / "out.csv").exists()


PLAIN_RECORDS = {
    "InterferenceKernels": (analytic.InterferenceKernels, dict(k1=0.5, k2=0.25, k3=0.25, k4=0.125)),
    "OutageBreakdown": (
        analytic.OutageBreakdown,
        dict(p_hit_sbs=0.1, p_hit_mbs=0.9, p_out_sbs=0.2, p_out_mbs=0.3, p_out_total=0.4),
    ),
    "Variant": (
        Variant,
        dict(label="none", policy=CachePolicy.UCP, requests=zipf_request_distribution(10, 0.8), no_cache=True),
    ),
    "SweepRow": (
        experiments.SweepRow,
        dict(axes=(0.1, -10.0), variant="pcp", engine="analytic", avg_outage=0.5, std_error=None),
    ),
    "SweepResult": (
        SweepResult,
        dict(
            axis_names=("beta",),
            rows=(experiments.SweepRow((0.1,), "ucp", "montecarlo", 0.5, 0.01),),
        ),
    ),
    "McEstimate": (geometry_sim.McEstimate, dict(mean=0.5, std_error=0.05, trials=100)),
    "ServiceOutcome": (
        geometry_sim.ServiceOutcome,
        dict(tier=geometry_sim.Tier.SBS, server_distance=2.5, sir=3.0, success=True),
    ),
}


@pytest.mark.parametrize("name", sorted(PLAIN_RECORDS))
def test_plain_records_keep_keywords_attributes_and_equality(name):
    record, values = PLAIN_RECORDS[name]
    built = record(**values)
    assert {field: getattr(built, field) for field in values} == values
    assert built == record(**values) and hash(built) == hash(record(**values))
    first = next(iter(values))
    assert built != record(**{**values, first: None})
    with pytest.raises(AttributeError):
        setattr(built, first, None)
    # NamedTuple semantics: iterable, and equal to the plain tuple of its values
    assert tuple(built) == tuple(values.values()) == built
    assert not {"count", "index"} & set(record._fields)
