import ast
import codecs
import importlib
import importlib.resources
import json
import math
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from hetcache import (
    CachePolicy,
    experiments,
    geometry_sim,
    parse_config_text,
    replication_probability,
    setup_from_config,
    total_outage,
)
from hetcache.cli import POINT_KEYS, SWEEP_FILE_KEYS, _check_unknown_keys, _load_config, main
from hetcache.experiments import MC_KEYS, McBudget

from oracles import parse_sweep_csv, traced_peak

SMALL_CFG = """
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
realizations = 20
seed = 3
"""

SMALL_SPEC = """
lambda_mbs = 0.0001
lambda_sbs = 0.2
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
axis1 = d_tilde
axis1_values = 0.2, 1.0
axis2 = beta
axis2_values = 0.05, 1.0
variants = ucp, pcp
engines = analytic
"""


@pytest.fixture
def small_cfg(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text(SMALL_CFG)
    return str(path)


@pytest.fixture
def small_spec(tmp_path):
    path = tmp_path / "small.spec"
    path.write_text(SMALL_SPEC)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyticCommand:
    def test_json_contract(self, capsys, small_cfg):
        code, out, _ = run_cli(capsys, "analytic", "--config", small_cfg, "--content-rank", "1")
        assert code == 0
        payload = json.loads(out)
        assert list(payload) == ["p_hit_sbs", "p_hit_mbs", "p_out_sbs", "p_out_mbs", "p_out_total"]
        setup = setup_from_config(_load_config(small_cfg))
        p_c = replication_probability(setup.policy, 1, setup.library)
        expect = total_outage(setup.params, p_c)
        assert payload["p_out_total"] == expect.p_out_total

    def test_uncached_rank(self, capsys, small_cfg):
        code, out, _ = run_cli(capsys, "analytic", "--config", small_cfg, "--content-rank", "5")
        assert code == 0
        payload = json.loads(out)
        assert payload["p_hit_sbs"] == 0.0
        assert payload["p_out_sbs"] == 1.0

    def test_bundled_config_by_name(self, capsys):
        code, out, _ = run_cli(capsys, "analytic", "--config", "fig2.cfg")
        assert code == 0
        assert 0.0 <= json.loads(out)["p_out_total"] <= 1.0


class TestSimulateCommand:
    def test_payload_shape(self, capsys, small_cfg):
        code, out, _ = run_cli(capsys, "simulate", "--config", small_cfg, "--seed", "7")
        assert code == 0
        payload = json.loads(out)
        assert payload["average"]["seed"] == 7
        assert payload["average"]["trials"] == 20 * 5
        assert len(payload["per_content"]) == 5
        mean = payload["per_content"][0]["mean"]
        assert 0.0 <= mean <= 1.0

    def test_seed_repeatability_bytes(self, capsys, small_cfg):
        _, out1, _ = run_cli(capsys, "simulate", "--config", small_cfg, "--seed", "7")
        _, out2, _ = run_cli(capsys, "simulate", "--config", small_cfg, "--seed", "7")
        assert out1 == out2

    def test_worker_count_does_not_change_output(self, capsys, small_cfg):
        _, out1, _ = run_cli(capsys, "simulate", "--config", small_cfg, "--seed", "7")
        _, out2, _ = run_cli(capsys, "simulate", "--config", small_cfg, "--seed", "7",
                             "--workers", "3")
        assert out1 == out2

    def test_env_seed_used_and_flag_wins(self, capsys, small_cfg, monkeypatch):
        monkeypatch.setenv("HETCACHE_SEED", "11")
        _, out_env, _ = run_cli(capsys, "simulate", "--config", small_cfg)
        assert json.loads(out_env)["average"]["seed"] == 11
        _, out_flag, _ = run_cli(capsys, "simulate", "--config", small_cfg, "--seed", "7")
        assert json.loads(out_flag)["average"]["seed"] == 7

    def test_config_seed_is_fallback(self, capsys, small_cfg, monkeypatch):
        monkeypatch.delenv("HETCACHE_SEED", raising=False)
        _, out, _ = run_cli(capsys, "simulate", "--config", small_cfg)
        assert json.loads(out)["average"]["seed"] == 3

    def test_bad_env_seed(self, capsys, small_cfg, monkeypatch):
        monkeypatch.setenv("HETCACHE_SEED", "not-a-number")
        code, _, err = run_cli(capsys, "simulate", "--config", small_cfg)
        assert code == 2
        assert "HETCACHE_SEED" in err


class TestSweepCommand:
    def test_writes_csv_with_contract_header(self, capsys, small_spec, tmp_path):
        out_path = tmp_path / "out.csv"
        code, out, _ = run_cli(capsys, "sweep", "--spec", small_spec, "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "d_tilde,beta,policy,engine,avg_outage,std_error"
        assert len(lines) == 1 + 2 * 2 * 2  # grid 2x2, two variants, one engine
        assert str(out_path) in out

    def test_csv_round_trips(self, capsys, small_spec, tmp_path):
        out_path = tmp_path / "out.csv"
        run_cli(capsys, "sweep", "--spec", small_spec, "--out", str(out_path))
        table = parse_sweep_csv(out_path.read_text())
        assert table.axis_names == ("d_tilde", "beta")
        for row in table.rows:
            assert 0.0 <= row.avg_outage <= 1.0
            assert row.std_error is None  # analytic engine
        round_tripped = parse_sweep_csv(table.to_csv_text())
        assert round_tripped == table

    def test_full_cache_columns_identical(self, capsys, small_spec, tmp_path):
        out_path = tmp_path / "out.csv"
        run_cli(capsys, "sweep", "--spec", small_spec, "--out", str(out_path))
        table = parse_sweep_csv(out_path.read_text())
        for beta in (0.05, 1.0):
            pair = {r.variant: r.avg_outage for r in table.rows if r.axes == (1.0, beta)}
            assert pair["ucp"] == pair["pcp"]


class TestExitCodes:
    def test_unknown_key_named_and_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text(SMALL_CFG + "\nbogus_key = 1\n")
        code, _, err = run_cli(capsys, "analytic", "--config", str(bad))
        assert code == 2
        assert "bogus_key" in err

    def test_malformed_value_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text(SMALL_CFG.replace("alpha = 4", "alpha = four"))
        code, _, err = run_cli(capsys, "analytic", "--config", str(bad))
        assert code == 2
        assert "alpha" in err

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "analytic", "--config", "does-not-exist.cfg")
        assert code == 2
        assert "does-not-exist.cfg" in err

    @pytest.mark.parametrize("command", ["analytic", "sweep"])
    def test_missing_path_with_a_directory_does_not_run_the_bundled_file(
        self, capsys, tmp_path, monkeypatch, command
    ):
        # only a bare file name may name a bundled example; the directory
        # part may be absolute or relative
        monkeypatch.chdir(tmp_path)
        if command == "analytic":
            path = str(tmp_path / "no" / "such" / "dir" / "fig2.cfg")
            args = ["analytic", "--config", path]
        else:
            path = os.path.join(".", "typo", "fig4.spec")
            args = ["sweep", "--spec", path, "--out", "x.csv"]
        code, out, err = run_cli(capsys, *args)
        assert code == 2
        assert out == ""
        assert f"config file not found: {path}" in err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("kind", ["directory", "binary"])
    def test_unreadable_config_named_and_exit_2(self, capsys, tmp_path, kind):
        path = tmp_path / "fig2.cfg"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"alpha = 4\n\xff\xfe\x00\x81\n")
        code, out, err = run_cli(capsys, "analytic", "--config", str(path))
        assert code == 2
        assert out == ""
        assert str(path) in err

    @pytest.mark.parametrize("first_line", ["comment", "key"])
    def test_byte_order_mark_reads_as_the_plain_file(self, capsys, tmp_path, first_line):
        text = importlib.resources.files("hetcache").joinpath("configs", "fig2.cfg").read_text()
        if first_line == "key":
            text = "\n".join(line for line in text.splitlines() if not line.startswith("#"))
        plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(codecs.BOM_UTF8)
        code, out, _ = run_cli(capsys, "analytic", "--config", str(plain))
        assert code == 0
        assert run_cli(capsys, "analytic", "--config", str(marked)) == (0, out, "")

    def test_unknown_flag_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "analytic", "--config", "fig2.cfg", "--frobnicate")
        assert code == 2

    @pytest.mark.parametrize("key", ["lambda_sbs", "r_mbs"])
    def test_infinite_value_named_and_exit_2(self, capsys, tmp_path, key):
        bad = tmp_path / "bad.cfg"
        bad.write_text("\n".join(
            f"{key} = inf" if line.startswith(f"{key} =") else line for line in SMALL_CFG.splitlines()
        ))
        for command in ("analytic", "simulate"):
            code, _, err = run_cli(capsys, command, "--config", str(bad))
            assert code == 2
            assert key in err

    @pytest.mark.parametrize(
        "command, r_mbs, named",
        [("analytic", "1e200", "r_mbs"), ("simulate", "1e200", "r_mbs"),
         ("simulate", "7e153", "window side")],
    )
    def test_overflowing_area_named_and_exit_2(self, capsys, tmp_path, command, r_mbs, named):
        # pi * r_mbs^2 overflows a float at 1e200; at 7e153 only the area of
        # the default window, (2 * (r_mbs + guard))^2, does
        bad = tmp_path / "bad.cfg"
        bad.write_text(SMALL_CFG.replace("r_mbs = 250", f"r_mbs = {r_mbs}"))
        code, out, err = run_cli(capsys, command, "--config", str(bad))
        assert code == 2
        assert out == ""
        assert named in err

    def test_monte_carlo_refuses_several_subchannels(self, capsys, tmp_path):
        cfg = tmp_path / "b2.cfg"
        cfg.write_text(SMALL_CFG + "\nsubchannels_b = 2\n")
        code, _, err = run_cli(capsys, "simulate", "--config", str(cfg))
        assert code == 2
        assert "subchannels_b" in err
        code, out, _ = run_cli(capsys, "analytic", "--config", str(cfg))
        assert code == 0
        assert 0.0 <= json.loads(out)["p_out_total"] <= 1.0

    def test_overflowing_db_value_named_and_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text(SMALL_CFG.replace("gamma = -10", "gamma = 4000"))
        code, _, err = run_cli(capsys, "analytic", "--config", str(bad))
        assert code == 2
        assert "gamma" in err

    def test_overflowing_gamma_axis_value_exit_2(self, capsys, tmp_path):
        spec = tmp_path / "gamma.spec"
        spec.write_text(
            SMALL_SPEC.replace("axis1 = d_tilde", "axis1 = gamma")
            .replace("axis1_values = 0.2, 1.0", "axis1_values = -10, 4000")
        )
        out_path = tmp_path / "out.csv"
        code, _, err = run_cli(capsys, "sweep", "--spec", str(spec), "--out", str(out_path))
        assert code == 2
        assert "gamma" in err
        assert not out_path.exists()

    def test_repeated_axis_exit_2(self, capsys, tmp_path):
        spec = tmp_path / "gamma2.spec"
        spec.write_text(
            SMALL_SPEC.replace("axis1 = d_tilde", "axis1 = gamma")
            .replace("axis1_values = 0.2, 1.0", "axis1_values = -10, 0")
            .replace("axis2 = beta", "axis2 = gamma")
            .replace("axis2_values = 0.05, 1.0", "axis2_values = -5")
        )
        out_path = tmp_path / "out.csv"
        code, _, err = run_cli(capsys, "sweep", "--spec", str(spec), "--out", str(out_path))
        assert code == 2
        assert "axis 'gamma' is given as both axis1 and axis2" in err
        assert not out_path.exists()

    @pytest.mark.parametrize(
        "out, named", [("missing/x.csv", "missing"), ("existing", "existing")]
    )
    def test_unwritable_output_refused_before_any_row(
        self, capsys, small_spec, tmp_path, monkeypatch, out, named
    ):
        # a missing directory, or an existing directory given as the output file
        (tmp_path / "existing").mkdir()
        calls = []
        monkeypatch.setattr(experiments, "average_outage", lambda *a: calls.append(a))
        code, stdout, err = run_cli(
            capsys, "sweep", "--spec", small_spec, "--out", str(tmp_path / out)
        )
        assert code == 2
        assert stdout == ""
        assert str(tmp_path / named) in err
        assert calls == []
        assert not (tmp_path / "missing").exists()

    @pytest.mark.parametrize("out", ["", "sub/"])
    def test_output_naming_no_file_refused_before_any_row(
        self, capsys, small_spec, tmp_path, monkeypatch, out
    ):
        # raw strings: a path object would drop the trailing slash
        monkeypatch.chdir(tmp_path)
        calls = []
        monkeypatch.setattr(experiments, "average_outage", lambda *a: calls.append(a))
        code, stdout, err = run_cli(capsys, "sweep", "--spec", small_spec, "--out", out)
        assert code == 2
        assert stdout == ""
        assert "--out" in err
        assert calls == []
        assert [path.name for path in tmp_path.iterdir()] == ["small.spec"]

    # an out-of-scale window, and 10000001 ranks: one uniform per rank and
    # realization, one over the budget
    @pytest.mark.parametrize("key, value", [("r_mbs", "1e7"), ("library_size", "10000001")])
    def test_over_a_simulator_budget_refused_before_sampling(self, capsys, tmp_path, key, value):
        text = _load_config("fig2.cfg") | {key: value, "realizations": "1"}
        cfg = tmp_path / "wide.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in text.items()))
        code, _, err = run_cli(capsys, "simulate", "--config", str(cfg))
        assert code == 2
        assert "budget" in err and key in err

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_realizations_beyond_the_stream_spacing_refused_before_sampling(
        self, capsys, tmp_path, monkeypatch, command
    ):
        # realization r reads its streams advanced by r * 2^64 draws, which
        # wrap at r = 2^64: 2^64 realizations are refused, naming the key,
        # before any realization or sweep row
        calls = []
        monkeypatch.setattr(experiments, "average_outage", lambda *a: calls.append(a))
        monkeypatch.setattr(geometry_sim, "_squared_distances", lambda *a, **k: calls.append(a))
        path, out_path = tmp_path / "input.txt", tmp_path / "out.csv"
        path.write_text(_with_value(MC_SPEC if command == "sweep" else SMALL_CFG, "realizations", str(2**64)))
        source = ["--spec", str(path), "--out", str(out_path)] if command == "sweep" else ["--config", str(path)]
        code, out, err = run_cli(capsys, command, *source)
        assert (code, out) == (2, "")
        assert "realizations must be below 2**64" in err
        assert calls == []
        assert not out_path.exists()

    def test_oversized_cache_matrix_refused_before_sampling(self, capsys, tmp_path, monkeypatch):
        # beta = 1 and r_sbs = 200 m put ~2.5e4 SBSs within r_sbs: ~2.5e8 UCP
        # cache entries (~2 GB of scores), though the window holds ~2e5 points
        calls = []
        monkeypatch.setattr(geometry_sim, "_squared_distances", lambda *a, **k: calls.append(a))
        text = _load_config("fig2.cfg") | {
            "beta": "1", "r_sbs": "200", "library_size": "10000", "policy": "ucp", "realizations": "1",
        }
        cfg = tmp_path / "caches.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in text.items()))
        (code, out, err), peak = traced_peak(lambda: run_cli(capsys, "simulate", "--config", str(cfg)))
        assert code == 2
        assert out == ""
        assert "budget" in err and "r_sbs" in err
        assert calls == []
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("command, guard", [("sweep", "-5"), ("simulate", "inf")])
    def test_bad_guard_named_and_exit_2(self, capsys, tmp_path, command, guard):
        # an analytic-only sweep never opens a window, yet refuses the margin too
        path = tmp_path / "guard.txt"
        path.write_text((SMALL_SPEC if command == "sweep" else SMALL_CFG) + f"guard = {guard}\n")
        out_path = tmp_path / "out.csv"
        if command == "sweep":
            source_args = ["--spec", str(path), "--out", str(out_path)]
        else:
            source_args = ["--config", str(path)]
        code, out, err = run_cli(capsys, command, *source_args)
        assert code == 2
        assert out == ""
        assert "guard" in err
        assert not out_path.exists()

    @pytest.mark.parametrize("rank", ["0", "99"])
    def test_invalid_rank_exit_2(self, capsys, small_cfg, rank):
        code, out, err = run_cli(capsys, "analytic", "--config", small_cfg, "--content-rank", rank)
        assert code == 2
        assert out == ""
        assert "rank" in err


def test_import_loads_neither_scipy_nor_the_process_pool():
    # numpy stays out too: only the Monte-Carlo engine loads it. Import and
    # setup load only the configuration layer; the CLI adds the closed forms
    # and the sweeps, and the simulator loads on first use
    heavy = (
        "sorted(m for m in sys.modules "
        "if m.split('.')[0] in ('scipy', 'numpy') or m == 'concurrent.futures.process')"
    )
    engines = (
        "sorted(m for m in sys.modules "
        "if m in ('hetcache.analytic', 'hetcache.experiments', 'hetcache.geometry_sim'))"
    )
    cfg = importlib.resources.files("hetcache").joinpath("configs", "fig2.cfg").read_text()
    probe = (
        "import json, sys, hetcache; "
        f"hetcache.setup_from_config(hetcache.parse_config_text({cfg!r})); "
        f"print(json.dumps([{heavy}, {engines}])); "
        f"import hetcache.cli; print(json.dumps([{heavy}, {engines}]))"
    )
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    assert [json.loads(line) for line in out.stdout.splitlines()] == [
        [[], []],
        [[], ["hetcache.analytic", "hetcache.experiments"]],
    ]


def test_cli_import_loads_neither_json_nor_importlib_resources():
    # -S keeps site hooks from preloading either module; the child reports
    # with print, so its report imports neither
    import hetcache

    probe = (
        "import sys, hetcache.cli; "
        "print(sorted({'json', 'importlib.resources'} & set(sys.modules)))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(hetcache.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout == "[]\n"


def test_closed_form_commands_run_without_numpy(tmp_path):
    # sys.modules["numpy"] = None makes every numpy import fail in the child;
    # an analytic sweep loads neither the simulator nor the process pool,
    # even at two workers
    commands = [
        ["analytic", "--config", "fig2.cfg"],
        ["sweep", "--spec", "fig3.spec", "--out", str(tmp_path / "fig3.csv"), "--workers", "2"],
        ["sweep", "--spec", "fig4.spec", "--out", str(tmp_path / "fig4.csv")],
    ]
    probe = (
        "import json, sys; sys.modules['numpy'] = None; "
        "from hetcache.cli import main; "
        f"codes = [main(argv) for argv in {commands!r}]; "
        "print(json.dumps([codes, sorted({'concurrent.futures.process', 'hetcache.geometry_sim'} "
        "& set(sys.modules))]))"
    )
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    assert json.loads(out.stdout.strip().splitlines()[-1]) == [[0, 0, 0], []]
    assert len(parse_sweep_csv((tmp_path / "fig3.csv").read_text()).rows) == 154


def test_small_monte_carlo_runs_load_no_pool_and_no_numpy_ma(tmp_path):
    # a small simulate and the mc-sparse-pool benchmark sweep, both at two
    # workers, expect too little work for a pool: they load neither the pool
    # nor multiprocessing, nor numpy.ma (which np.unique would load)
    config = tmp_path / "small.cfg"
    config.write_text(SMALL_CFG)
    sparse = Path(__file__).parent / "golden" / "mc_sparse_pool_1401.spec"
    commands = [
        ["simulate", "--config", str(config), "--workers", "2"],
        ["sweep", "--spec", str(sparse), "--out", str(tmp_path / "sparse.csv"), "--workers", "2"],
    ]
    probe = (
        "import json, sys; from hetcache.cli import main; "
        f"codes = [main(argv) for argv in {commands!r}]; "
        "print(json.dumps([codes, sorted({'numpy.ma', 'concurrent.futures.process', 'multiprocessing'} "
        "& set(sys.modules))]))"
    )
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    assert json.loads(out.stdout.strip().splitlines()[-1]) == [[0, 0], []]
    assert len(parse_sweep_csv((tmp_path / "sparse.csv").read_text()).rows) == 12


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task to count threads")
@pytest.mark.parametrize("preset,expected", [(None, "1"), ("3", "3")])
def test_monte_carlo_command_runs_one_blas_thread_unless_the_caller_sets_it(tmp_path, preset, expected):
    # the CLI defaults OPENBLAS_NUM_THREADS to 1 before numpy loads, so a
    # Monte-Carlo command runs one OS thread; a caller's own value is kept.
    # In-process main() calls set the variable in this process too, so the
    # child's environment is built here, not inherited
    config = tmp_path / "small.cfg"
    config.write_text(SMALL_CFG)
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    probe = (
        "import json, os, sys; from hetcache.cli import main; "
        f"code = main(['simulate', '--config', {str(config)!r}]); "
        "assert 'numpy' in sys.modules; "
        "print(json.dumps([code, os.environ.get('OPENBLAS_NUM_THREADS'), len(os.listdir('/proc/self/task'))]))"
    )
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=env)
    code, value, threads = json.loads(out.stdout.strip().splitlines()[-1])
    assert (code, value) == (0, expected)
    if preset is None:
        assert threads == 1


def test_library_calls_leave_the_blas_threads_alone(monkeypatch):
    # only the CLI entry sets the variable: a program that imports hetcache
    # keeps its own BLAS setting
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    setup = setup_from_config(parse_config_text(SMALL_CFG))
    geometry_sim.estimate_outage(setup.params, setup.policy, setup.library, setup.requests, realizations=2)
    assert "OPENBLAS_NUM_THREADS" not in os.environ


def test_lazy_names_resolve_from_the_package():
    import hetcache

    assert set(hetcache._LAZY.values()) == {"analytic", "experiments", "geometry_sim"}
    for name, module in sorted(hetcache._LAZY.items()):
        defining = importlib.import_module(f"hetcache.{module}")
        assert getattr(hetcache, name) is getattr(defining, name), name
        assert getattr(hetcache, module) is defining
        assert {name, module} <= set(dir(hetcache))
    from hetcache import average_outage, estimate_outage, run_sweep

    assert average_outage is hetcache.analytic.average_outage and run_sweep is experiments.run_sweep
    assert estimate_outage is geometry_sim.estimate_outage  # not the wrapper in experiments
    assert geometry_sim.DEFAULT_GUARD == hetcache.params.DEFAULT_GUARD
    with pytest.raises(AttributeError):
        hetcache.no_such_name


MC_SPEC = SMALL_CFG.replace("realizations = 20", "realizations = 2") + (
    "axis1 = gamma\naxis1_values = -10, 0\nvariants = pcp\nengines = analytic, montecarlo\n"
)


def test_benchmark_span_targets_resolve_and_record(tmp_path):
    # perfbench/spans.py times calls by replacing module attributes named in
    # its TARGETS; on a fresh import every target must resolve, and the
    # Monte-Carlo calls of simulate and sweep must go through the patched names
    # (a task samples its networks without realize_network, which the
    # benchmark times on its own)
    spans_py = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
    cfg, spec = tmp_path / "small.cfg", tmp_path / "mc.spec"
    cfg.write_text(SMALL_CFG)
    spec.write_text(MC_SPEC.replace("variants = pcp", "variants = ucp, pcp"))
    commands = [
        ["simulate", "--config", str(cfg)],
        ["sweep", "--spec", str(spec), "--out", str(tmp_path / "out.csv")],
    ]
    probe = f"""
import importlib.util, json, sys
loader = importlib.util.spec_from_file_location("spans", {str(spans_py)!r})
spans = importlib.util.module_from_spec(loader)
loader.loader.exec_module(spans)
import hetcache, hetcache.cli
missing = [[m, a] for m, a, _ in spans.TARGETS if not hasattr(getattr(hetcache, m, None), a)]
codes, calls = [], {{}}
if not missing:
    recorder = spans.SpanRecorder()
    recorder.install(hetcache)
    codes = [hetcache.cli.main(argv) for argv in {commands!r}]
    calls = {{name: s["calls"] for name, s in spans.summarize(recorder.spans).items()}}
print(json.dumps([missing, codes, calls]))
"""
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    missing, codes, calls = json.loads(out.stdout.strip().splitlines()[-1])
    assert missing == []
    assert codes == [0, 0]
    # one call for simulate and one for the sweep, whatever its variants
    assert calls["geometry_sim.estimate_outage"] == 1 + 1
    # a call builds each stream it reads once, whatever the realizations,
    # networks, policies and thresholds that read it: the geometry and
    # fading streams of simulate, then of the sweep; PCP draws no cache, and
    # no SBS lies within r_sbs here, so UCP opens no caches stream either
    assert calls["geometry_sim.stream_rng"] == 2 + 2
    assert calls["analytic.average_outage"] == 2 * 2


def test_commands_run_without_scipy(tmp_path):
    # sys.modules["scipy"] = None makes every scipy import fail in the child
    spec = tmp_path / "fig3_alpha35.spec"
    bundled = importlib.resources.files("hetcache").joinpath("configs", "fig3.spec").read_text()
    assert "\nalpha = 4\n" in bundled
    spec.write_text(bundled.replace("\nalpha = 4\n", "\nalpha = 3.5\n"))
    small = tmp_path / "small.cfg"
    small.write_text(SMALL_CFG)
    commands = [
        ["analytic", "--config", "fig2.cfg"],
        ["sweep", "--spec", str(spec), "--out", str(tmp_path / "out.csv")],
        ["simulate", "--config", str(small), "--seed", "7"],
    ]
    probe = (
        "import json, sys; sys.modules['scipy'] = None; "
        "from hetcache.cli import main; "
        f"codes = [main(argv) for argv in {commands!r}]; "
        "print(json.dumps([codes, 'concurrent.futures.process' in sys.modules]))"
    )
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    assert json.loads(out.stdout.strip().splitlines()[-1]) == [[0, 0, 0], False]
    assert len(parse_sweep_csv((tmp_path / "out.csv").read_text()).rows) == 154


@pytest.mark.parametrize("command", ["simulate", "sweep"])
@pytest.mark.parametrize("workers", ["0", "-2"])
def test_fewer_than_one_worker_exit_2(capsys, small_cfg, small_spec, tmp_path, command, workers):
    if command == "simulate":
        source = ["--config", small_cfg]
    else:
        source = ["--spec", small_spec, "--out", str(tmp_path / "out.csv")]
    code, out, err = run_cli(capsys, command, *source, "--workers", workers)
    assert code == 2
    assert out == ""
    assert "workers must be >= 1" in err


@pytest.mark.parametrize("command", ["simulate", "sweep"])
@pytest.mark.parametrize("source", ["flag", "environment", "config"])
def test_negative_seed_exit_2(capsys, monkeypatch, tmp_path, command, source):
    calls = []
    monkeypatch.setattr(geometry_sim, "_squared_distances", lambda *a, **k: calls.append(a))
    monkeypatch.delenv("HETCACHE_SEED", raising=False)
    text = SMALL_CFG if command == "simulate" else MC_SPEC
    assert "\nseed = 3\n" in text
    flags = []
    if source == "flag":
        flags = ["--seed", "-3"]
    elif source == "environment":
        monkeypatch.setenv("HETCACHE_SEED", "-3")
    else:
        text = text.replace("\nseed = 3\n", "\nseed = -3\n")
    path = tmp_path / "input.txt"
    path.write_text(text)
    out_path = tmp_path / "out.csv"
    if command == "simulate":
        source_args = ["--config", str(path)]
    else:
        source_args = ["--spec", str(path), "--out", str(out_path)]
    code, out, err = run_cli(capsys, command, *source_args, *flags)
    assert code == 2
    assert out == ""
    assert "seed must be >= 0, got -3" in err
    assert calls == []
    assert not out_path.exists()


class TestSweepSeedRule:
    """The sweep command resolves its seed as simulate does: flag, environment, file."""

    def sweep_bytes(self, capsys, tmp_path, text, *flags):
        spec, out_path = tmp_path / "seed.spec", tmp_path / "out.csv"
        spec.write_text(text)
        code, _, err = run_cli(capsys, "sweep", "--spec", str(spec), "--out", str(out_path), *flags)
        assert code == 0, err
        return out_path.read_bytes()

    def test_flag_environment_and_file_give_one_table(self, capsys, tmp_path, monkeypatch):
        monkeypatch.delenv("HETCACHE_SEED", raising=False)
        flag = self.sweep_bytes(capsys, tmp_path, MC_SPEC, "--seed", "11")
        in_file = self.sweep_bytes(capsys, tmp_path, MC_SPEC.replace("\nseed = 3\n", "\nseed = 11\n"))
        monkeypatch.setenv("HETCACHE_SEED", "11")
        environment = self.sweep_bytes(capsys, tmp_path, MC_SPEC)
        assert environment == flag == in_file

    def test_flag_beats_the_environment(self, capsys, tmp_path, monkeypatch):
        monkeypatch.delenv("HETCACHE_SEED", raising=False)
        alone = self.sweep_bytes(capsys, tmp_path, MC_SPEC, "--seed", "12")
        monkeypatch.setenv("HETCACHE_SEED", "11")
        assert self.sweep_bytes(capsys, tmp_path, MC_SPEC, "--seed", "12") == alone

    def test_seed_changes_only_the_monte_carlo_rows(self, capsys, tmp_path, monkeypatch):
        monkeypatch.delenv("HETCACHE_SEED", raising=False)
        rows = {
            seed: parse_sweep_csv(self.sweep_bytes(capsys, tmp_path, MC_SPEC, "--seed", seed).decode()).rows
            for seed in ("11", "12")
        }
        engines = [row.engine for row in rows["11"]]
        assert engines == [row.engine for row in rows["12"]]
        assert "analytic" in engines and "montecarlo" in engines
        for engine in ("analytic", "montecarlo"):
            first, second = ([r for r in rows[s] if r.engine == engine] for s in ("11", "12"))
            assert (first == second) == (engine == "analytic")

    def test_bad_environment_seed_named_and_exit_2(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("HETCACHE_SEED", "eleven")
        spec, out_path = tmp_path / "seed.spec", tmp_path / "out.csv"
        spec.write_text(MC_SPEC)
        code, out, err = run_cli(capsys, "sweep", "--spec", str(spec), "--out", str(out_path))
        assert code == 2
        assert out == ""
        assert "HETCACHE_SEED" in err
        assert not out_path.exists()

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("policy", ["ucp", "pcp"])
    def test_monte_carlo_row_equals_simulate_at_the_same_seed(self, capsys, tmp_path, monkeypatch, policy, workers):
        # one seed rule end to end: a one-point sweep's Monte-Carlo row is
        # simulate's average of that point at the same --seed
        monkeypatch.delenv("HETCACHE_SEED", raising=False)
        flags = ("--seed", "4", "--workers", workers)
        cfg = tmp_path / "point.cfg"
        cfg.write_text(SMALL_CFG.replace("policy = pcp", f"policy = {policy}"))
        code, out, err = run_cli(capsys, "simulate", "--config", str(cfg), *flags)
        assert code == 0, err
        average = json.loads(out)["average"]
        spec = SMALL_CFG + f"axis1 = lambda_sbs\naxis1_values = 0.02\nvariants = {policy}\nengines = montecarlo\n"
        [row] = parse_sweep_csv(self.sweep_bytes(capsys, tmp_path, spec, *flags).decode()).rows
        assert 0.0 < row.avg_outage < 1.0
        assert (row.avg_outage, row.std_error) == (average["mean"], average["std_error"])


def _with_value(text, key, value):
    lines = [line for line in text.splitlines() if not line.startswith(f"{key} =")]
    return "\n".join(lines + [f"{key} = {value}"]) + "\n"


@pytest.mark.parametrize("command", ["simulate", "sweep"])
@pytest.mark.parametrize("key", sorted(MC_KEYS))
def test_both_commands_read_the_monte_carlo_keys(capsys, monkeypatch, tmp_path, command, key):
    monkeypatch.delenv("HETCACHE_SEED", raising=False)
    path, out_path = tmp_path / "input.txt", tmp_path / "out.csv"
    path.write_text(_with_value(SMALL_CFG if command == "simulate" else MC_SPEC, key, "x"))
    if command == "simulate":
        source_args = ["--config", str(path)]
    else:
        source_args = ["--spec", str(path), "--out", str(out_path)]
    code, out, err = run_cli(capsys, command, *source_args)
    assert code == 2
    assert out == ""
    assert f"'{key}'" in err
    assert "unknown key" not in err
    assert not out_path.exists()


@pytest.mark.parametrize("command", ["analytic", "simulate", "sweep"])
def test_legacy_trials_key_accepted_at_one_only(capsys, monkeypatch, tmp_path, command):
    # a realization simulates one request per content: the key may still be
    # set, to 1, with the bytes of a file that omits it; any other value
    # exits 2 naming it and the key to raise instead
    monkeypatch.delenv("HETCACHE_SEED", raising=False)
    text = SMALL_CFG if command != "sweep" else MC_SPEC
    outputs = []
    for extra in ("", "trials_per_content = 1\n", "trials_per_content = 2\n"):
        path, out_path = tmp_path / "input.txt", tmp_path / "out.csv"
        path.write_text(text + extra)
        out_path.unlink(missing_ok=True)
        args = ["--spec", str(path), "--out", str(out_path)] if command == "sweep" else ["--config", str(path)]
        code, out, err = run_cli(capsys, command, *args)
        outputs.append((code, out, err, out_path.read_text() if out_path.exists() else None))
    assert outputs[0] == outputs[1] and outputs[0][0] == 0
    code, out, err, csv = outputs[2]
    assert (code, out, csv) == (2, "", None)
    assert "trials_per_content must be 1, got 2" in err and "realizations" in err


def test_benchmark_inputs_pass_the_config_boundary(perfbench, monkeypatch):
    # the benchmark writes its own inputs, trials_per_content = 1 among their
    # keys, and runs them on every commit: each workload's input passes the
    # unknown-key check and the readers of its command; nothing is sampled
    monkeypatch.setattr(geometry_sim, "_squared_distances", lambda *a, **k: pytest.fail("sampled"))
    workloads = perfbench("workloads")
    for workload in workloads.WORKLOADS.values():
        cfg = parse_config_text(workload.input_text(1))
        if workload.command == "sweep":
            _check_unknown_keys(cfg, SWEEP_FILE_KEYS)
            experiments.sweep_spec_from_config(cfg, 1)
        else:
            _check_unknown_keys(cfg, POINT_KEYS)
            McBudget.from_config(cfg)
            setup_from_config(cfg)


@pytest.mark.parametrize("guard, reason", [("1e154", "no finite area"), ("1e6", "budget")])
def test_window_refusals_name_guard(capsys, tmp_path, guard, reason):
    # a guard of 1e154 m overflows the default window's area, and one of
    # 1e6 m makes a window of 4e10 expected points
    path = tmp_path / "wide.cfg"
    path.write_text(_with_value(SMALL_CFG, "guard", guard))
    code, out, err = run_cli(capsys, "simulate", "--config", str(path))
    assert (code, out) == (2, "")
    assert "guard" in err and reason in err


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_one_realization_reports_no_standard_error(capsys, monkeypatch, tmp_path, command):
    # one realization estimates no standard error: JSON null for the average
    # and every rank, and an empty CSV field, as on closed-form rows
    monkeypatch.delenv("HETCACHE_SEED", raising=False)
    if command == "simulate":
        path = tmp_path / "fig2.cfg"
        path.write_text(_with_value(FIG2_TEXT, "realizations", "1"))
        code, out, _ = run_cli(capsys, "simulate", "--config", str(path))
        assert code == 0
        payload = json.loads(out)
        assert payload["average"]["std_error"] is None
        assert [rank["std_error"] for rank in payload["per_content"]] == [None] * 100
        assert 0.0 <= payload["average"]["mean"] <= 1.0
        return
    path, out_path = tmp_path / "mc.spec", tmp_path / "out.csv"
    path.write_text(_with_value(MC_SPEC, "realizations", "1"))
    assert run_cli(capsys, "sweep", "--spec", str(path), "--out", str(out_path))[0] == 0
    rows = parse_sweep_csv(out_path.read_text()).rows
    assert {row.engine for row in rows} == {"analytic", "montecarlo"}
    assert all(row.std_error is None for row in rows)


def test_bad_interference_convention_named_and_exit_2(capsys, monkeypatch, tmp_path):
    calls = []
    monkeypatch.setattr(geometry_sim, "_squared_distances", lambda *a, **k: calls.append(a))
    path = tmp_path / "input.cfg"
    path.write_text(SMALL_CFG + "interference = bogus\n")
    code, out, err = run_cli(capsys, "simulate", "--config", str(path))
    assert code == 2
    assert out == ""
    assert all(name in err for name in ("interference", "beyond_server", "'all'"))
    assert calls == []


def test_interference_is_not_a_sweep_key(capsys, tmp_path):
    path, out_path = tmp_path / "input.spec", tmp_path / "out.csv"
    path.write_text(MC_SPEC + "interference = all\n")
    code, out, err = run_cli(capsys, "sweep", "--spec", str(path), "--out", str(out_path))
    assert code == 2
    assert out == ""
    assert "unknown key 'interference'" in err
    assert not out_path.exists()


FIG2_TEXT = importlib.resources.files("hetcache").joinpath("configs", "fig2.cfg").read_text()


@pytest.mark.parametrize("key, value", [("realizations", "x"), ("realizations", str(2**64)), ("guard", "-5"),
                                        ("interference", "bogus"), ("seed", "x"), ("seed", "-3")])
def test_closed_form_and_monte_carlo_commands_refuse_one_file_alike(capsys, monkeypatch, tmp_path, key, value):
    # analytic checks the Monte-Carlo settings of a point config as simulate does
    monkeypatch.delenv("HETCACHE_SEED", raising=False)
    calls = []
    monkeypatch.setattr(geometry_sim, "_squared_distances", lambda *a, **k: calls.append(a))
    path = tmp_path / "fig2.cfg"
    path.write_text(_with_value(FIG2_TEXT, key, value))
    for command in ("analytic", "simulate"):
        code, out, err = run_cli(capsys, command, "--config", str(path))
        assert (code, out) == (2, ""), command
        assert key in err, command
    assert calls == []


def test_simulate_refuses_an_alpha_whose_path_gain_underflows(capsys, monkeypatch, tmp_path):
    # at alpha = 300 a server at r_mbs = 250 m has a path gain of 250^-300,
    # which underflows to 0: the simulator refuses it before sampling, the
    # closed forms still answer
    calls = []
    monkeypatch.setattr(geometry_sim, "_squared_distances", lambda *a, **k: calls.append(a))
    path = tmp_path / "fig2.cfg"
    path.write_text(_with_value(FIG2_TEXT, "alpha", "300"))
    code, out, err = run_cli(capsys, "simulate", "--config", str(path))
    assert (code, out) == (2, "")
    assert "alpha" in err and "r_mbs" in err
    assert calls == []
    code, out, err = run_cli(capsys, "analytic", "--config", str(path))
    assert (code, err) == (0, "")


#: Values that overflow a float inside the closed forms unless the boundary
#: refuses them: p_sbs = p_max_sbs / (beta * B) is inf, or a count exceeds
#: the largest float.
OVERFLOW_ROWS = [("beta", "5e-324"), ("beta", "1e-320"),
                 ("subchannels_b", "1" + "0" * 400), ("library_size", "1" + "0" * 400)]


@pytest.mark.parametrize("key, value", OVERFLOW_ROWS,
                         ids=["beta-5e-324", "beta-1e-320", "subchannels_b-10**400", "library_size-10**400"])
def test_overflowing_value_named_and_exit_2(capsys, monkeypatch, tmp_path, key, value):
    calls = []
    monkeypatch.setattr(geometry_sim, "_squared_distances", lambda *a, **k: calls.append(a))
    config, spec, out_path = tmp_path / "point.cfg", tmp_path / "beta.spec", tmp_path / "out.csv"
    config.write_text(_with_value(FIG2_TEXT, key, value))
    # a beta-axis sweep: the beta row as an axis value, the others as a file key
    axis = "axis1 = beta\nvariants = ucp, pcp\nengines = analytic, montecarlo\n"
    base = _with_value(FIG2_TEXT, "realizations", "2")
    if key == "beta":
        spec.write_text(base + axis + f"axis1_values = {value}, 0.05\n")
    else:
        spec.write_text(_with_value(base, key, value) + axis + "axis1_values = 0.05\n")
    for argv in (["analytic", "--config", str(config)], ["simulate", "--config", str(config)],
                 ["sweep", "--spec", str(spec), "--out", str(out_path)]):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), (argv[0], err)
        assert key in err, argv[0]
    assert calls == []
    assert not out_path.exists()


#: Boundary refusals of a sweep spec: (key, value or None to drop the key, message).
REFUSED_SPEC_VALUES = [
    ("lambda_sbs", "-1", "lambda_sbs must be >= 0, got -1.0"),
    ("p_max_mbs", "4000", "p_max_mbs must be finite, got inf"),  # 4000 dBm overflows
    ("p_max_mbs", "-inf", "p_max_mbs must be > 0 W, got 0.0"),
    ("seed", "", "empty key or value in 'seed ='"),
    ("axis1_values", "a, b", "key 'axis1_values': expected a list of numbers, got 'a, b'"),
    ("axis1", None, "missing required key 'axis1'"),
    ("axis1_values", None, "missing required key 'axis1_values'"),
    ("engines", ",", "at least one engine is required"),
]


@pytest.mark.parametrize("key, value, message", REFUSED_SPEC_VALUES,
                         ids=[f"{key}={value}" for key, value, _ in REFUSED_SPEC_VALUES])
def test_refused_spec_value_named_and_exit_2(capsys, tmp_path, key, value, message):
    spec, out_path = tmp_path / "input.spec", tmp_path / "out.csv"
    if value is None:
        spec.write_text("".join(line + "\n" for line in SMALL_SPEC.splitlines() if not line.startswith(f"{key} =")))
    else:
        spec.write_text(_with_value(SMALL_SPEC, key, value))
    code, out, err = run_cli(capsys, "sweep", "--spec", str(spec), "--out", str(out_path))
    assert (code, out) == (2, "")
    assert message in err
    assert not out_path.exists()


def test_every_public_name_has_a_user():
    # a name the package exports must be used by the package itself (outside
    # __init__) or by the benchmark, so the public surface cannot regrow
    # without a user
    import hetcache

    package = Path(hetcache.__file__).parent
    sources = [path for path in sorted(package.glob("*.py")) if path.name != "__init__.py"]
    sources += sorted((Path(__file__).resolve().parent.parent / "perfbench").glob("*.py"))
    used = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    init = ast.parse((package / "__init__.py").read_text(encoding="utf-8"))
    eager = {
        alias.name
        for node in init.body
        if isinstance(node, ast.ImportFrom) and node.module in ("errors", "params")
        for alias in node.names
    }
    assert {"ConfigError", "setup_from_config"} <= eager
    assert sorted((eager | set(hetcache._LAZY)) - used) == []


#: Inputs that once stopped the closed forms with an arithmetic error
#: (exit 1): a serving density small enough that the success ratio's
#: denominator underflows, an infinite kernel power ratio at alpha != 4, and
#: per-subchannel powers that underflow to 0 W. Each row's keys are set in a
#: copy of fig2.cfg; ``named`` is the key a refusal must name, or None where
#: the closed forms must run.
EXTREME_ROWS = [
    ({"lambda_sbs": "1e-320"}, None),
    ({"beta": "1e-170"}, None),
    ({"gamma": "3070", "alpha": "3.5"}, None),
    ({"p_max_sbs": "-3200", "beta": "1", "subchannels_b": "4"}, "p_max_sbs"),
    ({"p_max_mbs": "-3200", "subchannels_b": "4"}, "p_max_mbs"),
]


@pytest.mark.parametrize("values, named", EXTREME_ROWS,
                         ids=["lambda_sbs-1e-320", "beta-1e-170", "gamma-3070-alpha-3.5",
                              "p_max_sbs-underflow", "p_max_mbs-underflow"])
def test_extreme_value_runs_or_is_named(capsys, monkeypatch, tmp_path, values, named):
    calls = []
    monkeypatch.setattr(geometry_sim, "_squared_distances", lambda *a, **k: calls.append(a))
    text = FIG2_TEXT
    for key, value in values.items():
        text = _with_value(text, key, value)
    config, spec, out_path = tmp_path / "point.cfg", tmp_path / "point.spec", tmp_path / "out.csv"
    config.write_text(text)
    spec.write_text(text + "axis1 = d_tilde\naxis1_values = 0.3\nvariants = ucp, pcp\nengines = analytic\n")
    for argv in (["analytic", "--config", str(config), "--content-rank", "1"],
                 ["analytic", "--config", str(config), "--content-rank", "50"],
                 ["sweep", "--spec", str(spec), "--out", str(out_path)]):
        code, out, err = run_cli(capsys, *argv)
        if named is not None:
            assert (code, out) == (2, ""), (argv, err)
            assert named in err, argv
            continue
        assert code == 0, (argv, err)
        if argv[0] == "analytic":
            probabilities = list(json.loads(out).values())
        else:
            probabilities = [row.avg_outage for row in parse_sweep_csv(out_path.read_text()).rows]
        assert all(0.0 <= value <= 1.0 for value in probabilities), (argv, probabilities)
    if named is not None:
        code, out, err = run_cli(capsys, "simulate", "--config", str(config))
        assert (code, out) == (2, "") and named in err
        assert not out_path.exists()
    assert calls == []


#: An empty tier whose kernel is infinite, its power ratio overflowing: the
#: closed forms once formed its interference term as 0 * inf = NaN (exit 1)
#: while simulate ran.
EMPTY_TIER_ROWS = [
    {"lambda_mbs": "0", "p_max_mbs": "3000", "p_max_sbs": "-3000"},  # k1 = inf
    {"lambda_sbs": "0", "p_max_mbs": "-3000", "p_max_sbs": "3000"},  # k4 = inf
]


@pytest.mark.parametrize("values", EMPTY_TIER_ROWS, ids=["lambda_mbs-0-k1-inf", "lambda_sbs-0-k4-inf"])
def test_empty_tier_with_an_infinite_kernel_runs(capsys, tmp_path, values):
    text = _with_value(FIG2_TEXT, "realizations", "2")
    for key, value in values.items():
        text = _with_value(text, key, value)
    config = tmp_path / "point.cfg"
    config.write_text(text)
    for command, read in (("analytic", lambda payload: payload["p_out_total"]),
                          ("simulate", lambda payload: payload["average"]["mean"])):
        code, out, err = run_cli(capsys, command, "--config", str(config))
        assert code == 0, (command, err)
        probability = read(json.loads(out))
        assert math.isfinite(probability) and 0.0 <= probability <= 1.0, (command, probability)


def test_zero_beta_refused_alike_by_every_command(capsys, monkeypatch, usable_cpus, recorded_pools, tmp_path):
    # beta * B = 0 leaves p_sbs undefined: the simulator refuses it as the
    # closed forms do, before it samples anything or opens a pool
    usable_cpus(2)
    calls = []
    monkeypatch.setattr(geometry_sim, "_squared_distances", lambda *a, **k: calls.append(a))
    config, spec, out_path = tmp_path / "point.cfg", tmp_path / "beta.spec", tmp_path / "out.csv"
    config.write_text(_with_value(FIG2_TEXT, "beta", "0"))
    spec.write_text(_with_value(FIG2_TEXT, "realizations", "2")
                    + "axis1 = beta\naxis1_values = 0, 0.05\nvariants = ucp, pcp\nengines = montecarlo\n")
    for argv in (["analytic", "--config", str(config)],
                 ["simulate", "--config", str(config), "--workers", "2"],
                 ["sweep", "--spec", str(spec), "--out", str(out_path), "--workers", "2"]):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert "p_sbs is undefined: beta * subchannels_b == 0" in err, argv
    assert calls == [] and recorded_pools == []
    assert not out_path.exists()


def test_cache_slots_key_gives_the_bytes_of_its_d_tilde(capsys, monkeypatch, tmp_path):
    # cache_slots = 30 and d_tilde = 0.3 name one cache of the 100-item library
    monkeypatch.delenv("HETCACHE_SEED", raising=False)
    assert "\nd_tilde = 0.3\n" in FIG2_TEXT
    normalized, slots = tmp_path / "d_tilde.cfg", tmp_path / "slots.cfg"
    normalized.write_text(_with_value(FIG2_TEXT, "realizations", "5"))
    slots.write_text(_with_value(normalized.read_text().replace("\nd_tilde = 0.3\n", "\n"), "cache_slots", "30"))
    for args in (["analytic", "--content-rank", "1"], ["analytic", "--content-rank", "50"], ["simulate"]):
        outputs = [run_cli(capsys, *args, "--config", str(path)) for path in (normalized, slots)]
        assert outputs[0][0] == 0 and outputs[0] == outputs[1], args


GOLDEN = Path(__file__).parent / "golden"


def cli_env(buffered=False):
    """The environment of a CLI child: this process's, minus HETCACHE_SEED.

    ``buffered`` unsets PYTHONUNBUFFERED, so the child's stdout is a block
    buffer that the fast exit must flush.
    """
    env = {key: value for key, value in os.environ.items() if key not in ("HETCACHE_SEED", "PYTHONUNBUFFERED")}
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def cli_process(argv, entry="run", buffered=False, **streams):
    """Run the CLI as its own process through ``cli.run`` or, as without the fast exit, ``sys.exit(main())``.

    The child's stdout and stderr are captured unless ``streams`` redirects them.
    """
    if entry == "run":
        command = [sys.executable, "-m", "hetcache", *argv]
    else:
        command = [sys.executable, "-c", f"import sys; from hetcache.cli import main; sys.exit(main({argv!r}))"]
    streams = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, **streams}
    return subprocess.run(command, env=cli_env(buffered), timeout=120, **streams)


class TestFastExit:
    # the CLI process ends with os._exit after flushing its streams; a
    # failed flush takes the interpreter's own exit, as without the fast exit

    @pytest.mark.parametrize("buffered", [False, True], ids=["unbuffered", "buffered"])
    def test_sweep_output_complete_when_redirected_to_files(self, tmp_path, buffered):
        out_csv, stdout, stderr = tmp_path / "sparse.csv", tmp_path / "stdout", tmp_path / "stderr"
        with open(stdout, "wb") as out, open(stderr, "wb") as err:
            done = cli_process(["sweep", "--spec", str(GOLDEN / "mc_sparse_pool_1401.spec"), "--out", str(out_csv)],
                               buffered=buffered, stdout=out, stderr=err)
        assert done.returncode == 0
        assert stdout.read_text() == f"wrote 12 rows to {out_csv}\n"
        assert stderr.read_bytes() == b""
        assert out_csv.read_bytes() == (GOLDEN / "sweep_mc_sparse_pool.csv").read_bytes()

    @pytest.mark.parametrize("buffered", [False, True], ids=["unbuffered", "buffered"])
    def test_exit_codes_keep_their_meaning(self, tmp_path, buffered):
        done = cli_process(["analytic", "--config", "fig2.cfg"], buffered=buffered)
        assert (done.returncode, done.stdout, done.stderr) == (
            0, (GOLDEN / "analytic_fig2_rank1.json").read_bytes(), b"")
        missing = tmp_path / "missing.cfg"
        done = cli_process(["analytic", "--config", str(missing)], buffered=buffered)
        assert (done.returncode, done.stdout, done.stderr) == (
            2, b"", f"config error: config file not found: {missing}\n".encode())
        done = cli_process(["analytic", "--config", "fig2.cfg", "--bogus"], buffered=buffered)
        assert (done.returncode, done.stdout) == (2, b"")
        assert b"unrecognized arguments: --bogus" in done.stderr

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full to fail a write")
    def test_runtime_error_exits_1(self):
        # the sweep runs, then writing its CSV to a full device raises
        done = cli_process(["sweep", "--spec", "fig3.spec", "--out", "/dev/full"])
        assert (done.returncode, done.stdout) == (1, b"")
        assert done.stderr.startswith(b"error: ") and b"No space left on device" in done.stderr

    @pytest.mark.parametrize("buffered", [False, True], ids=["unbuffered", "buffered"])
    @pytest.mark.parametrize("target", ["closed pipe", "full device"])
    def test_failed_output_reported_as_without_the_fast_exit(self, buffered, target):
        # a reader that closed before the command wrote, or a full device:
        # the command neither hangs nor exits 0, and its exit status and
        # diagnostic are those of sys.exit(main())
        if target == "full device" and not os.path.exists("/dev/full"):
            pytest.skip("needs /dev/full to fail a write")
        outcomes = []
        for entry in ("run", "sys.exit"):
            if target == "closed pipe":
                read_end, write_end = os.pipe()
                os.close(read_end)
            else:
                write_end = os.open("/dev/full", os.O_WRONLY)
            try:
                done = cli_process(["analytic", "--config", "fig2.cfg"], entry=entry, buffered=buffered,
                                   stdout=write_end)
            finally:
                os.close(write_end)
            outcomes.append((done.returncode, done.stderr))
        assert outcomes[0] == outcomes[1]
        code, stderr = outcomes[0]
        assert code == (120 if buffered else 1)
        assert (b"Broken pipe" if target == "closed pipe" else b"No space left on device") in stderr

    @pytest.mark.skipif(len(getattr(os, "sched_getaffinity", lambda _: ())(0)) < 2, reason="a pool needs 2 CPUs")
    def test_pool_workers_gone_at_exit(self, capsys, tmp_path):
        # 800 realizations of fig2 at 2 workers expect 1.0e7 of work, so the
        # command runs a pool; once it exits no process of its group is left,
        # and it prints what main prints in process. Output goes to files,
        # so a worker left holding it cannot stall the wait
        config, stdout, stderr = tmp_path / "fig2.cfg", tmp_path / "stdout", tmp_path / "stderr"
        config.write_text(_with_value(FIG2_TEXT, "realizations", "800"))
        argv = ["simulate", "--config", str(config), "--workers", "2", "--seed", "5"]
        with open(stdout, "wb") as out, open(stderr, "wb") as err:
            child = subprocess.Popen([sys.executable, "-m", "hetcache", *argv], env=cli_env(), stdout=out,
                                     stderr=err, start_new_session=True)
        assert child.wait(timeout=120) == 0
        try:
            os.killpg(child.pid, 0)
        except ProcessLookupError:
            pass
        else:
            os.killpg(child.pid, signal.SIGKILL)
            pytest.fail("worker processes outlived the command")
        assert stderr.read_bytes() == b""
        assert stdout.read_text() == run_cli(capsys, *argv)[1]

    def test_main_returns_its_code_in_process(self, capsys, monkeypatch, small_cfg):
        monkeypatch.setattr(os, "_exit", lambda code: pytest.fail(f"os._exit({code}) in process"))
        assert run_cli(capsys, "analytic", "--config", small_cfg)[0] == 0
        assert run_cli(capsys, "analytic", "--config", "does-not-exist.cfg")[0] == 2
        assert run_cli(capsys, "analytic", "--config", small_cfg, "--bogus")[0] == 2

    def test_run_flushes_then_exits_at_once_or_falls_back(self, monkeypatch):
        from hetcache import cli

        class Stream:
            def __init__(self, error=None):
                self.flushed, self.error = 0, error

            def flush(self):
                self.flushed += 1
                if self.error:
                    raise self.error

        class Exited(Exception):
            pass

        def fast_exit(code):
            raise Exited(code)

        monkeypatch.setattr(cli, "main", lambda: 3)
        monkeypatch.setattr(os, "_exit", fast_exit)
        out, err = Stream(), Stream()
        monkeypatch.setattr(sys, "stdout", out)
        monkeypatch.setattr(sys, "stderr", err)
        with pytest.raises(Exited) as exited:
            cli.run()
        assert (exited.value.args, out.flushed, err.flushed) == ((3,), 1, 1)
        monkeypatch.setattr(sys, "stdout", Stream(BrokenPipeError(32, "Broken pipe")))
        with pytest.raises(SystemExit) as exited:
            cli.run()
        assert exited.value.code == 3

    def test_script_and_module_run_one_function(self, monkeypatch):
        # the [project.scripts] entry and python -m hetcache both call cli.run
        import runpy

        from hetcache import cli

        tomllib = pytest.importorskip("tomllib")
        with open(Path(__file__).parents[1] / "pyproject.toml", "rb") as handle:
            script = tomllib.load(handle)["project"]["scripts"]["hetcache"]
        module, _, name = script.partition(":")
        assert getattr(importlib.import_module(module), name) is cli.run
        called = []
        monkeypatch.setattr(cli, "run", lambda: called.append("run"))
        monkeypatch.delitem(sys.modules, "hetcache.__main__", raising=False)
        runpy.run_module("hetcache", run_name="__main__")
        assert called == ["run"]
