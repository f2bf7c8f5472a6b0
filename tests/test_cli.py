import json
import math
import subprocess
import sys

import pytest

from hetcache import (
    CachePolicy,
    SweepResult,
    replication_probability,
    setup_from_config,
    total_outage,
)
from hetcache.cli import _load_config, main

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
trials_per_content = 1
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
        assert lines[0] == "d_tilde,beta,policy,engine,avg_outage,std_error,wall_ms"
        assert len(lines) == 1 + 2 * 2 * 2  # grid 2x2, two variants, one engine
        assert str(out_path) in out

    def test_csv_round_trips(self, capsys, small_spec, tmp_path):
        out_path = tmp_path / "out.csv"
        run_cli(capsys, "sweep", "--spec", small_spec, "--out", str(out_path))
        table = SweepResult.read_csv(str(out_path))
        assert table.axis_names == ("d_tilde", "beta")
        for row in table.rows:
            assert 0.0 <= row.avg_outage <= 1.0
            assert row.std_error is None  # analytic engine
        round_tripped = SweepResult.from_csv_text(table.to_csv_text())
        assert round_tripped == table

    def test_full_cache_columns_identical(self, capsys, small_spec, tmp_path):
        out_path = tmp_path / "out.csv"
        run_cli(capsys, "sweep", "--spec", small_spec, "--out", str(out_path))
        table = SweepResult.read_csv(str(out_path))
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

    def test_out_of_scale_window_refused_before_sampling(self, capsys, tmp_path):
        text = _load_config("fig2.cfg") | {"r_mbs": "1e7", "realizations": "1"}
        cfg = tmp_path / "wide.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in text.items()))
        code, _, err = run_cli(capsys, "simulate", "--config", str(cfg))
        assert code == 2
        assert "budget" in err

    def test_invalid_rank_is_runtime_error(self, capsys, small_cfg):
        code, _, err = run_cli(capsys, "analytic", "--config", small_cfg, "--content-rank", "99")
        assert code == 1
        assert "rank" in err


def test_import_leaves_scipy_integrate_unloaded():
    probe = "import sys, hetcache; print('scipy.integrate' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
