"""Command-line front end: config ingestion, three subcommands, JSON/CSV out.

Exit codes: 0 success, 2 configuration error (with a diagnostic naming the
offending key), 1 runtime error. The ``--seed`` flag and the HETCACHE_SEED
environment variable control determinism; the flag wins, then the
environment, then the config file's ``seed`` key.
"""

from __future__ import annotations

import argparse
import importlib.resources
import json
import os
import sys

from .analytic import total_outage
from .errors import ConfigError
from .experiments import SWEEP_KEYS, run_sweep, sweep_spec_from_config
from .geometry_sim import (
    DEFAULT_GUARD,
    INTERFERENCE_ALL,
    INTERFERENCE_BEYOND_SERVER,
    default_window,
    estimate_outage,
)
from .params import (
    SETUP_KEYS,
    get_float,
    get_int,
    parse_config_text,
    replication_probability,
    setup_from_config,
)

POINT_KEYS = SETUP_KEYS | {"realizations", "trials_per_content", "seed", "guard", "interference"}
SWEEP_FILE_KEYS = SETUP_KEYS | SWEEP_KEYS


def _load_config(path: str) -> dict[str, str]:
    """Read a config file from disk, falling back to the bundled examples."""
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as handle:
            return parse_config_text(handle.read())
    bundled = importlib.resources.files("hetcache").joinpath("configs", os.path.basename(path))
    if bundled.is_file():
        return parse_config_text(bundled.read_text(encoding="utf-8"))
    raise ConfigError(f"config file not found: {path}")


def _check_unknown_keys(cfg: dict[str, str], allowed: frozenset[str] | set[str]) -> None:
    unknown = sorted(set(cfg) - set(allowed))
    if unknown:
        more = f" (and {len(unknown) - 1} more)" if len(unknown) > 1 else ""
        raise ConfigError(f"unknown key '{unknown[0]}'{more}")


def _resolve_seed(flag_seed: int | None, cfg: dict[str, str]) -> int:
    override = _seed_override(flag_seed)
    if override is not None:
        return override
    return get_int(cfg, "seed", 0)


def _seed_override(flag_seed: int | None) -> int | None:
    if flag_seed is not None:
        return flag_seed
    env = os.environ.get("HETCACHE_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ConfigError(f"HETCACHE_SEED must be an integer, got {env!r}") from None
    return None


def _interference_from(cfg: dict[str, str]) -> str:
    value = cfg.get("interference", INTERFERENCE_BEYOND_SERVER)
    if value not in (INTERFERENCE_BEYOND_SERVER, INTERFERENCE_ALL):
        raise ConfigError(
            f"key 'interference': expected '{INTERFERENCE_BEYOND_SERVER}' or "
            f"'{INTERFERENCE_ALL}', got {value!r}"
        )
    return value


def _cmd_analytic(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    _check_unknown_keys(cfg, POINT_KEYS)
    setup = setup_from_config(cfg)
    p_c = replication_probability(setup.policy, args.content_rank, setup.library)
    breakdown = total_outage(setup.params, p_c)
    print(
        json.dumps(
            {
                "p_hit_sbs": breakdown.p_hit_sbs,
                "p_hit_mbs": breakdown.p_hit_mbs,
                "p_out_sbs": breakdown.p_out_sbs,
                "p_out_mbs": breakdown.p_out_mbs,
                "p_out_total": breakdown.p_out_total,
            }
        )
    )
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    _check_unknown_keys(cfg, POINT_KEYS)
    setup = setup_from_config(cfg)
    seed = _resolve_seed(args.seed, cfg)
    guard = get_float(cfg, "guard", DEFAULT_GUARD)
    per_content, average = estimate_outage(
        setup.params,
        setup.policy,
        setup.library,
        setup.requests,
        window=default_window(setup.params, guard),
        trials_per_content=get_int(cfg, "trials_per_content", 1),
        realizations=get_int(cfg, "realizations", 100),
        seed=seed,
        workers=args.workers,
        interference=_interference_from(cfg),
    )
    payload = {
        "average": {
            "mean": average.mean,
            "std_error": average.std_error,
            "trials": average.trials,
            "seed": seed,
        },
        "per_content": [
            {"rank": rank, "mean": est.mean, "std_error": est.std_error}
            for rank, est in enumerate(per_content, start=1)
        ],
    }
    print(json.dumps(payload))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _load_config(args.spec)
    _check_unknown_keys(cfg, SWEEP_FILE_KEYS)
    spec = sweep_spec_from_config(cfg, seed=_seed_override(args.seed), workers=args.workers)
    result = run_sweep(spec)
    result.write_csv(args.out)
    print(f"wrote {len(result.rows)} rows to {args.out}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hetcache",
        description="Outage analysis of cache-enabled two-tier Poisson networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analytic = sub.add_parser("analytic", help="closed-form outage breakdown for one content rank")
    analytic.add_argument("--config", required=True, help="key = value config file")
    analytic.add_argument("--content-rank", type=int, default=1, help="popularity rank (default 1)")
    analytic.set_defaults(func=_cmd_analytic)

    simulate = sub.add_parser("simulate", help="Monte-Carlo outage estimate with standard errors")
    simulate.add_argument("--config", required=True, help="key = value config file")
    simulate.add_argument("--seed", type=int, default=None, help="master seed (beats HETCACHE_SEED)")
    simulate.add_argument("--workers", type=int, default=1, help="parallel worker cap (default 1)")
    simulate.set_defaults(func=_cmd_simulate)

    sweep = sub.add_parser("sweep", help="run a parameter sweep and write a CSV table")
    sweep.add_argument("--spec", required=True, help="sweep spec file (config keys + axes)")
    sweep.add_argument("--out", required=True, help="output CSV path")
    sweep.add_argument("--seed", type=int, default=None, help="master seed (beats HETCACHE_SEED)")
    sweep.add_argument("--workers", type=int, default=1, help="parallel worker cap (default 1)")
    sweep.set_defaults(func=_cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary maps to exit code 1
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
