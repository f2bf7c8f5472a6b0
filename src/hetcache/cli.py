"""Command-line front end: config ingestion, three subcommands, JSON/CSV out.

Exit codes: 0 success, 2 configuration error (with a diagnostic naming the
offending key), 1 runtime error.

``simulate`` and ``sweep`` share the Monte-Carlo keys
(:data:`experiments.MC_KEYS`), their reader
(:meth:`experiments.McBudget.from_config`) and one seed rule: the ``--seed``
flag, then the HETCACHE_SEED environment variable, then the file's
``seed``, then 0; :func:`_resolve_seed` alone reads ``seed``. The rule
covers sweep rows too: a sweep hands its master seed to the simulator
unchanged, so each of its Monte-Carlo rows equals ``simulate`` of that row's
point at the same seed. ``analytic`` checks a config file as ``simulate``
does (:func:`_load_point`), its seed too, but uses no seed.

Beside HETCACHE_SEED, one more environment variable: :func:`main` sets
OPENBLAS_NUM_THREADS to 1 before any command can load numpy, unless the
caller has set it. hetcache makes no use of a second BLAS thread, yet
OpenBLAS starts one at numpy's import, and on two cores it slows the whole
command. Pool workers inherit the setting; a program that imports hetcache
itself keeps its own BLAS threads.
"""

from __future__ import annotations

import argparse
import os
import sys

from .analytic import total_outage
from .errors import ConfigError
from .experiments import (
    MC_KEYS,
    SWEEP_KEYS,
    McBudget,
    estimate_outage,
    run_sweep,
    sweep_spec_from_config,
)
from .params import (
    INTERFERENCE_BEYOND_SERVER, SETUP_KEYS, ModelSetup, check_count, check_interference, get_int,
    parse_config_text, replication_probability, setup_from_config,
)

POINT_KEYS = SETUP_KEYS | MC_KEYS | {"interference"}
SWEEP_FILE_KEYS = SETUP_KEYS | SWEEP_KEYS


def _load_config(path: str) -> dict[str, str]:
    """Read a config file from disk; a bare file name not on disk may name a bundled example."""
    if os.path.basename(path) == path and not os.path.exists(path):
        import importlib.resources  # only the bundled-config fallback needs it

        bundled = importlib.resources.files("hetcache").joinpath("configs", path)
        if bundled.is_file():
            return parse_config_text(bundled.read_text(encoding="utf-8-sig"))
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:
            return parse_config_text(handle.read())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except IsADirectoryError:
        raise ConfigError(f"config file {path} is a directory") from None
    except UnicodeDecodeError:
        raise ConfigError(f"config file {path} is not UTF-8 text") from None


def _check_unknown_keys(cfg: dict[str, str], allowed: frozenset[str] | set[str]) -> None:
    unknown = sorted(set(cfg) - set(allowed))
    if unknown:
        more = f" (and {len(unknown) - 1} more)" if len(unknown) > 1 else ""
        raise ConfigError(f"unknown key '{unknown[0]}'{more}")


def _resolve_seed(flag_seed: int | None, cfg: dict[str, str]) -> int:
    """The master seed, at least 0: the flag, else HETCACHE_SEED, else the file's ``seed``, else 0."""
    seed, env = flag_seed, os.environ.get("HETCACHE_SEED")
    if seed is None and env is not None:
        try:
            seed = int(env)
        except ValueError:
            raise ConfigError(f"HETCACHE_SEED must be an integer, got {env!r}") from None
    return check_count("seed", get_int(cfg, "seed", 0) if seed is None else seed, 0)


def _load_point(path: str, flag_seed: int | None = None) -> tuple[ModelSetup, McBudget, str, int]:
    """A point config file's model, Monte-Carlo budget, interference convention and seed."""
    cfg = _load_config(path)
    _check_unknown_keys(cfg, POINT_KEYS)
    setup, budget = setup_from_config(cfg), McBudget.from_config(cfg)
    interference = check_interference(cfg.get("interference", INTERFERENCE_BEYOND_SERVER))
    return setup, budget, interference, _resolve_seed(flag_seed, cfg)


def _cmd_analytic(args: argparse.Namespace) -> int:
    import json

    setup, _, _, _ = _load_point(args.config)
    p_c = replication_probability(setup.policy, args.content_rank, setup.library)
    breakdown = total_outage(setup.params, p_c)
    print(json.dumps(breakdown._asdict()))
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    import json

    setup, budget, interference, seed = _load_point(args.config, args.seed)
    [(per_content, average)] = estimate_outage(
        [(setup.params, setup.policy, setup.library, setup.requests)],
        seed,
        budget=budget,
        workers=args.workers,
        interference=interference,
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
    spec = sweep_spec_from_config(cfg, seed=_resolve_seed(args.seed, cfg), workers=args.workers)
    # refuse an output path that cannot take the file before any row runs
    if os.path.basename(args.out) == "":
        raise ConfigError(f"--out: {args.out!r} names no file")
    out_dir = os.path.dirname(os.path.abspath(args.out))
    if not os.path.isdir(out_dir):
        raise ConfigError(f"--out: directory {out_dir} does not exist")
    if os.path.isdir(args.out):
        raise ConfigError(f"--out: {args.out} is a directory")
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
    workers_help = (
        "parallel worker cap, at least 1; capped at the realizations and CPUs, and serial when "
        "the run expects too little work for a process pool to pay (default 1)"
    )

    analytic = sub.add_parser("analytic", help="closed-form outage breakdown for one content rank")
    analytic.add_argument("--config", required=True, help="key = value config file")
    analytic.add_argument("--content-rank", type=int, default=1, help="popularity rank (default 1)")
    analytic.set_defaults(func=_cmd_analytic)

    simulate = sub.add_parser("simulate", help="Monte-Carlo outage estimate with standard errors")
    simulate.add_argument("--config", required=True, help="key = value config file")
    simulate.add_argument("--seed", type=int, default=None, help="master seed (beats HETCACHE_SEED)")
    simulate.add_argument("--workers", type=int, default=1, help=workers_help)
    simulate.set_defaults(func=_cmd_simulate)

    sweep = sub.add_parser("sweep", help="run a parameter sweep and write a CSV table")
    sweep.add_argument("--spec", required=True, help="sweep spec file (config keys + axes)")
    sweep.add_argument("--out", required=True, help="output CSV path")
    sweep.add_argument("--seed", type=int, default=None, help="master seed (beats HETCACHE_SEED)")
    sweep.add_argument("--workers", type=int, default=1, help=workers_help)
    sweep.set_defaults(func=_cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    # read once, when numpy's import starts OpenBLAS, so set before any
    # command can load numpy; pool workers inherit it
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
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
