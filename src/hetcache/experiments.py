"""Parameter sweeps running the analytic and Monte-Carlo engines side by side.

A sweep is a grid over one or two configuration axes, evaluated for a set of
caching/popularity variants with one row per (grid point, variant, engine).
Rows are emitted in deterministic grid order and serialize to CSV with
17-significant-digit floats, so a written table re-parses to the exact
in-memory result.

Monte-Carlo rows for a given variant share their random streams across the
whole grid (common random numbers): along a gamma axis this makes estimated
outage exactly monotone per trial, since only the threshold changes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .analytic import average_outage
from .errors import ConfigError
from .geometry_sim import DEFAULT_GUARD, default_window, estimate_outage
from .params import (
    CachePolicy,
    ContentLibrary,
    ModelSetup,
    RequestDistribution,
    SystemParams,
    db_to_linear,
    get_float,
    get_int,
    setup_from_config,
    zipf_request_distribution,
)

ENGINE_ANALYTIC = "analytic"
ENGINE_MONTECARLO = "montecarlo"
_ENGINES = (ENGINE_ANALYTIC, ENGINE_MONTECARLO)

#: Axes a sweep may vary. gamma values are given in dB, matching the config
#: file boundary; everything else is in core units.
SWEEPABLE_AXES = ("lambda_sbs", "beta", "gamma", "d_tilde")


@dataclass(frozen=True)
class Variant:
    """One caching/popularity combination evaluated across the grid.

    ``fixed_cache`` pins the cache size (used by the no-caching baseline so a
    d_tilde axis cannot re-enable caching for it).
    """

    label: str
    policy: CachePolicy
    cache_slots: int
    requests: RequestDistribution
    fixed_cache: bool = False


@dataclass(frozen=True)
class McBudget:
    trials_per_content: int = 1
    realizations: int = 100


@dataclass(frozen=True)
class SweepSpec:
    base: ModelSetup
    axis1: tuple[str, tuple[float, ...]]
    variants: tuple[Variant, ...]
    axis2: tuple[str, tuple[float, ...]] | None = None
    engines: tuple[str, ...] = (ENGINE_ANALYTIC,)
    mc: McBudget = McBudget()
    seed: int = 0
    workers: int = 1
    guard: float = DEFAULT_GUARD

    def __post_init__(self) -> None:
        for axis in filter(None, (self.axis1, self.axis2)):
            name, values = axis
            if name not in SWEEPABLE_AXES:
                raise ConfigError(
                    f"axis '{name}' is not sweepable; choose one of {', '.join(SWEEPABLE_AXES)}"
                )
            if len(values) == 0:
                raise ConfigError(f"axis '{name}': value list must be nonempty")
            if any(b <= a for a, b in zip(values, values[1:])):
                raise ConfigError(f"axis '{name}': values must be sorted ascending")
            for value in values:  # refuse an out-of-model value before any row runs
                _apply_axis(self.base.params, self.base.library, name, value, fixed_cache=False)
        if not self.variants:
            raise ConfigError("at least one variant is required")
        if not self.engines:
            raise ConfigError("at least one engine is required")
        for engine in self.engines:
            if engine not in _ENGINES:
                raise ConfigError(f"unknown engine {engine!r}")

    @property
    def axis_names(self) -> tuple[str, ...]:
        names = (self.axis1[0],)
        return names + (self.axis2[0],) if self.axis2 else names


@dataclass(frozen=True)
class SweepRow:
    axes: tuple[float, ...]
    variant: str
    engine: str
    avg_outage: float
    std_error: float | None
    wall_ms: float


@dataclass(frozen=True)
class SweepResult:
    axis_names: tuple[str, ...]
    rows: tuple[SweepRow, ...]

    def header(self) -> tuple[str, ...]:
        return self.axis_names + ("policy", "engine", "avg_outage", "std_error", "wall_ms")

    def to_csv_text(self) -> str:
        lines = [",".join(self.header())]
        for row in self.rows:
            fields = [_fmt(v) for v in row.axes]
            fields += [row.variant, row.engine, _fmt(row.avg_outage)]
            fields += ["" if row.std_error is None else _fmt(row.std_error), _fmt(row.wall_ms)]
            lines.append(",".join(fields))
        return "\n".join(lines) + "\n"

    def write_csv(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(self.to_csv_text())

    @classmethod
    def from_csv_text(cls, text: str) -> "SweepResult":
        lines = [line for line in text.splitlines() if line]
        if not lines:
            raise ConfigError("empty sweep CSV")
        header = lines[0].split(",")
        if header[-5:] != ["policy", "engine", "avg_outage", "std_error", "wall_ms"]:
            raise ConfigError(f"unexpected sweep CSV header: {lines[0]!r}")
        axis_names = tuple(header[:-5])
        rows = []
        for line in lines[1:]:
            fields = line.split(",")
            n_axes = len(axis_names)
            axes = tuple(float(v) for v in fields[:n_axes])
            variant, engine, avg, se, wall = fields[n_axes:]
            rows.append(
                SweepRow(
                    axes=axes,
                    variant=variant,
                    engine=engine,
                    avg_outage=float(avg),
                    std_error=None if se == "" else float(se),
                    wall_ms=float(wall),
                )
            )
        return cls(axis_names=axis_names, rows=tuple(rows))

    @classmethod
    def read_csv(cls, path: str) -> "SweepResult":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_csv_text(handle.read())


def _fmt(value: float) -> str:
    # 17 significant digits: exact float round trip.
    return f"{value:.17g}"


def _apply_axis(
    params: SystemParams, library: ContentLibrary, name: str, value: float, fixed_cache: bool
) -> tuple[SystemParams, ContentLibrary]:
    if name == "lambda_sbs":
        return replace(params, lambda_sbs=value), library
    if name == "beta":
        return replace(params, beta=value), library
    if name == "gamma":
        return replace(params, gamma=db_to_linear(value)), library
    if name == "d_tilde":
        if fixed_cache:
            return params, library
        return params, ContentLibrary.from_normalized(value, library.size)
    raise ConfigError(f"axis '{name}' is not sweepable")


def _variant_seed(master: int, variant_index: int) -> int:
    # Stable per-variant derivation; shared across grid points on purpose
    # (common random numbers along the axis).
    return int(np.random.SeedSequence([int(master), variant_index]).generate_state(1, np.uint64)[0])


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate the grid; rows ordered by (grid index, variant, engine)."""
    axis2_values = spec.axis2[1] if spec.axis2 else (None,)
    rows: list[SweepRow] = []
    for v1 in spec.axis1[1]:
        for v2 in axis2_values:
            for vi, variant in enumerate(spec.variants):
                params, library = _apply_axis(
                    spec.base.params, ContentLibrary(spec.base.library.size, variant.cache_slots),
                    spec.axis1[0], v1, variant.fixed_cache,
                )
                if spec.axis2:
                    params, library = _apply_axis(
                        params, library, spec.axis2[0], v2, variant.fixed_cache
                    )
                axes = (v1,) if v2 is None else (v1, v2)
                for engine in spec.engines:
                    start = time.perf_counter()
                    if engine == ENGINE_ANALYTIC:
                        value = average_outage(params, variant.policy, library, variant.requests)
                        std_error = None
                    else:
                        _, avg = estimate_outage(
                            params,
                            variant.policy,
                            library,
                            variant.requests,
                            window=default_window(params, spec.guard),
                            trials_per_content=spec.mc.trials_per_content,
                            realizations=spec.mc.realizations,
                            seed=_variant_seed(spec.seed, vi),
                            workers=spec.workers,
                        )
                        value, std_error = avg.mean, avg.std_error
                    wall_ms = (time.perf_counter() - start) * 1000.0
                    rows.append(
                        SweepRow(
                            axes=axes,
                            variant=variant.label,
                            engine=engine,
                            avg_outage=value,
                            std_error=std_error,
                            wall_ms=wall_ms,
                        )
                    )
    return SweepResult(axis_names=spec.axis_names, rows=tuple(rows))


# --------------------------------------------------------------------------
# Spec files: the point-config schema plus sweep keys.
# --------------------------------------------------------------------------

SWEEP_KEYS = frozenset(
    {
        "axis1",
        "axis1_values",
        "axis2",
        "axis2_values",
        "variants",
        "engines",
        "realizations",
        "trials_per_content",
        "seed",
        "guard",
    }
)

_VARIANT_TOKENS = ("none", "ucp", "pcp", "ucp:uniform", "ucp:zipf", "pcp:uniform", "pcp:zipf")


def _parse_values(cfg: dict[str, str], key: str) -> tuple[float, ...]:
    raw = cfg.get(key)
    if raw is None:
        raise ConfigError(f"missing required key '{key}'")
    parts = [p for chunk in raw.split(",") for p in chunk.split()]
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise ConfigError(f"key '{key}': expected a list of numbers, got {raw!r}") from None


def _parse_variant(token: str, base: ModelSetup) -> Variant:
    token = token.lower()
    if token not in _VARIANT_TOKENS:
        raise ConfigError(
            f"key 'variants': unknown variant {token!r}; choose from {', '.join(_VARIANT_TOKENS)}"
        )
    if token == "none":
        return Variant(
            label="none",
            policy=CachePolicy.UCP,
            cache_slots=0,
            requests=base.requests,
            fixed_cache=True,
        )
    policy_name, _, requests_name = token.partition(":")
    policy = CachePolicy(policy_name)
    if requests_name == "uniform":
        requests = zipf_request_distribution(base.library.size, 0.0)
    elif requests_name == "zipf":
        requests = zipf_request_distribution(base.library.size, base.requests.skew)
    else:
        requests = base.requests
    return Variant(
        label=token,
        policy=policy,
        cache_slots=base.library.cache_slots,
        requests=requests,
    )


def sweep_spec_from_config(cfg: dict[str, str], seed: int | None = None, workers: int = 1) -> SweepSpec:
    """Build a SweepSpec from a parsed spec file.

    ``seed`` overrides the file's seed key when given (CLI flag or
    environment); unknown keys are rejected by the CLI before this runs.
    """
    base = setup_from_config(cfg)
    axis1_name = cfg.get("axis1")
    if axis1_name is None:
        raise ConfigError("missing required key 'axis1'")
    axis1 = (axis1_name, _parse_values(cfg, "axis1_values"))
    axis2 = None
    if "axis2" in cfg:
        axis2 = (cfg["axis2"], _parse_values(cfg, "axis2_values"))
    elif "axis2_values" in cfg:
        raise ConfigError("key 'axis2_values' given without 'axis2'")
    variant_tokens = [t for chunk in cfg.get("variants", "").split(",") for t in chunk.split()]
    if not variant_tokens:
        raise ConfigError("missing required key 'variants'")
    variants = tuple(_parse_variant(token, base) for token in variant_tokens)
    engine_tokens = [t for chunk in cfg.get("engines", "analytic").split(",") for t in chunk.split()]
    return SweepSpec(
        base=base,
        axis1=axis1,
        axis2=axis2,
        variants=variants,
        engines=tuple(engine_tokens),
        mc=McBudget(
            trials_per_content=get_int(cfg, "trials_per_content", 1),
            realizations=get_int(cfg, "realizations", 100),
        ),
        seed=get_int(cfg, "seed", 0) if seed is None else seed,
        workers=workers,
        guard=get_float(cfg, "guard", DEFAULT_GUARD),
    )
