"""Experiment configuration: dataclasses, JSON loading, field-path validation."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .spaces import ModelSpace, euclidean_space, make_potential, quantile_space

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Invalid configuration; ``path`` names the offending field."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


@dataclass(frozen=True)
class SpaceConfig:
    kind: str = "euclidean"
    size: int | None = None  # dimension (default 1) or quantile grid (default 64)
    potential: str = "quadratic"
    kappa: float = 1.0
    box: float = 5.0
    sample_radius: float = 2.0

    def resolved_size(self) -> int:
        if self.size is not None:
            return self.size
        return 1 if self.kind == "euclidean" else 64

    def build(self) -> ModelSpace:
        pot = make_potential(self.potential, self.kappa)
        if self.kind == "euclidean":
            return euclidean_space(pot, dim=self.resolved_size(), box=self.box,
                                   sample_radius=self.sample_radius)
        return quantile_space(pot, grid_size=self.resolved_size(), box=self.box,
                              sample_radius=self.sample_radius)


@dataclass(frozen=True)
class EviConfig:
    instances: int = 200
    delta: float = 1e-4


@dataclass(frozen=True)
class TataruConfig:
    instances: int = 500
    pi: tuple = (0.0,)
    mu: tuple = (3.0,)
    dump_objective: bool = False


@dataclass(frozen=True)
class LaplaceConfig:
    epsilon: float = 0.1
    m_list: tuple = (10, 100, 1000, 10000)
    refine_n: tuple = (10, 40, 160)
    refine_m: int = 20
    pi: tuple = (0.0,)
    mu: tuple = (3.0,)
    concentration_m: int = 1000
    concentration_epsilon: float = 1e-3


@dataclass(frozen=True)
class HamChainConfig:
    link: str = "1to2"
    samples: int = 500


@dataclass(frozen=True)
class ResolventConfig:
    lam: float = 1.0
    dx: float = 1.0 / 200.0
    dt_factor: float = 50.0
    control_bound: float = 2.0
    n_controls: int = 129
    tol: float = 1e-10
    h: str = "linear_clip"
    h_param: float = 1.0


@dataclass(frozen=True)
class ComparisonConfig:
    pairs: int = 20
    dx: float = 1.0 / 100.0
    lam: float = 1.0


@dataclass(frozen=True)
class ExperimentConfig:
    schema: int = SCHEMA_VERSION
    seed: int = 12345
    out: str = "out"
    space: SpaceConfig = field(default_factory=SpaceConfig)
    evi: EviConfig = field(default_factory=EviConfig)
    tataru: TataruConfig = field(default_factory=TataruConfig)
    laplace: LaplaceConfig = field(default_factory=LaplaceConfig)
    ham_chain: HamChainConfig = field(default_factory=HamChainConfig)
    resolvent: ResolventConfig = field(default_factory=ResolventConfig)
    comparison: ComparisonConfig = field(default_factory=ComparisonConfig)

    def to_dict(self) -> dict:
        return asdict(self)


_SECTIONS = {
    "space": SpaceConfig,
    "evi": EviConfig,
    "tataru": TataruConfig,
    "laplace": LaplaceConfig,
    "ham_chain": HamChainConfig,
    "resolvent": ResolventConfig,
    "comparison": ComparisonConfig,
}


def _build_section(name: str, cls, data: dict):
    if not isinstance(data, dict):
        raise ConfigError(name, "must be an object")
    allowed = set(cls.__dataclass_fields__)
    for key, value in data.items():
        if key not in allowed:
            raise ConfigError(f"{name}.{key}", "unknown field")
        if isinstance(value, list):
            data = {**data, key: tuple(value)}
    try:
        return cls(**data)
    except TypeError as exc:  # pragma: no cover - defensive
        raise ConfigError(name, str(exc)) from exc


def _finite(value, path: str) -> None:
    try:
        ok = (not isinstance(value, bool) and isinstance(value, (int, float))
              and math.isfinite(value))
    except OverflowError:  # an int beyond the float range
        ok = False
    if not ok:
        raise ConfigError(path, "must be a finite number")


def _positive_finite(value, path: str) -> None:
    _finite(value, path)
    if value <= 0:
        raise ConfigError(path, "must be finite and positive")


def _integer(value, path: str, low: int) -> None:
    """An int in [low, 2**63 - 1]: numpy takes every count, size and seed as int64."""
    if isinstance(value, bool) or not isinstance(value, int) or not low <= value < 2**63:
        raise ConfigError(path, f"must be an integer in [{low}, 2**63 - 1]")


def _increasing_list(values, path: str, least: int) -> None:
    """At least ``least`` strictly increasing integers >= 1."""
    if not isinstance(values, tuple) or len(values) < least:
        raise ConfigError(path, f"must be a list of at least {least} integers")
    for v in values:
        _integer(v, path, 1)
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ConfigError(path, "must be strictly increasing")


def _grid_step(value, path: str, box: float) -> None:
    _positive_finite(value, path)
    if value > box:
        raise ConfigError(path, "must not exceed space.box")


def validate(cfg: ExperimentConfig) -> ExperimentConfig:
    """Check every field; raise ConfigError naming the first bad one."""
    if cfg.schema != SCHEMA_VERSION:
        raise ConfigError("schema", f"unsupported schema version {cfg.schema}")
    _integer(cfg.seed, "seed", 0)
    if not isinstance(cfg.out, str):
        raise ConfigError("out", "must be a path string")
    sc = cfg.space
    if sc.kind not in ("euclidean", "quantile"):
        raise ConfigError("space.kind", f"unknown kind {sc.kind!r}")
    if sc.potential not in ("quadratic", "quartic", "double_well"):
        raise ConfigError("space.potential", f"unknown potential {sc.potential!r}")
    _finite(sc.kappa, "space.kappa")
    if sc.potential == "double_well" and sc.kappa >= 0:
        raise ConfigError("space.kappa", "double_well requires kappa < 0")
    if sc.size is not None:
        _integer(sc.size, "space.size", 1)
    _positive_finite(sc.box, "space.box")
    _positive_finite(sc.sample_radius, "space.sample_radius")
    _integer(cfg.evi.instances, "evi.instances", 1)
    _positive_finite(cfg.evi.delta, "evi.delta")
    _integer(cfg.tataru.instances, "tataru.instances", 1)
    if not isinstance(cfg.tataru.dump_objective, bool):
        raise ConfigError("tataru.dump_objective", "must be true or false")
    lc = cfg.laplace
    _positive_finite(lc.epsilon, "laplace.epsilon")
    # varadhan_monotone compares the first and the last m
    _increasing_list(lc.m_list, "laplace.m_list", 2)
    _increasing_list(lc.refine_n, "laplace.refine_n", 1)
    _integer(lc.refine_m, "laplace.refine_m", 1)
    _integer(lc.concentration_m, "laplace.concentration_m", 1)
    _positive_finite(lc.concentration_epsilon, "laplace.concentration_epsilon")
    if cfg.ham_chain.link not in ("1to2", "4to5", "0to1"):
        raise ConfigError("ham_chain.link", f"unknown link {cfg.ham_chain.link!r}")
    _integer(cfg.ham_chain.samples, "ham_chain.samples", 1)
    rc = cfg.resolvent
    _positive_finite(rc.lam, "resolvent.lam")
    _grid_step(rc.dx, "resolvent.dx", cfg.space.box)
    _positive_finite(rc.control_bound, "resolvent.control_bound")
    _positive_finite(rc.tol, "resolvent.tol")
    _integer(rc.n_controls, "resolvent.n_controls", 3)
    if rc.n_controls % 2 == 0:
        raise ConfigError("resolvent.n_controls", "must be odd so that c = 0 is a control")
    _positive_finite(rc.dt_factor, "resolvent.dt_factor")
    if rc.dt_factor <= 1:
        raise ConfigError("resolvent.dt_factor", "must exceed 1 (dt < lam)")
    if rc.h not in ("linear_clip", "constant", "fourier"):
        raise ConfigError("resolvent.h", f"unknown h family {rc.h!r}")
    _finite(rc.h_param, "resolvent.h_param")
    _integer(cfg.comparison.pairs, "comparison.pairs", 1)
    _grid_step(cfg.comparison.dx, "comparison.dx", cfg.space.box)
    _positive_finite(cfg.comparison.lam, "comparison.lam")
    return cfg


def config_from_dict(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigError("<root>", "config must be a JSON object")
    kwargs = {}
    for key, value in data.items():
        if key in _SECTIONS:
            kwargs[key] = _build_section(key, _SECTIONS[key], value)
        elif key in ("schema", "seed", "out"):
            kwargs[key] = value
        else:
            raise ConfigError(key, "unknown field")
    return validate(ExperimentConfig(**kwargs))


def load_config(path: str | Path) -> ExperimentConfig:
    """The validated config of a JSON file; a file unreadable as JSON is a ConfigError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError("--config", f"cannot read {path}: {exc}") from exc
    return config_from_dict(data)


def default_config() -> ExperimentConfig:
    return ExperimentConfig()
