"""Experiment configuration: a single versioned JSON file, strictly validated.

`parse_config` checks the version first, then walks `ExperimentConfig`'s
fields: a field whose type is a dataclass is a section, built the same way,
and every other value must fit its annotation as given.  Unknown fields are
rejected by name so typos cannot silently change a run.  Each spec type
checks its own values when it is made, so no invalid spec exists.  Seeds are
explicit everywhere; nothing defaults to the wall clock.  Only paths may be
overridden from the environment (EXECLAB_CAPTURE, EXECLAB_OUT_DIR).

The problem and PPO sections, `ProblemSpec` and `PpoConfig`, are defined
here; `execlab.env` and `execlab.ppo` import them from here, so loading a
config loads neither of those modules.
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import dataclass, field, is_dataclass
from pathlib import Path
from types import UnionType
from typing import get_args, get_origin, get_type_hints

from .capture.resample import GRID_NS
from .errors import ConfigError, InvalidConfig
from .signals import CROSS_FEATURES, DEFAULT_WINDOW_MS, REPORT_SERIES, SCOPES
from .signals import horizon_steps, window_steps
from .synth import SynthConfig, duration_steps

CONFIG_VERSION = 1

INT_MAX = 2**63 - 1  # every int field, seeds too, holds an int64, as numpy sizes and counts do
FLOAT_MAX = sys.float_info.max  # a larger int has no float


def check_seed(name: str, seed: int) -> None:
    """numpy seeds a generator only from a non-negative integer."""
    if seed < 0:
        raise ConfigError(f"{name} must be >= 0, got {seed}", field=name)
    if seed > INT_MAX:
        raise ConfigError(f"{name} must be <= {INT_MAX}, got {seed}", field=name)


FILL_QUOTE = "quote"
FILL_BOOK_WALK = "walk"
FILL_LINEAR_IMPACT = "linear"
FILL_MODELS = (FILL_QUOTE, FILL_BOOK_WALK, FILL_LINEAR_IMPACT)


@dataclass(frozen=True)
class ProblemSpec:
    """The execution problem `execlab.env` runs: sell `total_units` over
    `horizon_s` seconds in `n_decisions` equally spaced decisions."""

    total_units: int = 50
    horizon_s: float = 50.0
    n_decisions: int = 10
    fee_rate: float = 3e-4
    impact_coef: float = 1e-5
    penalty_coef: float = 0.02
    fill_model: str = FILL_QUOTE
    linear_impact_k: float = 0.0
    impact_enabled: bool = False

    def __post_init__(self):
        if self.total_units <= 0 or self.n_decisions < 1:
            raise ValueError("total_units must be > 0 and n_decisions >= 1")
        if not 0 <= self.fee_rate < 1:  # a fee of the whole sale or more leaves nothing to sell for
            raise ValueError("fee_rate must lie in [0, 1)")
        if self.impact_coef < 0 or self.penalty_coef < 0:
            raise ValueError("impact_coef and penalty_coef must be >= 0")
        if self.fill_model not in FILL_MODELS:
            raise ValueError(f"fill_model must be one of {FILL_MODELS}")
        self.decision_steps()

    def decision_steps(self) -> int:
        steps_ns = self.horizon_s / self.n_decisions * 1e9
        steps = int(round(steps_ns / GRID_NS))
        if steps < 1 or abs(steps * GRID_NS - steps_ns) > 0.5:
            raise ValueError(
                f"decision interval horizon_s / n_decisions = {self.horizon_s / self.n_decisions:g} s "
                f"is not a multiple of the {GRID_NS / 1e6:g} ms grid"
            )
        return steps


@dataclass(frozen=True)
class PpoConfig:
    """The PPO hyperparameters `execlab.ppo` trains with."""

    clip_ratio: float = 0.2
    discount: float = 0.99
    gae_lambda: float = 0.95
    actor_lr: float = 3e-4
    critic_lr: float = 1e-3
    value_coef: float = 0.5
    entropy_coef: float = 0.01
    update_epochs: int = 4
    minibatch_size: int = 256
    rollout_steps: int = 2048
    normalize_advantages: bool = True
    max_grad_norm: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.clip_ratio < 1.0):
            raise ValueError("clip_ratio must lie in (0, 1)")
        if not (0.0 <= self.discount <= 1.0 and 0.0 <= self.gae_lambda <= 1.0):
            raise ValueError("discount and gae_lambda must lie in [0, 1]")
        # update skips any minibatch of fewer than 2 rows
        if self.minibatch_size < 2:
            raise ValueError(f"minibatch_size must be >= 2, got {self.minibatch_size}")
        # with no epoch, update takes no step and logs the mean of nothing
        if self.update_epochs < 1:
            raise ValueError(f"update_epochs must be >= 1, got {self.update_epochs}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class PathsSpec:
    capture: str | None = None
    out_dir: str = "out"
    checkpoint_single: str | None = None
    checkpoint_cross: str | None = None


@dataclass
class SignalsSpec:
    target_venue: str = "v1"
    horizons_ms: tuple[int, ...] = (100, 200, 500, 1000, 5000, 10000)
    window_ms: int = DEFAULT_WINDOW_MS
    bin_horizon_ms: int = 5000
    features: tuple[str, ...] = ("flow_imbalance_norm", "depth_imbalance", "peer_spread_centered")

    def __post_init__(self):
        durations = [("window_ms", window_steps, self.window_ms)]
        durations += [("horizons_ms", horizon_steps, h) for h in self.horizons_ms]
        durations.append(("bin_horizon_ms", horizon_steps, self.bin_horizon_ms))
        for name, to_steps, ms in durations:
            try:
                to_steps(ms)
            except ValueError as exc:
                raise ConfigError(f"signals.{name}: {exc}", field=f"signals.{name}") from exc
        for name in self.features:
            if name not in REPORT_SERIES:
                raise ConfigError(
                    f"signals.features entry {name!r} is not one of {tuple(REPORT_SERIES)}",
                    field="signals.features",
                )


@dataclass
class TrainSpec:
    scope: str = "cross"
    updates: int = 60
    seed: int = 7

    def __post_init__(self):
        if self.scope not in SCOPES:
            raise ConfigError(f"train.scope must be one of {SCOPES}", field="train.scope")
        if self.updates < 0:
            raise ConfigError(f"train.updates must be >= 0, got {self.updates}", field="train.updates")
        check_seed("train.seed", self.seed)


@dataclass
class EvaluateSpec:
    episodes: int = 1000
    seed: int = 11
    heatmap_signal: str = "cross_depth_imbalance"
    heatmap_episodes: int = 200
    trace_episodes: int = 1

    def __post_init__(self):
        # the shortfall variance is taken with ddof=1
        if self.episodes < 2:
            raise ConfigError(f"evaluate.episodes must be >= 2, got {self.episodes}", field="evaluate.episodes")
        check_seed("evaluate.seed", self.seed)
        for name in ("heatmap_episodes", "trace_episodes"):
            count = getattr(self, name)
            if count < 0:
                raise ConfigError(f"evaluate.{name} must be >= 0, got {count}", field=f"evaluate.{name}")
        if self.heatmap_signal not in CROSS_FEATURES:
            raise ConfigError(
                f"evaluate.heatmap_signal must be one of {CROSS_FEATURES}", field="evaluate.heatmap_signal"
            )


@dataclass
class ExperimentConfig:
    version: int = CONFIG_VERSION
    seed: int = 0
    paths: PathsSpec = field(default_factory=PathsSpec)
    synth: SynthConfig = field(default_factory=SynthConfig)
    synth_duration_s: float = 120.0
    problem: ProblemSpec = field(default_factory=ProblemSpec)
    ppo: PpoConfig = field(default_factory=PpoConfig)
    signals: SignalsSpec = field(default_factory=SignalsSpec)
    train: TrainSpec = field(default_factory=TrainSpec)
    evaluate: EvaluateSpec = field(default_factory=EvaluateSpec)

    def __post_init__(self):
        check_seed("seed", self.seed)
        try:
            duration_steps(self.synth_duration_s)
        except InvalidConfig as exc:
            raise ConfigError(f"synth_duration_s: {exc}", field="synth_duration_s") from exc


def _admits(hint, value) -> bool:
    """Whether a value read from JSON fits a field annotation as it is: an int
    field takes an int64 but no bool, a float field takes a finite float or an
    int within the float range, a tuple field takes a list, and `| None` also
    takes null."""
    if isinstance(hint, UnionType):
        return any(_admits(h, value) for h in get_args(hint))
    if get_origin(hint) is tuple:
        return isinstance(value, list) and all(_admits(get_args(hint)[0], v) for v in value)
    if isinstance(value, bool):
        return hint is bool
    if hint is float:  # NaN would pass every range check, as its comparisons are all false
        if isinstance(value, int):
            return -FLOAT_MAX <= value <= FLOAT_MAX
        return isinstance(value, float) and math.isfinite(value)
    if hint is int:
        return isinstance(value, int) and -INT_MAX - 1 <= value <= INT_MAX
    return isinstance(value, hint)


_SHOWN = {int: f"int in [{-INT_MAX - 1}, {INT_MAX}]", float: "finite float"}


def _check_type(name: str, hint, value) -> None:
    if not _admits(hint, value):
        shown = _SHOWN.get(hint) or (hint.__name__ if isinstance(hint, type) else hint)
        raise ConfigError(f"{name} must be {shown}, got {value!r}", field=name)


def _build(cls, raw: dict, section: str = ""):
    """`cls` from the JSON object `raw`, checked field by field in field order."""
    prefix = f"{section}." if section else ""
    hints = get_type_hints(cls)
    unknown = set(raw) - set(hints)
    if unknown:
        bad = prefix + sorted(unknown)[0]
        raise ConfigError(f"unknown config field {bad}", field=bad)
    kwargs = {}
    for name, hint in hints.items():
        if name not in raw:
            continue
        value, path = raw[name], prefix + name
        if is_dataclass(hint):
            if not isinstance(value, dict):
                raise ConfigError(f"section {path!r} must be an object", field=path)
            kwargs[name] = _build(hint, value, path)
        else:
            _check_type(path, hint, value)
            # JSON has no tuples: the list a tuple field was given becomes one.
            kwargs[name] = tuple(value) if isinstance(value, list) else value
    try:
        return cls(**kwargs)
    except ConfigError:
        raise
    except (TypeError, ValueError, OverflowError, InvalidConfig) as exc:
        raise ConfigError(f"section {section!r}: {exc}", field=section) from exc


def parse_config(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    # Checked before anything else: another version may define other fields.
    version = raw.get("version", CONFIG_VERSION)
    _check_type("version", int, version)
    if version != CONFIG_VERSION:
        raise ConfigError(f"unsupported config version {version}", field="version")
    cfg = _build(ExperimentConfig, raw)
    _apply_env_overrides(cfg)
    return cfg


def _apply_env_overrides(cfg: ExperimentConfig) -> None:
    capture = os.environ.get("EXECLAB_CAPTURE")
    if capture:
        cfg.paths.capture = capture
    out_dir = os.environ.get("EXECLAB_OUT_DIR")
    if out_dir:
        cfg.paths.out_dir = out_dir


def load_config(path: str | Path) -> ExperimentConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except ValueError as exc:  # also an integer literal longer than int() converts
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ConfigError("config is not valid JSON: nested too deeply") from exc
    return parse_config(raw)

