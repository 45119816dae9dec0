"""The flat market, the tests' oracle fixture: one venue with a constant mid,
a constant symmetric book and no trades."""

from __future__ import annotations

from pathlib import Path

from execlab.capture import FrameSet
from execlab.synth import SynthConfig, generate, generate_frames


def flat_market_config(price: float = 100.0, **overrides) -> SynthConfig:
    base = dict(
        seed=0,
        n_venues=1,
        leader=0,
        lag_ms=(0,),
        basis=(0.0,),
        vol=0.0,
        drift_vol=0.0,
        signal_strength=0.0,
        trade_intensity=0.0,
        level_noise=0.0,
        tilt_noise=0.0,
        mid0=price,
    )
    base.update(overrides)
    return SynthConfig(**base)


def flat_market_frames(price: float, duration_s: float, **overrides) -> FrameSet:
    """Oracle fixture: constant mid, constant symmetric book, no trades."""
    return generate_frames(flat_market_config(price, **overrides), duration_s)


def flat_market(price: float, duration_s: float, path: str | Path, **overrides) -> int:
    return generate(flat_market_config(price, **overrides), duration_s, path)
