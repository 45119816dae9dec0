"""TWAP baseline, shortfall metrics, paired policy comparison, heatmaps.

All policies inside one `compare` call see the same episode start rows, so
the reported gains are paired differences rather than independent samples.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from numpy.random import default_rng

from .capture.resample import FrameSet
from .env import EpisodeTrace, ExecutionEnv, ProblemSpec, States, run_episodes
from .env import run_episode  # noqa: F401  perfbench/tracing.py patches this name; no caller here
from .ppo.agent import PolicyParams, action_mask, policy_forward

BASELINE = "TWAP"  # the arm every gain is measured against
HISTOGRAM_BINS = 40  # shared shortfall bins of histogram.csv
HEATMAP_BUCKETS = 10  # remaining-time and remaining-volume buckets per heatmap axis


def twap_schedule(spec: ProblemSpec) -> list[int]:
    """Equal slices; a non-divisible remainder is spread over the earliest steps."""
    base, rem = divmod(spec.total_units, spec.n_decisions)
    return [base + 1 if i < rem else base for i in range(spec.n_decisions)]


def implementation_shortfall(cash_value: float, total_units: float, start_price: float) -> float:
    """(cash - V * p0) / (V * p0), as a fraction; multiply by 1e4 for bps."""
    benchmark = total_units * start_price
    return (cash_value - benchmark) / benchmark


def gain(is_model: float, is_twap: float) -> float:
    """Gain over TWAP in bps from shortfall fractions."""
    return (is_model - is_twap) * 1e4


# ---------------------------------------------------------------------------
# Policies
# ---------------------------------------------------------------------------


class TwapPolicy:
    """Sell the fixed schedule regardless of state (capped by inventory)."""

    def __init__(self, spec: ProblemSpec):
        self.schedule = np.array(twap_schedule(spec))
        self.n = spec.n_decisions

    def __call__(self, states: States) -> np.ndarray:
        return np.minimum(self.schedule[self.n - states.steps_left], states.inventory)


class GreedyPolicy:
    """Argmax over the trained policy's masked action probabilities.

    Deterministic, but it can wander into states the stochastic policy never
    visits during training; SampledPolicy is the default evaluation mode.
    """

    def __init__(self, params: PolicyParams):
        self.params = params

    def _probs(self, states: States) -> np.ndarray:
        mask = action_mask(states.inventory, self.params.n_actions)
        probs, _, _, _ = policy_forward(self.params, states.vectors, mask)
        return probs

    def expected_action(self, states: States) -> np.ndarray:
        return self._probs(states) @ np.arange(self.params.n_actions)

    def __call__(self, states: States) -> np.ndarray:
        return np.argmax(self._probs(states), axis=1)


class SampledPolicy(GreedyPolicy):
    """Draw from the trained policy's action distribution (seeded).

    This evaluates the stochastic policy PPO actually optimizes; reports
    stay deterministic because the draw stream is seeded.  At the first
    decision of a batch the policy takes one uniform draw per (episode,
    decision) in episode-major order, the stream that one draw per call
    over episodes run one after another would give.
    """

    def __init__(self, params: PolicyParams, seed: int = 0):
        super().__init__(params)
        self.rng = default_rng(seed)
        self._draws = np.empty((0, 0))

    def __call__(self, states: States) -> np.ndarray:
        step = states.n_decisions - states.steps_left
        if (step == 0).all():
            self._draws = self.rng.random((len(step), states.n_decisions))
        u = self._draws[np.arange(len(step)), step]
        # the categorical rule of sample_actions, with the pre-drawn uniforms
        return (u[:, None] > np.cumsum(self._probs(states), axis=-1)).sum(axis=-1)


class RandomPolicy:
    """Uniform over legal actions; useful as an arbitrary-policy oracle."""

    def __init__(self, seed: int):
        self.rng = default_rng(seed)

    def __call__(self, states: States) -> np.ndarray:
        return self.rng.integers(0, states.inventory + 1)


# ---------------------------------------------------------------------------
# Paired comparison
# ---------------------------------------------------------------------------


@dataclass
class PolicyResult:
    name: str
    shortfalls_bps: np.ndarray
    traces: list[EpisodeTrace]

    @property
    def mean_bps(self) -> float:
        return float(self.shortfalls_bps.mean())

    @property
    def variance_bps(self) -> float:
        return float(self.shortfalls_bps.var(ddof=1))

    @property
    def std_bps(self) -> float:
        return float(self.shortfalls_bps.std(ddof=1))


@dataclass
class RunReport:
    results: dict[str, PolicyResult]
    start_rows: np.ndarray
    histogram_edges: np.ndarray
    histogram_counts: dict[str, np.ndarray]
    target_venue: str

    def gain_bps(self, name: str) -> float:
        base = self.results[BASELINE].shortfalls_bps
        model = self.results[name].shortfalls_bps
        return float((model - base).mean())

    def table(self) -> list[dict]:
        rows = []
        for name, res in self.results.items():
            rows.append(
                {
                    "policy": name,
                    "IS_mean_bps": res.mean_bps,
                    "IS_variance_bps": res.variance_bps,
                    "IS_std_bps": res.std_bps,
                    "Gain_bps": self.gain_bps(name),
                }
            )
        return rows

    def to_json_dict(self) -> dict:
        episodes = int(len(self.start_rows))
        return {
            "episodes": episodes,
            "baseline": BASELINE,
            "table": self.table(),
            "config": {"target_venue": self.target_venue, "episodes": episodes},
        }

    def histogram_csv_lines(self) -> list[str]:
        names = list(self.results)
        lines = [",".join(["bin_left", "bin_right"] + names)]
        for i in range(len(self.histogram_edges) - 1):
            cells = [
                format(self.histogram_edges[i], ".9g"),
                format(self.histogram_edges[i + 1], ".9g"),
            ]
            cells += [str(int(self.histogram_counts[n][i])) for n in names]
            lines.append(",".join(cells))
        return lines


@dataclass
class Arm:
    """One policy plus the feature set its states are built from."""

    policy: object
    features: dict[str, np.ndarray] = field(default_factory=dict)


def compare(
    arms: dict[str, Arm],
    frames: FrameSet,
    spec: ProblemSpec,
    target_venue: str,
    n_episodes: int = 1000,
    seed: int = 0,
) -> RunReport:
    """Run every arm over the same episode starts and report IS statistics.

    Start rows depend only on (frames, spec, target venue), so all arms are
    paired even though each sees its own feature scope.
    """
    if BASELINE not in arms:
        raise ValueError(f"baseline {BASELINE!r} not among arms")
    envs = {
        name: ExecutionEnv(frames, spec, arm.features, target_venue)
        for name, arm in arms.items()
    }
    rng = default_rng(seed)
    starts = next(iter(envs.values())).sample_starts(n_episodes, rng)
    p0 = frames.venues[target_venue].best_bid[starts]

    results: dict[str, PolicyResult] = {}
    for name, arm in arms.items():
        traces = run_episodes(envs[name], arm.policy, starts)
        cash = np.array([trace.total_cash for trace in traces])
        shortfalls = implementation_shortfall(cash, spec.total_units, p0) * 1e4
        results[name] = PolicyResult(name, shortfalls, traces)

    pooled = np.concatenate([r.shortfalls_bps for r in results.values()])
    lo, hi = float(pooled.min()), float(pooled.max())
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    edges = np.linspace(lo, hi, HISTOGRAM_BINS + 1)
    counts = {
        name: np.histogram(res.shortfalls_bps, bins=edges)[0]
        for name, res in results.items()
    }
    return RunReport(
        results=results,
        start_rows=starts,
        histogram_edges=edges,
        histogram_counts=counts,
        target_venue=target_venue,
    )


# ---------------------------------------------------------------------------
# Action-space heatmap
# ---------------------------------------------------------------------------

SIGNAL_BUCKETS = ("increase", "unchanged", "decrease")


@dataclass
class HeatmapGrid:
    """Mean aggressiveness a/q over (remaining time, remaining volume) cells,
    one grid per signal bucket.  Cells below min_count visits are missing."""

    n_buckets: int
    sums: dict[str, np.ndarray]
    counts: dict[str, np.ndarray]
    min_count: int = 1

    def mean(self, bucket: str) -> np.ndarray:
        with np.errstate(invalid="ignore"):
            out = self.sums[bucket] / self.counts[bucket]
        return np.where(self.counts[bucket] >= self.min_count, out, np.nan)

    def global_mean(self, bucket: str) -> float:
        total = self.counts[bucket].sum()
        return float(self.sums[bucket].sum() / total) if total else math.nan

    def csv_lines(self) -> list[str]:
        lines = ["time_bucket,volume_bucket,signal_bucket,aggressiveness"]
        for bucket in SIGNAL_BUCKETS:
            mean = self.mean(bucket)
            for t in range(self.n_buckets):
                for v in range(self.n_buckets):
                    val = mean[t, v]
                    cell = "" if not np.isfinite(val) else format(val, ".9g")
                    lines.append(f"{t},{v},{bucket},{cell}")
        return lines


def action_heatmap(
    policy,
    frames: FrameSet,
    spec: ProblemSpec,
    features: dict[str, np.ndarray],
    target_venue: str,
    signal_name: str,
    n_episodes: int = 200,
    seed: int = 0,
    min_count: int = 5,
) -> HeatmapGrid:
    """Aggressiveness of a policy bucketed by remaining time, remaining volume
    and the sign of a designated signal (thresholded at one standard deviation).

    States are visited by rolling the policy out; the recorded aggressiveness
    is the policy's expected action fraction when the policy exposes
    `expected_action` (the policy surface, free of per-draw noise), otherwise
    the action actually taken.  Cells visited fewer than `min_count` times
    are reported as missing.
    """
    env = ExecutionEnv(frames, spec, features, target_venue)
    starts = env.sample_starts(n_episodes, default_rng(seed))
    sig_idx = env.feature_names.index(signal_name)
    sigma = float(np.nanstd(features[signal_name]))
    expected = getattr(policy, "expected_action", None)

    visits = []  # (inventory, steps_left, signal, recorded action) per decision
    states = env.reset(starts)
    for _ in range(spec.n_decisions):
        actions = policy(states)
        recorded = expected(states) if expected else actions
        visits.append((states.inventory, states.steps_left, states.signals[:, sig_idx], recorded))
        env.step(actions)
        states = env.states
    # Episode-major, as if the episodes ran one after another, so that each
    # cell sums its visits in that order.
    inventory, steps_left, signal, recorded = (np.stack(c, axis=1).ravel() for c in zip(*visits))
    held = inventory > 0
    nb = HEATMAP_BUCKETS
    t_b = np.minimum((steps_left / spec.n_decisions * nb).astype(int), nb - 1)
    v_b = np.minimum((inventory / spec.total_units * nb).astype(int), nb - 1)
    cell = t_b * nb + v_b
    bucket = np.full(len(signal), SIGNAL_BUCKETS.index("unchanged"))
    if sigma > 0:
        bucket[signal > sigma] = SIGNAL_BUCKETS.index("increase")
        bucket[signal < -sigma] = SIGNAL_BUCKETS.index("decrease")
    sums, counts = {}, {}
    for i, name in enumerate(SIGNAL_BUCKETS):
        visit = held & (bucket == i)
        frac = recorded[visit] / inventory[visit]
        sums[name] = np.bincount(cell[visit], frac, nb**2).reshape(nb, nb)
        counts[name] = np.bincount(cell[visit], None, nb**2).reshape(nb, nb)
    return HeatmapGrid(n_buckets=nb, sums=sums, counts=counts, min_count=min_count)


# ---------------------------------------------------------------------------
# Report files
# ---------------------------------------------------------------------------


# The CLI writes comparison.json itself; perfbench/worker.py calls this.
def write_report_json(report: RunReport, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report.to_json_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def trace_csv_lines(trace: EpisodeTrace, grid_ts: np.ndarray) -> list[str]:
    """One `t,mid,q,action,reward,cash` line per decision of an episode, after the header."""
    lines = ["t,mid,q,action,reward,cash"]
    for i in range(len(trace.actions)):
        lines.append(
            ",".join(
                [
                    str(int(grid_ts[trace.rows[i]])),
                    format(trace.mids[i], ".9g"),
                    str(trace.inventory[i]),
                    str(trace.actions[i]),
                    format(trace.rewards[i], ".9g"),
                    format(trace.cash[i], ".9g"),
                ]
            )
        )
    return lines
