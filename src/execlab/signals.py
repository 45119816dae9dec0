"""Single-venue and cross-venue microstructure features plus their
predictive-power evaluation by linear regression.

All rolling statistics use trailing windows that include the current grid
point, so no feature value at time t can see past t.  Missing values are
NaN throughout; cross-venue sums skip missing venues and are NaN only when
every venue is missing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .capture.resample import GRID_NS, FrameSet
from .errors import DegenerateXError, TooFewPointsError

DEFAULT_WINDOW_MS = 30_000
SCOPES = ("single", "cross")  # the experiment arms: the target venue alone, or with its peers
BIN_CURVE_BINS = 20  # bins of a horizon report's bin curve


def window_steps(window_ms: int) -> int:
    steps = window_ms * 1_000_000 // GRID_NS
    if steps < 1:
        raise ValueError(f"{window_ms} ms is shorter than one {GRID_NS / 1e6:g} ms grid step")
    return steps


def horizon_steps(horizon_ms: int) -> int:
    ns = horizon_ms * 1_000_000
    if ns <= 0 or ns % GRID_NS:
        raise ValueError(f"{horizon_ms} ms is not a positive multiple of the {GRID_NS / 1e6:g} ms grid")
    return ns // GRID_NS


def _trailing_min(x: np.ndarray, window: int) -> np.ndarray:
    """Minimum over the trailing `window` points including t, expanding
    during warmup, in two cumulative passes (van Herk 1992; Gil and Werman
    1993).

    The series is front-padded with `window - 1` cells of +inf and cut into
    blocks of `window`; any window of that length spans at most two blocks,
    so its minimum is the smaller of the suffix minimum from its first cell
    within that cell's block and the prefix minimum up to its last.  +0.0
    and -0.0 compare equal, so when a window holds both, which of them is
    returned is unspecified.
    """
    n = len(x)
    # Any window of n or more points is the expanding window.
    window = max(1, min(window, n))
    pad = window - 1
    n_blocks = -(-(n + pad) // window)
    buf = np.full(n_blocks * window, np.inf)
    buf[pad : pad + n] = x
    blocks = buf.reshape(n_blocks, window)
    prefix = np.minimum.accumulate(blocks, axis=1).ravel()
    suffix = np.minimum.accumulate(blocks[:, ::-1], axis=1)[:, ::-1].ravel()
    return np.minimum(suffix[:n], prefix[pad : pad + n])


def trailing_min_max(x: np.ndarray, window: int) -> tuple[np.ndarray, np.ndarray]:
    """Trailing-window (inclusive of t, expanding during warmup) min and max.

    Non-finite values are skipped inside the window; output is NaN where x
    itself is not finite.  The sign of a zero extremum is unspecified when
    the window holds both +0.0 and -0.0 (see `_trailing_min`).
    """
    bad = ~np.isfinite(x)
    lo = _trailing_min(np.where(bad, np.inf, x), window)
    hi = -_trailing_min(np.where(bad, np.inf, -x), window)
    lo[bad] = np.nan
    hi[bad] = np.nan
    return lo, hi


def trailing_mean(x: np.ndarray, window: int) -> np.ndarray:
    """Trailing-window (inclusive, expanding warmup) NaN-skipping mean."""
    valid = np.isfinite(x)
    vals = np.where(valid, x, 0.0)
    csum = np.concatenate(([0.0], np.cumsum(vals)))
    ccnt = np.concatenate(([0], np.cumsum(valid)))
    idx = np.arange(len(x))
    start = np.maximum(idx - window + 1, 0)
    wsum = csum[idx + 1] - csum[start]
    wcnt = ccnt[idx + 1] - ccnt[start]
    out = np.full(len(x), np.nan)
    nz = wcnt > 0
    out[nz] = wsum[nz] / wcnt[nz]
    out[~valid] = np.nan
    return out


# ---------------------------------------------------------------------------
# Features
# ---------------------------------------------------------------------------


def flow_imbalance(frames: FrameSet, venue: str) -> np.ndarray:
    """Taker buy volume minus taker sell volume per grid window."""
    vf = frames.venues[venue]
    return np.where(vf.present, vf.buy_volume - vf.sell_volume, np.nan)


def flow_imbalance_norm(x: np.ndarray, window: int) -> np.ndarray:
    """Sign-preserving min/max normalization over a trailing window.

    sign(x) * (|x| - min|x|) / (max|x| - min|x|), extrema over the trailing
    `window` points including the current one; a degenerate window
    (max == min) yields 0.  Result lies in [-1, 1].
    """
    mag = np.abs(x)
    lo, hi = trailing_min_max(mag, window)
    scale = hi - lo
    out = np.full(len(x), np.nan)
    ok = np.isfinite(x) & np.isfinite(scale) & (scale > 0)
    out[ok] = np.sign(x[ok]) * (mag[ok] - lo[ok]) / scale[ok]
    degenerate = np.isfinite(x) & np.isfinite(scale) & (scale == 0)
    out[degenerate] = 0.0
    return out


def depth_imbalance(frames: FrameSet, venue: str) -> np.ndarray:
    """(B - A) / (B + A) over the cumulative top-5 depth of each side."""
    vf = frames.venues[venue]
    b = vf.bid_qty.sum(axis=1)
    a = vf.ask_qty.sum(axis=1)
    total = b + a
    values = np.full(frames.n_frames, np.nan)
    ok = vf.present & (total > 0)
    values[ok] = (b[ok] - a[ok]) / total[ok]
    return values


def cross_sum(series: list[np.ndarray]) -> np.ndarray:
    """Sum across venues, skipping missing; NaN only when all are missing."""
    stack = np.vstack(series)
    finite = np.isfinite(stack)
    summed = np.where(finite, stack, 0.0).sum(axis=0)
    return np.where(finite.any(axis=0), summed, np.nan)


def peer_spread(frames: FrameSet, target: str) -> np.ndarray:
    """Sum over peer venues of (peer mid - target mid), in price units."""
    tgt = frames.venues[target]
    total = np.zeros(frames.n_frames)
    n_peers = np.zeros(frames.n_frames, dtype=int)
    for name, vf in frames.venues.items():
        if name == target:
            continue
        ok = vf.present & tgt.present
        total = np.where(ok, total + vf.mid - tgt.mid, total)
        n_peers += ok.astype(int)
    return np.where(n_peers > 0, total, np.nan)


def peer_spread_centered(spread: np.ndarray, window: int) -> np.ndarray:
    """Spread minus its trailing-window mean (basis removal)."""
    return spread - trailing_mean(spread, window)


def future_return_bps(frames: FrameSet, venue: str, h_steps: int) -> np.ndarray:
    """1e4 * (mid[t+h] - mid[t]) / mid[t]; the final h points are missing."""
    mid = np.where(frames.venues[venue].present, frames.venues[venue].mid, np.nan)
    out = np.full(len(mid), np.nan)
    out[:-h_steps] = 1e4 * (mid[h_steps:] - mid[:-h_steps]) / mid[:-h_steps]
    return out


# ---------------------------------------------------------------------------
# Regression
# ---------------------------------------------------------------------------


def r_squared(y: np.ndarray, yhat: np.ndarray) -> float:
    """Coefficient of determination, 1 - SS_res / SS_tot."""
    y = np.asarray(y, dtype=float)
    yhat = np.asarray(yhat, dtype=float)
    ss_res = float(np.sum((y - yhat) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0.0:
        return 1.0 if ss_res == 0.0 else 0.0
    return 1.0 - ss_res / ss_tot


@dataclass(frozen=True)
class LinearFit:
    alpha: float
    beta: float
    r2: float
    n: int
    degenerate: bool = False  # a zero-variance regressor: alpha, beta and r2 are NaN


def fit_line(x: np.ndarray, y: np.ndarray) -> LinearFit:
    """In-sample least-squares line of y on x over paired finite points."""
    mask = np.isfinite(x) & np.isfinite(y)
    xs, ys = x[mask], y[mask]
    if len(xs) < 3:
        raise TooFewPointsError(f"{len(xs)} paired points")
    xm = xs.mean()
    var = float(np.sum((xs - xm) ** 2))
    if var == 0.0:
        raise DegenerateXError("regressor has zero variance")
    beta = float(np.sum((xs - xm) * (ys - ys.mean())) / var)
    alpha = float(ys.mean() - beta * xm)
    return LinearFit(alpha, beta, r_squared(ys, alpha + beta * xs), len(xs))


@dataclass(frozen=True)
class RegressionReport:
    feature: str
    target_venue: str
    horizons_ms: tuple[int, ...]
    fits: tuple[LinearFit, ...]
    bin_horizon_ms: int
    bin_centers: np.ndarray
    bin_mean_bps: np.ndarray  # NaN where a bin is empty
    bin_counts: np.ndarray

    def to_json_dict(self) -> dict:
        return {
            "feature": self.feature,
            "target_venue": self.target_venue,
            "horizons": [
                {"horizon_ms": h, "alpha": None, "beta": None, "r2": None, "n": f.n, "degenerate": True}
                if f.degenerate
                else {"horizon_ms": h, "alpha": f.alpha, "beta": f.beta, "r2": f.r2, "n": f.n}
                for h, f in zip(self.horizons_ms, self.fits)
            ],
            "bin_curve": {
                "horizon_ms": self.bin_horizon_ms,
                "centers": [float(c) for c in self.bin_centers],
                "mean_return_bps": [
                    None if not np.isfinite(v) else float(v) for v in self.bin_mean_bps
                ],
                "counts": [int(c) for c in self.bin_counts],
            },
        }


def bin_curve(
    x: np.ndarray, y: np.ndarray, n_bins: int = 20
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mean of y in equal-width bins over the observed range of x.

    The support is the 0.5-99.5 percentile range so a handful of outliers
    cannot stretch the bins and starve them; samples beyond it count toward
    the edge bins.  For factors normalized into [-1, 1] this is the nominal
    range.  Fewer than three paired points raise TooFewPointsError.
    """
    mask = np.isfinite(x) & np.isfinite(y)
    xs, ys = x[mask], y[mask]
    if len(xs) < 3:
        raise TooFewPointsError(f"{len(xs)} paired points")
    lo, hi = (float(q) for q in np.percentile(xs, [0.5, 99.5]))
    if lo == hi:
        lo, hi = float(xs.min()), float(xs.max())
    if lo == hi:
        hi = lo + 1.0
    edges = np.linspace(lo, hi, n_bins + 1)
    idx = np.clip(np.digitize(xs, edges) - 1, 0, n_bins - 1)
    counts = np.bincount(idx, minlength=n_bins)
    sums = np.bincount(idx, weights=ys, minlength=n_bins)
    means = np.full(n_bins, np.nan)
    nz = counts > 0
    means[nz] = sums[nz] / counts[nz]
    centers = (edges[:-1] + edges[1:]) / 2.0
    return centers, means, counts


def horizon_report(
    name: str,
    values: np.ndarray,
    frames: FrameSet,
    target_venue: str,
    horizons_ms: tuple[int, ...],
    bin_horizon_ms: int,
) -> RegressionReport:
    """One regression of the feature `name` per horizon plus the bin curve at
    the designated horizon.  A feature with no variance over a horizon's
    paired points, such as the peer spread of venues that quote alike, gets
    a degenerate fit there instead of an error.  Too few paired points at
    any horizon raise TooFewPointsError naming the feature and the horizon."""
    fits = []
    for h_ms in horizons_ms:
        y = future_return_bps(frames, target_venue, horizon_steps(h_ms))
        try:
            fits.append(fit_line(values, y))
        except DegenerateXError:
            n = int(np.count_nonzero(np.isfinite(values) & np.isfinite(y)))
            fits.append(LinearFit(np.nan, np.nan, np.nan, n, degenerate=True))
        except TooFewPointsError as exc:
            raise TooFewPointsError(f"feature {name} at horizon {h_ms} ms: {exc}") from None
    y_bin = future_return_bps(frames, target_venue, horizon_steps(bin_horizon_ms))
    try:
        centers, means, counts = bin_curve(values, y_bin, BIN_CURVE_BINS)
    except TooFewPointsError as exc:
        raise TooFewPointsError(f"feature {name} at bin horizon {bin_horizon_ms} ms: {exc}") from None
    return RegressionReport(
        feature=name,
        target_venue=target_venue,
        horizons_ms=tuple(horizons_ms),
        fits=tuple(fits),
        bin_horizon_ms=bin_horizon_ms,
        bin_centers=centers,
        bin_mean_bps=means,
        bin_counts=counts,
    )


# ---------------------------------------------------------------------------
# The feature set shared by the signals report and the execution agent
# ---------------------------------------------------------------------------

# Each `signals.features` config entry and the series the report fits for it.
REPORT_SERIES = {
    "flow_imbalance_norm": ("flow_imbalance_norm", "cross_flow_imbalance_norm"),
    "depth_imbalance": ("depth_imbalance", "cross_depth_imbalance"),
    "peer_spread_centered": ("peer_spread_centered",),
}

SINGLE_FEATURES = ("flow_imbalance_norm", "depth_imbalance")
CROSS_FEATURES = (
    "flow_imbalance_norm",
    "depth_imbalance",
    "cross_flow_imbalance_norm",
    "cross_depth_imbalance",
    "peer_spread_centered_bps",
)


def feature_series(frames: FrameSet, target_venue: str, window_ms: int) -> dict[str, np.ndarray]:
    """Every feature of one target venue by name: its own normalized flow and
    depth imbalances, their sums over all venues (`cross_` prefix), and the
    centered peer spread, in price units and in bps of the target mid.  The
    report and the agent's bundle both select from these, so both see the
    same numbers.
    """
    w = window_steps(window_ms)
    oimn = [flow_imbalance_norm(flow_imbalance(frames, v), w) for v in frames.venue_names]
    imb = [depth_imbalance(frames, v) for v in frames.venue_names]
    target = frames.venue_names.index(target_venue)
    values = {
        "flow_imbalance_norm": oimn[target],
        "depth_imbalance": imb[target],
        "cross_flow_imbalance_norm": cross_sum(oimn),
        "cross_depth_imbalance": cross_sum(imb),
        "peer_spread_centered": peer_spread_centered(peer_spread(frames, target_venue), w),
    }
    with np.errstate(invalid="ignore", divide="ignore"):
        values["peer_spread_centered_bps"] = (
            1e4 * values["peer_spread_centered"] / frames.venues[target_venue].mid
        )
    return values


def feature_bundle(
    frames: FrameSet,
    target_venue: str,
    scope: str,
    window_ms: int = DEFAULT_WINDOW_MS,
) -> dict[str, np.ndarray]:
    """Feature arrays over the full grid for one experiment arm.

    scope "single": SINGLE_FEATURES, the target venue's own normalized flow
    and depth imbalances.  scope "cross": CROSS_FEATURES, those plus the
    cross-venue sums and the centered peer spread (scaled to bps of the
    target mid so every entry is O(1)).
    """
    if scope not in SCOPES:
        raise ValueError(f"scope must be one of {SCOPES}, got {scope!r}")
    values = feature_series(frames, target_venue, window_ms)
    return {name: values[name] for name in (SINGLE_FEATURES if scope == "single" else CROSS_FEATURES)}
