"""Reference policies for the tests."""

import numpy as np
from numpy.random import default_rng

from execlab.capture.resample import BOOK_DEPTH, VenueFrames, book_table
from execlab.env import States


class RandomPolicy:
    """Uniform over legal actions; useful as an arbitrary-policy oracle."""

    def __init__(self, seed: int):
        self.rng = default_rng(seed)

    def __call__(self, states: States) -> np.ndarray:
        return self.rng.integers(0, states.inventory + 1)


def admissible_starts(present: np.ndarray, step_rows: int, n_decisions: int) -> np.ndarray:
    """The start rows `ExecutionEnv.admissible_starts` admits, as it once
    found them: the (start, decision) row matrix gathered from `present` at
    once.  Empty when no start is admissible or the market is shorter than
    one episode."""
    last_start = len(present) - 1 - step_rows * n_decisions
    starts = np.arange(max(last_start + 1, 0))
    rows = starts[:, None] + np.arange(n_decisions + 1)[None, :] * step_rows
    return starts[present[rows].all(axis=1)]


def state_signals(features: dict[str, np.ndarray], n_frames: int) -> np.ndarray:
    """`ExecutionEnv`'s state matrix as it once built it: the column stack of
    the features, copied with every non-finite entry replaced by 0."""
    raw = np.column_stack(list(features.values())) if features else np.zeros((n_frames, 0))
    return np.where(np.isfinite(raw), raw, 0.0)


def venue_frames(present, best_bid, best_ask, mid, buy_volume, sell_volume, bid_price, bid_qty, ask_price, ask_qty):
    """VenueFrames of per-frame columns and (n, BOOK_DEPTH) levels, its
    book table built by the encoder from one row per frame."""
    rows = np.stack([np.asarray(a, dtype=np.float64) for a in (bid_price, bid_qty, ask_price, ask_qty)], axis=1)
    book, book_at = book_table(rows, np.arange(len(present)))
    return VenueFrames(present, best_bid, best_ask, mid, buy_volume, sell_volume, book, book_at)


def per_frame_levels(reads: np.ndarray, read_frames: np.ndarray, n: int) -> dict[str, np.ndarray]:
    """The resampler's levels as it once held them, one (n, BOOK_DEPTH) array
    each: `reads` (one row per book read, row 0 the empty book, the first 4
    columns present, best bid, best ask and mid) expanded to every frame,
    row i + 1 holding from frame read_frames[i] until the next read."""
    read_at = np.zeros(n, dtype=np.intp)
    read_at[read_frames] = np.arange(1, len(read_frames) + 1)
    table = reads[np.maximum.accumulate(read_at)]
    levels = table[:, 4:].reshape(n, 4, BOOK_DEPTH)
    return {name: levels[:, i].copy() for i, name in enumerate(("bid_price", "bid_qty", "ask_price", "ask_qty"))}
