"""Reference policies for the tests."""

import numpy as np
from numpy.random import default_rng

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
