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
