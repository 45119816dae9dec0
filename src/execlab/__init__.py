"""execlab: a desk-scale laboratory for cross-venue optimal order execution.

Pipeline: capture (or synthesize) multi-venue market data, resample onto a
fixed 10ms grid, compute cross-venue microstructure features, train a PPO
execution agent against a simulated fill environment, and compare its
implementation shortfall against a TWAP baseline.
"""

__version__ = "0.1.0"
