"""Two-hidden-layer tanh MLP with hand-derived gradients and Adam.

The whole package trains networks of exactly this shape (64x64 tanh trunk),
so forward, backward and the optimizer are written out explicitly instead of
pulling in an autodiff framework.  The tests check the algebra
against central finite differences (tests/gradcheck.py).

A network's parameters live in one contiguous float64 vector; the layer
arrays are reshaped views into it, in `FIELDS` order.  Adam and the
gradients work on the vector, the forward and backward passes on the views.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

HIDDEN = 64
OUT_SCALE = 0.01  # output-layer init scale
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8

FIELDS = ("w1", "b1", "w2", "b2", "w3", "b3")


class MlpParams:
    """Parameters (or gradients) of one network: `flat` is the vector, `arrays`
    and the attributes named in `FIELDS` are views into it."""

    def __init__(self, n_in: int, n_out: int, flat: np.ndarray | None = None):
        shapes = ((n_in, HIDDEN), (HIDDEN,), (HIDDEN, HIDDEN), (HIDDEN,), (HIDDEN, n_out), (n_out,))
        bounds = np.cumsum([0, *(prod(s) for s in shapes)])
        self.n_in, self.n_out = n_in, n_out
        self.flat = np.zeros(bounds[-1]) if flat is None else flat
        self.arrays = tuple(self.flat[lo:hi].reshape(s) for lo, hi, s in zip(bounds, bounds[1:], shapes))
        for name, view in zip(FIELDS, self.arrays):
            setattr(self, name, view)

    @property
    def size(self) -> int:
        return self.flat.size

    def copy(self) -> "MlpParams":
        return MlpParams(self.n_in, self.n_out, self.flat.copy())


def init_mlp(rng: np.random.Generator, n_in: int, n_out: int) -> MlpParams:
    """He-style scaled normal init; the output layer starts near zero
    (OUT_SCALE) so the policy begins close to uniform and the value head
    close to zero."""
    params = MlpParams(n_in, n_out)
    for w, scale in ((params.w1, 1.0), (params.w2, 1.0), (params.w3, OUT_SCALE)):
        w[...] = rng.standard_normal(w.shape) * scale / np.sqrt(w.shape[0])
    return params


@dataclass
class ForwardCache:
    x: np.ndarray
    h1: np.ndarray
    h2: np.ndarray
    out: np.ndarray


def mlp_forward(params: MlpParams, x: np.ndarray) -> ForwardCache:
    # bias and tanh in place: the same bits as tanh(x @ w + b)
    h1 = x @ params.w1
    h1 += params.b1
    np.tanh(h1, out=h1)
    h2 = h1 @ params.w2
    h2 += params.b2
    np.tanh(h2, out=h2)
    out = h2 @ params.w3
    out += params.b3
    return ForwardCache(x=x, h1=h1, h2=h2, out=out)


def mlp_backward(
    params: MlpParams, cache: ForwardCache, grad_out: np.ndarray, *, out: MlpParams | None = None
) -> MlpParams:
    """Gradients of a scalar loss given dL/d(out), written into `out` (a fresh
    MlpParams when None) and returned."""
    grads = MlpParams(params.n_in, params.n_out, np.empty(params.size)) if out is None else out
    g3 = grad_out
    np.matmul(cache.h2.T, g3, out=grads.w3)
    g3.sum(axis=0, out=grads.b3)
    dtanh = np.multiply(cache.h2, cache.h2)  # 1 - h², in one scratch array
    np.subtract(1.0, dtanh, out=dtanh)
    g2 = g3 @ params.w3.T
    g2 *= dtanh
    np.matmul(cache.h1.T, g2, out=grads.w2)
    g2.sum(axis=0, out=grads.b2)
    np.multiply(cache.h1, cache.h1, out=dtanh)
    np.subtract(1.0, dtanh, out=dtanh)
    g1 = g2 @ params.w2.T
    g1 *= dtanh
    np.matmul(cache.x.T, g1, out=grads.w1)
    g1.sum(axis=0, out=grads.b1)
    return grads


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def zeros(cls, n: int) -> "AdamState":
        return cls(m=np.zeros(n), v=np.zeros(n), t=0)

    def copy(self) -> "AdamState":
        return AdamState(self.m.copy(), self.v.copy(), self.t)


def adam_step(params: MlpParams, grads: MlpParams, state: AdamState, lr: float) -> None:
    """In-place Adam update of the parameter vector and of `state.m`, `state.v`.

    Every product and sum is rounded as in the textbook form
    m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g, p -= lr*m_hat/(sqrt(v_hat)+eps).
    """
    g = grads.flat
    state.t += 1
    scratch = np.multiply(g, 1.0 - ADAM_BETA1)
    state.m *= ADAM_BETA1
    state.m += scratch
    np.multiply(g, 1.0 - ADAM_BETA2, out=scratch)
    scratch *= g
    state.v *= ADAM_BETA2
    state.v += scratch
    np.divide(state.v, 1.0 - ADAM_BETA2**state.t, out=scratch)  # v_hat
    np.sqrt(scratch, out=scratch)
    scratch += ADAM_EPS
    step = np.divide(state.m, 1.0 - ADAM_BETA1**state.t)  # m_hat
    step *= lr
    step /= scratch
    params.flat -= step
