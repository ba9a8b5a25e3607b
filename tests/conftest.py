"""Shared fixtures and helpers: smooth in-simplex histories, used wherever
conserved-quantity accuracy matters."""

import math

import numpy as np

from siq.dde_core import History


def smooth_simplex_history(span: float, seed: int, dim: int = 3) -> History:
    """Random smooth history with values in the open simplex.

    Components are softmax-normalized exp(a_i sin(w_i theta + c_i)).
    """
    rng = np.random.default_rng(seed)
    amp = rng.uniform(0.2, 0.8, dim)
    freq = rng.uniform(0.5, 3.0, dim)
    phase = rng.uniform(0.0, 2.0 * math.pi, dim)

    def fn(theta):
        f = [math.exp(amp[i] * math.sin(freq[i] * theta + phase[i]))
             for i in range(dim)]
        total = sum(f)
        return tuple(v / total for v in f)

    return History(span=span, fn=fn, jumps=())
