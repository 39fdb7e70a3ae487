"""Rayleigh block-fading channel gains with reproducible seeded streams.

Channel power gains are iid Exp(1) (unit-mean exponential), redrawn every
slot.  Streams are derived from a (seed, stream_index) pair so that results
are bit-identical for any degree of parallelism.
"""

import numpy as np


class RngStream:
    """Deterministic random stream keyed by (seed, stream_index).

    Identical (seed, stream_index) pairs produce identical draw sequences,
    regardless of how many other streams exist or in what order they run.
    """

    def __init__(self, seed: int, stream_index: int = 0):
        self.seed = seed
        self.stream_index = stream_index
        ss = np.random.SeedSequence((seed, stream_index))
        self._gen = np.random.Generator(np.random.PCG64(ss))

    @property
    def generator(self) -> np.random.Generator:
        return self._gen

    def __repr__(self):
        return f"RngStream(seed={self.seed}, stream_index={self.stream_index})"


def draw_exponential(stream: RngStream, mean: float, size):
    """Draw Exp(mean) variates (density (1/mean) exp(-x/mean)).

    Zero draws are a measure-zero artifact of the underlying uniform
    generator and are rejected by resampling, so every gain is positive.
    """
    if mean <= 0:
        raise ValueError(f"mean must be positive, got {mean}")
    gen = stream.generator
    out = gen.exponential(mean, size)
    mask = out == 0.0
    while mask.any():
        out[mask] = gen.exponential(mean, int(mask.sum()))
        mask = out == 0.0
    return out


def descending_order_statistics(spacings):
    """Turn an (m, ...) array of iid Exp(1) spacings into m descending Exp(1) order statistics.

    Renyi's representation (David & Nagaraja, *Order Statistics*, sec. 2.5):
    with E_1..E_m iid Exp(1), the partial sums sum_{j<=i} E_j / (m - j + 1)
    are the ascending order statistics of m iid Exp(1) variates.  Works in
    place along the leading axis and returns the reversed view, so [0] is
    the maximum; no sort is needed.  The running sum is a loop over rows:
    np.cumsum over a leading axis runs a strided inner loop and is several
    times slower on large slabs.
    """
    m = len(spacings)
    for j in range(m - 1):  # the last row is divided by 1
        spacings[j] /= m - j
    for j in range(1, m):
        spacings[j] += spacings[j - 1]
    return spacings[::-1]
