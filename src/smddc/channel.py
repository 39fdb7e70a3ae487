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


def gain_from_neg_log_cdf(a):
    """The Exp(1) gain x at minus-log-CDF a = -log(1 - e^{-x}), for normal a < 709.

    x = -log(1 - e^{-a}) is log1mexp (Maechler, "Accurately computing
    log(1 - exp(-|a|))", 2012).  The plain -log(-expm1(-a)) loses digits as
    a grows and returns 0 from a ~ 36.7 on; the identity
    x = log1p(1 / expm1(a)) has no cancellation anywhere (each step keeps
    its relative error) and needs no split, so it runs as three in-place
    passes.
    """
    x = np.expm1(a)
    np.reciprocal(x, out=x)
    np.log1p(x, out=x)
    return x
