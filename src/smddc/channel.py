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
        self.generator = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, stream_index))))


def draw_exponential(stream: RngStream, mean: float, size, out=None):
    """Draw Exp(mean) variates (density (1/mean) exp(-x/mean)) into `out`, or a new array if None.

    `out`, if given, is a C-contiguous float64 array of shape `size`, and
    it is returned.  Either way the variates are the same bits as
    stream.generator.exponential(mean, size) would give.  Zero draws are a
    measure-zero artifact of the underlying uniform generator and are
    rejected by resampling through one reused mask, so every gain is
    positive.
    """
    if not mean > 0:
        raise ValueError(f"mean must be positive, got {mean}")
    gen = stream.generator
    out = gen.standard_exponential(size, out=out)
    if mean != 1.0:
        out *= mean
    mask = None
    while not out.all():
        mask = np.equal(out, 0.0, out=mask)
        out[mask] = gen.exponential(mean, np.count_nonzero(mask))
    return out


def gain_from_neg_log_cdf(a, out=None):
    """The Exp(1) gain x at minus-log-CDF a = -log(1 - e^{-x}), for normal a < 709.

    x = -log(1 - e^{-a}) is log1mexp (Maechler, "Accurately computing
    log(1 - exp(-|a|))", 2012).  The plain -log(-expm1(-a)) loses digits as
    a grows and returns 0 from a ~ 36.7 on; the identity
    x = log1p(1 / expm1(a)) has no cancellation anywhere (each step keeps
    its relative error) and needs no split, so it runs as one pass from
    `a` into `out` (a new array if None; `a` itself is left as it was) and
    two in place on it.
    """
    x = np.expm1(a, out=out)
    np.reciprocal(x, out=x)
    np.log1p(x, out=x)
    return x
