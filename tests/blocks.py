"""Whole planes of a harness block draw, for tests of the draw and its statistics."""

from __future__ import annotations

import numpy as np

from lpic import simulate


def read_noise(noise, size, step):
    """The (2, size, M, K) planes w_re, w_im of a block's noise reader, step trials a slice.

    noise is the reader simulate._draw_symbols returns.  Every w_re slice is
    read before any w_im slice, the order the count reads them in; each is
    copied, as the next read may overwrite it.
    """
    parts = [slice(lo, min(lo + step, size)) for lo in range(0, size, step)]
    return np.stack([
        np.concatenate([noise(plane, part).copy() for part in parts]) for plane in (0, 1)
    ])


def block_planes(rng, cfg, sigma2, size, step=None, keep_real=False):
    """bits and the (4, size, M, K) planes h_re, h_im, w_re, w_im of one fixed-mode block.

    The block is drawn by simulate._draw_symbols with step trials a slice
    (default: all of them) and its noise read by read_noise.
    """
    step = step or size
    bits, fading, noise, _ = simulate._draw_symbols(rng, cfg, sigma2, size, step, keep_real)
    return bits, np.concatenate([fading, read_noise(noise, size, step)])
