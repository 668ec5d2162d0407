"""Small-scale channel sampling for the Monte Carlo engine.

The engine draws no length-N array: the rates and the convergence probes
depend on the estimates only through their K x K Gram matrices, whose
unit-variance factors :func:`gram_factor_batch` draws in O(K^2) per trial;
every other K x K term has an exact unit-variance law given the two Grams.
Powers and variances only scale these draws, so one draw serves every point
with the same (K, Nrx, Ntx) (see :mod:`fdrelay.montecarlo`).
"""
from __future__ import annotations

import numpy as np


def _cn(shape, rng: np.random.Generator) -> np.ndarray:
    """Unit-variance circularly-symmetric complex Gaussian samples from one buffer,
    real parts first; 1/sqrt(2) scales it as numpy rounds (a + 1j b) / sqrt(2)."""
    x = rng.standard_normal((2, *shape)) * (1.0 / np.sqrt(2.0))
    z = np.empty(shape, dtype=complex)
    z.real, z.imag = x
    return z


def gram_factor_batch(n_ant: int, k: int, n: int,
                      rng: np.random.Generator) -> np.ndarray:
    """Unit-variance Bartlett factors R^H (n x k x m, m = min(n_ant, k)).

    G is n_ant x k with independent CN(0, variances[j] I) columns. By the
    complex Bartlett decomposition G = Q R diag(sqrt(variances)), with Q
    n_ant x m orthonormal and R m x k upper trapezoidal, independent of Q:
    |R_ii|^2 ~ Gamma(n_ant - i, 1) and R_ij (j > i) iid CN(0, 1). So
    F = diag(sqrt(variances)) R^H has F F^H ~ G^H G, in O(k^2) per trial;
    no variance enters the draw, so one R serves every variance profile,
    and the caller scales it. m < k covers fewer antennas than columns.
    Draw order: the n x m Gamma variates, then the strictly upper entries
    of each R in row-major order.
    """
    m = min(n_ant, k)
    diag = np.arange(m)
    rows, cols = np.triu_indices(m, 1, k)
    r = np.zeros((n, m, k), dtype=complex)
    r[:, diag, diag] = np.sqrt(rng.standard_gamma(n_ant - diag, size=(n, m)))
    r[:, rows, cols] = _cn((n, rows.size), rng)
    return np.swapaxes(np.conjugate(r, out=r), 1, 2)
