"""Equispaced Fourier features and their aliasing modulo n.

The feature matrix restricted to a column window [start, stop) has entries
F[j, k] = exp(-2*pi*i*j*k/n).  Columns alias modulo n, so for any window the
weighted Gram matrices F diag(w) F^* are circulant, with eigenvalues n times
the per-residue-class sums of w (``gram_eigenvalues``), and evaluating a
coefficient vector on the n points folds it modulo n into one length-n FFT
(``equispaced_predict``).  numpy's pocketfft handles arbitrary (mixed-radix)
lengths, so n need not be a power of two.  ``fourier_matrix`` materialises F
for the dense oracles.

Sign convention: exp(-2*pi*i*j*k/n) throughout.  The conjugate convention
exp(+2*pi*i*j*k/n) differs by relabelling and yields identical Gram matrices
and risks; only the one above is used internally.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError
from .model import COMPENSATED_SUM_MIN_D, GridConfig, Spectrum, check_finite_nonnegative, folded_sums


def fourier_matrix(n: int, start: int, stop: int) -> np.ndarray:
    """Raw (n, stop-start) array with entries exp(-2*pi*i*j*k/n)."""
    rows = np.arange(n)[:, None]
    cols = np.arange(start, stop)[None, :]
    return np.exp((-2.0j * np.pi / n) * rows * cols)


def gram_eigenvalues(spectrum: Spectrum, grid: GridConfig, u: float, side: str) -> np.ndarray:
    """Eigenvalues of the weighted Gram matrix on side "T" ([0, p)) or "Tc" ([p, D)), any grid.

    Returns lambda[m] = n * (sum of t_k^u over the members k of residue class m
    on that side), ordered by the class m = 0, ..., n-1 (no sorting), so each
    entry is positionally checkable against the aliased-index formula; an
    empty class gives 0.  Under the exp(-2*pi*i*j*k/n) sign convention the
    FFT of the Gram's first column yields the same values in index-reversed
    order (m -> (-m) mod n); the multiset, and hence every trace and solve,
    is unaffected.
    """
    check_finite_nonnegative(u, "weight exponent u")
    compensated = spectrum.D >= COMPENSATED_SUM_MIN_D
    values = spectrum.t_pow(u)
    if side == "T":
        return grid.n * folded_sums(values[: grid.p], grid.n, compensated)
    if side == "Tc":
        # the fold starts at feature p, which lies in class p mod n
        return grid.n * np.roll(folded_sums(values[grid.p :], grid.n, compensated), grid.p % grid.n)
    raise ConfigurationError(f"side must be 'T' or 'Tc', got {side!r}")


def equispaced_predict(theta: np.ndarray, n: int) -> np.ndarray:
    """Evaluate y_j = sum_k theta_k exp(-2*pi*i*j*k/n) for j in [0, n).

    Columns alias modulo n, so the sum folds to a single length-n FFT.  A
    (..., D) batch of coefficient vectors gives a (..., n) batch of samples.
    """
    return np.fft.fft(folded_sums(np.asarray(theta, dtype=complex), n))
