"""Equispaced Fourier features and their aliasing modulo n.

The fact every fast route rests on, stated once: on n equispaced points the
feature of frequency k, exp(-2*pi*i*j*k/n), depends on k only through its
residue class k mod n (per axis in d dimensions).  So, for any window of
frequencies, the samples of a coefficient vector are one length-n FFT of
its fold modulo n (``model.folded_sums``, ``equispaced_predict``) and fix
exactly its class sums c = ifft(y); every weighted Gram F diag(w) F^* is
(multi-level) circulant with eigenvalues n times the class sums of w
(``gram_eigenvalues``), so every risk splits into sums over classes; and
the minimiser of ||W^(-q) theta|| among coefficients with class sums c is

    theta_k = s_k c[k mod n] / Lambda[k mod n],   s = (w / leader)^(2q),

with Lambda the class sums of s and each class scaled by its largest
weight, its leader, which keeps every occupied Lambda >= 1 for any q
(``class_weights``).  pocketfft takes any n, not only powers of two.

Sign convention: exp(-2*pi*i*j*k/n) in the regression code.  The conjugate
exp(+2*pi*i*j*k/n), used by ``interpolation`` (where c = fftn(y) / n^d),
differs by relabelling and yields identical Gram matrices and risks.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError
from .model import GridConfig, Spectrum, check_finite_nonnegative, compensated_classes, folded_sums


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
    if side not in ("T", "Tc"):
        raise ConfigurationError(f"side must be 'T' or 'Tc', got {side!r}")
    start, stop = (0, grid.p) if side == "T" else (grid.p, spectrum.D)
    compensated = compensated_classes(spectrum.D, grid.n)
    return grid.n * folded_sums((spectrum.t ** u)[start:stop], grid.n, compensated, start=start)


def class_weights(weights: np.ndarray, n: int, q: float, start: int = 0) -> tuple[np.ndarray, np.ndarray, tuple]:
    """Class-scaled weights s, their class sums Lambda, and each entry's class.

    Entry i along every axis of ``weights`` is frequency start + i.  Each
    class is scaled by its leader, the largest weight it holds (a maximum
    fold over every axis), so s = (weights / leader[classes])^(2q) has
    max s = 1 in every class; Lambda, shape (n,)*d, holds the per-class sums
    of s: >= 1 in every occupied class, 0 in the empty ones.  ``classes`` is
    an open mesh of class indices, so ``Lambda[classes]`` has the shape of
    ``weights``.
    """
    weights = np.asarray(weights)
    leader = weights
    for axis in range(weights.ndim):
        leader = folded_sums(leader, n, start=start, axis=axis, reduce=np.maximum)
    classes = np.ix_(*[(start + np.arange(size)) % n for size in weights.shape])
    s = np.power(weights / leader[classes], 2.0 * q)
    lam = s
    for axis in range(s.ndim):
        lam = folded_sums(lam, n, start=start, axis=axis)
    return s, lam, classes


def equispaced_predict(theta: np.ndarray, n: int) -> np.ndarray:
    """Evaluate y_j = sum_k theta_k exp(-2*pi*i*j*k/n) for j in [0, n).

    Columns alias modulo n, so the sum folds to a single length-n FFT.  A
    (..., D) batch of coefficient vectors gives a (..., n) batch of samples.
    """
    return np.fft.fft(folded_sums(np.asarray(theta, dtype=complex), n))
