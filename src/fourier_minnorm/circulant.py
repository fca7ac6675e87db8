"""Structured linear algebra for equispaced Fourier features.

The feature matrix restricted to a column window [start, stop) has entries
F[j, k] = exp(-2*pi*i*j*k/n).  Columns alias modulo n, so for any window the
weighted Gram matrices F diag(w) F^* are circulant, with eigenvalues n times
the per-residue-class sums of w, and eigenvalues, products and solves reduce
to length-n FFTs.  numpy's pocketfft handles arbitrary
(mixed-radix) lengths, so n need not be a power of two.

Sign convention: exp(-2*pi*i*j*k/n) throughout.  The conjugate convention
exp(+2*pi*i*j*k/n) differs by relabelling and yields identical Gram matrices
and risks; only the one above is used internally.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, SingularSystemError, StructureError
from .model import COMPENSATED_SUM_MIN_D, GridConfig, Spectrum, folded_sums


@dataclass(frozen=True)
class FourierFeatures:
    """Equispaced Fourier feature matrix over a half-open column window."""

    n: int
    start: int
    stop: int
    matrix: np.ndarray = field(repr=False)  # (n, stop - start), complex, unit-modulus entries


def fourier_matrix(n: int, start: int, stop: int) -> np.ndarray:
    """Raw (n, stop-start) array with entries exp(-2*pi*i*j*k/n)."""
    rows = np.arange(n)[:, None]
    cols = np.arange(start, stop)[None, :]
    return np.exp((-2.0j * np.pi / n) * rows * cols)


def feature_matrix(grid: GridConfig, cols: tuple[int, int]) -> FourierFeatures:
    """Feature matrix for the column window ``cols`` of a grid configuration."""
    start, stop = cols
    if start >= stop:
        raise ConfigurationError(f"empty column range [{start}, {stop})")
    if not 0 <= start < stop <= grid.D:
        raise ConfigurationError(f"column range [{start}, {stop}) outside [0, {grid.D})")
    m = fourier_matrix(grid.n, start, stop)
    m.setflags(write=False)
    return FourierFeatures(n=grid.n, start=start, stop=stop, matrix=m)


def gram_eigenvalues(spectrum: Spectrum, grid: GridConfig, u: float, side: str) -> np.ndarray:
    """Eigenvalues of the weighted Gram matrix on side "T" or "Tc".

    Returns lambda[s] = n * sum over aliases of t_{s + n*nu}^u, ordered by the
    DFT frequency index s = 0, ..., n-1 (no sorting), so each entry is
    positionally checkable against the aliased-index formula.  Under the
    exp(-2*pi*i*j*k/n) sign convention the FFT of the Gram's first column
    yields the same values in index-reversed order (s -> (-s) mod n); the
    multiset, and hence every trace and solve, is unaffected.
    """
    if u < 0:
        raise ConfigurationError(f"weight exponent u must be >= 0, got {u}")
    compensated = spectrum.D >= COMPENSATED_SUM_MIN_D
    values = spectrum.t_pow(u)
    if side == "T":
        if grid.l is None:
            raise StructureError(f"side T needs p to be a multiple of n, got p={grid.p}, n={grid.n}")
        return grid.n * folded_sums(values[: grid.p], grid.n, compensated)
    if side == "Tc":
        if grid.tau is None or grid.l is None:
            raise StructureError(
                f"side Tc needs n | D and n | p, got D={grid.D}, p={grid.p}, n={grid.n}"
            )
        if grid.p == grid.D:
            return np.zeros(grid.n)
        return grid.n * folded_sums(values[grid.p :], grid.n, compensated)
    raise ConfigurationError(f"side must be 'T' or 'Tc', got {side!r}")


@dataclass(frozen=True)
class CirculantGram:
    """Circulant matrix held as its first column plus FFT eigenvalues."""

    n: int
    first_column: np.ndarray = field(repr=False)
    eigenvalues: np.ndarray = field(repr=False)

    @classmethod
    def from_first_column(cls, column: np.ndarray) -> "CirculantGram":
        column = np.asarray(column, dtype=complex)
        eig = np.fft.fft(column)
        column.setflags(write=False)
        eig.setflags(write=False)
        return cls(n=len(column), first_column=column, eigenvalues=eig)

    @classmethod
    def from_eigenvalues(cls, eigenvalues: np.ndarray) -> "CirculantGram":
        eig = np.asarray(eigenvalues, dtype=complex)
        column = np.fft.ifft(eig)
        column.setflags(write=False)
        eig.setflags(write=False)
        return cls(n=len(eig), first_column=column, eigenvalues=eig)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Circular convolution with the first column, via FFT."""
        return np.fft.ifft(np.fft.fft(np.asarray(x, dtype=complex)) * self.eigenvalues)

    def dense(self) -> np.ndarray:
        """Materialise the full matrix (small n; tests and oracles)."""
        return np.stack([np.roll(self.first_column, k) for k in range(self.n)], axis=1)


def circulant_solve(gram: CirculantGram, rhs: np.ndarray) -> np.ndarray:
    """Solve gram @ x = rhs by FFT diagonalisation."""
    rhs = np.asarray(rhs, dtype=complex)
    if rhs.shape != (gram.n,):
        raise ConfigurationError(f"rhs has shape {rhs.shape}, expected ({gram.n},)")
    if np.any(np.abs(gram.eigenvalues) < np.finfo(float).tiny):
        raise SingularSystemError("circulant system has a zero eigenvalue")
    return np.fft.ifft(np.fft.fft(rhs) / gram.eigenvalues)


def fold_mod(values: np.ndarray, n: int) -> np.ndarray:
    """Sums of values[..., k] over residue classes k = m (mod n); pads with zeros."""
    return folded_sums(np.asarray(values), n)


def equispaced_predict(theta: np.ndarray, n: int) -> np.ndarray:
    """Evaluate y_j = sum_k theta_k exp(-2*pi*i*j*k/n) for j in [0, n).

    Columns alias modulo n, so the sum folds to a single length-n FFT.  A
    (..., D) batch of coefficient vectors gives a (..., n) batch of samples.
    """
    return np.fft.fft(fold_mod(np.asarray(theta, dtype=complex), n))
