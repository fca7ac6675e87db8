"""Function interpolation with truncated Fourier models on periodic grids.

Each problem lives on a d-torus of per-axis domain [x0, x0 + L); the basis
functions are exp(2*pi*i*k*(x - x0)/L) for integer k, and training samples
sit on the equispaced tensor grid x_j = x0 + L*j/n per axis.  (For the
[-1, 1) targets, L = 2 makes this the family exp(pi*i*k*x) up to a unit
per-mode phase, which changes neither fits nor norms.)

A truncation of size m per axis keeps the m frequencies
[0, 1, ..., ceil(m/2)-1, -floor(m/2), ..., -1] (the standard FFT aliasing
order, so odd m = 2h+1 gives the symmetric window {-h, ..., h}).

Frequency weighting uses (1 + |k|)^(-1) per axis; in d > 1 either the
separable product of axis weights or the non-separable Euclidean variant
(1 + ||k||_2)^(-1).

Every method fits every p, the minimiser of ||W^(-q) theta|| among the
least-squares fits; least squares and plain min-norm name its q = 0 case.
By the aliasing fact (see ``circulant``), on n equispaced points per axis it
is theta_k = s_k * fftn(y)[k mod n] / (n^d * Lambda[k mod n]) with
``circulant.class_weights``.  For p <= n each class holds at most one
frequency, so s = Lambda = 1 and every method gives least squares.
The series on the m-point grid of the problem's domain is m^d * ifftn of
the coefficients folded modulo m (``evaluate_on_grid``).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigurationError, NumericalInconsistencyError, UnknownTargetError
from .circulant import class_weights
from .model import _check_integer, check_finite_nonnegative, folded_sums

UNIT_DOMAIN = (0.0, 1.0)

# A min-norm fit must reproduce its samples to this, relative to max(1, ||y||).
RESIDUAL_TOLERANCE = 1e-10


class Method(enum.Enum):
    """The exponent of the fit: the problem's q for weighted min-norm, 0 for the other two, which name one fit."""

    LEAST_SQUARES = "least-squares"
    PLAIN_MIN_NORM = "plain-min-norm"
    WEIGHTED_MIN_NORM = "weighted-min-norm"


class WeightKind(enum.Enum):
    SEPARABLE = "separable"
    EUCLIDEAN = "euclidean"


def symmetric_frequencies(m: int) -> np.ndarray:
    """Integer frequencies kept by an m-term truncation, FFT aliasing order."""
    if m < 1:
        raise ConfigurationError(f"truncation size must be >= 1, got {m}")
    return np.concatenate([np.arange(0, (m + 1) // 2), np.arange(-(m // 2), 0)])


def axis_weights(m: int) -> np.ndarray:
    """Per-axis weights (1 + |k|)^(-1) in the m-term frequency layout."""
    return 1.0 / (1.0 + np.abs(symmetric_frequencies(m)))


def tensor_weights(m: int, d: int, kind: WeightKind) -> np.ndarray:
    """Weight tensor of shape (m,)*d for the chosen variant."""
    if kind is WeightKind.SEPARABLE:
        w = axis_weights(m)
        out = w
        for _ in range(d - 1):
            out = np.multiply.outer(out, w)
        return np.asarray(out)
    sq = symmetric_frequencies(m).astype(float) ** 2
    norm_sq = sq
    for _ in range(d - 1):
        norm_sq = np.add.outer(norm_sq, sq)
    return 1.0 / (1.0 + np.sqrt(norm_sq))


def sample_axis(n: int, domain: tuple[float, float] = UNIT_DOMAIN) -> np.ndarray:
    """n equispaced points on the periodic interval [x0, x0 + L)."""
    start, length = domain
    return start + length * np.arange(n) / n


# ---------------------------------------------------------------------------
# Built-in targets
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Target:
    name: str
    dimension: int
    domain: tuple[float, float]  # per-axis (start, length)
    fn: Callable[[np.ndarray], np.ndarray]

    def __call__(self, points: np.ndarray) -> np.ndarray:
        return self.fn(points)


def _stage(x: np.ndarray) -> np.ndarray:
    return np.where(np.asarray(x) < 0.0, -1.0, 1.0)


def _cubic(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x)
    return 2.5 * (x**3 - x)


def _cos2d(points: np.ndarray) -> np.ndarray:
    pts = np.asarray(points)
    return np.cos(6.28 * (2.0 * pts[..., 0] + 3.0 * pts[..., 1]))


_TARGETS = {
    "stage1d": Target("stage1d", 1, (-1.0, 2.0), _stage),
    "cubic1d": Target("cubic1d", 1, (-1.0, 2.0), _cubic),
    "cos2d": Target("cos2d", 2, (0.0, 1.0), _cos2d),
}


def builtin_targets(name: str) -> Target:
    try:
        return _TARGETS[name]
    except KeyError:
        raise UnknownTargetError(f"unknown target {name!r}; choices: {sorted(_TARGETS)}") from None


# ---------------------------------------------------------------------------
# Problems and fits
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class InterpolationProblem:
    """One interpolation task: target, grid sizes, weighting, optional noise.

    ``target`` is either a built-in name or an array of tabulated samples on
    the training grid (shape (n_axis,)*dimension, row-major axis order).
    The periodic domain defaults to the built-in target's; tabulated samples
    default to [0, 1) per axis.
    """

    dimension: int
    n_axis: int
    p_axis: int
    D_axis: int
    q: float
    target: str | np.ndarray
    noise_sigma: float = 0.0
    weight_kind: WeightKind = WeightKind.EUCLIDEAN
    noise_seed: int = 0
    domain: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        for name in ("dimension", "n_axis", "p_axis", "D_axis", "noise_seed"):
            _check_integer(getattr(self, name), f"field {name}")
        if self.dimension < 1:
            raise ConfigurationError(f"dimension must be >= 1, got {self.dimension}")
        if self.n_axis < 1 or self.p_axis < 1:
            raise ConfigurationError("per-axis sample and truncation counts must be >= 1")
        if self.p_axis > self.D_axis:
            raise ConfigurationError(f"p_axis={self.p_axis} exceeds ambient D_axis={self.D_axis}")
        if self.noise_seed < 0:
            raise ConfigurationError(f"field noise_seed must be a nonnegative integer, got {self.noise_seed}")
        check_finite_nonnegative(self.noise_sigma, "field noise_sigma")
        check_finite_nonnegative(self.q, "field q")
        if isinstance(self.target, str):
            named = builtin_targets(self.target)
            if named.dimension != self.dimension:
                raise ConfigurationError(f"target {self.target!r} is {named.dimension}-dimensional")
            if self.domain is None:
                object.__setattr__(self, "domain", named.domain)
        elif self.domain is None:
            object.__setattr__(self, "domain", UNIT_DOMAIN)

    def axes(self, points_per_axis: int | None = None) -> list[np.ndarray]:
        m = self.n_axis if points_per_axis is None else points_per_axis
        return [sample_axis(m, self.domain)] * self.dimension


def training_grid(problem: InterpolationProblem, points_per_axis: int | None = None) -> np.ndarray:
    """Points of the problem grid ``axes(points_per_axis)``, the training grid by default; shape (m,)*d + (d,)."""
    mesh = np.meshgrid(*problem.axes(points_per_axis), indexing="ij")
    return np.stack(mesh, axis=-1)


def target_on_grid(problem: InterpolationProblem, points_per_axis: int | None = None) -> np.ndarray:
    """The problem's named target on the grid ``axes(points_per_axis)``, shape (m,)*d."""
    target = builtin_targets(problem.target)
    points = training_grid(problem, points_per_axis)
    return target(points[..., 0]) if problem.dimension == 1 else target(points)


def training_samples(problem: InterpolationProblem) -> tuple[np.ndarray, np.ndarray]:
    """(clean, observed) sample tensors on the training grid."""
    d, n = problem.dimension, problem.n_axis
    if isinstance(problem.target, str):
        clean = target_on_grid(problem)
    else:
        clean = np.asarray(problem.target).reshape((n,) * d)
    if problem.noise_sigma > 0:
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=problem.noise_seed)))
        with np.errstate(over="ignore"):  # a sample past the double range is inf; fit_interpolant refuses it
            observed = clean + problem.noise_sigma * rng.standard_normal(clean.shape)
    else:
        observed = clean
    return clean, observed


@dataclass(frozen=True)
class FittedInterpolant:
    """Coefficient tensor of shape (p_axis,)*d plus fit diagnostics.

    residual is ||theta's series - y|| on the training grid; weighted_norm
    is ||W^(-q) theta|| for the problem's weight tensor (the quantity the
    weighted estimator minimises), inf where it overflows a double;
    log10_weighted_norm is its base-10 logarithm, finite for any q (-inf
    only for an all-zero fit); plain_norm is ||theta||.  The residual and
    plain_norm are finite wherever they fit in a double, even where their
    squares do not.
    """

    coefficients: np.ndarray = field(repr=False)
    residual: float
    weighted_norm: float
    log10_weighted_norm: float
    plain_norm: float


def evaluate_on_grid(coefficients: np.ndarray, points_per_axis: int) -> np.ndarray:
    """The series on the problem grid ``axes(points_per_axis)``, shape (m,)*d, complex.

    Every such point is x0 + L*j/m per axis, where the basis reads
    exp(2*pi*i*k*j/m), so the values are m^d * ifftn of the coefficients
    folded modulo m, for any domain.  Folding and transforming one axis at
    a time skips the transforms of rows the fold has not filled yet.
    """
    m = points_per_axis
    out = np.asarray(coefficients)
    for axis in range(out.ndim):
        # ascending frequencies -(p//2), ..., so entry i is frequency start + i
        p = out.shape[axis]
        folded = folded_sums(np.fft.fftshift(out, axes=axis), m, start=-(p // 2), axis=axis)
        out = m * np.fft.ifft(folded, axis=axis)
    return out


def _class_fit(transform: np.ndarray, weights: np.ndarray, q: float) -> np.ndarray:
    """theta_k = s_k * transform[k mod n] / (n^d * Lambda[k mod n]) for transform = fftn(y) and (p,)*d weights."""
    d, n, p = transform.ndim, transform.shape[0], weights.shape[0]
    s, lam, classes = class_weights(np.fft.fftshift(weights), n, q, start=-(p // 2))  # s = 1 at q = 0
    return np.fft.ifftshift(s * (transform[classes] / (n**d * lam[classes])))


def _overflow_free(stat: Callable[[np.ndarray], float], values: np.ndarray) -> float:
    """stat(values) for a statistic that scales with its values (a norm, an RMS), finite wherever it fits a double.

    Computed as is first, so its bits stay wherever that is finite; only
    where its squares overflow is it computed again from the values divided
    by their largest magnitude, then scaled back.
    """
    with np.errstate(over="ignore"):
        value = stat(values)
    if math.isinf(value):
        peak = float(np.max(np.abs(values)))
        if math.isfinite(peak):
            value = peak * stat(values / peak)
    return value


def _norm(values: np.ndarray) -> float:
    """||values||_2 over every entry, by ``_overflow_free``."""
    return _overflow_free(lambda v: float(np.linalg.norm(v.ravel())), values)


def _log_weighted_norm(theta: np.ndarray, weights: np.ndarray, q: float) -> float:
    """log ||W^(-q) theta||, by a log-sum-exp over log|theta_k| - q*log w_k; +-inf where those overflow."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # log 0, or q * log w_k past the float range
        terms = 2.0 * (np.log(np.abs(theta)) - q * np.log(weights))
    terms[theta == 0] = -math.inf  # a zero theta_k adds nothing, whatever its weight
    top = float(terms.max())
    if math.isinf(top):
        return top
    return 0.5 * (top + math.log(float(np.sum(np.exp(terms - top)))))


def fit_interpolant(problem: InterpolationProblem, method: Method) -> FittedInterpolant:
    """Fit the chosen estimator by fold and FFT, at any p_axis; see the module docstring.

    Raises ConfigurationError when the samples' transform overflows a
    double, and NumericalInconsistencyError when a fit at p_axis >= n_axis,
    where every class holds a frequency and so every fit interpolates,
    misses its samples by more than RESIDUAL_TOLERANCE * max(1, ||y||).
    """
    d, n, p = problem.dimension, problem.n_axis, problem.p_axis
    _, observed = training_samples(problem)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused just below
        transform = np.fft.fftn(observed)
    if not np.isfinite(transform).all():
        peak = float(np.max(np.abs(observed)))
        raise ConfigurationError(
            f"samples up to |y| = {peak!r} overflow their Fourier transform (noise_sigma={problem.noise_sigma!r})"
        )
    weights = tensor_weights(p, d, problem.weight_kind)
    q_eff = problem.q if method is Method.WEIGHTED_MIN_NORM else 0.0
    theta = _class_fit(transform, weights, q_eff)

    residual = _norm(evaluate_on_grid(theta, n) - observed)
    if p >= n:
        tolerance = RESIDUAL_TOLERANCE * max(1.0, _norm(observed))
        if not residual <= tolerance:
            raise NumericalInconsistencyError(
                f"{method.value} fit misses its samples by {residual!r} > {tolerance!r} (q={problem.q})"
            )
    log_norm = _log_weighted_norm(theta, weights, problem.q)
    with np.errstate(over="ignore"):
        weighted_norm = float(np.exp(log_norm))
    theta.setflags(write=False)
    return FittedInterpolant(
        coefficients=theta,
        residual=residual,
        weighted_norm=weighted_norm,
        log10_weighted_norm=log_norm / math.log(10.0),
        plain_norm=_norm(theta),
    )

