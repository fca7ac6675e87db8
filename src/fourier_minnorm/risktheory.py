"""Exact risk expressions, asymptotic bounds, and concentration constants.

Risk means E ||theta - theta_hat||^2 over coefficients with E[theta] = 0 and
E[theta theta^*] = c_r diag(t^(2r)) (unit trace).  Every risk is a closed
form over residue-class sums (any grid; O(D) for a whole p sweep).

Feature k = m + n*nu lies in residue class m and block nu.  By the aliasing
fact (see ``circulant``) every risk splits into sums over residue classes.
Overparameterized closed form at any p >= n, with A(m, u) the sum of t_k^u
over the members k of class m in [0, p) and C(m, u) the same sum over
members in [p, D):

    P_q  = c_r * sum_m A(m, 2q+2r) / A(m, 2q)
    Q_q1 = c_r * sum_m A(m, 4q) A(m, 2r) / A(m, 2q)^2
    Q_q2 = c_r * sum_m A(m, 4q) C(m, 2r) / A(m, 2q)^2
    risk = 1 - 2 P_q + Q_q1 + Q_q2

Least-squares closed form at p <= n: the tail plus the alias mass of the
fitted classes,

    risk = c_r * (sum_{j >= p} t_j^(2r) + sum_{m < p} C(m, 2r) at p = n).

``sweep_risks`` evaluates whole p sweeps of G groups (spectrum, q) sharing
one D in one pass: the groups are stacked as rows, t^(2r) of shape (G, D),
c_r of shape (G,) and one scalar q per row, at most max(1, STACKED_FEATURES
// D) groups to a pass.  Every p <= n reads one entry of the tail and
cumulative alias sums; every p > n, on any D, reads prefix and suffix sums
over blocks of n features (``_over_points``).  Class m is scaled by its
leader t_m as in ``circulant.class_weights``, i.e. summed with weights
(t_k / t_m)^(2q); every ratio above is unchanged, and A(m, 2q) >= 1 keeps
t^(4q) from underflowing to 0/0 at large q.  At D >= COMPENSATED_SUM_MIN_D
the running sums carry Kahan compensation from block to block.  Each row is
raised to its own scalar exponents and summed over its own contiguous
entries, so a group's risks do not depend on the stack it rides in:
``theory_risks``, ``theory_risk``, ``risk_over_closed``,
``risk_under_closed`` and ``lowest_risks`` are one-row calls of the same
pass (any grid) and agree bit for bit with ``sweep_risks``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    ConfigurationError,
    NumericalInconsistencyError,
    RegimeError,
    SingularConstantError,
    StructureError,
)
from .model import (
    COMPENSATED_SUM_MIN_D,
    GridConfig,
    Spectrum,
    accumulate_blocks,
    check_finite_nonnegative,
    check_truncations,
    folded_sums,
)

# Features per stacked pass: max(1, STACKED_FEATURES // D) groups, so no pass
# outgrows the D = 65536 curve's, and from D = 65536 on each group runs alone.
STACKED_FEATURES = 1 << 16

# Risks are expectations of squared norms; tiny negatives are rounding noise
# and reported as 0, anything worse indicates a bug.
NEGATIVE_RISK_TOLERANCE = 1e-10


@dataclass(frozen=True)
class RiskBreakdown:
    P_q: float
    Q_q1: float
    Q_q2: float
    risk: float
    clamped: bool = False


@dataclass(frozen=True)
class BoundReport:
    a: float
    b: float
    d_r: float
    bound: float
    large_D_bound: float


class ConcentrationBound(NamedTuple):
    T_q: float
    tail: float


class LowestRisks(NamedTuple):
    under_star: float
    over_star: float
    argmin_p_over: int


def _finalize_risks(values) -> tuple[np.ndarray, np.ndarray]:
    """Check and clamp raw risks in one array pass: (risks, clamped mask).

    A value in [-NEGATIVE_RISK_TOLERANCE, 0) becomes 0.0 and is flagged; the
    first value, in order, that is not finite or lies further below zero
    raises NumericalInconsistencyError.
    """
    values = np.asarray(values, dtype=float)
    bad = ~(values >= -NEGATIVE_RISK_TOLERANCE) | (values == math.inf)
    if bad.any():
        value = float(values.flat[np.argmax(bad)])
        if not math.isfinite(value):
            raise NumericalInconsistencyError(f"risk evaluated to {value}, which is not a finite number")
        raise NumericalInconsistencyError(f"risk evaluated to {value}, below -{NEGATIVE_RISK_TOLERANCE}")
    clamped = values < 0.0
    return np.where(clamped, 0.0, values), clamped


def _finalize_risk(value: float) -> tuple[float, bool]:
    risks, clamped = _finalize_risks([value])
    return float(risks[0]), bool(clamped[0])


def _require_over(grid: GridConfig) -> None:
    if grid.p < grid.n:
        raise RegimeError(f"overparameterized form needs p >= n, got p={grid.p}, n={grid.n}")


def _check_q(q: float) -> None:
    check_finite_nonnegative(q, "weighting exponent q")


def _over_points(spectra: Sequence[Spectrum], n: int, q_values: Sequence[float], p_values) -> tuple[np.ndarray, ...]:
    """P_q, Q_q1, Q_q2 and the unfinalised risk of group g at p_values[j] (entry [g, j]), n <= p <= D, any D.

    Group g is (spectra[g], q_values[g]); the spectra share one D.  Works in
    three (groups, blocks + 1, n) slots: in the prefix layout row i + 1 holds
    block i (features i*n + m), in the suffix layout row i does, and the
    spare row and the padding past D are zero (the weights are padded, never
    t: 0**0 would add phantom features at q = 0 or r = 0).  Running sums
    taken in place make row i sum the blocks before i (prefix) or from i
    onwards (suffix).  At p = l*n + s the member of class m in block l is
    fitted iff m < s, so class m reads row l + 1 if m < s and row l
    otherwise; a point with s = 0 reads row l whole.  A(., 2q), A(., 4q) and
    A(., 2q+2r) are summed in one pass; the slots then serve A(., 2r) and
    C(., 2r), whose t^(2r) is copied from A(., 2r)'s before its sums run.
    """
    D, t, groups = spectra[0].D, spectra[0].t, len(spectra)
    comp, blocks, cr = D >= COMPENSATED_SUM_MIN_D, -(-D // n), np.array([[spectrum.c_r] for spectrum in spectra])
    l, s = np.divmod(np.asarray(p_values), n)
    split, classes = s.nonzero()[0], np.arange(n)
    slots = np.zeros((3, groups, blocks + 1, n))
    a_2q, a_4q, a_2q2r = slots
    flat = slots.reshape(3, groups, -1)

    def t2r(k: int) -> np.ndarray:
        """Slot k refilled with each group's t^(2r) in the prefix layout."""
        slots[k].fill(0.0)
        for g, spectrum in enumerate(spectra):
            np.power(t, 2.0 * spectrum.decay_r, out=flat[k, g, n : n + D])
        return slots[k]

    def reduce(terms: np.ndarray) -> np.ndarray:
        """cr * sum over classes m of terms[g, row of m, m], for every group g at every point."""
        out = np.add.reduce(terms, axis=2)[:, l]  # row l: every class of a point with s = 0
        rows = terms.reshape(groups, -1)
        step = blocks + 1  # points per chunk: the gathered (groups, points, n) terms stay about groups * D long
        for first in range(0, len(split), step):
            points = split[first : first + step]
            row = l[points, None] + (classes < s[points, None])
            # a take from the flat rows is C-contiguous, so each class sum is pairwise as in one group's pass
            out[:, points] = np.add.reduce(np.take(rows, row * n + classes, axis=1), axis=2)
        return cr * out

    ratio = flat[1, 0]  # scratch until A(., 4q) is written
    ratio[n : n + D] = t
    a_4q[0] /= t[:n]  # class m scaled by its leading term t_m (row 0 stays 0)
    for g, q in enumerate(q_values):
        np.power(ratio[n : n + D], 2.0 * q, out=flat[0, g, n : n + D])
    np.square(a_2q, out=a_4q)
    np.multiply(t2r(2), a_2q, out=a_2q2r)
    accumulate_blocks(slots.transpose(2, 0, 1, 3), comp)  # blocks leading, then (3, groups, n)
    a_2q2r[:, 1:] /= a_2q[:, 1:]
    P_q = reduce(a_2q2r)

    np.square(a_2q, out=a_2q)
    weight = a_4q
    weight[:, 1:] /= a_2q[:, 1:]  # A(., 4q) / A(., 2q)^2
    terms = t2r(0)
    flat[2, :, :D], flat[2, :, D:] = flat[0, :, n : n + D], 0.0  # the same powers in the suffix layout
    accumulate_blocks(terms.swapaxes(0, 1), comp)  # A(., 2r)
    terms *= weight
    Q_q1 = reduce(terms)
    terms = slots[2]
    accumulate_blocks(terms[:, ::-1].swapaxes(0, 1), comp)  # C(., 2r)
    terms *= weight
    Q_q2 = reduce(terms)
    return P_q, Q_q1, Q_q2, 1.0 - 2.0 * P_q + Q_q1 + Q_q2


def _under_curve(spectra: Sequence[Spectrum], n: int) -> np.ndarray:
    """Unfinalised least-squares risk of group g at every p in [0, n] (entry [g, p]), any D."""
    comp = spectra[0].D >= COMPENSATED_SUM_MIN_D
    t2r = np.stack([spectrum.t_pow(2.0 * spectrum.decay_r) for spectrum in spectra])
    alias = folded_sums(t2r[:, n:], n, comp)  # C(m, 2r) at l = 1
    head_tail = np.pad(np.cumsum(t2r[:, n - 1 :: -1], axis=1)[:, ::-1], ((0, 0), (0, 1)))
    head_alias = np.pad(np.cumsum(alias, axis=1), ((0, 0), (1, 0)))
    cr = np.array([[spectrum.c_r] for spectrum in spectra])
    return cr * (head_tail + np.sum(alias, axis=1, keepdims=True) + head_alias)


def risk_over_closed(spectrum: Spectrum, grid: GridConfig, q: float) -> RiskBreakdown:
    """Closed-form risk of the weighted min-norm estimator at any p >= n."""
    _require_over(grid)
    _check_q(q)
    P_q, Q_q1, Q_q2, raw = (float(v[0, 0]) for v in _over_points([spectrum], grid.n, [q], [grid.p]))
    risk, clamped = _finalize_risk(raw)
    return RiskBreakdown(P_q=P_q, Q_q1=Q_q1, Q_q2=Q_q2, risk=risk, clamped=clamped)


def risk_under_closed(spectrum: Spectrum, grid: GridConfig) -> float:
    """Closed-form least-squares risk for p <= n on any grid."""
    if grid.p > grid.n:
        raise RegimeError(f"underparameterized form needs p <= n, got p={grid.p}, n={grid.n}")
    return theory_risk(spectrum, grid, 0.0)  # the least-squares curve, whatever q


def asymptotic_bound(spectrum: Spectrum, grid: GridConfig) -> BoundReport:
    """Rate bound for the weighted min-norm risk at matched exponent q = r.

    Valid for r > 1/2 and p = l*n with l >= 2; the reported bound dominates
    the closed-form risk on that domain.
    """
    _require_over(grid)
    if grid.l is None or grid.tau is None:
        raise StructureError(
            f"rate bound needs p = l*n and D = tau*n, got D={grid.D}, n={grid.n}, p={grid.p}"
        )
    r = spectrum.decay_r
    if r <= 0.5:
        raise RegimeError(f"rate bound requires r > 1/2, got r={r}")
    if grid.l < 2:
        raise RegimeError(f"rate bound requires l >= 2, got l={grid.l}")
    n, p, D, l = grid.n, grid.p, grid.D, grid.l
    d_r = (2.0 ** (-2.0 * r + 1.0) - float(l + 1) ** (-2.0 * r + 1.0)) / (2.0 * r - 1.0)
    shrink = 1.0 + d_r * float(n) ** (-2.0 * r)
    denom = shrink * (1.0 - float(D + 1) ** (-2.0 * r + 1.0))
    a = (2.0 + d_r * float(n) ** (-2.0 * r)) / denom
    b = d_r / denom
    bound = a * float(n) ** (-2.0 * r + 1.0) + b * float(n) ** (-2.0 * r) * float(p) ** (-2.0 * r + 1.0)
    large_D = 2.0 * float(n) ** (-2.0 * r + 1.0) + (2.0 / (2.0 * r - 1.0)) * float(2 * n) ** (
        -2.0 * r
    ) * float(p) ** (-2.0 * r + 1.0)
    return BoundReport(a=a, b=b, d_r=d_r, bound=bound, large_D_bound=large_D)


def concentration_bound(r: float, q: float, t: float) -> ConcentrationBound:
    """Sub-Gaussian deviation constant T_q and the two-sided tail at level t.

    Requires finite r >= q > 1/2 and finite t >= 0 (NaN or inf is a
    ConfigurationError): the constant diverges at q = 1/2 and the inner
    polynomial changes sign below it.  T_q tends to 4 (2r - 1) sqrt(3/2) as
    q grows and is finite for every r up to about 2e307; past that it
    overflows a double, a ConfigurationError.  The tail 2 exp(-min(u^2, u))
    is built from u = t / T_q, so neither overflows.
    """
    for name, value in (("decay exponent r", r), ("weighting exponent q", q), ("deviation level t", t)):
        if not math.isfinite(value):
            raise ConfigurationError(f"{name} must be finite, got {value}")
    if q <= 0.5:
        raise SingularConstantError(f"T_q is undefined for q <= 1/2, got q={q}")
    if r < q:
        raise RegimeError(f"concentration bound requires r >= q, got r={r}, q={q}")
    if t < 0:
        raise ConfigurationError(f"deviation level t must be >= 0, got {t}")
    poly = q * (24.0 * q * q - 17.0 * q + 3.0)
    if math.isfinite(poly):  # this form keeps 2q - 1 exact near q = 1/2
        ratio = poly / ((2.0 * q - 1.0) ** 2 * (4.0 * q - 1.0))
    else:  # q past about 2e102: both sides divided by q^3
        v = 1.0 / q
        ratio = (24.0 - 17.0 * v + 3.0 * v * v) / ((2.0 - v) ** 2 * (4.0 - v))
    T_q = 4.0 * (2.0 * r - 1.0) * math.sqrt(ratio)
    if not math.isfinite(T_q):
        raise ConfigurationError(f"T_q overflows a double at decay exponent r={r!r}, weighting exponent q={q!r}")
    u = t / T_q
    # u * u only once T_q^2 overflows: it rounds differently from t * t / T_q^2 in about one tail in five
    square = t * t / (T_q * T_q) if T_q * T_q < math.inf else u * u
    tail = 2.0 * math.exp(-min(square, u))
    return ConcentrationBound(T_q=T_q, tail=tail)


def lowest_risks(spectrum: Spectrum, n: int, q: float) -> LowestRisks:
    """Lowest under-regime risk and the best aligned overparameterized risk.

    The under-regime optimum is attained at p = n; the over-regime value
    is the minimum of the closed form over p = l*n <= D, any D, read from
    one sweep.  For q >= r >= 1 the over-regime minimum is strictly smaller.
    """
    D = spectrum.D
    check_truncations(D, n, ())
    _check_q(q)
    under_star = 2.0 * spectrum.c_r * spectrum.tail_sum(2.0 * spectrum.decay_r, start=n)
    over, _ = _finalize_risks(_over_points([spectrum], n, [q], n * np.arange(1, D // n + 1))[3][0])
    best = int(np.argmin(over))
    return LowestRisks(under_star=under_star, over_star=float(over[best]), argmin_p_over=(best + 1) * n)


def sweep_risks(spectra: Sequence[Spectrum], n: int, q_values: Sequence[float], p_values: Sequence[int]) -> np.ndarray:
    """Theoretical risk of group g, (spectra[g], q_values[g]), at truncation p_values[j]: entry [g, j].

    The spectra share one D.  p <= n reads the least-squares curve (any q),
    every p > n running block sums at p = l*n + s (see the module
    docstring): O(D) per group, plus O(n) per group and point with s > 0.
    """
    spectra, q_values = list(spectra), list(q_values)
    if not spectra or len(q_values) != len(spectra) or len({s.D for s in spectra}) > 1:
        raise ConfigurationError(f"need one q per spectrum and one D, got q {q_values}, D {[s.D for s in spectra]}")
    for q in q_values:
        _check_q(q)
    p = check_truncations(spectra[0].D, n, p_values)
    under = p <= n
    raw = np.empty((len(spectra), len(p)))
    step = max(1, STACKED_FEATURES // spectra[0].D)
    for first in range(0, len(spectra), step):
        rows = slice(first, first + step)
        if under.any():
            raw[rows, under] = _under_curve(spectra[rows], n)[:, p[under]]
        if not under.all():
            raw[rows, ~under] = _over_points(spectra[rows], n, q_values[rows], p[~under])[3]
    return _finalize_risks(raw)[0]


def theory_risks(spectrum: Spectrum, n: int, q: float, p_values: Sequence[int]) -> np.ndarray:
    """Theoretical risk of one spectrum at every truncation in p_values: one row of ``sweep_risks``."""
    return sweep_risks([spectrum], n, [q], p_values)[0]


def theory_risk(spectrum: Spectrum, grid: GridConfig, q: float) -> float:
    """Theoretical risk for one configuration: one point of ``theory_risks``."""
    return float(theory_risks(spectrum, grid.n, q, [grid.p])[0])


def __getattr__(name: str):
    # perfbench/checks.py imports the trace oracles from here; goes once it uses oracles (ROADMAP item 7)
    if name in ("risk_trace_over", "risk_trace_under"):
        from . import oracles
        return getattr(oracles, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
