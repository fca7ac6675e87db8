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

``theory_risks`` evaluates a whole p sweep in one pass.  Every p <= n reads
one entry of the tail and cumulative alias sums; every p > n, on any D, reads
prefix and suffix sums over blocks of n features (``_over_points``).
Class m is scaled by its leader t_m as in ``circulant.class_weights``, i.e.
summed with weights (t_k / t_m)^(2q); every ratio above is unchanged, and
A(m, 2q) >= 1 keeps t^(4q) from underflowing to 0/0 at large q.  At D >=
COMPENSATED_SUM_MIN_D the running sums carry Kahan compensation from block to
block.  The single-point functions ``risk_over_closed``,
``risk_under_closed`` and ``theory_risk`` accept any grid and read the same
sums, so they agree bit for bit with ``theory_risks``.
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
        value = float(values[np.argmax(bad)])
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


def _over_points(spectrum: Spectrum, n: int, q: float, p_values: np.ndarray) -> tuple[np.ndarray, ...]:
    """P_q, Q_q1, Q_q2 and the unfinalised risk at each p in p_values, n <= p <= D, any D.

    Works in three (blocks + 1, n) slots: in the prefix layout row i + 1
    holds block i (features i*n + m), in the suffix layout row i does, and
    the spare row and the padding past D are zero (the weights are padded,
    never t: 0**0 would add phantom features at q = 0 or r = 0).  Running
    sums taken in place make row i sum the blocks before i (prefix) or from
    i onwards (suffix).  At p = l*n + s the member of class m in block l is
    fitted iff m < s, so class m reads row l + 1 if m < s and row l
    otherwise; a point with s = 0 reads row l whole.  A(., 2q), A(., 4q) and
    A(., 2q+2r) are summed in one pass; the slots then serve A(., 2r) and
    C(., 2r) in turn.
    """
    D, comp, cr = spectrum.D, spectrum.D >= COMPENSATED_SUM_MIN_D, spectrum.c_r
    t, two_r, blocks = spectrum.t, 2.0 * spectrum.decay_r, -(-D // n)
    l, s = np.divmod(np.asarray(p_values), n)
    split, classes = s.nonzero()[0], np.arange(n)
    slots = np.zeros((3, blocks + 1, n))
    a_2q, a_4q, a_2q2r = slots
    flat = slots.reshape(3, -1)

    def t2r(k: int, first_row: int) -> np.ndarray:
        """Slot k refilled with t^(2r), block i in row first_row + i."""
        slots[k].fill(0.0)
        np.power(t, two_r, out=flat[k, first_row * n : first_row * n + D])
        return slots[k]

    def reduce(terms: np.ndarray) -> np.ndarray:
        """cr * sum over classes m of terms[row of m, m], at every point."""
        out = np.add.reduce(terms, axis=1)[l]  # row l: every class of a point with s = 0
        step = blocks + 1  # points per chunk: the gathered (points, n) terms stay about D long
        for first in range(0, len(split), step):
            points = split[first : first + step]
            row = l[points, None] + (classes < s[points, None])
            out[points] = np.add.reduce(terms[row, classes], axis=1)
        return cr * out

    w = flat[0, n : n + D]
    w[:] = t
    a_2q /= t[:n]  # class m scaled by its leading term t_m (row 0 stays 0)
    np.power(w, 2.0 * q, out=w)
    np.square(a_2q, out=a_4q)
    np.multiply(t2r(2, 1), a_2q, out=a_2q2r)
    accumulate_blocks(slots.transpose(1, 0, 2), comp)
    a_2q2r[1:] /= a_2q[1:]
    P_q = reduce(a_2q2r)

    np.square(a_2q, out=a_2q)
    weight = a_4q
    weight[1:] /= a_2q[1:]  # A(., 4q) / A(., 2q)^2
    terms = accumulate_blocks(t2r(0, 1), comp)  # A(., 2r)
    terms *= weight
    Q_q1 = reduce(terms)
    terms = t2r(2, 0)
    accumulate_blocks(terms[::-1], comp)  # C(., 2r)
    terms *= weight
    Q_q2 = reduce(terms)
    return P_q, Q_q1, Q_q2, 1.0 - 2.0 * P_q + Q_q1 + Q_q2


def _under_curve(spectrum: Spectrum, n: int) -> np.ndarray:
    """Unfinalised least-squares risk at every p in [0, n] (entry p), any D."""
    comp = spectrum.D >= COMPENSATED_SUM_MIN_D
    t2r = spectrum.t_pow(2.0 * spectrum.decay_r)
    alias = folded_sums(t2r[n:], n, comp)  # C(m, 2r) at l = 1
    head_tail = np.append(np.cumsum(t2r[n - 1 :: -1])[::-1], 0.0)
    tail = head_tail + np.sum(alias)
    head_alias = np.append(0.0, np.cumsum(alias))
    return spectrum.c_r * (tail + head_alias)


def risk_over_closed(spectrum: Spectrum, grid: GridConfig, q: float) -> RiskBreakdown:
    """Closed-form risk of the weighted min-norm estimator at any p >= n."""
    _require_over(grid)
    _check_q(q)
    P_q, Q_q1, Q_q2, raw = (float(v[0]) for v in _over_points(spectrum, grid.n, q, [grid.p]))
    risk, clamped = _finalize_risk(raw)
    return RiskBreakdown(P_q=P_q, Q_q1=Q_q1, Q_q2=Q_q2, risk=risk, clamped=clamped)


def risk_under_closed(spectrum: Spectrum, grid: GridConfig) -> float:
    """Closed-form least-squares risk for p <= n on any grid."""
    if grid.p > grid.n:
        raise RegimeError(f"underparameterized form needs p <= n, got p={grid.p}, n={grid.n}")
    risk, _ = _finalize_risk(_under_curve(spectrum, grid.n)[grid.p])
    return risk


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
    over, _ = _finalize_risks(_over_points(spectrum, n, q, n * np.arange(1, D // n + 1))[3])
    best = int(np.argmin(over))
    return LowestRisks(under_star=under_star, over_star=float(over[best]), argmin_p_over=(best + 1) * n)


def theory_risks(spectrum: Spectrum, n: int, q: float, p_values: Sequence[int]) -> np.ndarray:
    """Regime-dispatched theoretical risk at every truncation in p_values.

    Every point comes from the residue-class sums (see the module docstring):
    p <= n from the least-squares curve and every p > n from running block
    sums read at p = l*n + s.  The cost is O(D), plus O(n) per point with
    s > 0, however many points are asked for.  For p <= n the value is
    independent of q.
    """
    _check_q(q)
    p = check_truncations(spectrum.D, n, p_values)
    under = p <= n
    raw = np.empty(len(p))
    if under.any():
        raw[under] = _under_curve(spectrum, n)[p[under]]
    if not under.all():
        raw[~under] = _over_points(spectrum, n, q, p[~under])[3]
    return _finalize_risks(raw)[0]


def theory_risk(spectrum: Spectrum, grid: GridConfig, q: float) -> float:
    """Theoretical risk for one configuration: one point of ``theory_risks``."""
    return float(theory_risks(spectrum, grid.n, q, [grid.p])[0])


def __getattr__(name: str):
    # perfbench/checks.py imports the trace oracles from here; goes once it uses oracles (ROADMAP item 6)
    if name in ("risk_trace_over", "risk_trace_under"):
        from . import oracles
        return getattr(oracles, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
