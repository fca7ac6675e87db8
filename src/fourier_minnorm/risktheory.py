"""Exact risk expressions, asymptotic bounds, and concentration constants.

Risk means E ||theta - theta_hat||^2 over coefficients with E[theta] = 0 and
E[theta theta^*] = c_r diag(t^(2r)) (unit trace).  ``sweep_risks`` is its one
closed form, valid for every 1 <= p <= D on any grid: O(D) for a whole p
sweep, every term nonnegative, so tiny risks keep their relative accuracy.

Feature k = m + n*nu lies in residue class m and block nu.  By the aliasing
fact (see ``circulant``) the samples fix only each class's sum, every fitted
member k takes the share w_k / W of it, and the risk splits into independent
class risks R_m.  Class m has its leader L (its member in block 0) and the
non-leaders k > L; the weights are scaled by the leader as in
``circulant.class_weights``, w_k = (t_k / t_m)^(2q), so w_L = 1, and
v_k = t_k^(2r).  At p = l*n + s the fitted members are those in blocks 0 to
l - 1, plus block l if m < s.  Over the fitted non-leaders W' sums w,
A'(4q) sums w^2 and A'(2q+2r) sums w v; V' sums v over all non-leaders and
W = 1 + W'.  Then

    R_m = v_L (W'/W)^2 + V'/W^2 + [V' - 2 A'(2q+2r)/W]
          + (A'(4q)/W^2) (v_L + V')

and risk = c_r sum_m R_m; a class with no fitted member has R_m = v_L + V'.
The bracket is the fitted non-leaders' sum of v_k (1 - 2 w_k/W), each
factor >= 0 since w_k <= w_L, plus the unfitted non-leaders' v_k: no term
is negative, so nothing cancels.  For p <= n, W' = 0 and R_m = 2 V' for a
fitted class: the least-squares risk.  Scaling by the leader keeps W >= 1,
so t^(4q) cannot underflow to 0/0 at large q.

``sweep_risks`` evaluates whole p sweeps of G groups (spectrum, q) sharing
one D in one pass: the groups are stacked as rows, at most max(1,
STACKED_FEATURES // D) to a pass.  ``_class_risks`` holds W', A'(4q) and
A'(2q+2r) in (groups, blocks + 1, n) slots whose row j sums blocks 1 to
j - 1, so row l + 1 serves class m < s at p = l*n + s and row l the rest;
R_m is built in place over the rows.  At D >= COMPENSATED_SUM_MIN_D the
running sums carry Kahan compensation from block to block.  Each row is
raised to its own scalar exponents and summed over its own entries, and a
point's sum over the classes depends on that point alone, so a group's risks
do not depend on the stack or the other points it rides with: a one-row,
one-point call agrees bit for bit.
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
)

# Features per stacked pass: max(1, STACKED_FEATURES // D) groups, so no pass
# outgrows the D = 65536 curve's, and from D = 65536 on each group runs alone.
STACKED_FEATURES = 1 << 16
# Entries per chunk of rows when the class risks are formed, so their scratch stays small.
CHUNK_ELEMENTS = 1 << 13


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


def _finalize_risks(values: np.ndarray) -> np.ndarray:
    """``values``, checked in one array pass: every closed-form risk is a sum of nonnegative terms.

    The first value, in order, that is not finite or is negative raises
    NumericalInconsistencyError.
    """
    bad = ~(values >= 0.0) | (values == math.inf)
    if bad.any():
        value = float(values.flat[np.argmax(bad)])
        reason = "which is not a finite number" if not math.isfinite(value) else "below 0"
        raise NumericalInconsistencyError(f"risk evaluated to {value}, {reason}")
    return values


def _require_over(grid: GridConfig) -> None:
    if grid.p < grid.n:
        raise RegimeError(f"overparameterized form needs p >= n, got p={grid.p}, n={grid.n}")


def _check_q(q: float) -> None:
    check_finite_nonnegative(q, "weighting exponent q")


def _class_risks(spectra: Sequence[Spectrum], n: int, q_values: Sequence[float], p: np.ndarray) -> np.ndarray:
    """Unfinalised risk of group g, (spectra[g], q_values[g]), at p[j] (entry [g, j]), 1 <= p <= D, any D.

    Works in three (groups, blocks + 1, n) slots of the prefix layout: row
    i + 1 holds block i (features i*n + m), and the spare row 0, the leaders'
    row 1 and the padding past D stay zero (t is never padded: 0**0 would add
    phantom features at q = 0 or r = 0).  Running sums taken in place make
    row j sum blocks 1 to j - 1: the fitted non-leaders of a class read at
    row j.  V' is the last row of such sums of v, taken in the A'(4q) slot
    before w^2 is written.  R_m then replaces A'(2q+2r) row by row, in
    chunks of rows so that W's scratch stays small, and row 0 holds the
    unfitted class, v_L + V'.  A point with s = 0 sums row l over the
    classes; one with s > 0 adds a cumulative sum of row l + 1 over m < s to
    a reversed one of row l over m >= s.
    """
    D, t, groups = spectra[0].D, spectra[0].t, len(spectra)
    comp, blocks = D >= COMPENSATED_SUM_MIN_D, -(-D // n)
    slots = np.zeros((3, groups, blocks + 1, n))
    w, w2, wv = slots  # W', A'(4q) and A'(2q+2r) once summed; then R_m in wv
    flat = slots.reshape(3, groups, -1)
    rest = slice(2 * n, n + D)  # the non-leaders
    for g, spectrum in enumerate(spectra):
        np.power(t, 2.0 * spectrum.decay_r, out=flat[2, g, n : n + D])
    lead = wv[:, 1].copy()  # v_L
    w2[:, 2:] = wv[:, 2:]
    others = accumulate_blocks(w2.swapaxes(0, 1), comp)[-1].copy()  # V'
    total = lead + others
    ratio = flat[1, 0]  # scratch until A'(4q) is written
    ratio[n : n + D] = t
    w2[0] /= t[:n]  # class m scaled by its leader t_m
    for g, q in enumerate(q_values):
        np.power(ratio[rest], 2.0 * q, out=flat[0, g, rest])
    np.square(w, out=w2)
    wv *= w  # the leaders' row 1 becomes 0 with w
    accumulate_blocks(slots.transpose(2, 0, 1, 3), comp)  # blocks leading, then (3, groups, n)

    lead, others, total = lead[:, None], others[:, None], total[:, None]
    step = max(1, CHUNK_ELEMENTS // (groups * n))
    for first in range(1, blocks + 1, step):
        rows = slice(first, first + step)
        fit_w, fit_w2, risk = w[:, rows], w2[:, rows], wv[:, rows]
        big_w = fit_w + 1.0  # W
        risk /= big_w
        risk *= -2.0
        risk += others  # the bracket, V' - 2 A'(2q+2r)/W
        fit_w /= big_w
        np.square(fit_w, out=fit_w)
        fit_w *= lead
        risk += fit_w  # v_L (W'/W)^2
        big_w *= big_w
        fit_w2 /= big_w
        fit_w2 *= total
        risk += fit_w2  # A'(4q)/W^2 (v_L + V')
        np.divide(others, big_w, out=big_w)
        risk += big_w  # V'/W^2
    wv[:, 0] = total[:, 0]

    l, s = np.divmod(p, n)
    out = np.add.reduce(wv, axis=2)[:, l]  # s = 0: row l, every class
    split = s.nonzero()[0]
    if split.size:
        rows, at = np.unique(l[split], return_inverse=True)
        head = np.cumsum(wv[:, rows + 1], axis=2)  # classes m < s read row l + 1
        back = np.cumsum(wv[:, rows, ::-1], axis=2)  # and m >= s row l, summed from m = n - 1 down
        s = s[split]
        out[:, split] = head[:, at, s - 1] + back[:, at, n - 1 - s]
    return np.array([[spectrum.c_r] for spectrum in spectra]) * out


def lowest_risks(spectrum: Spectrum, n: int, q: float) -> LowestRisks:
    """Lowest under-regime risk and the best aligned overparameterized risk, from one sweep over p = l*n <= D.

    The under-regime optimum is attained at p = n, where each class has
    exactly its leader fitted, whatever q; the over-regime value is the
    minimum over every p = l*n <= D, any D.  For q >= r >= 1 the
    over-regime minimum is strictly smaller.
    """
    check_truncations(spectrum.D, n, ())  # n first: the grid steps by it
    risks = sweep_risks([spectrum], n, [q], np.arange(n, spectrum.D + 1, n))[0]
    best = int(np.argmin(risks))
    return LowestRisks(under_star=float(risks[0]), over_star=float(risks[best]), argmin_p_over=(best + 1) * n)


def sweep_risks(spectra: Sequence[Spectrum], n: int, q_values: Sequence[float], p_values: Sequence[int]) -> np.ndarray:
    """Theoretical risk of group g, (spectra[g], q_values[g]), at truncation p_values[j]: entry [g, j].

    The spectra share one D; any 1 <= p <= D on any grid (see the module
    docstring).  O(D) per group, plus O(n) per group and distinct l among
    the points p = l*n + s with s > 0.
    """
    spectra, q_values = list(spectra), list(q_values)
    if not spectra or len(q_values) != len(spectra) or len({s.D for s in spectra}) > 1:
        raise ConfigurationError(f"need one q per spectrum and one D, got q {q_values}, D {[s.D for s in spectra]}")
    for q in q_values:
        _check_q(q)
    p = check_truncations(spectra[0].D, n, p_values)
    raw = np.empty((len(spectra), len(p)))
    step = max(1, STACKED_FEATURES // spectra[0].D)
    for first in range(0, len(spectra), step):
        rows = slice(first, first + step)
        raw[rows] = _class_risks(spectra[rows], n, q_values[rows], p)
    return _finalize_risks(raw)


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


def __getattr__(name: str):
    # perfbench/checks.py imports the trace oracles from here; goes once it uses oracles (ROADMAP item 7)
    if name in ("risk_trace_over", "risk_trace_under"):
        from . import oracles
        return getattr(oracles, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
