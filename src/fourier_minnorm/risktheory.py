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

``sweep_risks`` evaluates whole p sweeps of G groups (spectrum, q), of any
D, in one pass.  The weights t_j do not depend on D, so every D is a prefix
of the largest: W', A'(4q) and A'(2q+2r) at a point are the same for every
D >= p, and only V' and c_r change with D.  So the groups of one (r, q)
share one prefix row at their largest D, and a pass stacks at most max(1,
STACKED_FEATURES // D) such rows.  An entry whose p exceeds its group's D
is NaN; a p above every D is a ConfigurationError.  ``_class_risks`` holds
W', A'(4q) and A'(2q+2r) in (rows, top + 1, n) slots, up to the last row
top that a point reads, whose row j sums blocks 1 to j - 1: row l + 1
serves class m < s at p = l*n + s and row l the rest.  Only V' runs over
every block.  Plain running sums lose accuracy with the number of blocks
they add, ceil(D/n), not with D: from COMPENSATED_SUM_MIN_BLOCKS (256)
blocks on they carry Kahan compensation from block to block, and each such
D has passes of its own.
Each row is raised to its own scalar exponents and summed over its own
entries, and a point's sum over the classes depends on that point alone, so
a group's risks do not depend on the stack, the other D or the other
points: a one-row, one-point call agrees bit for bit.
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
    GridConfig,
    Spectrum,
    accumulate_blocks,
    check_finite_nonnegative,
    check_truncations,
    compensated_classes,
)

# Features per stacked pass: max(1, STACKED_FEATURES // D) (r, q) rows at its largest D, so no
# pass outgrows the D = 65536 curve's, and from D = 65536 on each (r, q) runs alone.
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


def _finalize_risks(values: np.ndarray, beyond: np.ndarray | bool = False) -> np.ndarray:
    """``values``, checked in one array pass: every closed-form risk is a sum of nonnegative terms.

    Entries flagged in ``beyond`` (p above the group's D) become NaN
    unchecked.  The first other value, in order, that is not finite or is
    negative raises NumericalInconsistencyError.
    """
    bad = ~(((values >= 0.0) & (values < math.inf)) | beyond)
    if bad.any():
        value = float(values.flat[np.argmax(bad)])
        reason = "which is not a finite number" if not math.isfinite(value) else "below 0"
        raise NumericalInconsistencyError(f"risk evaluated to {value}, {reason}")
    if np.any(beyond):
        values[beyond] = math.nan
    return values


def _require_over(grid: GridConfig) -> None:
    if grid.p < grid.n:
        raise RegimeError(f"overparameterized form needs p >= n, got p={grid.p}, n={grid.n}")


def _class_risks(spectra: Sequence[Spectrum], n: int, q_values: Sequence[float], p: np.ndarray) -> np.ndarray:
    """Unfinalised risk of group g, (spectra[g], q_values[g]), at p[j] (entry [g, j]); meaningless where p > its D.

    The spectra all span fewer than COMPENSATED_SUM_MIN_BLOCKS blocks of n
    features or share one D; the groups of one (r, q) read one prefix
    row.  Works in three (rows, top + 1, n) slots of the prefix layout, up
    to the last row a point reads: row i + 1 holds block i (features i*n + m), and the spare row 0,
    the leaders' row 1 and the padding past D stay zero (t is never padded:
    0**0 would add phantom features at q = 0 or r = 0).  Running sums taken
    in place make row j sum blocks 1 to j - 1: the fitted non-leaders of a
    class read at row j.  V' is such a sum of v over every block (in the
    A'(4q) slot, before w^2 is written, when the points read every row),
    read at the group's own D: row D // n for the classes m >= D mod n, the
    next row for the rest.  R_m then replaces A'(2q+2r) row by row (in a
    copy for groups that share a row), in chunks of rows so that W's scratch
    stays small, and row 0 holds the unfitted class, v_L + V'.  A point with
    s = 0 sums row l over the classes; one with s > 0 adds a cumulative sum
    of row l + 1 over m < s to a reversed one of row l over m >= s.
    """
    D = np.array([spectrum.D for spectrum in spectra])
    t, groups = spectra[int(D.argmax())].t, len(spectra)  # every D's t is a prefix of the longest
    blocks = -(-t.size // n)
    comp = compensated_classes(t.size, n)
    prefixes: dict[tuple[float, float], int] = {}
    owner = np.array([prefixes.setdefault((s.decay_r, q), len(prefixes)) for s, q in zip(spectra, q_values)])
    reach = np.zeros(len(prefixes), dtype=int)  # each prefix row's largest D
    for h, size in zip(owner.tolist(), D.tolist()):
        reach[h] = max(reach[h], size)
    l, s = np.divmod(np.minimum(p, t.size), n)
    top = int((l + (s > 0)).max(initial=1))  # the last row a point reads
    end = np.minimum(n + reach, (top + 1) * n)  # the fitted features' end in each prefix row
    slots = np.zeros((3, len(prefixes), top + 1, n))
    w, w2, wv = slots  # W', A'(4q) and A'(2q+2r) once summed; then R_m in wv
    flat = slots.reshape(3, len(prefixes), -1)
    v = w2 if top == blocks else np.zeros((len(prefixes), blocks + 1, n))  # every block of v, for V'
    flat_v = v.reshape(len(prefixes), -1)
    for (r, _), h in prefixes.items():
        np.power(t[: reach[h]], 2.0 * r, out=flat_v[h, n : n + reach[h]])
    wv[:] = v[:, : top + 1]
    lead = wv[:, 1].copy()  # v_L
    v[:, 1] = 0.0
    sums = accumulate_blocks(v.swapaxes(0, 1), comp)
    m = np.arange(n)
    others = np.where((m < D[:, None] % n) | comp, sums[-(-D // n), owner], sums[D // n, owner])  # V'; comp: one D
    ratio = flat[1, 0]  # scratch until A'(4q) is written
    ratio[n : end.max()] = t[: end.max() - n]
    w2[0] /= t[:n]  # class m scaled by its leader t_m
    for (_, q), h in prefixes.items():
        np.power(ratio[2 * n : end[h]], 2.0 * q, out=flat[0, h, 2 * n : end[h]])
    np.square(w, out=w2)
    wv *= w  # the leaders' row 1 becomes 0 with w
    accumulate_blocks(slots.transpose(2, 0, 1, 3), comp)  # blocks leading, then (3, rows, n)

    shared = len(prefixes) < groups
    pick, risks = (owner, np.empty((groups, top + 1, n))) if shared else (slice(None), wv)
    lead = lead[owner]
    total = lead + others
    lead, others, total = lead[:, None], others[:, None], total[:, None]
    step = max(1, CHUNK_ELEMENTS // (groups * n))
    for first in range(1, top + 1, step):
        rows = slice(first, first + step)
        fit_w, fit_w2, risk = w[pick, rows], w2[pick, rows], risks[:, rows]
        big_w = fit_w + 1.0  # W
        np.divide(wv[pick, rows], big_w, out=risk)
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
    risks[:, 0] = total[:, 0]

    out = np.add.reduce(risks, axis=2)[:, l]  # s = 0: row l, every class
    split = s.nonzero()[0]
    if split.size:
        rows, at = np.unique(l[split], return_inverse=True)
        head = np.cumsum(risks[:, rows + 1], axis=2)  # classes m < s read row l + 1
        back = np.cumsum(risks[:, rows, ::-1], axis=2)  # and m >= s row l, summed from m = n - 1 down
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

    Any 1 <= p <= D on any grid, and the spectra may differ in D, each with
    n <= D (see the module docstring): an entry whose p exceeds its group's
    D is NaN, and a p above every D is a ConfigurationError.  O(D) per
    (r, q), plus O(n) per group and distinct l among the points p = l*n + s
    with s > 0.
    """
    spectra, q_values = list(spectra), list(q_values)
    if not spectra or len(q_values) != len(spectra):
        raise ConfigurationError(f"need one q per spectrum, got q {q_values} for {len(spectra)} spectra")
    for q in q_values:
        check_finite_nonnegative(q, "weighting exponent q")
    D = np.array([spectrum.D for spectrum in spectra])
    check_truncations(int(D.min()), n, ())  # n <= every D
    p = check_truncations(int(D.max()), n, p_values)
    # a pass takes every D of fewer than COMPENSATED_SUM_MIN_BLOCKS blocks, or one D of more, and its (r, q)
    # prefix rows by order
    passes: dict[int, dict[tuple[float, float], list[int]]] = {}
    for g, (spectrum, q) in enumerate(zip(spectra, q_values)):
        key = spectrum.D if compensated_classes(spectrum.D, n) else 0
        passes.setdefault(key, {}).setdefault((spectrum.decay_r, q), []).append(g)
    raw = np.empty((len(spectra), len(p)))
    for prefixes in passes.values():
        prefixes = list(prefixes.values())
        step = max(1, STACKED_FEATURES // max(D[g] for rows in prefixes for g in rows))
        for first in range(0, len(prefixes), step):
            rows = [g for group in prefixes[first : first + step] for g in group]
            raw[rows] = _class_risks([spectra[g] for g in rows], n, [q_values[g] for g in rows], p)
    return _finalize_risks(raw, p > D[:, None])


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
