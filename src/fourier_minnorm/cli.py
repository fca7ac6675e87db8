"""Experiment runner CLI: deterministic sweeps serialised to CSV/JSON.

Subcommands: risk-curve, mc-risk, heatmap, bound-check, interp,
concentration, one per spec dataclass.  Each spec field is one flag,
``--field-name`` (four aliases: ``-D/--ambient``, ``-n/--samples``,
``-p/--truncation``, ``--d-axis``), and one key of the ``--config
<json-file>`` every command accepts (strictly validated, unknown keys
rejected); CLI flags take precedence.  Every spec checks its fields when
it is built, so flags, config values and specs built in Python pass the
same checks: types, fixed choices, ranges, and no empty grid.

Output contracts:

* every data file is a column table (``Table`` of ``Column``), a column
  its values plus a row index: a constant (D, n) is one value repeated, a
  grid axis (p, r, q, regime, x_i) its values repeated or tiled, a per-row
  column (risks, Monte Carlo estimates, f_hat) a plain array with no
  index, and interp's f_true its distinct values plus an index;
  float cells are formatted in numpy (exact ``%.17g`` digits for
  1e-11 <= |v| < 1e17, Python's ``%`` for every other value), a CSV file
  is written in chunks of rows into one byte matrix per file, a slot of
  whole words per column holding the cell, its NUL padding and the
  column's separator, with the NULs deleted from each chunk; per-row
  floats are formatted chunk by chunk and never kept, and every other
  column is formatted once and kept, so a column shared by several files
  (interp's x_i and f_true) is formatted once; the cell rules below and
  the bytes written are the same either way, and a failure part way
  through removes the file;
* CSV: UTF-8, comma-separated, one header row, LF line endings; cells
  follow ``render_cell``: floats with 17 significant digits (round-trip
  exact for doubles, so ``-0``, ``nan``, ``inf`` and ``-inf`` appear as
  such), ints exactly, bools as ``true``/``false``, None as an empty cell;
* JSON: UTF-8, sorted keys, ``{"columns": header, "rows": [...]}`` holding
  the same values as the CSV;
* outputs are pure functions of (spec, seed), computed in grid order in
  one thread, and byte-identical across reruns; ``--threads`` (at least 1)
  changes nothing;
* skipped out-of-domain rows are logged to a ``<out>.log`` sidecar, never
  into data files.

Exit codes: 0 success, 2 configuration error (sizes too large to allocate
included), 3 numerical inconsistency.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import math
import sys
import types
import typing
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar, Iterable, Iterator, Sequence

import numpy as np

from .errors import ConfigurationError, NumericalInconsistencyError
from .interpolation import (
    InterpolationProblem,
    Method,
    WeightKind,
    builtin_targets,
    evaluate_on_grid,
    fit_interpolant,
    target_on_grid,
    training_grid,
    training_samples,
)
from .model import build_spectrum, check_truncations, classify_grid, regime_tags
from .montecarlo import CoefficientModel, McConfig, concentration_check, empirical_risks
from .risktheory import asymptotic_bound, concentration_bound, risk_over_closed, theory_risks

# ---------------------------------------------------------------------------
# Column tables
# ---------------------------------------------------------------------------


def render_cell(value) -> str:
    """One CSV cell: None empty, bools true/false, ints exact, floats to 17 digits."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def _float_cells(values: np.ndarray) -> np.ndarray:
    """``"%.17g" % v`` of each float, as rows of a NUL-padded byte matrix."""
    from . import _decimal  # compiled on first use, not when the CLI starts

    return _decimal.float_cells(values)


def _widest_float(values: np.ndarray) -> int:
    """A bound on the bytes of the widest ``%.17g`` cell of these floats.

    Only a negative value with a three-digit exponent takes 24
    (``-4.9406564584124654e-324``); every other cell takes at most 23.
    """
    magnitudes = -values[values < 0]
    return 24 if np.any((magnitudes < 1e-99) | (magnitudes >= 1e99)) else 23


def _text_cells(cells: Sequence[str]) -> np.ndarray:
    """Rendered cells as rows of a NUL-padded byte matrix."""
    text = np.array([cell.encode("utf-8") for cell in cells], dtype=bytes)
    return text.view(np.uint8).reshape(len(cells), text.itemsize)


# A CSV row is one slot per column: the column's cell, NUL-padded, then its
# separator (a comma, or LF after the last column).  A slot spans whole
# words, the fewest that hold the column's widest cell and the separator.
def _cell_bytes(widest: int) -> int:
    """The bytes before the separator in the slot of a column whose cells take at most ``widest`` bytes."""
    return widest // 8 * 8 + 7


def _fit(cells: np.ndarray, width: int) -> np.ndarray:
    """Byte rows cut (only NULs past the widest cell) or NUL-padded to ``width`` bytes."""
    if cells.shape[1] >= width:
        return cells[:, :width]
    fitted = np.zeros((len(cells), width), dtype=np.uint8)
    fitted[:, : cells.shape[1]] = cells
    return fitted


def _items(cells: np.ndarray) -> np.ndarray:
    """Byte rows (last axis contiguous) as one array of fixed-size items, so each row moves in one copy."""
    return cells.view(f"V{cells.shape[1]}")[:, 0]


def _float_values(values) -> tuple[np.ndarray, np.ndarray | None] | None:
    """A float column's values as float64 and the mask of its None cells; None if it holds anything else."""
    if isinstance(values, np.ndarray):
        return values, None
    kinds = set(map(type, values))
    if not all(issubclass(kind, (float, np.floating, type(None))) for kind in kinds):
        return None
    if type(None) not in kinds:
        return np.array(values, dtype=np.float64), None
    return np.array([0.0 if v is None else v for v in values]), np.array([v is None for v in values])


def _masked_float_cells(values: np.ndarray, empty: np.ndarray | None) -> np.ndarray:
    """``_float_cells`` of the values, with the rows of None cells (``empty``) all NUL."""
    cells = _float_cells(values)
    if empty is not None:
        cells[empty] = 0
    return cells


def _json_value(value):
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    return value


class Column:
    """A column's ``values`` and its row ``index``: row i holds ``values[index[i]]``, or value i when ``index`` is None.

    A constant is one value repeated for every row, a grid axis its values
    repeated (outer axis) or tiled (inner axis): ``repeat`` and ``tile``
    build the index once.  A per-row column is a plain array with no index;
    ``distinct`` gives a per-row float column as its distinct bit patterns
    (``-0.0`` apart from ``0.0``) plus an index.  The CSV writer reads a
    column in chunks of byte rows, one slot wide less the separator's byte
    (``chunk``): a per-row float column formats each chunk and keeps
    nothing; any other column formats its values once, on first use, and
    keeps them, so a column shared by several tables is formatted once.
    Cells hold no NUL: the writer deletes every one.
    """

    def __init__(self, values, repeat: int = 1, tile: int = 1, index: np.ndarray | None = None):
        if isinstance(values, np.ndarray) and values.dtype.kind == "f":
            self.values = values.astype(np.float64, copy=False)
        else:
            self.values = values.tolist() if isinstance(values, np.ndarray) else list(values)
        if index is None and (repeat, tile) != (1, 1):
            index = np.arange(len(self.values) * repeat * tile) // repeat % len(self.values)
        self.index = index
        self._floats: tuple[np.ndarray, np.ndarray | None] | None = None  # per-row floats: values and None mask
        self._cells: np.ndarray | None = None  # any other column: each value's byte row, kept
        self._width: int | None = None

    @classmethod
    def distinct(cls, floats: np.ndarray) -> Column:
        """Per-row floats as their distinct bit patterns and a row index: each pattern is formatted once."""
        bits, index = np.unique(np.asarray(floats, dtype=np.float64).view(np.int64), return_inverse=True)
        return cls(bits.view(np.float64), index=index)

    def __len__(self) -> int:
        return len(self.values) if self.index is None else len(self.index)

    def width(self) -> int:
        """The bytes before the separator in this column's CSV slot; formats a column that keeps its cells."""
        if self._width is None:
            floats = _float_values(self.values)
            if floats is not None and self.index is None:  # per-row floats: each chunk formatted as it is written
                self._floats = floats
                self._width = _cell_bytes(_widest_float(floats[0]))
            else:
                if floats is None:
                    cells = _text_cells(list(map(render_cell, self.values)))
                else:
                    cells = _masked_float_cells(*floats)
                used = np.flatnonzero(cells.any(axis=0))
                # contiguous, not a view of wider rows: a chunk's gather then reads about twice as fast
                self._cells = np.ascontiguousarray(_fit(cells, _cell_bytes(used[-1] + 1 if used.size else 0)))
                self._width = self._cells.shape[1]
        return self._width

    def chunk(self, start: int, stop: int) -> np.ndarray:
        """Byte rows of cells ``start`` to ``stop - 1``, ``width()`` bytes each."""
        width = self.width()
        if self._floats is not None:
            values, empty = self._floats
            return _fit(_masked_float_cells(values[start:stop], None if empty is None else empty[start:stop]), width)
        if self.index is None:
            return self._cells[start:stop]
        return np.take(self._cells, self.index[start:stop], axis=0)

    def json_values(self) -> list:
        values = self.values.tolist() if isinstance(self.values, np.ndarray) else [_json_value(v) for v in self.values]
        return values if self.index is None else [values[i] for i in self.index.tolist()]


class Table:
    """The equal-length columns of one data file; ``len`` is its row count."""

    def __init__(self, columns: Sequence[Column]):
        lengths = {len(column) for column in columns}
        if len(lengths) > 1:
            raise ValueError(f"table columns differ in length: {sorted(lengths)}")
        self.columns = list(columns)
        self.rows = lengths.pop() if lengths else 0

    def __len__(self) -> int:
        return self.rows


# Rows per chunk of a CSV file: each chunk is formatted, joined and written
# before the next, so a file's text is never held whole.
CSV_CHUNK_ROWS = 2048


def _write_file(path: Path, chunks: Iterable[bytes]) -> None:
    """Write one output file, chunk by chunk; a failure part way removes the file.

    A missing directory or an unwritable path is a configuration error.
    """
    path = Path(path)
    if not path.parent.is_dir():
        raise ConfigurationError(f"output directory {str(path.parent)!r} does not exist (field out)")
    try:
        with open(path, "wb") as fh:
            try:
                fh.writelines(chunks)
            except BaseException:  # never leave a truncated file behind; re-raised
                with contextlib.suppress(OSError):
                    path.unlink()
                raise
    except OSError as exc:  # a directory, no permission, a full disk
        raise ConfigurationError(f"cannot write output file {str(path)!r}: {exc} (field out)") from None


def _csv_chunks(header: Sequence[str], table: Table) -> Iterator[bytes]:
    """The CSV text in chunks of rows: each one byte matrix of slots, a cell then its separator, NULs deleted.

    The matrix is allocated once, with every separator in place; each chunk
    overwrites only the cells.
    """
    yield (",".join(header) + "\n").encode("utf-8")
    if not len(table):
        return
    widths = [column.width() for column in table.columns]  # bytes before each column's separator
    separators = np.cumsum(widths) + np.arange(len(widths))
    rows = np.zeros((min(CSV_CHUNK_ROWS, len(table)), separators[-1] + 1), dtype=np.uint8)
    rows[:, separators] = ord(",")
    rows[:, -1] = ord("\n")
    slots = [_items(rows[:, end - width : end]) for end, width in zip(separators, widths)]  # each less its separator
    for start in range(0, len(table), CSV_CHUNK_ROWS):
        stop = min(start + CSV_CHUNK_ROWS, len(table))
        for column, slot in zip(table.columns, slots):
            slot[: stop - start] = _items(column.chunk(start, stop))
        yield rows[: stop - start].tobytes().translate(None, b"\0")


def write_csv(path: Path, header: Sequence[str], table: Table) -> None:
    _write_file(path, _csv_chunks(header, table))


def write_json(path: Path, payload) -> None:
    _write_file(path, [(json.dumps(payload, sort_keys=True, indent=2) + "\n").encode("utf-8")])


def write_table(path: Path, fmt: str, header: Sequence[str], table: Table) -> None:
    if fmt == "csv":
        write_csv(path, header, table)
    else:
        rows = list(zip(*(column.json_values() for column in table.columns)))
        write_json(path, {"columns": list(header), "rows": rows})


# ---------------------------------------------------------------------------
# Experiment specs (strict construction, lossless round-trips)
# ---------------------------------------------------------------------------


_SCALAR_TYPES = {int: (int,), float: (int, float), str: (str,)}

# Fixed choices of spec fields, for flags and config files alike; each item
# of a list field (methods) is one of them.
_CHOICES = {
    "format": ("csv", "json"),
    "p_rule": ("paper",),
    "q_rule": ("match-r", "fixed"),
    "coefficient_model": tuple(m.value for m in CoefficientModel),
    "weight_kind": tuple(k.value for k in WeightKind),
    "methods": tuple(m.value for m in Method),
}

# Range rules on spec fields, checked after the types: name -> (test, rule).
_RANGES = {
    "threads": (lambda v: v >= 1, "be >= 1"),
    "eval_points": (lambda v: v >= 1, "be >= 1"),
    "t_multipliers": (lambda v: all(map(math.isfinite, v)), "hold finite values only"),
}


def _value_type(kind):
    """The type ``X`` of a field annotated ``X`` or ``X | None``."""
    options = typing.get_args(kind) if typing.get_origin(kind) is types.UnionType else (kind,)
    (kind,) = [option for option in options if option is not type(None)]
    return kind


def _check_scalar(name: str, kind: type, value):
    if isinstance(value, bool) or not isinstance(value, _SCALAR_TYPES[kind]):
        raise ConfigurationError(f"field {name} must be {kind.__name__}, got {value!r}")
    return kind(value)


def _check_field(name: str, kind, value):
    """A spec field's value checked against its annotation, choices and range; ints widen to float.

    Every spec runs it on each of its fields when it is built (``_Spec``),
    so flags, config keys and specs built in Python pass the same checks.
    A list field that is set is never empty: an empty grid is refused
    before any runner starts.
    """
    value_type = _value_type(kind)
    if value is None and value_type is not kind:  # X | None
        return None
    if typing.get_origin(value_type) is not tuple:
        value = _check_scalar(name, value_type, value)
    else:
        scalar = typing.get_args(value_type)[0]
        if not isinstance(value, (list, tuple)):
            raise ConfigurationError(f"field {name} must be a list of {scalar.__name__}, got {value!r}")
        value = tuple(_check_scalar(name, scalar, v) for v in value)
        if not value:
            what = f"{name.partition('_')[0]} grid" if "_" in name else name
            raise ConfigurationError(f"{what} is empty (field {name})")
    if name in _CHOICES:
        for item in value if isinstance(value, tuple) else (value,):
            if item not in _CHOICES[name]:
                choices = ", ".join(map(repr, _CHOICES[name]))
                raise ConfigurationError(f"field {name} must be one of {choices}, got {item!r}")
    if name in _RANGES and not _RANGES[name][0](value):
        raise ConfigurationError(f"field {name} must {_RANGES[name][1]}, got {value!r}")
    return value


@functools.cache
def _field_types(cls) -> dict:
    """Each field of a spec class and its annotation, resolved once per class."""
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls)}


class _Spec:
    """Base of the spec dataclasses: however a spec is built, ``_check_field`` checks every field."""

    def __post_init__(self):
        for name, kind in _field_types(type(self)).items():
            object.__setattr__(self, name, _check_field(name, kind, getattr(self, name)))


def spec_from_dict(cls, data: dict):
    data = dict(data)
    command = data.pop("command", cls.COMMAND)
    if command != cls.COMMAND:
        raise ConfigurationError(f"config is for command {command!r}, expected {cls.COMMAND!r}")
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - names)
    if unknown:
        raise ConfigurationError(f"unknown config field(s) for {cls.COMMAND}: {', '.join(unknown)}")
    try:
        return cls(**data)
    except TypeError as exc:
        raise ConfigurationError(f"invalid {cls.COMMAND} config: {exc}") from None


def spec_to_dict(spec) -> dict:
    out = {"command": spec.COMMAND}
    for f in dataclasses.fields(spec):
        value = getattr(spec, f.name)
        out[f.name] = list(value) if isinstance(value, tuple) else value
    return out


@dataclass(frozen=True)
class RiskCurveSpec(_Spec):
    COMMAND: ClassVar[str] = "risk-curve"
    D: int
    n: int
    r_values: tuple[float, ...]
    q_values: tuple[float, ...] | None = None  # None: q = r per curve
    p_values: tuple[int, ...] | None = None  # None: use p_rule
    p_rule: str = "paper"
    out: str = "risk_curve.csv"
    format: str = "csv"
    threads: int = 1


@dataclass(frozen=True)
class McRiskSpec(_Spec):
    COMMAND: ClassVar[str] = "mc-risk"
    D: int
    n: int
    r_values: tuple[float, ...]
    q_values: tuple[float, ...] | None = None
    p_values: tuple[int, ...] | None = None
    p_rule: str = "paper"
    trials: int = 100
    seed: int = 0
    confidence: float = 0.8
    coefficient_model: str = "complex-gaussian"
    out: str = "mc_risk.csv"
    format: str = "csv"
    threads: int = 1


@dataclass(frozen=True)
class HeatmapSpec(_Spec):
    COMMAND: ClassVar[str] = "heatmap"
    D: int
    n: int
    r_values: tuple[float, ...]
    q_rule: str = "match-r"
    q_fixed: float = 0.0
    p_values: tuple[int, ...] | None = None
    p_rule: str = "paper"
    out: str = "heatmap.csv"
    format: str = "csv"
    threads: int = 1


@dataclass(frozen=True)
class BoundCheckSpec(_Spec):
    COMMAND: ClassVar[str] = "bound-check"
    n_values: tuple[int, ...]
    r_values: tuple[float, ...]
    l_values: tuple[int, ...] = (2, 4)
    tau_multipliers: tuple[int, ...] = (2, 4)
    out: str = "bound_check.csv"
    format: str = "csv"
    threads: int = 1


@dataclass(frozen=True)
class InterpSpec(_Spec):
    COMMAND: ClassVar[str] = "interp"
    n_axis: int
    p_axis: int
    D_axis: int
    q: float
    dimension: int = 1
    target: str | None = None
    samples_file: str | None = None
    methods: tuple[str, ...] = ("weighted-min-norm", "plain-min-norm")
    weight_kind: str = "euclidean"
    noise_sigma: float = 0.0
    eval_points: int = 512
    seed: int = 0
    out: str = "interp"
    format: str = "csv"
    threads: int = 1


@dataclass(frozen=True)
class ConcentrationSpec(_Spec):
    COMMAND: ClassVar[str] = "concentration"
    D: int
    n: int
    p: int
    r: float
    q: float
    t_multipliers: tuple[float, ...] = (0.5, 1.0, 2.0)
    trials: int = 2000
    seed: int = 0
    confidence: float = 0.8
    coefficient_model: str = "complex-gaussian"
    out: str = "concentration.csv"
    format: str = "csv"
    threads: int = 1


SPEC_TYPES = {
    cls.COMMAND: cls
    for cls in (RiskCurveSpec, McRiskSpec, HeatmapSpec, BoundCheckSpec, InterpSpec, ConcentrationSpec)
}


# ---------------------------------------------------------------------------
# Runners
# ---------------------------------------------------------------------------

# No 64-bit address space holds 2^56 array elements (2^59 bytes of doubles),
# and from 2^59 on numpy raises ValueError, not MemoryError: such specs are
# refused before anything is allocated.
MAX_ELEMENTS = 1 << 56


def _check_element_counts(counts: dict[str, Sequence[int]]) -> None:
    """Refuse the first count (a product of sizes) >= MAX_ELEMENTS; sizes < 1 are left to the range checks."""
    for what, factors in counts.items():
        if min(factors, default=0) >= 1 and math.prod(factors) >= MAX_ELEMENTS:
            raise ConfigurationError(f"out of memory: {what} = {' x '.join(map(str, factors))} elements, 2^56 or more")


def _resolve_p_grid(spec) -> np.ndarray:
    """The sorted p grid of a sweep, checked against D and n."""
    if spec.p_values is not None:
        p_list = sorted(set(spec.p_values))
    else:  # p_rule "paper": every p < n, then the multiples of n up to D
        check_truncations(spec.D, spec.n, ())  # n first: the rule divides by it
        if spec.D % spec.n != 0:
            raise ConfigurationError(f"p_rule 'paper' needs n | D, got D={spec.D}, n={spec.n} (field n)")
        # ranges, not a comprehension: a list too large to allocate fails at once
        p_list = [*range(1, spec.n), *range(spec.n, spec.D + 1, spec.n)]
    return check_truncations(spec.D, spec.n, p_list)


def _curve_groups(spec) -> tuple[list[tuple[float, float]], np.ndarray]:
    """(r, q) row groups in output order, and the p grid each group sweeps."""
    p = _resolve_p_grid(spec)
    groups = []
    for r in sorted(set(spec.r_values)):
        q_list = sorted(set(spec.q_values)) if spec.q_values is not None else [r]
        groups.extend((r, q) for q in q_list)
    return groups, p


def _spectra(D: int, groups) -> dict:
    return {r: build_spectrum(D, r) for r in dict.fromkeys(r for r, _ in groups)}


def _sweep_columns(spec, groups: Sequence[tuple[float, float]], p: np.ndarray) -> list[Column]:
    """D, n, p, r, q of a sweep whose rows run group by group, each over the whole p grid."""
    rows = len(groups) * len(p)
    return [
        Column([spec.D], repeat=rows),
        Column([spec.n], repeat=rows),
        Column(p, tile=len(groups)),
        Column([r for r, _ in groups], repeat=len(p)),
        Column([q for _, q in groups], repeat=len(p)),
    ]


def run_risk_curve(spec: RiskCurveSpec) -> list[Path]:
    _check_element_counts({"D": [spec.D]})
    groups, p = _curve_groups(spec)
    spectra = _spectra(spec.D, groups)
    risks = np.concatenate([theory_risks(spectra[r], spec.n, q, p) for r, q in groups])
    columns = _sweep_columns(spec, groups, p)
    columns += [Column(regime_tags(spec.n, p), tile=len(groups)), Column(risks)]
    path = Path(spec.out)
    write_table(path, spec.format, ["D", "n", "p", "r", "q", "regime", "risk_theory"], Table(columns))
    return [path]


def _mc_config(spec: McRiskSpec | ConcentrationSpec) -> McConfig:
    """The Monte Carlo settings of a spec; its trials x D elements are checked against MAX_ELEMENTS first."""
    _check_element_counts({"D": [spec.D], "trials x D": [spec.trials, spec.D]})  # bounds len(p) x trials too
    model = CoefficientModel(spec.coefficient_model)
    return McConfig(trials=spec.trials, seed=spec.seed, coefficient_model=model, confidence=spec.confidence)


def run_mc_risk(spec: McRiskSpec) -> list[Path]:
    mc = _mc_config(spec)
    groups, p = _curve_groups(spec)
    spectra = _spectra(spec.D, groups)
    results = [
        (theory_risks(spectra[r], spec.n, q, p), empirical_risks(spectra[r], spec.n, q, p, mc)) for r, q in groups
    ]
    estimates = [est for _, group_estimates in results for est in group_estimates]
    columns = _sweep_columns(spec, groups, p)
    columns += [
        Column(regime_tags(spec.n, p), tile=len(groups)),
        Column(np.concatenate([risks for risks, _ in results])),
        Column([est.mean for est in estimates]),
        Column([est.ci_low for est in estimates]),
        Column([est.ci_high for est in estimates]),
    ]
    path = Path(spec.out)
    header = ["D", "n", "p", "r", "q", "regime", "risk_theory", "risk_mc_mean", "ci_low", "ci_high"]
    write_table(path, spec.format, header, Table(columns))
    return [path]


def run_heatmap(spec: HeatmapSpec) -> list[Path]:
    _check_element_counts({"D": [spec.D]})
    p = _resolve_p_grid(spec)
    groups = [(r, r if spec.q_rule == "match-r" else spec.q_fixed) for r in sorted(set(spec.r_values))]
    spectra = _spectra(spec.D, groups)
    risks = np.concatenate([theory_risks(spectra[r], spec.n, q, p) for r, q in groups]).tolist()
    log10_risks = [math.log10(risk) if risk > 0 else None for risk in risks]
    columns = _sweep_columns(spec, groups, p) + [Column(risks), Column(log10_risks)]
    path = Path(spec.out)
    write_table(path, spec.format, ["D", "n", "p", "r", "q", "risk", "log10_risk"], Table(columns))
    return [path]


def run_bound_check(spec: BoundCheckSpec) -> list[Path]:
    params = [
        (r, n, l, m)
        for r in sorted(set(spec.r_values))
        for n in sorted(set(spec.n_values))
        for l in sorted(set(spec.l_values))
        for m in sorted(set(spec.tau_multipliers))
    ]
    rows = []
    warnings = []
    spectra = {}
    for r, n, l, m in params:
        tau = m * l
        D, p = tau * n, l * n
        label = f"r={r} n={n} l={l} tau={tau}"
        if r <= 0.5:
            warnings.append(f"skipped {label}: rate bound needs q = r > 1/2")
            continue
        if l < 2:
            warnings.append(f"skipped {label}: rate bound needs l >= 2")
            continue
        if (D, r) not in spectra:
            _check_element_counts({"D = tau x n": [tau, n]})
            spectra[D, r] = build_spectrum(D, r)
        spectrum = spectra[D, r]
        grid = classify_grid(D, n, p)
        risk = risk_over_closed(spectrum, grid, q=r).risk
        report = asymptotic_bound(spectrum, grid)
        slack = report.bound - risk
        rows.append(["config", D, n, p, r, r, risk, report.bound, slack, slack >= 0.0])
    if rows:
        min_slack = min(row[8] for row in rows)
        all_valid = all(row[9] for row in rows)
        rows.append(["summary", None, None, None, None, None, None, None, min_slack, all_valid])
    path = Path(spec.out)
    header = ["kind", "D", "n", "p", "r", "q", "risk", "bound", "slack", "valid"]
    table = Table([Column([row[i] for row in rows]) for i in range(len(header))])
    write_table(path, spec.format, header, table)
    paths = [path]
    if warnings:
        log_path = Path(str(spec.out) + ".log")
        _write_file(log_path, [("\n".join(warnings) + "\n").encode("utf-8")])
        paths.append(log_path)
    return paths


def run_concentration(spec: ConcentrationSpec) -> list[Path]:
    mc = _mc_config(spec)
    spectrum = build_spectrum(spec.D, spec.r)
    grid = classify_grid(spec.D, spec.n, spec.p)
    T_q = concentration_bound(spec.r, spec.q, 0.0).T_q
    t_grid = [m * T_q for m in spec.t_multipliers]
    tails = concentration_check(spectrum, grid, spec.q, t_grid, mc)
    header = ["D", "n", "p", "r", "q", "trials", "t", "empirical_tail", "bound_tail", "std_err"]
    columns = [Column([v], repeat=len(tails)) for v in (spec.D, spec.n, spec.p, spec.r, spec.q, spec.trials)]
    columns += [Column([getattr(row, name) for row in tails]) for name in header[6:]]  # TailRow fields
    path = Path(spec.out)
    write_table(path, spec.format, header, Table(columns))
    return [path]


def _load_samples_file(path: str, dimension: int, n_axis: int) -> np.ndarray:
    """Read a training-sample CSV (x columns then y, row-major grid order), one row per point."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:  # a directory, not UTF-8, a NUL in the path
        raise ConfigurationError(f"cannot read samples file {path}: {exc} (field samples_file)") from None
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ConfigurationError(f"samples file {path} is empty")
    header = lines[0].split(",")
    expected = [f"x{i}" for i in range(dimension)] + ["y"]
    if header != expected:
        raise ConfigurationError(f"samples file header {header} != expected {expected}")
    try:
        values = np.array([[float(cell) for cell in line.split(",")] for line in lines[1:]])
    except ValueError as exc:
        raise ConfigurationError(f"samples file {path} has a malformed row: {exc}") from None
    if values.shape[0] != n_axis**dimension:
        raise ConfigurationError(f"samples file has {values.shape[0]} rows, expected {n_axis**dimension}")
    if values.shape[1:] != (dimension + 1,):
        raise ConfigurationError(f"samples file rows must have {dimension + 1} cells, as the header does")
    if not np.all(np.isfinite(values)):
        raise ConfigurationError(f"samples file {path} holds a non-finite value")
    return values


def _finite_or_none(value: float) -> float | None:
    """A metric for strict JSON: non-finite values (an overflowed norm) become null."""
    return value if math.isfinite(value) else None


def run_interp(spec: InterpSpec) -> list[Path]:
    if (spec.target is None) == (spec.samples_file is None):
        raise ConfigurationError("exactly one of 'target' and 'samples_file' must be set")
    dimension = spec.dimension if spec.target is None else builtin_targets(spec.target).dimension
    # d factors per grid; from d = 64 on any size >= 2 is past the limit already
    sizes = {"n_axis": spec.n_axis, "p_axis": spec.p_axis, "eval_points": spec.eval_points}
    _check_element_counts({f"{name}^d": [size] * min(dimension, 64) for name, size in sizes.items()})
    samples = None
    target: str | np.ndarray | None = spec.target
    if spec.samples_file is not None:
        samples = _load_samples_file(spec.samples_file, dimension, spec.n_axis)
        target = samples[:, -1].reshape((spec.n_axis,) * dimension)
    problem = InterpolationProblem(
        dimension=dimension,
        n_axis=spec.n_axis,
        p_axis=spec.p_axis,
        D_axis=spec.D_axis,
        q=spec.q,
        target=target,
        noise_sigma=spec.noise_sigma,
        weight_kind=WeightKind(spec.weight_kind),
        noise_seed=spec.seed,
    )
    if samples is not None:
        grid_points = training_grid(problem).reshape(-1, dimension)
        if not np.allclose(samples[:, :-1], grid_points, atol=1e-12):
            raise ConfigurationError("samples file coordinates do not match the equispaced training grid")
    named = spec.target is not None
    _, observed = training_samples(problem)
    m, eval_axes = spec.eval_points, problem.axes(spec.eval_points)
    # Row-major grid order: axis i repeats each value m^(d-1-i) times, tiled m^i times.
    shared = [Column(axis, repeat=m ** (dimension - 1 - i), tile=m**i) for i, axis in enumerate(eval_axes)]
    header = [f"x{i}" for i in range(dimension)]
    if named:
        truth = target_on_grid(problem, m).ravel()
        shared.append(Column.distinct(truth))  # each distinct value formatted once, for every method's file
        header.append("f_true")
    header.append("f_hat")

    paths = []
    # the fields that shape the fits (methods key per_method), with the dimension a named target fixes
    skip = ("command", "methods", "out", "format", "threads")
    metrics: dict = {
        "problem": {**{k: v for k, v in spec_to_dict(spec).items() if k not in skip}, "dimension": dimension},
        "samples": [float(v) for v in observed.ravel()],
        "per_method": {},
    }
    for method in map(Method, spec.methods):
        fit = fit_interpolant(problem, method)
        values = evaluate_on_grid(fit.coefficients, m).ravel()
        max_imag = float(np.max(np.abs(values.imag))) if values.size else 0.0
        rmse = float(np.sqrt(np.mean(np.abs(values - truth) ** 2))) if named else None
        grid_path = Path(f"{spec.out}.{method.value}.{spec.format}")
        write_table(grid_path, spec.format, header, Table(shared + [Column(values.real)]))
        paths.append(grid_path)
        metrics["per_method"][method.value] = {
            "sample_residual": fit.residual,
            "weighted_norm": _finite_or_none(fit.weighted_norm),
            "log10_weighted_norm": _finite_or_none(fit.log10_weighted_norm),
            "plain_norm": fit.plain_norm,
            "rmse": rmse,
            "max_abs_imag": max_imag,
        }
    metrics_path = Path(f"{spec.out}.metrics.json")
    write_json(metrics_path, metrics)
    paths.append(metrics_path)
    return paths


RUNNERS = {
    "risk-curve": run_risk_curve,
    "mc-risk": run_mc_risk,
    "heatmap": run_heatmap,
    "bound-check": run_bound_check,
    "interp": run_interp,
    "concentration": run_concentration,
}


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(",") if v.strip())


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(",") if v.strip())


def _strs(text: str) -> tuple[str, ...]:
    return tuple(v.strip() for v in text.split(",") if v.strip())


# Value parser of a flag, by the type of its field's values; lists are comma-separated.
_FLAG_TYPES = {
    int: int,
    float: float,
    str: None,
    tuple[int, ...]: _ints,
    tuple[float, ...]: _floats,
    tuple[str, ...]: _strs,
}

# Option strings of the fields whose flag is not ``--field-name``.
_ALIASES = {"D": ("--ambient", "-D"), "n": ("--samples", "-n"), "p": ("--truncation", "-p"), "D_axis": ("--d-axis",)}

# Help of each field's flag, in every command that has the field.
_HELP = {
    "D": "ambient feature count D",
    "n": "sample count n",
    "p": "truncation p",
    "r": "decay exponent",
    "q": "weighting exponent of the weighted fit",
    "r_values": "comma-separated decay exponents",
    "q_values": "comma-separated weighting exponents (default q=r)",
    "p_values": "explicit comma-separated truncations",
    "p_rule": "p grid rule when p-values absent (default 'paper')",
    "q_rule": "q per row: match-r (q = r) or fixed (q = q-fixed)",
    "q_fixed": "weighting exponent of the fixed q rule",
    "n_values": "comma-separated sample counts",
    "l_values": "comma-separated overparametrisation ratios l = p/n",
    "tau_multipliers": "comma-separated ratios D/p",
    "t_multipliers": "deviation levels as multiples of T_q",
    "trials": "Monte Carlo trials per configuration",
    "seed": "base RNG seed (interp: observation noise)",
    "confidence": "confidence level for percentile CIs",
    "coefficient_model": "distribution of the Monte Carlo coefficients",
    "target": "built-in target name (stage1d, cubic1d, cos2d)",
    "samples_file": "CSV of training samples (x columns then y)",
    "dimension": "dimension (required for samples-file input)",
    "n_axis": "per-axis sample count",
    "p_axis": "per-axis truncation",
    "D_axis": "per-axis ambient feature count",
    "methods": "comma-separated method list",
    "weight_kind": "frequency weights in d > 1: a product of axis weights or 1/(1 + ||k||_2)",
    "noise_sigma": "additive Gaussian noise level",
    "eval_points": "dense evaluation points per axis",
    "out": "output path (or path stem for interp)",
    "format": "output format",
    "threads": "accepted for compatibility (>= 1); changes neither the output nor the speed",
}


def build_parser() -> argparse.ArgumentParser:
    """One subcommand per spec class, one flag per field: ``--field-name`` unless aliased."""
    parser = argparse.ArgumentParser(
        prog="fourier-minnorm",
        description="Risk and interpolation experiments for min-norm Fourier regression.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, cls in SPEC_TYPES.items():
        p = sub.add_parser(command)
        p.add_argument("--config", help="JSON config file; CLI flags override its fields")
        for name, kind in _field_types(cls).items():
            value_type = _value_type(kind)
            flags = _ALIASES.get(name, ("--" + name.replace("_", "-"),))
            # argparse checks a whole value against choices: a list field's items are checked by the spec
            choices = None if typing.get_origin(value_type) is tuple else _CHOICES.get(name)
            p.add_argument(*flags, dest=name, type=_FLAG_TYPES[value_type], choices=choices, help=_HELP[name])
    return parser


def spec_from_args(args: argparse.Namespace):
    cls = SPEC_TYPES[args.command]
    file_config: dict = {}
    if args.config:
        try:
            file_config = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise ConfigurationError(f"config file not found: {args.config}") from None
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"config file is not valid JSON: {exc}") from None
        except (OSError, ValueError, RecursionError) as exc:  # a directory, not UTF-8, nested too deeply
            raise ConfigurationError(f"cannot read config file {args.config}: {exc}") from None
        if not isinstance(file_config, dict):
            raise ConfigurationError("config file must hold a JSON object")
    field_names = {f.name for f in dataclasses.fields(cls)}
    overrides = {
        name: value
        for name, value in vars(args).items()
        if name in field_names and value is not None
    }
    merged = dict(file_config)
    merged.update(overrides)
    return spec_from_dict(cls, merged)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built on the first ``main`` call and reused by every later one."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        spec = spec_from_args(args)
        for path in RUNNERS[args.command](spec):
            print(f"wrote {path}")
        return 0
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # sizes (D, trials, ...) too large for this machine
        print(f"error: out of memory: {str(exc) or 'the sizes of the spec do not fit'}", file=sys.stderr)
        return 2
    except NumericalInconsistencyError as exc:
        print(f"numerical inconsistency: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
