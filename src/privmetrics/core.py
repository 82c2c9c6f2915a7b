"""Shared data model, validation, and file parsing.

All types are immutable after construction and every operation is a pure
function, so values can be shared freely between threads.

Probability mass is checked by one rule, ``_normalized``: inputs within an
absolute tolerance of 1e-9 are renormalized, anything further off is rejected.
Every entropy, conditional entropy, mutual information, divergence and
cross-entropy is one exactly rounded sum of w log2 r, so its value does not
depend on the order in which the outcomes are listed: ``_info_bits`` over
(weight, ratio) pairs, or, for mutual information and divergence, whose
ratios can pass the normal floats, ``math.fsum`` over ``_log2_quotient``.
"""

from __future__ import annotations

import copy
import csv
import io
import json
import math
import reprlib
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, count, repeat
from operator import sub
from typing import Iterable, Iterator, Sequence, Union

from .errors import (
    DistributionError,
    EmptyError,
    ParamError,
    SchemaError,
    ShapeError,
)

PROB_TOL = 1e-9
# Below this, mass deviations are float noise: accept as-is so that
# parse(serialize(x)) reproduces x bit-for-bit.
RENORM_FLOOR = 1e-12

COLUMN_KINDS = ("categorical", "numeric")
COLUMN_ROLES = ("identifier", "quasi-identifier", "sensitive", "plain")


def _as_finite_float(cell: str, lineno: int, column: str) -> float:
    """A numeric CSV cell, which arrives as text; an error names where it sits."""
    try:
        v = float(cell)
    except ValueError:
        problem = "not a number"
    else:
        if math.isfinite(v):
            return v
        problem = "not finite"
    raise SchemaError(f"line {lineno}, column {column!r}: {problem}: {cell!r}")


# ---------------------------------------------------------------------------
# Field types: every value inside a JSON input file must already have its JSON
# type. A field type is a callable ``(value, what) -> typed value`` that raises
# SchemaError naming ``what``; every JSON parser is declared with these.

_NUMBER = frozenset((int, float))  # exact JSON types, so true/false are not numbers
_FLOAT = frozenset((float,))
_STRING = frozenset((str,))
_LABEL = _NUMBER | _STRING
_REQUIRED = object()


def _read(path) -> str:
    """A file's text: one unbuffered binary read decoded as UTF-8, whatever the
    locale, with ``\\r\\n`` and then a lone ``\\r`` read as ``\\n``, as text mode
    reads them. A text-mode stream costs more to build than a small file takes
    to read."""
    try:
        with io.FileIO(path) as fh:
            text = fh.readall().decode()
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError(f"cannot read {path}: {exc}")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def _load_json(text: str, what: str):
    try:
        return json.loads(text)
    except ValueError as exc:  # malformed, or an integer literal too long to convert
        raise SchemaError(f"malformed {what} JSON: {exc}")


def _mistyped(what: str, expected: str, value) -> SchemaError:
    return SchemaError(f"{what}: expected {expected}, got {reprlib.repr(value)}")


def _finite(value, what: str) -> float:
    try:
        if type(value) in _NUMBER and math.isfinite(number := float(value)):
            return number
    except OverflowError:  # an integer beyond the float range
        pass
    raise _mistyped(what, "a finite number", value)


def _integer(value, what: str) -> int:
    if type(value) is int:
        return value
    if type(value) is float and value.is_integer():
        return int(value)
    raise _mistyped(what, "an integer", value)


def _exact(kind: type, expected: str):
    """Field type of a JSON value of exactly this type (true/false is not a number)."""

    def read(value, what):
        if type(value) is not kind:
            raise _mistyped(what, expected, value)
        return value

    return read


_boolean = _exact(bool, "true or false")
_string = _exact(str, "a string")
_array = _exact(list, "a JSON array")
_object = _exact(dict, "a JSON object")


def _label(value, what: str) -> str:
    if type(value) not in _LABEL:
        raise _mistyped(what, "a string or number", value)
    return str(value)


def _list(item):
    """Field type of a JSON array whose elements all have type ``item``."""
    return lambda value, what: [item(v, what) for v in _array(value, what)]


def _tuple(*items):
    """Field type of a JSON array of ``len(items)`` elements, typed in order."""

    def read(value, what):
        if type(value) is not list or len(value) != len(items):
            raise _mistyped(what, f"an array of {len(items)} elements", value)
        return tuple([item(v, what) for item, v in zip(items, value)])

    return read


def _mapping(item):
    """Field type of a JSON object whose values all have type ``item``; a
    mistyped value is named by its key, as ``what['key']``."""

    def read(value, what):
        obj = _object(value, what)
        try:
            return {k: item(v, what) for k, v in obj.items()}
        except SchemaError:
            for k, v in obj.items():  # the first mistyped value again, named by its key
                item(v, f"{what}[{k!r}]")
            raise

    return read


def _floats(value, what: str) -> tuple[float, ...]:
    """An array of finite numbers. A large matrix is read row by row, so the
    common all-valid row is checked and converted by C loops."""
    if type(value) is list and _NUMBER.issuperset(map(type, value)):
        try:
            floats = tuple(map(float, value))
            if math.isfinite(sum(floats)):
                return floats
        except OverflowError:  # an integer beyond the float range
            pass
    return tuple([_finite(v, what) for v in _array(value, what)])  # names the bad entry


def _point(value, what: str):
    """A number or an array of numbers."""
    return _floats(value, what) if type(value) is list else _finite(value, what)


def _labels(value, what: str) -> tuple[str, ...]:
    if type(value) is list and _LABEL.issuperset(map(type, value)):
        return tuple(map(str, value))  # the common all-valid array, by C loops
    return tuple([_label(v, what) for v in _array(value, what)])


_matrix = _list(_floats)


def _fields(**types):
    """Field type of a JSON object with exactly the declared keys.

    ``name=type`` is a required key, ``name=(type, default)`` an optional one
    that reads as ``default`` when absent. The reader returns the typed values
    in declared order; ``read.shape`` shows the keys, optional ones with ``?``.
    """
    decls = tuple((k, *(v if isinstance(v, tuple) else (v, _REQUIRED))) for k, v in types.items())
    keys = frozenset(types)
    required = frozenset(k for k, _, default in decls if default is _REQUIRED)
    shape = "{" + ", ".join(f'"{k}"' if k in required else f'"{k}"?' for k in types) + "}"

    def read(obj, what):
        if type(obj) is not dict or obj.keys() != keys and not required <= obj.keys() <= keys:
            raise SchemaError(f"{what}: expected a JSON object {shape}")
        values = []  # a loop, not a comprehension: one record is read per array element
        for k, kind, default in decls:
            values.append(kind(obj[k], k) if k in obj else default)
        return tuple(values)

    read.shape = shape
    return read


# The JSON shape of each core input kind
_DISTRIBUTION = _fields(labels=_labels, probs=_floats)
_JOINT = _fields(x_labels=_labels, y_labels=_labels, matrix=_matrix)
_MECHANISM = _fields(inputs=_labels, outputs=_labels, matrix=_matrix)
_SIDECAR = _fields(roles=(_mapping(_string), {}), kinds=(_mapping(_string), {}))  # by column name
_TRACE = _fields(samples=_list(_fields(t=_finite, v=_finite)))
_RECT, _CELL = _tuple(_finite, _finite, _finite, _finite), _tuple(_integer, _integer)
_REGION = _fields(rect=(_RECT, None), cells=(_list(_CELL), None))


# ---------------------------------------------------------------------------
# Distributions


def _normalized(masses: Sequence[float], what: str) -> tuple[float, ...]:
    """The one probability-mass rule, for every input that carries mass.

    Every mass must be finite and >= 0 and their exact sum within PROB_TOL of
    1, a sum past the largest float reading as inf; otherwise
    DistributionError names ``what``. A sum further than RENORM_FLOOR from 1
    is divided out; closer, the masses come back unchanged.
    """
    masses = tuple(masses)
    low = min(masses, default=0.0)
    if not low >= 0:  # a NaN first is caught here, a later one by the sum
        raise DistributionError(f"{what}: {low!r} is not >= 0")
    try:
        total = math.fsum(masses)  # no -inf is left, so fsum cannot meet inf - inf
    except OverflowError:
        total = math.inf
    if not abs(total - 1.0) <= PROB_TOL:  # an inf or NaN mass makes the sum inf or NaN
        raise DistributionError(f"{what} sums to {total!r}, not 1")
    if abs(total - 1.0) > RENORM_FLOOR:
        return tuple([m / total for m in masses])
    return masses


# From this many matrix cells on, a mechanism's rows are checked against the
# mass rule as one numpy array first (``_keeps_rows``), if numpy is already
# imported; below it, or before numpy is, only row by row. Importing numpy
# for the check alone would cost a cold process about 150 ms on a 2-vCPU
# machine, more than the row loop takes on a matrix of a few million cells.
_ARRAY_CELLS = 1 << 14


def _keeps_rows(array, width: int) -> bool:
    """Whether ``array``, made by ``np.array`` from a mechanism's matrix, shows
    that ``_normalized`` keeps every row as it is: a float array of ``width``
    columns, every entry in [0, 1], and each row's exact sum within
    RENORM_FLOOR / 2 of 1. False says only that this is not shown; the row
    loop then decides, and names the first fault.

    numpy's sum s of n terms >= 0, in whatever order it adds them, lies within
    gamma(n - 1) * S of their exact sum S, where gamma(k) = k u / (1 - k u) and
    u = 2**-53 (Higham 2002, ch. 4), so within n * 2**-52 * s. A row that
    passes the test below thus has S, and its exactly rounded ``math.fsum``,
    within RENORM_FLOOR of 1; halving the floor covers the rounding of the
    test itself. Entries of at most 1 keep the sums from overflowing.
    """
    # strings, None or huge integers make another dtype; NaN fails the range
    if array.dtype != float or array.shape[1:] != (width,):
        return False
    if not (array.min() >= 0 and array.max() <= 1):
        return False
    sums = array.sum(axis=1)
    return bool((abs(sums - 1.0) + sums * (width * 2.0**-52) <= RENORM_FLOOR / 2).all())


def _info_bits(terms: Iterable[tuple[float, float]]) -> float:
    """The information sum, sum w log2 r in bits over (weight, ratio) pairs, exactly rounded.

    Callers pass only pairs with w != 0; a ratio of 0 reads as log2 0 = -inf.
    A sum to negate is taken from 0.0, so that a zero sum stays +0.0.
    """
    return math.fsum(w * math.log2(r) if r else -math.inf for w, r in terms)


def _log2_quotient(a: float, b: float, c: float = 1.0) -> float:
    """log2(a / b / c) from the quotient while it is a normal float, else log2 a - log2 b - log2 c,
    which keeps the digits that a quotient past the normal floats loses."""
    q = a / b / c
    if sys.float_info.min <= q < math.inf:
        return math.log2(q)
    return math.log2(a) - math.log2(b) - math.log2(c)


def _log_extreme(
    pick, ratios: list[float], pa: Iterable[float], pb: Iterable[float], c: float = 1.0
) -> float:
    """log of ``pick(ratios)``, where ``ratios`` are the quotients a / b / c over ``pa`` and ``pb``,
    while it is a normal float, else ``pick`` of log a - log b - log c over the pairs with that
    quotient (rounding is monotone: the true extreme is one of them)."""
    q = pick(ratios)
    if sys.float_info.min <= q < math.inf:
        return math.log(q)
    return pick(
        math.log(a) - math.log(b) - math.log(c) for a, b in zip(pa, pb) if a and a / b / c == q
    )


def _entropy_bits(probs: Sequence[float]) -> float:
    """Shannon entropy, -sum p log2 p in bits over p > 0."""
    return 0.0 - _info_bits((p, p) for p in probs if p > 0)


def _exponent(values: Iterable[float]) -> int:
    """The binary exponent e of the largest magnitude, which lies in [2**(e-1), 2**e).

    ``math.ldexp(v, -e)`` scales a series into [-1, 1] by a power of two,
    which is exact unless an entry falls below the normal range. So the
    squares and products of its deviations neither overflow nor underflow
    where the series do not, and a ratio of them keeps its value to the bit.
    """
    return math.frexp(max(map(abs, values), default=0.0))[1]


def _deviations(values: Sequence[float], e: int) -> list[float]:
    """Each value scaled by ``2**-e``, less the mean of the scaled values (one ``math.fsum``)."""
    scaled = list(map(math.ldexp, values, repeat(-e)))
    return list(map(sub, scaled, repeat(math.fsum(scaled) / len(scaled))))


def _aligned(
    p: DiscreteDistribution, q: DiscreteDistribution, what: str
) -> list[tuple[float, float]]:
    """(p(x), q(x)) by label over p's support; ``what`` needs both on one label set."""
    if set(p.labels) != set(q.labels):
        raise ShapeError(f"{what} needs identical outcome label sets")
    q_of = dict(zip(q.labels, q.probs))
    return [(pv, q_of[label]) for label, pv in zip(p.labels, p.probs) if pv > 0]


@dataclass(frozen=True)
class DiscreteDistribution:
    """Probability vector over labeled outcomes."""

    labels: tuple[str, ...]
    probs: tuple[float, ...]

    def __post_init__(self):
        if len(self.labels) == 0:
            raise SchemaError("distribution needs at least one outcome")
        if len(self.labels) != len(self.probs):
            raise SchemaError(
                f"{len(self.labels)} labels vs {len(self.probs)} probabilities"
            )
        if len(set(self.labels)) != len(self.labels):
            raise SchemaError("outcome labels must be distinct")
        object.__setattr__(self, "probs", _normalized(self.probs, "probability mass"))

    def prob_of(self, label: str) -> float:
        try:
            return self.probs[self.labels.index(label)]
        except ValueError:
            raise SchemaError(f"unknown outcome label {label!r}")

    def __len__(self) -> int:
        return len(self.labels)


def _distribution(obj, what: str) -> DiscreteDistribution:
    """Field type of a distribution object ``{"labels": [...], "probs": [...]}``."""
    labels, probs = _DISTRIBUTION(obj, what)
    return DiscreteDistribution(labels, probs)


def parse_distribution(text: str) -> DiscreteDistribution:
    """Parse the documented JSON shape ``{"labels": [...], "probs": [...]}``."""
    return _distribution(_load_json(text, "distribution"), "distribution file")


@dataclass(frozen=True)
class JointDistribution:
    """p(x, y) over two finite alphabets; matrix rows follow ``x_labels``."""

    x_labels: tuple[str, ...]
    y_labels: tuple[str, ...]
    matrix: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        if not self.x_labels or not self.y_labels:
            raise SchemaError("joint distribution needs non-empty alphabets")
        if len(set(self.x_labels)) != len(self.x_labels) or len(
            set(self.y_labels)
        ) != len(self.y_labels):
            raise SchemaError("labels must be distinct")
        if len(self.matrix) != len(self.x_labels):
            raise ShapeError("matrix row count must equal |x_labels|")
        width = len(self.y_labels)
        if any(len(row) != width for row in self.matrix):
            raise ShapeError("matrix column count must equal |y_labels|")
        cells = _normalized(chain.from_iterable(self.matrix), "joint mass")
        object.__setattr__(
            self, "matrix", tuple(cells[i : i + width] for i in range(0, len(cells), width))
        )

    def marginal_x(self) -> DiscreteDistribution:
        return DiscreteDistribution(
            self.x_labels, tuple(math.fsum(row) for row in self.matrix)
        )

    def marginal_y(self) -> DiscreteDistribution:
        cols = tuple(
            math.fsum(row[j] for row in self.matrix)
            for j in range(len(self.y_labels))
        )
        return DiscreteDistribution(self.y_labels, cols)


def parse_joint(text: str) -> JointDistribution:
    x_labels, y_labels, matrix = _JOINT(_load_json(text, "joint distribution"), "joint file")
    return JointDistribution(x_labels, y_labels, tuple(matrix))


@dataclass(frozen=True)
class FiniteMechanism:
    """Explicit conditional distribution P(output | input): ``matrix[i]`` holds
    the output probabilities of ``inputs[i]``, in ``outputs`` order."""

    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    matrix: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        width = len(self.outputs)
        if self.matrix and not 0 < width == len(set(self.outputs)):
            raise SchemaError("mechanism rows need distinct output labels, at least one")
        try:
            kept = (len(self.matrix) * width >= _ARRAY_CELLS and "numpy" in sys.modules
                    and _keeps_rows(self._array, width))
        except ValueError:  # ragged rows
            kept = False
        if kept:  # the row loop would keep every row as it is, and the array stays
            rows = tuple(map(tuple, self.matrix))
        else:
            vars(self).pop("_array", None)  # made again from the checked rows if a scan asks
            rows = []
            for i, row in enumerate(self.matrix):
                if len(row) != width:
                    raise SchemaError(f"{width} outputs vs {len(row)} probabilities in row {i}")
                rows.append(_normalized(row, f"mechanism row {i}"))
        if not self.inputs:
            raise SchemaError("mechanism needs at least one input")
        if len(set(self.inputs)) != len(self.inputs):
            raise SchemaError("input labels must be distinct")
        if len(rows) != len(self.inputs):
            raise ShapeError("one output distribution per input required")
        object.__setattr__(self, "matrix", tuple(rows))

    @cached_property
    def _row_index(self) -> dict[str, tuple[float, ...]]:
        return dict(zip(self.inputs, self.matrix))

    @cached_property
    def _array(self):
        """The matrix as a float array, kept with the mechanism, so its scans
        share one conversion: made at construction for the mass check of a
        large matrix (``_keeps_rows``) once numpy is imported, else the first
        time an array scan asks."""
        import numpy as np

        return np.array(self.matrix)

    def row_for(self, input_id: str) -> tuple[float, ...]:
        try:
            return self._row_index[input_id]
        except KeyError:
            raise SchemaError(f"unknown input id {input_id!r}")


def parse_mechanism(text: str) -> FiniteMechanism:
    inputs, outputs, matrix = _MECHANISM(_load_json(text, "mechanism"), "mechanism file")
    return FiniteMechanism(inputs, outputs, tuple(matrix))


# ---------------------------------------------------------------------------
# Tables


@dataclass(frozen=True)
class Column:
    name: str
    kind: str = "categorical"
    role: str = "plain"

    def __post_init__(self):
        if self.kind not in COLUMN_KINDS:
            raise SchemaError(f"unknown column kind {self.kind!r}")
        if self.role not in COLUMN_ROLES:
            raise SchemaError(f"unknown column role {self.role!r}")


Value = Union[str, float]


@dataclass(frozen=True)
class DataTable:
    """Typed, role-tagged columns, stored by column: ``cells[j]`` is the
    tuple of column j's values, in row order. ``cells`` is keyword-only, so
    that a row-major table passed by position fails instead of transposing.

    Numeric cells are stored as finite floats; there is no missing-value
    support (blank or unparseable cells are rejected at parse time).
    ``rows()`` derives the rows from the columns on each call.
    """

    columns: tuple[Column, ...]
    cells: tuple[tuple[Value, ...], ...] = field(kw_only=True)

    def __post_init__(self):
        if any(map(isinstance, self.cells, repeat(str))):
            raise ShapeError("cells must hold one sequence of values per column, not a string")
        cells = tuple(map(tuple, self.cells))  # a tuple is kept as it is, not copied
        object.__setattr__(self, "cells", cells)
        if not any(cells):
            raise EmptyError("table needs at least one row")
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise SchemaError("column names must be distinct")
        width = len(self.columns)
        if len(cells) != width or len(set(map(len, cells))) != 1:
            first = 0 if len(cells) != width else min(map(len, cells))  # first short row
            raise ShapeError(
                f"row width {sum(len(c) > first for c in cells)} does not match {width} columns"
            )
        for col, values in zip(self.columns, cells):
            if col.kind == "numeric" and not (
                set(map(type, values)) <= _FLOAT and all(map(math.isfinite, values))
            ):
                for v in values:  # name the first bad cell; a float subclass is a float
                    if not isinstance(v, float) or not math.isfinite(v):
                        raise SchemaError(
                            f"column {col.name!r} expects finite numbers, got {v!r}"
                        )

    def rows(self) -> tuple[tuple[Value, ...], ...]:
        """The cells row by row, rebuilt from the columns on each call."""
        return tuple(zip(*self.cells))

    def column_index(self, name: str) -> int:
        for i, c in enumerate(self.columns):
            if c.name == name:
                return i
        raise SchemaError(f"unknown column {name!r}")

    def columns_with_role(self, role: str) -> tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.columns) if c.role == role)

    def quasi_identifier_columns(self) -> tuple[int, ...]:
        return self.columns_with_role("quasi-identifier")

    def sensitive_column(self) -> int:
        idx = self.columns_with_role("sensitive")
        if len(idx) != 1:
            raise SchemaError(f"exactly one sensitive column required, found {len(idx)}")
        return idx[0]

    def project(self, indices: Sequence[int]) -> Iterator[tuple[Value, ...]]:
        """Each row's cells in the columns ``indices``, as tuples in row order."""
        return zip(*map(self.cells.__getitem__, indices))

    def column_values(self, index: int) -> tuple[Value, ...]:
        """The stored tuple of one column's cells (not a copy)."""
        return self.cells[index]

    def __len__(self) -> int:
        return len(self.cells[0])

    def with_roles(self, roles: dict[str, str]) -> DataTable:
        """These cells under the roles ``roles`` (by column name; an
        unmentioned column is plain), checked in the order ``parse_table``
        checks them. The cells are shared, not copied or checked again, and so
        are the grouping, its histograms and the class arrays when the
        quasi-identifier columns are the same; a table whose roles already are
        ``roles`` is returned itself."""
        names = [c.name for c in self.columns]
        for name in roles:
            if name not in names:
                raise SchemaError(f"schema mentions unknown column {name!r}")
        if [roles.get(name, "plain") for name in names] == [c.role for c in self.columns]:
            return self
        columns = tuple(Column(c.name, c.kind, roles.get(c.name, "plain")) for c in self.columns)
        table = copy.copy(self)  # the instance dict, with the grouping if there is one
        object.__setattr__(table, "columns", columns)
        if table.quasi_identifier_columns() != self.quasi_identifier_columns():
            vars(table).pop("_grouping", None)
            vars(table).pop("_arrays", None)
        return table

    def class_histograms(self, index: int) -> tuple[Counter, ...]:
        """Each equivalence class's histogram of column ``index``: one
        ``Counter`` of its cells per class, in class order. A column is
        counted the first time it is asked for and kept beside the grouping,
        so a re-tag that shares the grouping shares them too; the Counters
        are shared, and a caller must not change them."""
        classes, histograms = self._grouping
        if index not in histograms:
            column = self.cells[index]
            histograms[index] = tuple(
                [Counter(map(column.__getitem__, c.row_indices)) for c in classes]
            )
        return histograms[index]

    @cached_property
    def _grouping(self) -> tuple[tuple[EquivalenceClass, ...], dict[int, tuple[Counter, ...]]]:
        """The equivalence classes, and the class histograms counted so far by column."""
        return _group_by_quasi_identifiers(self), {}

    @cached_property
    def _arrays(self) -> ClassArrays:
        """The equivalence classes as numpy arrays, which the table metrics
        read in place of the grouping on a large table."""
        return _class_arrays(self)


# Characters of a plain CSV split, width-checked and typed at a time: enough
# that each step is one C loop over thousands of cells, few enough that a
# block's line and cell lists stay small beside the table they build.
_BLOCK = 1 << 17


def parse_table(csv_text: str, schema: dict) -> DataTable:
    """Parse an RFC-4180 CSV plus sidecar role/kind map into a DataTable.

    ``schema`` is ``{"roles": {column: role}, "kinds": {column: kind}}``;
    unmentioned columns default to plain categorical. A text without quotes
    or CRs is split by C-level string methods, about ``_BLOCK`` characters of
    whole lines at a time, and each block is typed before the next is split.
    Any other text, and a plain one whose bulk check fails, is read with
    ``csv.reader`` record by record, which raises the first fault in file
    order.
    """
    roles, kinds = _SIDECAR(schema, "schema sidecar")
    plain = _plain_blocks(csv_text)
    header = plain[0] if plain else next(_records(csv_text), (None, None))[1]
    if header is None:
        raise SchemaError("CSV is empty")
    for col in list(roles) + list(kinds):
        if col not in header:
            raise SchemaError(f"schema mentions unknown column {col!r}")

    columns = tuple(
        Column(name, kinds.get(name, "categorical"), roles.get(name, "plain"))
        for name in header
    )
    cells = plain and _typed_columns(columns, plain[1])
    del plain  # a suspended split is dropped before a record-by-record read
    if cells is None:  # a text that needs csv.reader, or a failed bulk check
        cells = _typed_columns(columns, [_read_records(csv_text, columns)])
    return DataTable(columns, cells=cells)


def _plain_blocks(csv_text: str) -> tuple[list[str], Iterator[list[str] | None]] | None:
    """The header of a text that needs no CSV reader, and a generator of the
    flat cell lists of its records, in row order, split with ``str`` methods
    about ``_BLOCK`` characters of whole lines at a time. A block is None,
    and the last, when one of its records differs from the header in width or
    one of its lines is past ``csv.field_size_limit()``.

    None for a text that needs ``csv.reader``: an empty one, one with a quote
    or a CR, or one whose header line is past the limit. Lines break at LF
    only, as the reader's do (``str.splitlines`` also breaks at VT, FF and
    others).
    """
    if not csv_text or '"' in csv_text or "\r" in csv_text:
        return None
    end = csv_text.find("\n")
    if end < 0:
        end = len(csv_text)  # no LF: the text is the header
    if end > csv.field_size_limit():
        return None
    header = csv_text[:end].split(",") if end else []  # a blank line is a record of no fields
    return header, _plain_records(csv_text, end + 1, len(header))


def _plain_records(csv_text: str, start: int, width: int) -> Iterator[list[str] | None]:
    """The blocks ``_plain_blocks`` describes, of the lines from ``start`` on."""
    limit = csv.field_size_limit()
    commas = {width - 1}
    while start < len(csv_text):
        end = csv_text.find("\n", start + _BLOCK)
        if end < 0:
            end = len(csv_text)
        lines = list(filter(None, csv_text[start:end].split("\n")))  # blank lines hold no record
        start = end + 1
        if lines and (max(map(len, lines)) > limit
                      or set(map(str.count, lines, repeat(","))) != commas):
            yield None
            return
        text = ",".join(lines)
        del lines  # the line list and the cell list are not held at the same time
        yield text.split(",") if text else []


def _records(csv_text: str) -> Iterator[tuple[int, list[str]]]:
    """``csv.reader``'s records of the text, each with the line on which it
    starts (a quoted field can span lines); a reader error, such as a field
    past ``csv.field_size_limit()``, is a SchemaError naming its line."""
    reader = csv.reader(io.StringIO(csv_text))
    start = 1
    try:
        for record in reader:
            yield start, record
            start = reader.line_num + 1
    except csv.Error as exc:
        raise SchemaError(f"line {reader.line_num}: {exc}")


def _read_records(csv_text: str, columns: tuple[Column, ...]) -> list[Value]:
    """The flat list of body cells, read record by record after the header,
    numeric cells converted; the first malformed record in file order raises,
    named by the line on which it starts."""
    numeric = [(j, col.name) for j, col in enumerate(columns) if col.kind == "numeric"]
    records = _records(csv_text)
    next(records)  # the header
    flat = []
    for lineno, raw in records:
        if not raw:
            continue  # blank line
        if len(raw) != len(columns):
            raise ShapeError(f"line {lineno}: expected {len(columns)} fields, got {len(raw)}")
        for j, name in numeric:
            raw[j] = _as_finite_float(raw[j], lineno, name)
        flat += raw
    return flat


def _typed_columns(columns: tuple[Column, ...], blocks: Iterable) -> list[tuple] | None:
    """Each column's cells as a tuple, from blocks that are flat lists of
    whole records in row order: numeric cells as finite floats, categorical
    ones through one map per table, so that equal cells are one object.
    None when a block is None or a numeric cell is not a finite number."""
    width = len(columns)
    shared: dict[str, str] = {}
    cells: list = [[] for _ in columns]
    for flat in blocks:
        if flat is None:
            return None
        for j, (col, values) in enumerate(zip(columns, cells)):
            part = flat[j::width]
            if col.kind == "numeric":
                try:
                    values += map(float, part)
                except ValueError:
                    return None
            else:
                values += map(shared.setdefault, part, part)
        flat = part = None  # dropped before the next block is split
    for j, (col, values) in enumerate(zip(columns, cells)):
        if col.kind == "numeric" and not all(map(math.isfinite, values)):
            return None
        cells[j] = tuple(values)  # each list is dropped once the next is copied
    return cells


@dataclass(frozen=True)
class EquivalenceClass:
    """Rows sharing one full quasi-identifier tuple."""

    qi_key: tuple[Value, ...]
    row_indices: tuple[int, ...]  # ascending

    def __post_init__(self):
        if not self.row_indices:
            raise EmptyError("equivalence class cannot be empty")

    def __len__(self) -> int:
        return len(self.row_indices)


def equivalence_classes(table: DataTable) -> tuple[EquivalenceClass, ...]:
    """Partition table rows by their full quasi-identifier tuple.

    Classes come back in first-appearance order and always cover every row
    exactly once; each class lists its rows in ascending order. A table is
    grouped once: later calls on it return the same tuple.
    """
    return table._grouping[0]


def _group_by_quasi_identifiers(table: DataTable) -> tuple[EquivalenceClass, ...]:
    qi = table.quasi_identifier_columns()
    if not qi:
        raise SchemaError("table has no quasi-identifier columns")
    groups: defaultdict[tuple[Value, ...], list[int]] = defaultdict(list)
    for i, key in enumerate(table.project(qi)):
        groups[key].append(i)
    return tuple(
        EquivalenceClass(key, tuple(idx)) for key, idx in groups.items()
    )


def _numbered(values: Sequence):
    """Each distinct value's number, in first-appearance order, and the array
    of each value's number in turn. Values are told apart as dict keys tell
    them apart, as the grouping and a ``Counter`` do: 1, 1.0 and True are one
    value, and so are 0.0 and -0.0."""
    import numpy as np

    numbers = defaultdict(count().__next__)  # numbers a value the first time it is looked up
    numbered = np.fromiter(map(numbers.__getitem__, values), np.intp, len(values))
    numbers.default_factory = None  # from here on, a lookup is a dict's
    return numbers, numbered


def _class_arrays(table: DataTable) -> ClassArrays:
    """The grouping of ``_group_by_quasi_identifiers`` as arrays: the first
    quasi-identifier column is numbered, and each further column's numbers
    are folded into the class numbers so far, which are numbered again in
    first-appearance order."""
    import numpy as np

    qi = table.quasi_identifier_columns()
    if not qi:
        raise SchemaError("table has no quasi-identifier columns")
    class_of = _numbered(table.cells[qi[0]])[1]
    rows = np.arange(len(class_of))
    for j in qi[1:]:
        numbers, column = _numbered(table.cells[j])
        keys, width = class_of * len(numbers) + column, (class_of.max() + 1) * len(numbers)
        if width > len(rows):  # more possible keys than rows: number the keys that occur
            _, keys = np.unique(keys, return_inverse=True)
            width = keys.max() + 1
        first = np.full(width, len(rows))
        np.minimum.at(first, keys, rows)  # each key's first row, len(rows) where it has none
        class_of = first.argsort().argsort()[keys]  # keys ranked by their first row
    return ClassArrays(table.cells, class_of, np.bincount(class_of))


class ClassArrays:
    """A table's equivalence classes as numpy arrays: ``class_of[i]`` is row
    i's class, the classes numbered in first-appearance order as
    ``equivalence_classes`` lists them, ``sizes[c]`` is class c's row count
    and ``starts[c]`` the number of rows in the classes before it. Per
    column, the class histograms and the cells sorted within each class are
    worked out the first time a metric asks and kept; a caller must not
    change the arrays."""

    def __init__(self, cells, class_of, sizes):
        self._cells = cells
        self.class_of = class_of
        self.sizes = sizes
        self.starts = sizes.cumsum() - sizes
        self._histograms: dict = {}
        self._sorted: dict = {}

    def histograms(self, index: int, as_str: bool = False) -> tuple:
        """Column ``index``'s class histograms as ``(numbers, cls, value,
        count)``: ``numbers`` numbers the column's distinct values (the
        cells, or their strings when ``as_str``) as ``_numbered`` does, and
        each class c holds ``count[e]`` cells of value ``value[e]`` for the
        entries e with ``cls[e] == c``, which run by class, then by value."""
        key = (index, as_str)
        if key not in self._histograms:
            import numpy as np

            column = self._cells[index]
            numbers, values = _numbered(list(map(str, column)) if as_str else column)
            width = len(numbers)
            keys, counts = np.unique(self.class_of * width + values, return_counts=True)
            self._histograms[key] = numbers, keys // width, keys % width, counts
        return self._histograms[key]

    def sorted_values(self, index: int):
        """Column ``index``'s cells as floats, sorted within each class, the
        classes in order: class c's are ``[starts[c], starts[c] + sizes[c])``."""
        if index not in self._sorted:
            import numpy as np

            values = np.array(self._cells[index], dtype=float)
            # sorted by value, then stably by class: numpy sorts 16-bit keys in linear time
            order = values.argsort()
            classes = self.class_of[order]
            if len(self.sizes) <= 1 << 16:
                classes = classes.astype(np.uint16)
            self._sorted[index] = values[order[classes.argsort(kind="stable")]]
        return self._sorted[index]


# ---------------------------------------------------------------------------
# Traces and regions


@dataclass(frozen=True)
class Trace:
    """Time-ordered samples; each value holds until the next timestamp."""

    samples: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if not self.samples:
            raise EmptyError("trace needs at least one sample")
        prev = None
        for t, v in self.samples:
            if not (math.isfinite(t) and math.isfinite(v)):
                raise SchemaError("trace entries must be finite")
            if prev is not None and t <= prev:
                raise SchemaError("timestamps must be strictly increasing")
            prev = t

    def times(self) -> tuple[float, ...]:
        return tuple(t for t, _ in self.samples)

    def values(self) -> tuple[float, ...]:
        return tuple(v for _, v in self.samples)


def parse_trace(text: str) -> Trace:
    (samples,) = _TRACE(_load_json(text, "trace"), "trace file")
    return Trace(tuple(samples))


@dataclass(frozen=True)
class Region:
    """Axis-aligned rectangle or a set of unit grid cells."""

    rect: tuple[float, float, float, float] | None = None
    cells: frozenset[tuple[int, int]] = field(default_factory=frozenset)

    def __post_init__(self):
        if (self.rect is None) == (not self.cells):
            raise ParamError("region must be a rectangle or a non-empty cell set")
        if self.rect is not None:
            x0, y0, x1, y1 = self.rect
            if not all(math.isfinite(v) for v in self.rect):
                raise ParamError("rectangle coordinates must be finite")
            if x1 <= x0 or y1 <= y0:
                raise ParamError("rectangle must have positive extent")

    @property
    def is_rect(self) -> bool:
        return self.rect is not None

    def area(self) -> float:
        if self.rect is not None:
            x0, y0, x1, y1 = self.rect
            return (x1 - x0) * (y1 - y0)
        return float(len(self.cells))


def parse_region(text: str) -> Region:
    """``{"rect": [x_min, y_min, x_max, y_max]}`` or ``{"cells": [[i, j], ...]}``."""
    rect, cells = _REGION(_load_json(text, "region"), "region file")
    return Region(rect, frozenset(cells or ()))


# ---------------------------------------------------------------------------
# Metric values


UNITS = (
    "bits",
    "probability",
    "count",
    "seconds",
    "ratio",
    "dimensionless",
    "boolean",
    "enum",
)


@dataclass(frozen=True)
class MetricValue:
    """One computed metric result, tagged with its unit.

    ``value`` is a real, boolean, enum string, or a record of named fields.
    ``out_of_range`` is set when the value provably falls outside the
    catalog's declared range for the metric (the raw value is kept).
    """

    metric_id: str
    value: Union[float, bool, str, dict]
    unit: str
    out_of_range: bool = False

    def __post_init__(self):
        if self.unit not in UNITS:
            raise ParamError(f"unknown unit {self.unit!r}")

    def to_json_dict(self) -> dict:
        return {
            "metric": self.metric_id,
            "value": jsonable(self.value),
            "unit": self.unit,
            "out_of_range": self.out_of_range,
        }


def jsonable(value):
    """Make a metric value strict-JSON safe (non-finite floats to strings)."""
    if isinstance(value, dict):
        return {k: jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
    return value
