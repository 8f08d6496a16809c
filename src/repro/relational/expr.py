"""Typed expression/predicate IR with a vectorized evaluator.

Until PR 4, every query-shaped path in the codebase — the SQL
executor's ``WHERE``, :meth:`Relation.select`, the CQA predicates —
took an opaque ``Callable[[dict], bool]`` and evaluated it per row over
materialized row dicts.  This module replaces that contract with a
small *inspectable* IR (column refs, literals, arithmetic, comparisons,
``IN``, ``IS NULL``, AND/OR/NOT) plus two evaluators:

* :func:`evaluate_predicate` / :func:`evaluate_operand` — the scalar
  reference semantics, one row at a time over a ``{attribute: value}``
  mapping.  This *is* the retained row-dict oracle the property suite
  compares against.
* :func:`predicate_mask` / :func:`filter_rows` — the columnar
  evaluator.  Leaves are evaluated over *encoded code columns* through
  the active kernel backend (:mod:`repro.relational.kernels`), so on
  the numpy backend a predicate becomes a handful of array ops and
  most predicates never touch raw values:

  - equality / ``IN`` against literals resolve to *code space* through
    the column dictionary (one reverse-map probe, then an int compare
    over the code vector);
  - every other single-column leaf (order comparisons, arithmetic,
    negated shapes) is evaluated once per *dictionary entry* with the
    scalar oracle — O(cardinality) scalar evaluations — and gathered
    onto the rows as a boolean table lookup;
  - column-vs-column equality remaps one side's dictionary into the
    other's code space and compares codes;
  - only multi-column order comparisons fall back to a per-row scalar
    loop.

  AND/OR/NOT combine masks elementwise, which matches the scalar
  semantics exactly because the semantics is two-valued: a comparison
  involving NULL is *false* (never unknown), so ``NOT (A = 3)`` is
  *true* on a NULL row — mirroring the SQL layer's historical
  behaviour, which the oracle pins.

NULL semantics, precisely:

* comparisons (``=  <>  <  <=  >  >=``) with a NULL operand are false;
* ``x IN (…)`` is false when ``x`` is NULL, and NULL elements of the
  list never match;
* ``IS [NOT] NULL`` is the only NULL-asserting predicate;
* arithmetic over NULL yields NULL (which then fails any comparison).

Ordering comparisons between incomparable values (e.g. ``'a' < 3``)
raise :class:`ExpressionError`, as does division by zero.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from typing import Any, Union

from repro import settings

from . import kernels, parallel
from .encoding import NULL_CODE, UNSEEN_CODE, remap_dictionary
from .errors import ReproError

__all__ = [
    "And",
    "Arith",
    "Cmp",
    "Col",
    "ExpressionError",
    "InList",
    "IsNull",
    "Lit",
    "Not",
    "Operand",
    "Or",
    "Predicate",
    "and_",
    "as_row_callable",
    "col",
    "columns_of",
    "eq",
    "evaluate_operand",
    "evaluate_predicate",
    "filter_rows",
    "ge",
    "gt",
    "in_",
    "is_null",
    "is_predicate",
    "le",
    "lit",
    "lt",
    "ne",
    "not_",
    "or_",
    "predicate_mask",
]


class ExpressionError(ReproError):
    """A structurally valid expression cannot be evaluated."""


# ----------------------------------------------------------------------
# IR nodes
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Col:
    """A reference to an attribute by name."""

    name: str


@dataclass(frozen=True)
class Lit:
    """A constant value (``None`` is the SQL NULL)."""

    value: Any


@dataclass(frozen=True)
class Arith:
    """``left <op> right`` with op ∈ {+, -, *, /}; NULL propagates."""

    op: str
    left: "Operand"
    right: "Operand"


Operand = Union[Col, Lit, Arith]


@dataclass(frozen=True)
class Cmp:
    """``left <op> right`` with op ∈ {=, <>, <, <=, >, >=}."""

    op: str
    left: Operand
    right: Operand


@dataclass(frozen=True)
class InList:
    """``operand IN (values…)``; NULL never matches on either side."""

    operand: Operand
    values: tuple[Any, ...]


@dataclass(frozen=True)
class IsNull:
    """``operand IS [NOT] NULL``."""

    operand: Operand
    negated: bool = False


@dataclass(frozen=True)
class Not:
    """Logical negation (two-valued)."""

    operand: "Predicate"


@dataclass(frozen=True)
class And:
    """Logical conjunction."""

    left: "Predicate"
    right: "Predicate"


@dataclass(frozen=True)
class Or:
    """Logical disjunction."""

    left: "Predicate"
    right: "Predicate"


Predicate = Union[Cmp, InList, IsNull, Not, And, Or]

_CMP_OPS = ("=", "<>", "<", "<=", ">", ">=")
_ARITH_OPS = ("+", "-", "*", "/")


# ----------------------------------------------------------------------
# Construction sugar
# ----------------------------------------------------------------------
def col(name: str) -> Col:
    """A column reference."""
    return Col(name)


def lit(value: Any) -> Lit:
    """A literal constant."""
    return Lit(value)


def _operand(value: Any) -> Operand:
    """Wrap plain Python values as literals; pass IR operands through."""
    if isinstance(value, (Col, Lit, Arith)):
        return value
    return Lit(value)


def eq(left: Any, right: Any) -> Cmp:
    """``left = right``."""
    return Cmp("=", _operand(left), _operand(right))


def ne(left: Any, right: Any) -> Cmp:
    """``left <> right``."""
    return Cmp("<>", _operand(left), _operand(right))


def lt(left: Any, right: Any) -> Cmp:
    """``left < right``."""
    return Cmp("<", _operand(left), _operand(right))


def le(left: Any, right: Any) -> Cmp:
    """``left <= right``."""
    return Cmp("<=", _operand(left), _operand(right))


def gt(left: Any, right: Any) -> Cmp:
    """``left > right``."""
    return Cmp(">", _operand(left), _operand(right))


def ge(left: Any, right: Any) -> Cmp:
    """``left >= right``."""
    return Cmp(">=", _operand(left), _operand(right))


def in_(operand: Any, values: Iterable[Any]) -> InList:
    """``operand IN (values…)``."""
    return InList(_operand(operand), tuple(values))


def is_null(operand: Any, negated: bool = False) -> IsNull:
    """``operand IS [NOT] NULL``."""
    return IsNull(_operand(operand), negated)


def and_(first: Predicate, *rest: Predicate) -> Predicate:
    """Left-associated conjunction of one or more predicates."""
    result = first
    for pred in rest:
        result = And(result, pred)
    return result


def or_(first: Predicate, *rest: Predicate) -> Predicate:
    """Left-associated disjunction of one or more predicates."""
    result = first
    for pred in rest:
        result = Or(result, pred)
    return result


def not_(operand: Predicate) -> Not:
    """Logical negation."""
    return Not(operand)


# ----------------------------------------------------------------------
# Introspection
# ----------------------------------------------------------------------
def columns_of(expr: Any) -> tuple[str, ...]:
    """Attribute names referenced by ``expr``, in first-appearance order."""
    seen: list[str] = []

    def walk(node: Any) -> None:
        if isinstance(node, Col):
            if node.name not in seen:
                seen.append(node.name)
        elif isinstance(node, Lit):
            pass
        elif isinstance(node, (Arith, Cmp)):
            walk(node.left)
            walk(node.right)
        elif isinstance(node, InList):
            walk(node.operand)
        elif isinstance(node, IsNull):
            walk(node.operand)
        elif isinstance(node, Not):
            walk(node.operand)
        elif isinstance(node, (And, Or)):
            walk(node.left)
            walk(node.right)
        else:
            raise ExpressionError(f"not an expression node: {node!r}")

    walk(expr)
    return tuple(seen)


def is_predicate(expr: Any) -> bool:
    """Whether ``expr`` is a predicate-typed IR node."""
    return isinstance(expr, (Cmp, InList, IsNull, Not, And, Or))


# ----------------------------------------------------------------------
# Scalar evaluation (the retained row-dict oracle)
# ----------------------------------------------------------------------
def evaluate_operand(expr: Operand, row: Mapping[str, Any]) -> Any:
    """Value of an operand expression on one row (``None`` = NULL)."""
    if isinstance(expr, Col):
        try:
            return row[expr.name]
        except KeyError:
            raise ExpressionError(f"unknown column {expr.name!r}") from None
    if isinstance(expr, Lit):
        return expr.value
    if isinstance(expr, Arith):
        left = evaluate_operand(expr.left, row)
        right = evaluate_operand(expr.right, row)
        if left is None or right is None:
            return None
        try:
            if expr.op == "+":
                return left + right
            if expr.op == "-":
                return left - right
            if expr.op == "*":
                return left * right
            if expr.op == "/":
                return left / right
        except TypeError:
            raise ExpressionError(
                f"cannot compute {left!r} {expr.op} {right!r}"
            ) from None
        except ZeroDivisionError:
            raise ExpressionError(f"division by zero: {left!r} / {right!r}") from None
        raise ExpressionError(f"unknown arithmetic operator {expr.op!r}")
    raise ExpressionError(f"cannot evaluate {expr!r} as an operand")


def evaluate_predicate(expr: Predicate, row: Mapping[str, Any]) -> bool:
    """Truth of a predicate on one row (two-valued; NULL comparisons false).

    This is the reference semantics the columnar evaluator is
    property-tested against — byte-compatible with the SQL executor's
    historical row-dict interpreter.
    """
    if isinstance(expr, Cmp):
        left = evaluate_operand(expr.left, row)
        right = evaluate_operand(expr.right, row)
        if left is None or right is None:
            return False
        try:
            if expr.op == "=":
                return bool(left == right)
            if expr.op == "<>":
                return bool(left != right)
            if expr.op == "<":
                return bool(left < right)
            if expr.op == "<=":
                return bool(left <= right)
            if expr.op == ">":
                return bool(left > right)
            if expr.op == ">=":
                return bool(left >= right)
        except TypeError:
            raise ExpressionError(
                f"cannot compare {left!r} and {right!r} with {expr.op}"
            ) from None
        raise ExpressionError(f"unknown comparison operator {expr.op!r}")
    if isinstance(expr, InList):
        value = evaluate_operand(expr.operand, row)
        if value is None:
            return False
        return any(item is not None and value == item for item in expr.values)
    if isinstance(expr, IsNull):
        value = evaluate_operand(expr.operand, row)
        return (value is not None) if expr.negated else (value is None)
    if isinstance(expr, Not):
        return not evaluate_predicate(expr.operand, row)
    if isinstance(expr, And):
        return evaluate_predicate(expr.left, row) and evaluate_predicate(
            expr.right, row
        )
    if isinstance(expr, Or):
        return evaluate_predicate(expr.left, row) or evaluate_predicate(
            expr.right, row
        )
    raise ExpressionError(f"cannot evaluate {expr!r} as a predicate")


def as_row_callable(expr: Predicate):
    """Adapt an IR predicate to the legacy ``Callable[[dict], bool]`` shape."""

    def call(row: Mapping[str, Any]) -> bool:
        return evaluate_predicate(expr, row)

    return call


# ----------------------------------------------------------------------
# Columnar evaluation
# ----------------------------------------------------------------------
def predicate_mask(relation, expr: Predicate):
    """Boolean row mask of ``expr`` over ``relation``.

    The mask lives in the active backend's preferred representation
    (``list[bool]`` on the python backend, a boolean ``ndarray`` on
    numpy); :func:`filter_rows` converts it to selected row indices.

    Error semantics match the scalar oracle *including short-circuit
    reachability*: a row whose evaluation would raise under the
    left-to-right, short-circuiting scalar walk (an incomparable order
    comparison, an unknown column) raises here too — and a row where
    the erroring leaf is unreachable (the other AND conjunct is
    already false, the other OR disjunct already true) does not.
    Internally every subtree yields a truth mask plus an optional
    *error mask*; errors stay lazily masked until the end, and the
    first reachable erroring row is re-evaluated with the scalar
    oracle so the raised message is the oracle's own.
    """
    backend = kernels.get_backend()
    truth, error = _root_mask(relation, expr, backend)
    if error is not None and backend.mask_any(error):
        row = backend.filter_mask(error)[0]
        _raise_for_row(relation, expr, int(row))
    return truth


def filter_rows(relation, expr: Predicate) -> Sequence[int]:
    """Indices of the rows satisfying ``expr``, ascending."""
    backend = kernels.get_backend()
    return backend.filter_mask(predicate_mask(relation, expr))


def _raise_for_row(relation, expr: Predicate, row: int) -> None:
    """Re-raise the scalar oracle's exact error for one erroring row."""
    values = {}
    for name in columns_of(expr):
        try:
            values[name] = relation.column(name).value(row)
        except Exception:
            pass  # unknown column: the scalar evaluator reports it
    evaluate_predicate(expr, values)
    raise ExpressionError(  # pragma: no cover - defensive
        f"row {row} failed columnar evaluation but not the scalar oracle"
    )


#: Below this row count a chunked mask cannot repay pool dispatch; the
#: oracle suite lowers it to force the parallel path on tiny relations.
_PARALLEL_ROW_FLOOR = 4096


class _ColumnSlice:
    """A row-range view of a column (thread-pool mask workers).

    Delegates the dictionary and reverse map to the base column (shared
    state is fine: the reverse map is a lazily memoized pure function),
    slicing only the per-row surfaces the mask evaluator touches.
    """

    __slots__ = ("_base", "_lo", "_hi")

    def __init__(self, base, lo: int, hi: int) -> None:
        self._base = base
        self._lo = lo
        self._hi = hi

    @property
    def dictionary(self):
        return self._base.dictionary

    def code_for(self, value):
        return self._base.code_for(value)

    def kernel_codes(self):
        return self._base.kernel_codes()[self._lo : self._hi]

    def value(self, row: int):
        return self._base.value(self._lo + row)


class _RelationSlice:
    """A row-range view of a relation for one mask chunk."""

    __slots__ = ("_base", "_lo", "num_rows")

    def __init__(self, base, lo: int, hi: int) -> None:
        self._base = base
        self._lo = lo
        self.num_rows = hi - lo

    @property
    def schema(self):
        return self._base.schema

    def column(self, name: str):
        return _ColumnSlice(self._base.column(name), self._lo, self._lo + self.num_rows)


class _ShippedColumn:
    """A column chunk rebuilt in a process-pool worker.

    Holds a shared-memory view of the chunk's codes plus the pickled
    dictionary; :meth:`code_for` and :meth:`value` mirror
    :class:`~repro.relational.encoding.EncodedColumn` exactly (NULL →
    ``NULL_CODE``, lazy reverse map), so dictionary probes resolve the
    same codes the parent would.
    """

    __slots__ = ("_codes", "dictionary", "_value_to_code")

    def __init__(self, codes, dictionary) -> None:
        self._codes = codes
        self.dictionary = dictionary
        self._value_to_code = None

    def code_for(self, value):
        if value is None:
            return NULL_CODE
        if self._value_to_code is None:
            self._value_to_code = {
                v: code for code, v in enumerate(self.dictionary)
            }
        return self._value_to_code.get(value)

    def kernel_codes(self):
        return self._codes

    def value(self, row: int):
        code = int(self._codes[row])
        if code == NULL_CODE:
            return None
        return self.dictionary[code]


class _ShippedSchema:
    __slots__ = ("_names",)

    def __init__(self, names) -> None:
        self._names = names

    def position(self, name: str) -> int:
        return self._names.index(name)  # ValueError for unknown columns


class _ShippedRelation:
    """A relation chunk rebuilt in a process-pool worker: only the
    columns the predicate references, as shared-memory code views."""

    __slots__ = ("num_rows", "_columns", "schema")

    def __init__(self, num_rows: int, columns: dict) -> None:
        self.num_rows = num_rows
        self._columns = columns
        self.schema = _ShippedSchema(tuple(columns))

    def column(self, name: str):
        return self._columns[name]


def _mask_chunk_local(arrays, payload, bounds):
    """Thread-pool worker: one row-range chunk of the mask."""
    relation, expr, backend = payload
    lo, hi = bounds
    return _mask(_RelationSlice(relation, lo, hi), expr, backend)


def _mask_chunk_shm(arrays, payload, bounds):
    """Process-pool worker: one chunk off shared-memory code views."""
    backend_name, expr, cols_meta = payload
    backend = kernels.backend_module(backend_name)
    lo, hi = bounds
    columns = {
        name: _ShippedColumn(arrays[slot][lo:hi], dictionary)
        for name, (slot, dictionary) in cols_meta.items()
    }
    return _mask(_ShippedRelation(hi - lo, columns), expr, backend)


def _root_mask(relation, expr: Predicate, backend):
    """``_mask`` at the relation root, chunk-parallel when enabled.

    Rows split into contiguous ranges, one ``_mask`` evaluation per
    chunk, truth/error masks concatenated in chunk order — an exact
    slicing of the serial evaluation, because every mask path is
    elementwise and every dictionary-level probe (reverse maps, truth
    tables, cross-dictionary remaps) is a pure function of the *whole*
    column, which both worker flavours see.  Falls back to the serial
    walk whenever the fan-out cannot pay (small relations, a single
    chunk, unpicklable payloads on the process pool).
    """
    kind = parallel.pool_kind()
    n = relation.num_rows
    if (
        kind == "serial"
        or n < max(_PARALLEL_ROW_FLOOR, 2)
        or not is_predicate(expr)  # let the serial walk raise its error
    ):
        return _mask(relation, expr, backend)
    workers = settings.get("workers")
    chunk = -(-n // (workers * 2))
    bounds = [(lo, min(lo + chunk, n)) for lo in range(0, n, chunk)]
    if len(bounds) < 2:
        return _mask(relation, expr, backend)
    if kind == "process":
        names = []
        for name in columns_of(expr):
            try:
                relation.schema.position(name)
            except Exception:
                continue  # unknown column: the worker's leaf errors too
            names.append(name)
        dictionaries = {name: relation.column(name).dictionary for name in names}
        if not parallel.picklable(expr, dictionaries):
            return _mask(relation, expr, backend)
        backend_arrays = []
        cols_meta = {}
        for name in names:
            cols_meta[name] = (len(backend_arrays), dictionaries[name])
            backend_arrays.append(
                backend.as_code_array(relation.column(name).kernel_codes())
            )
        parts = parallel.morsel_map(
            _mask_chunk_shm,
            bounds,
            arrays=backend_arrays,
            payload=(kernels.active_backend_name(), expr, cols_meta),
        )
    else:
        parts = parallel.morsel_map(
            _mask_chunk_local, bounds, payload=(relation, expr, backend)
        )
    truth = backend.mask_concat([chunk_truth for chunk_truth, _ in parts])
    if all(chunk_error is None for _, chunk_error in parts):
        return truth, None
    errors = [
        chunk_error if chunk_error is not None else backend.mask_fill(hi - lo, False)
        for (lo, hi), (_, chunk_error) in zip(bounds, parts)
    ]
    return truth, backend.mask_concat(errors)


def _mask(relation, expr: Predicate, backend):
    """``(truth, error)`` masks of a subtree; ``error`` is ``None`` when
    no row of this subtree can raise (the common case, zero overhead).

    Error propagation mirrors short-circuit reachability:
    ``AND`` reaches its right side only where the left is true,
    ``OR`` only where the left is false.
    """
    if isinstance(expr, And):
        l_truth, l_error = _mask(relation, expr.left, backend)
        r_truth, r_error = _mask(relation, expr.right, backend)
        error = _merge_errors(backend, l_error, r_error, l_truth)
        return backend.mask_and(l_truth, r_truth), error
    if isinstance(expr, Or):
        l_truth, l_error = _mask(relation, expr.left, backend)
        r_truth, r_error = _mask(relation, expr.right, backend)
        error = _merge_errors(backend, l_error, r_error, backend.mask_not(l_truth))
        return backend.mask_or(l_truth, r_truth), error
    if isinstance(expr, Not):
        truth, error = _mask(relation, expr.operand, backend)
        return backend.mask_not(truth), error
    if not is_predicate(expr):
        raise ExpressionError(f"cannot evaluate {expr!r} as a predicate")
    return _leaf_mask(relation, expr, backend)


def _merge_errors(backend, left_error, right_error, right_reachable):
    """Combine child error masks: the right child's errors count only
    where the left child made it reachable."""
    if right_error is not None:
        right_error = backend.mask_and(right_error, right_reachable)
        if not backend.mask_any(right_error):
            right_error = None
    if left_error is None:
        return right_error
    if right_error is None:
        return left_error
    return backend.mask_or(left_error, right_error)


def _leaf_mask(relation, expr: Predicate, backend):
    names = columns_of(expr)
    n = relation.num_rows
    for name in names:
        try:
            relation.schema.position(name)
        except Exception:
            # Unknown column: every row of this leaf errors — but only
            # if evaluation actually reaches it (the oracle notices an
            # unknown column per evaluated row, not per query).
            return backend.mask_fill(n, False), backend.mask_fill(n, True)
    if not names:
        # Constant leaf: one scalar evaluation decides every row.
        try:
            return backend.mask_fill(n, evaluate_predicate(expr, {})), None
        except ExpressionError:
            return backend.mask_fill(n, False), backend.mask_fill(n, True)
    if len(names) == 1:
        return _single_column_mask(relation, expr, names[0], backend)
    if (
        isinstance(expr, Cmp)
        and expr.op in ("=", "<>")
        and isinstance(expr.left, Col)
        and isinstance(expr.right, Col)
    ):
        return _column_pair_mask(relation, expr, backend), None
    # Multi-column order comparison / arithmetic: exact scalar loop.
    columns = [relation.column(name) for name in names]
    flags = []
    error_flags = []
    errored = False
    for i in range(n):
        row = {name: column.value(i) for name, column in zip(names, columns)}
        try:
            flags.append(evaluate_predicate(expr, row))
            error_flags.append(False)
        except ExpressionError:
            flags.append(False)
            error_flags.append(True)
            errored = True
    truth = backend.as_mask(flags, n)
    return truth, backend.as_mask(error_flags, n) if errored else None


def _single_column_mask(relation, expr: Predicate, name: str, backend):
    column = relation.column(name)
    codes = column.kernel_codes()
    # Code-space fast paths: the predicate resolves through the
    # dictionary's reverse map and never touches values (and can never
    # raise, so the error mask is None throughout).
    if isinstance(expr, Cmp) and expr.op == "=":
        literal = _plain_eq_literal(expr)
        if literal is not _NO_LITERAL:
            # NULL and NaN literals equal nothing under ``==`` (the
            # dictionary would find NaN by identity; the oracle's
            # comparison must win).
            if literal is None or literal != literal:
                return backend.mask_fill(relation.num_rows, False), None
            code = column.code_for(literal)
            if code is None:
                return backend.mask_fill(relation.num_rows, False), None
            return backend.mask_eq_code(codes, code), None
    if isinstance(expr, InList) and isinstance(expr.operand, Col):
        wanted = set()
        for item in expr.values:
            if item is None or item != item:  # NULL/NaN items never match
                continue
            code = column.code_for(item)
            if code is not None:
                wanted.add(code)
        if not wanted:
            return backend.mask_fill(relation.num_rows, False), None
        return backend.mask_in_codes(codes, frozenset(wanted)), None
    if isinstance(expr, IsNull) and isinstance(expr.operand, Col):
        mask = backend.mask_eq_code(codes, NULL_CODE)
        return (backend.mask_not(mask) if expr.negated else mask), None
    # Dictionary-space general path: evaluate the leaf once per
    # distinct value (plus once for NULL) with the scalar oracle, then
    # gather the boolean table onto the rows.  O(cardinality) scalar
    # evaluations instead of O(rows).  Entries that raise (e.g. an
    # incomparable order comparison) become error-table slots so the
    # raise stays lazy until reachability is known.
    table = []
    error_table = []
    errored = False
    for value in column.dictionary:
        try:
            table.append(evaluate_predicate(expr, {name: value}))
            error_table.append(False)
        except ExpressionError:
            table.append(False)
            error_table.append(True)
            errored = True
    try:
        null_result = evaluate_predicate(expr, {name: None})
        null_error = False
    except ExpressionError:
        null_result = False
        null_error = True
        errored = True
    truth = backend.mask_table_lookup(codes, table, null_result)
    if not errored:
        return truth, None
    return truth, backend.mask_table_lookup(codes, error_table, null_error)


_NO_LITERAL = object()


def _plain_eq_literal(expr: Cmp) -> Any:
    """The literal of a ``Col = Lit`` / ``Lit = Col`` leaf, else sentinel."""
    if isinstance(expr.left, Col) and isinstance(expr.right, Lit):
        return expr.right.value
    if isinstance(expr.left, Lit) and isinstance(expr.right, Col):
        return expr.left.value
    return _NO_LITERAL


def _column_pair_mask(relation, expr: Cmp, backend):
    """``A = B`` / ``A <> B`` between two columns, in code space.

    The right column's dictionary is remapped into the left column's
    code space (one reverse-map probe per *distinct* right value);
    equality then compares codes directly.  NULLs on the right map to a
    sentinel distinct from NULL_CODE, so NULL never equals anything —
    including another NULL — matching the scalar semantics.
    """
    left_col = relation.column(expr.left.name)
    right_col = relation.column(expr.right.name)
    # ``nan_matches=False``: predicate equality follows ``==``, where
    # NaN equals nothing — not even the same NaN object.
    mapping = remap_dictionary(right_col, left_col, nan_matches=False)
    # Right-side NULLs must not compare equal to left-side NULLs (a
    # NULL comparison is false), so they leave code space entirely.
    remapped = backend.remap_codes(right_col.kernel_codes(), mapping, UNSEEN_CODE - 1)
    left_codes = left_col.kernel_codes()
    equal = backend.mask_codes_eq(left_codes, remapped)
    if expr.op == "=":
        # A left NULL (−1) can never equal a remapped right code (≥ 0,
        # −2 or −3), so the equality mask is already NULL-safe.
        return equal
    both_present = backend.mask_and(
        backend.mask_not(backend.mask_eq_code(left_codes, NULL_CODE)),
        backend.mask_not(backend.mask_eq_code(right_col.kernel_codes(), NULL_CODE)),
    )
    return backend.mask_and(backend.mask_not(equal), both_present)
