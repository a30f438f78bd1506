"""File formats: readers for capacity JSON, system JSON and training CSV or
JSON; writers for capacity JSON and learn reports.

Writers emit a canonical form (two-space indented JSON, subsets in
ascending mask order, floats in shortest round-trip notation), so saving a
loaded capacity reproduces it byte for byte.  A JSON reader checks a
document's shape and hands the decoded values to the object it builds,
whose scale check converts them and refuses an off-scale one, named as
written; only then does ``_numbers`` walk them, to name a value that is no
number first.  A JSON document declares its scale, a training CSV is on the
unit interval, and ``load_data`` alone tells a system file from training
data.

The canonical text is exactly ``json.dumps(payload, indent=2) + "\n"``.
The standard encoder runs in pure Python once it indents, so ``dumps_json``
indents the containers itself.  It writes a list of exact ints and floats by
one join of their ``repr``, which the encoder writes too.  Any other list of
scalars (strings, bools, None, or numbers with a NaN or an infinity, which
``repr`` spells with an n) goes to the C encoder unindented, with the line
break and indentation as its item separator; the C encoder writes every
item as the indenting one does.

Above layer q a learned q-mode table repeats one value over long runs, so a
list of more than ``_BLOCK`` floats is written block by block, and a block
whose entries are all equal takes one ``repr``, repeated.  That is exact:
equal floats share one ``repr`` except 0.0 and -0.0, so a block of zeros
takes it only when its entries have one sign; and an int is never merged
with the float it equals (1 and 1.0 differ in text), because a list that
holds an int or a bool keeps the join of every ``repr``.

A document's canonical text can stand in for the document inside a larger
payload, as a ``CanonicalText``; ``caplearn learn`` encodes its capacity
once that way, for the capacity file and for the report.  The writer embeds
it with one ``str.replace("\n", newline)``, which is exact: the text breaks
lines only between tokens, because the encoder escapes every control
character inside a string, so ``_encode(doc, "\n" + pad)`` is
``_encode(doc, "\n")`` with ``pad`` after each line break.
"""

from __future__ import annotations

import csv
import json
import math
from io import StringIO
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from struct import Struct
from typing import Any, Callable

from .capacity import Capacity
from .errors import FormatError
from .learning import LearnReport, TrainingSet
from .relational import RelationalSystem, SystemKind
from .scale import _NUMBER_TYPES, Scale, ScaleKind

_SCALAR_TYPES = frozenset((int, float, str, bool, type(None)))
# a list of floats longer than this is written block by block
_BLOCK = 64
_PACK_BLOCK = Struct(f"{_BLOCK}d").pack
_ZERO_BLOCKS = (_PACK_BLOCK(*[0.0] * _BLOCK), _PACK_BLOCK(*[-0.0] * _BLOCK))


class CanonicalText(str):
    """``dumps_json(doc)``, which the writers embed as ``doc`` at its depth."""


def dumps_json(payload: Any) -> str:
    """Canonical JSON text used by every writer and by the CLI."""
    return _encode(payload, "\n") + "\n"


def _encode(obj: Any, newline: str) -> str:
    """``json.dumps(obj, indent=2)``, each line break followed by ``newline``."""
    # a number has no line break to indent; tested first, as most values
    # a dict holds are numbers
    if type(obj) is float and math.isfinite(obj) or type(obj) is int:
        return repr(obj)
    inner = newline + "  "
    sep = "," + inner
    if isinstance(obj, (list, tuple)) and obj:
        types = set(map(type, obj))
        # repr writes an int or a finite float as the encoder does; only a
        # nan or an inf puts the letter n in the text.  A long list of floats
        # takes one repr per block of equal values, of one sign if zeros.
        if len(obj) > _BLOCK and types == {float}:
            body = _float_blocks(obj, sep)
        else:
            body = sep.join(map(repr, obj)) if types <= _NUMBER_TYPES else None
        if body is None or "n" in body:
            if types <= _SCALAR_TYPES:
                body = json.dumps(obj, separators=(sep, ": "))[1:-1]
            else:
                body = sep.join([_encode(v, inner) for v in obj])
        # one join, not a chain of +, so the 2^n-entry body is copied once here
        return "".join(("[", inner, body, newline, "]"))
    if isinstance(obj, dict) and obj and all(type(k) is str for k in obj):
        items = [_quote(k) + ": " + _encode(v, inner) for k, v in obj.items()]
        return "".join(("{", inner, sep.join(items), newline, "}"))
    if isinstance(obj, (list, tuple, dict)):
        # empty, or a dict whose keys the encoder converts
        return json.dumps(obj, indent=2).replace("\n", newline)
    if type(obj) is CanonicalText:
        # without its final line break; see the module docstring
        return obj[:-1].replace("\n", newline)
    return _quote(obj) if type(obj) is str else json.dumps(obj)


def _float_blocks(values: list | tuple, sep: str) -> str:
    """``sep.join(map(repr, values))`` for a list of floats, with one ``repr``
    for each block of ``_BLOCK`` equal values; see the module docstring."""
    parts = []
    done = 0  # values[:done] are in parts
    for start in range(0, len(values) - _BLOCK + 1, _BLOCK):
        v = values[start]
        # the end test first, as a block of distinct values fails it
        block = values[start:start + _BLOCK] if values[start + _BLOCK - 1] == v else ()
        # equal zeros may differ in sign, which their bytes tell apart
        if block.count(v) == _BLOCK and (v or _PACK_BLOCK(*block) in _ZERO_BLOCKS):
            if done < start:
                parts.append(sep.join(map(repr, values[done:start])))
            text = repr(v)
            parts.append((text + sep) * (_BLOCK - 1) + text)
            done = start + _BLOCK
    if not parts:
        return sep.join(map(repr, values))
    if done < len(values):
        parts.append(sep.join(map(repr, values[done:])))
    return sep.join(parts)


def _read_text(path: str | Path) -> str:
    try:
        # a leading byte-order mark, as spreadsheets write it, is skipped
        return Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc


def _read_json(path: str | Path) -> Any:
    text = _read_text(path)
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        # malformed text, an integer literal past the digit limit, or nesting
        # deeper than the recursion limit
        raise FormatError(f"{path} is not valid JSON: {exc}") from exc


def _number(value: Any, where: str) -> None:
    """Refuse ``value``, named ``where``, unless it is a number in float range."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise FormatError(f"{where}: expected a number, got {value!r}")
    try:
        float(value)
    except OverflowError:
        raise FormatError(
            f"{where}: expected a number in float range, got an integer of"
            f" {len(str(abs(value)))} digits"
        ) from None


def _numbers(values: list, what: Callable[[int], str]) -> None:
    """``_number`` of each value, the one at index i named ``what(i)``; run
    only on values a container refused, to name a non-number first."""
    for i, v in enumerate(values):
        _number(v, what(i))


def _document(obj: Any, what: str, fields: tuple[str, ...]) -> None:
    """Refuse ``obj`` unless it is a JSON object with every field, its 'n' an int."""
    if not isinstance(obj, dict):
        raise FormatError(f"{what} must be a JSON object")
    for field in fields:
        if field not in obj:
            raise FormatError(f"{what} is missing the '{field}' field")
    if "n" in fields and type(obj["n"]) is not int:  # JSON true/false are not counts
        raise FormatError(f"{what} field 'n' must be an integer, got {obj['n']!r}")


# ---------------------------------------------------------------------------
# scales


def scale_to_json(scale: Scale) -> dict:
    return {
        "kind": scale.kind.value,
        "levels": list(scale.levels) if scale.levels is not None else None,
    }


def scale_from_json(obj: Any) -> Scale:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise FormatError("scale must be an object with a 'kind' field")
    kind = obj["kind"]
    if kind == ScaleKind.UNIT_INTERVAL.value:
        return Scale.unit_interval()
    if kind != ScaleKind.FINITE_CHAIN.value:
        raise FormatError(f"unknown scale kind {kind!r}")
    levels = obj.get("levels")
    if not isinstance(levels, list):
        raise FormatError("finite chain scale needs a 'levels' array")
    try:
        return Scale.finite_chain(levels)
    except Exception as exc:
        _numbers(levels, "scale level {}".format)
        raise FormatError(f"invalid scale: {exc}") from exc


# ---------------------------------------------------------------------------
# capacities


def capacity_to_json(mu: Capacity) -> dict:
    return {"n": mu.n, "scale": scale_to_json(mu.scale), "values": list(mu.values)}


def capacity_from_json(obj: Any) -> Capacity:
    _document(obj, "capacity", ("n", "scale", "values"))
    scale = scale_from_json(obj["scale"])
    values = obj["values"]
    if not isinstance(values, list):
        raise FormatError("capacity field 'values' must be an array")
    try:
        return Capacity(obj["n"], scale, values)  # off-scale values are named as written
    except Exception as exc:
        # a table the capacity refuses may hold a value that is no number:
        # name that one first, as a reader of numbers does
        _numbers(values, "value {}".format)
        raise FormatError(f"invalid capacity: {exc}") from exc


def save_capacity(mu: Capacity, path: str | Path, text: str | None = None) -> None:
    """``text``, if given, is ``dumps_json(capacity_to_json(mu))`` already made."""
    text = dumps_json(capacity_to_json(mu)) if text is None else text
    Path(path).write_text(text, encoding="utf-8")


def load_capacity(path: str | Path) -> Capacity:
    return capacity_from_json(_read_json(path))


# ---------------------------------------------------------------------------
# relational systems


def system_from_json(obj: Any) -> RelationalSystem:
    _document(obj, "system", ("kind", "matrix", "rhs"))
    try:
        kind = SystemKind(obj["kind"])
    except ValueError as exc:
        raise FormatError(f"unknown system kind {obj['kind']!r}") from exc
    matrix = obj["matrix"]
    rhs = obj["rhs"]
    if not isinstance(matrix, list) or not all(isinstance(r, list) for r in matrix):
        raise FormatError("system field 'matrix' must be an array of rows")
    if not isinstance(rhs, list):
        raise FormatError("system field 'rhs' must be an array")
    scale = scale_from_json(obj["scale"]) if "scale" in obj else Scale.unit_interval()
    labels = obj.get("column_labels")
    if labels is None:
        labels = list(range(len(matrix[0]) if matrix else 0))
    if not isinstance(labels, list):
        raise FormatError("system field 'column_labels' must be an array")
    for j, label in enumerate(labels):
        # JSON true/false are not subset masks, and null, an array or an
        # object is no label
        if type(label) not in (int, float, str):
            raise FormatError(f"column label {j}: expected a number or a string, got {label!r}")
    try:
        return RelationalSystem(kind, matrix, rhs, labels, scale)
    except Exception as exc:
        # name a value that is no number first, row by row, then the rhs
        for k, row in enumerate(matrix):
            _numbers(row, lambda j: f"matrix entry ({k}, {j})")
        _numbers(rhs, "rhs entry {}".format)
        raise FormatError(f"invalid system: {exc}") from exc


# ---------------------------------------------------------------------------
# training data


def training_set_from_json(obj: Any) -> TrainingSet:
    _document(obj, "training set", ("n", "scale", "items"))
    scale = scale_from_json(obj["scale"])
    items = obj["items"]
    if not isinstance(items, list):
        raise FormatError("training set field 'items' must be an array")
    try:
        return TrainingSet.from_pairs(obj["n"], scale, [(it["x"], it["alpha"]) for it in items])
    except Exception as exc:
        # refused, as is an item that is no object with 'x' and 'alpha' or
        # whose 'x' is no array: name the first such item or the first value
        # that is no number, item by item, before the set's own message
        for k, item in enumerate(items):
            if not isinstance(item, dict) or "x" not in item or "alpha" not in item:
                raise FormatError(f"item {k} must be an object with 'x' and 'alpha'")
            if not isinstance(item["x"], list):
                raise FormatError(f"item {k}: 'x' must be an array")
            _numbers(item["x"], lambda i: f"item {k}, coordinate x{i + 1}")
            _number(item["alpha"], f"item {k}, alpha")
        raise FormatError(f"invalid training set: {exc}") from exc


def training_set_from_csv_text(text: str, source: str = "<csv>") -> TrainingSet:
    """Parse 'x1,...,xn,alpha' rows on the unit interval.

    Lines break at a line feed, a carriage return or both, as in a CSV
    file; ``str.splitlines`` would also break at a form feed, U+2028 and
    other separators, inside a quoted cell too.
    """
    reader = csv.reader(StringIO(text, newline=""))
    # each row that is not blank, with the line of the text it ends on
    rows = [(reader.line_num, row) for row in reader if any(cell.strip() for cell in row)]
    if not rows:
        raise FormatError(f"{source}: no rows")
    header = [cell.strip().lower() for cell in rows[0][1]]
    n = len(header) - 1
    expected = [f"x{i + 1}" for i in range(n)] + ["alpha"]
    if n < 1 or header != expected:
        raise FormatError(
            f"{source}: header must be x1,...,xn,alpha; got {','.join(header)}"
        )
    body = rows[1:]
    values = None
    # float() reads PEP 515 underscores ("0.2_5" is 0.25), which no cell
    # means; every character of the text but a comma, a quote or a line
    # break lies in a cell
    if "_" not in text and all(len(row) == n + 1 for _, row in body):
        try:
            values = tuple(map(float, chain.from_iterable(row for _, row in body)))
        except ValueError:
            pass
    if values is None:
        # some row fails: name the first, row by row
        for lineno, row in body:
            if len(row) != n + 1:
                raise FormatError(f"{source}, row {lineno}: expected {n + 1} cells, got {len(row)}")
            try:
                if any("_" in cell for cell in row):
                    raise ValueError("underscores are not allowed in numbers")
                for cell in row:
                    float(cell)
            except ValueError as exc:
                raise FormatError(f"{source}, row {lineno}: {exc}") from exc
    pairs = [(values[k:k + n], values[k + n]) for k in range(0, len(values), n + 1)]
    try:
        return TrainingSet.from_pairs(n, Scale.unit_interval(), pairs)
    except Exception as exc:
        raise FormatError(f"{source}: {exc}") from exc


def load_training_set(path: str | Path) -> TrainingSet:
    """:func:`load_data`, refusing a system."""
    data = load_data(path)
    if isinstance(data, RelationalSystem):
        raise FormatError(f"{path} holds a relational system, not training data")
    return data


def load_data(path: str | Path) -> TrainingSet | RelationalSystem:
    """A system from a JSON document with a 'matrix' field, else a training
    set: on the unit interval from a .csv file, on its declared scale from a
    JSON document."""
    if Path(path).suffix.lower() == ".csv":
        return training_set_from_csv_text(_read_text(path), str(path))
    doc = _read_json(path)
    if isinstance(doc, dict) and "matrix" in doc:
        return system_from_json(doc)
    return training_set_from_json(doc)


# ---------------------------------------------------------------------------
# learn reports


def report_to_json(report: LearnReport) -> dict:
    return {
        "mode": report.mode.value,
        "q": report.q,
        "consistent": report.consistent,
        "boundary_ok": report.boundary_ok,
        "distance": report.distance,
        "capacity": capacity_to_json(report.capacity) if report.capacity else None,
        "residuals": list(report.residuals) if report.residuals is not None else None,
        "notes": list(report.notes),
    }
