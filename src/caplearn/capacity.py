"""Capacities: monotone set functions on criteria subsets, with their
structural predicates (axioms, q-maxitivity, q-minitivity).
"""

from __future__ import annotations

import math
import operator
import sys
from array import array
from dataclasses import dataclass, field
from itertools import compress
from typing import Any, Iterable, Iterator, Sequence

from .errors import DomainError
from .relational import SystemKind
from .scale import Scale
from .subsets import (
    check_criteria_count,
    check_mask,
    add_one_bit,
    full_mask,
    masks_of_sizes,
    subset_label,
)


@dataclass(frozen=True)
class Capacity:
    """A set function on 2^C stored as a table indexed by subset mask.

    Construction validates the shape of the table and keeps the floats
    that :meth:`Scale.require_floats` returns for it; the capacity axioms
    (boundary values and monotonicity) are diagnosed separately by
    :func:`capacity_violations` so that suspect tables can be inspected
    rather than rejected outright.

    The q-checks remember per (q, order) in ``_scoring`` whether the table
    is q-maxitive (q-minitive for min-max), as a table that is not monotone
    never is; the memo takes no part in ``==``, ``hash`` or ``repr``, and
    one pass per q and order settles the immutable table.
    """

    n: int
    scale: Scale
    values: tuple[float, ...]
    _scoring: dict[tuple, bool] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        values = _sized(self.n, self.values)
        values = self.scale.require_floats(values, lambda mask: f"value of {subset_label(mask)}")
        object.__setattr__(self, "values", values)

    @classmethod
    def _of_parts(
        cls, n: int, scale: Scale, values: Iterable[float], parts: Sequence[float]
    ) -> Capacity:
        """The capacity on ``values``, scale-checked on ``parts`` alone.

        Precondition: every value is a float equal to one of ``parts``, in
        value and in sign.  Then :meth:`Scale.require_floats` of the parts
        holds for the whole table, which is not scanned again; the shape is
        still checked.  ``learn`` passes the order's top, its bottom and the
        rhs it solved against, which meet it: :func:`learning._solve` writes
        one of them into every set, and :func:`extend_layer` only copies
        layer values or takes their maxima.  On the min-max side it takes the
        max of the negated values and negates it back, which is exact (-(-x)
        is x bit for bit, a zero included), so each extended value is one of
        the table's own.  Every other caller uses ``Capacity(n, scale,
        values)``, which checks each value.
        """
        scale.require_floats(parts, "part {}".format)
        mu = cls.__new__(cls)
        for name, value in (
            ("n", n), ("scale", scale), ("values", _sized(n, values)), ("_scoring", {})
        ):
            object.__setattr__(mu, name, value)
        return mu

    def __getitem__(self, mask: int) -> float:
        return self.values[check_mask(mask, self.n)]


def _sized(n: int, values: Iterable[float]) -> tuple:
    """The values as a tuple, refused unless they are 2^n for a valid n."""
    check_criteria_count(n)
    values = tuple(values)
    if len(values) != 1 << n:
        raise DomainError(f"capacity on {n} criteria needs {1 << n} values, got {len(values)}")
    return values


def capacity_violations(values: Sequence[float], n: int) -> list[str]:
    """All boundary and monotonicity violations of a candidate table.

    Monotonicity is checked on covering pairs (A, A + {i}) only, which is
    sufficient and keeps the scan at n * 2^(n-1) comparisons.  Every
    violation is reported, not just the first, so callers can show a full
    diagnostic.  A clean table is proved clean in bulk (:func:`_is_monotone`);
    only a table with some violation, or a NaN, is scanned pair by pair to
    list them.  Scale membership is :class:`Capacity`'s check.
    """
    check_criteria_count(n)
    size = 1 << n
    out: list[str] = []
    if len(values) != size:
        return [f"expected {size} values for n={n}, got {len(values)}"]
    if values[0] == 0.0 and values[-1] == 1.0 and _is_monotone(values, n):
        return out
    if values[0] != 0.0:
        out.append(f"value of the empty set must be 0, got {values[0]!r}")
    if values[-1] != 1.0:
        out.append(f"value of the full set must be 1, got {values[-1]!r}")
    for mask in range(size):
        for bigger in add_one_bit(mask, n):
            if values[mask] > values[bigger]:
                out.append(
                    f"monotonicity violated: value({subset_label(mask)}) = {values[mask]!r}"
                    f" > value({subset_label(bigger)}) = {values[bigger]!r}"
                )
    return out


def _check_q(q: int, n: int) -> int:
    if isinstance(q, bool) or not isinstance(q, int) or not 1 <= q <= n:
        raise DomainError(f"q must be an integer in 1..{n}, got {q!r}")
    return q


# Codes are packed as fields of 8, 16 or 32 bits, through arrays and
# memoryview casts of these types.
_FORMATS = {8: "B", 16: "H", 32: "I"}
# Constants for 2^m fields of w bits are built once and kept while one
# such int has at most this many bytes: about 1.5 MB in all.  The bit
# sweep runs only on ints this small, so its temporaries stay small too.
_CACHED_BYTES = 1 << 14
_cached: dict[tuple[str, int, int], Any] = {}


def _ones(m: int, w: int) -> tuple[int, int]:
    """(one, top): 1, and the top bit, in each of the 2^m fields of w bits."""
    key = ("ones", m, w)
    if key in _cached:
        return _cached[key]
    one = int.from_bytes((1).to_bytes(w // 8, "little") * (1 << m), "little")
    got = one, one << (w - 1)
    if w // 8 << m <= _CACHED_BYTES:
        _cached[key] = got
    return got


def _bit_masks(m: int, w: int) -> list[int]:
    """For each bit, all ones in the fields of the 2^m masks without it."""
    key = ("without", m, w)
    if key not in _cached:
        size = w // 8 << m
        _cached[key] = [
            int.from_bytes((b"\xff" * span + bytes(span)) * (size // (2 * span)), "little")
            for span in (w // 8 << bit for bit in range(m))
        ]
    return _cached[key]


def _swar_max(a: int, b: int, ones: tuple[int, int], w: int) -> int:
    """The fieldwise max of a and b, whose fields of w bits hold codes below
    2^(w-1), by :func:`_ones` of their size: SWAR (SIMD within a register),
    one big-int operation acting on every field at once."""
    one, top = ones
    # the top bit of each field, set where b > a, spread to its low bits
    g = ((b | top) - a - one) & top
    return a ^ ((a ^ b) & (g - (g >> (w - 1))))


def _layer_max(t: int, m: int, q: int, w: int) -> int:
    """The fieldwise max over subsets: out[A] = max of t[Y] over the Y
    inside A, for the 2^m fields of w bits of t, field index = mask, which
    hold 0 (no value) at every mask of size above q.

    Masks without the highest bit are the same problem on the low half of
    the fields; a mask with it takes the better of that and the problem on
    the high half with q one less, which at q = 1 is the constant of its
    field 0.  That costs about q * 2^m field merges, so while 3q <= m it
    beats the bit sweep's m * 2^m, which takes the node otherwise once t
    has at most ``_CACHED_BYTES``; a larger t splits in halves whatever q
    is, which keeps the sweep's temporaries small at the same work.
    """
    if 3 * q > m and w // 8 << m <= _CACHED_BYTES:
        ones = _ones(m, w)
        for bit, without in enumerate(_bit_masks(m, w)):
            # the fields without ``bit``, moved onto the masks with it
            t = _swar_max(t, (t & without) << (w << bit), ones, w)
        return t
    shift = w << (m - 1)
    low, high = t & ((1 << shift) - 1), t >> shift
    del t  # the halves hold its fields
    low = _layer_max(low, m - 1, q, w)
    ones = _ones(m - 1, w)
    if q == 1:
        high = (high & ((1 << w) - 1)) * ones[0]
    else:
        high = _layer_max(high, m - 1, q - 1, w)
    return low | _swar_max(low, high, ones, w) << shift


def _seeds(values: Sequence[float], masks: list[int], flip: int) -> list[float]:
    """The table's values at ``masks``, read negated by complements when
    ``flip`` is the full mask (min-max), as they are when it is 0."""
    if flip:
        return list(map(operator.neg, map(values.__getitem__, map(flip.__xor__, masks))))
    return list(map(values.__getitem__, masks))


def _ranked(values: Sequence[float]) -> tuple[Iterator[int], list[float]]:
    """Rising codes 1, 2, ... of the values, made as read: c is levels[c - 1]."""
    levels = sorted(set(values))
    return map(dict(zip(levels, range(1, len(levels) + 1))).__getitem__, values), levels


def _codes(seeds: list[float], masks: list[int], n: int) -> tuple[Iterable[int], list[float]]:
    """The :func:`_ranked` codes and levels of the seeds, but for zeros.

    Equal floats print the same repr except 0.0 and -0.0.  When both occur,
    each zero seed gets a code of its own, ranked by the preference of a max
    sweep that keeps, among equals, the set without bit 0, then without
    bit 1, and so on, least preferred lowest.  A plain max of codes then
    needs no tie rule.
    """
    codes, levels = _ranked(seeds)
    if 0.0 not in levels:
        return codes, levels
    at = list(compress(range(len(seeds)), map((0.0).__eq__, seeds)))
    if len({math.copysign(1.0, seeds[i]) for i in at}) == 1:
        return codes, levels
    zero = levels.index(0.0) + 1
    # least preferred first: the bit-reversed mask, descending
    at.sort(key=lambda i: int(f"{masks[i]:0{n}b}"[::-1], 2), reverse=True)
    extra = len(at) - 1
    codes = [code + extra if code > zero else code for code in codes]
    for code, i in enumerate(at, zero):
        codes[i] = code
    return codes, levels[: zero - 1] + [seeds[i] for i in at] + levels[zero:]


def _width(top: int) -> int:
    """The narrowest field width whose top bit no code up to ``top`` reaches."""
    return 8 if top < 1 << 7 else 16 if top < 1 << 15 else 32


def _as_int(fields: array) -> int:
    """The array's fields as one int's, field index = array index; a
    big-endian int holds them backwards, so there the array is reversed."""
    if sys.byteorder == "big":
        fields.reverse()
    return int.from_bytes(fields, sys.byteorder)


def _packed(masks: list[int], codes: Iterable[int], n: int, top: int) -> tuple[int, int]:
    """(t, w): ``codes`` at their ``masks`` and 0 elsewhere, as the 2^n
    fields of w = :func:`_width` (top) bits of one int, field index = mask."""
    w = _width(top)
    fields = array(_FORMATS[w], [0]) * (1 << n)
    for mask, code in zip(masks, codes):
        fields[mask] = code
    return _as_int(fields), w


def _unpacked(t: int, n: int, w: int) -> Sequence[int]:
    """The 2^n fields of w bits of t in mask order, as :func:`_as_int`
    lays them out."""
    fields = memoryview(t.to_bytes(w // 8 << n, sys.byteorder)).cast(_FORMATS[w])
    return fields[::-1] if sys.byteorder == "big" else fields


def _is_monotone(values: Sequence[float], n: int) -> bool:
    """No covering pair (A, A + {i}) decreases: the :func:`_ranked` codes in
    mask order are their own :func:`_layer_max` at q = n.  A NaN, which no
    comparison orders, leaves the levels unsorted and the answer False."""
    codes, levels = _ranked(values)
    w = _width(len(levels))
    t = _as_int(array(_FORMATS[w], codes))
    return _layer_max(t, n, n, w) == t and all(map(operator.lt, levels, levels[1:]))


def _subset_max(values: Sequence[float], n: int, sizes: range, kind: SystemKind) -> list[float]:
    """The table read as :func:`extend_layer` reads it, with each set's
    value replaced by the max over its subsets whose size is in ``sizes``
    (a range ending at some q), and read back; a set with no such subset
    keeps its value.

    The seeds, the values at those subsets, are ranked into integer codes
    (:func:`_codes`), packed as the fields of one int, and
    :func:`_layer_max` takes their maxima on every field at once, in about
    q * 2^n field merges for small q (n * 2^n at most).
    """
    dual = kind.order.dual
    flip = full_mask(n) if dual else 0
    masks = masks_of_sizes(n, sizes)
    codes, levels = _codes(_seeds(values, masks, flip), masks, n)
    t, w = _packed(masks, codes, n, len(levels))
    del masks, codes  # freed before the kernel's big-int temporaries
    fields = _unpacked(_layer_max(t, n, sizes[-1], w), n, w)
    if dual:
        levels = [-v for v in levels]
        fields = fields[::-1]
    # a set holding code 0 has no subset in ``sizes``: it keeps its value
    decode = dict(zip(range(1, len(levels) + 1), levels)).get
    return list(map(decode, fields, values))


def extend_layer(values: Sequence[float], n: int, q: int, kind: SystemKind) -> list[float]:
    """Extend a table from its boundary layer, in the order of ``kind``.

    Max-min, the q-maxitive extension: values[X] up to cardinality q, and
    above it the max over the size-q subsets, with ties (the sign of a
    zero) as in the covering recursion.  Min-max, the q-minitive one: the
    same on the table read by complements and negated, both exact, so
    zeros keep the dual's signs.  :func:`_subset_max` seeded with layer q
    alone: the C(n, q) values it reads.
    """
    return _subset_max(values, n, range(q, q + 1), kind)


def _classify(values: Sequence[float], n: int, q: int, kind: SystemKind) -> bool:
    """Whether a table is q-maxitive (q-minitive for min-max): a monotone
    q-extension in the order of ``kind``.

    A table equals the max over its subsets of size up to q (read negated
    by complements for min-max, as :func:`extend_layer` reads it) exactly
    when it is a monotone q-extension, so one :func:`_subset_max` pass
    seeded with the layers up to q decides it.  At q = n the kernel on the
    whole table decides monotonicity alone (:func:`_is_monotone`).  So a
    table that is not monotone is q-maxitive at no q, q = n included;
    normalisation is :func:`capacity_violations`' question.
    """
    if q == n:
        return _is_monotone(values, n)
    return _subset_max(values, n, range(q + 1), kind) == list(values)


def _q_holds(mu: Capacity, q: int, kind: SystemKind) -> bool:
    """:func:`_classify` of mu, once per capacity, q and order; later calls
    read the answer it left in ``mu._scoring``, where ``learn`` also records
    it for the capacity it returns."""
    key = (_check_q(q, mu.n), kind)
    if key not in mu._scoring:
        mu._scoring[key] = _classify(mu.values, mu.n, q, kind)
    return mu._scoring[key]


def is_q_maxitive(mu: Capacity, q: int) -> bool:
    """True iff mu is monotone and its values above cardinality q are the
    max of their small subsets: at q = n, iff mu is monotone."""
    return _q_holds(mu, q, SystemKind.MAX_MIN)


def is_q_minitive(mu: Capacity, q: int) -> bool:
    """True iff mu is monotone and its values below cardinality n - q are
    the min of their large supersets: at q = n, iff mu is monotone.

    The order dual of q-maxitivity: a capacity is q-minitive exactly when
    its conjugate (the value of the complement, reversed on the scale) is
    q-maxitive.
    """
    return _q_holds(mu, q, SystemKind.MIN_MAX)
