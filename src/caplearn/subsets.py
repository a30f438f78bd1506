"""Bitmask encoding of criteria subsets.

Criteria are numbered 1..n externally; internally criterion i occupies bit
i-1, so a subset is an unsigned mask below 2**n.  The canonical ordering
used for matrix columns and serialization is ascending mask value.
"""

from __future__ import annotations

from itertools import chain, combinations
from typing import Iterable, Iterator

from .errors import DomainError

# Matrix columns and capacity tables are O(2**n); anything beyond this is a
# construction error rather than a silent attempt.
MAX_CRITERIA = 24


def check_criteria_count(n: int) -> int:
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise DomainError(f"criteria count must be a positive integer, got {n!r}")
    if n > MAX_CRITERIA:
        raise DomainError(f"criteria count {n} exceeds the supported cap of {MAX_CRITERIA}")
    return n


def full_mask(n: int) -> int:
    return (1 << n) - 1


def check_mask(mask: int, n: int) -> int:
    if isinstance(mask, bool) or not isinstance(mask, int) or not 0 <= mask < (1 << n):
        raise DomainError(f"subset mask {mask!r} out of range for n={n}")
    return mask


def complement(mask: int, n: int) -> int:
    return full_mask(n) ^ mask


def members(mask: int) -> tuple[int, ...]:
    """1-based criteria indices contained in the subset."""
    if mask < 0:  # shifting never empties a negative mask
        raise DomainError(f"subset mask {mask!r} is negative")
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def subset_label(mask: int) -> str:
    return "{" + ",".join(str(i) for i in members(mask)) + "}"


def masks_of_sizes(n: int, sizes: Iterable[int]) -> list[int]:
    """Ascending masks whose cardinality is in ``sizes``.

    Built from combinations, so bounded layers cost C(n, k) each rather
    than a scan of all 2**n masks; a mask is the sum of its bit values.
    """
    bits = [1 << i for i in range(n)]
    return sorted(map(sum, chain.from_iterable(combinations(bits, k) for k in sizes)))


def drop_one_bit(mask: int) -> Iterator[int]:
    """Submasks obtained by removing exactly one member."""
    m = mask
    while m:
        low = m & -m
        yield mask ^ low
        m ^= low


def add_one_bit(mask: int, n: int) -> Iterator[int]:
    """Supersets obtained by adding exactly one missing member."""
    missing = complement(mask, n)
    while missing:
        low = missing & -missing
        yield mask | low
        missing ^= low
