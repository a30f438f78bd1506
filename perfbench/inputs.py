"""Seeded inputs for the benchmark and the reference Sugeno integral.

Nothing here imports caplearn.  Hidden capacities, objects and targets are
built from the seed, and targets come from the sorted-coordinate form of the
Sugeno integral, so the output checks do not trust the code they measure.

Values live on the 21-level chain 0, 1/20, ..., 1.  Generators work on
level indices and convert with ``k / LEVELS``, the same division caplearn's
``Scale.uniform_chain`` uses, so every value is an exact chain member.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

LEVELS = 20


def sugeno_ref(values, x) -> float:
    """max over k of min(k-th largest coordinate, value of the top-k criteria).

    Criterion i is bit i of the mask, as in caplearn's tables.  Ties may be
    broken either way: monotonicity makes the result the same.
    """
    mask = 0
    best = 0.0
    for i in sorted(range(len(x)), key=x.__getitem__, reverse=True):
        mask |= 1 << i
        term = min(x[i], values[mask])
        if term > best:
            best = term
    return best


def bits(mask: int):
    """Each member of the subset as a one-bit mask."""
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


def random_capacity(rng: random.Random, n: int) -> list[int]:
    """Monotone level table; each subset draws a level that grows with its size."""
    idx = [0] * (1 << n)
    for mask in range(1, 1 << n):
        floor = max(idx[mask ^ b] for b in bits(mask))
        idx[mask] = max(floor, rng.randint(0, LEVELS * mask.bit_count() // n))
    idx[-1] = LEVELS
    return idx


def random_qmax_capacity(rng: random.Random, n: int, q: int) -> list[int]:
    """q-maxitive level table: free monotone levels up to size q, max above.

    One size-q subset is put at the top level, which the full set needs.
    """
    top = sum(1 << i for i in rng.choice(list(combinations(range(n), q))))
    idx = [0] * (1 << n)
    for mask in range(1, 1 << n):
        floor = max(idx[mask ^ b] for b in bits(mask))
        size = mask.bit_count()
        if mask == top:
            idx[mask] = LEVELS
        elif size <= q:
            idx[mask] = max(floor, rng.randint(0, LEVELS * size // q))
        else:
            idx[mask] = floor
    return idx


def conjugate(idx: list[int]) -> list[int]:
    """Level of the complement, reversed; maps q-maxitive to q-minitive."""
    full = len(idx) - 1
    return [LEVELS - idx[full ^ mask] for mask in range(len(idx))]


def to_values(idx) -> list[float]:
    return [k / LEVELS for k in idx]


@dataclass(frozen=True)
class Case:
    """A training set with the hidden capacity behind it and held-out objects."""

    hidden: tuple[float, ...]
    objects: tuple[tuple[float, ...], ...]
    targets: tuple[float, ...]
    held_out: tuple[tuple[float, ...], ...]
    noise: int  # largest target perturbation, in levels

    @property
    def n(self) -> int:
        return len(self.objects[0])


def make_case(
    rng: random.Random, hidden_idx: list[int], rows: int, held_out: int, noise: int = 0
) -> Case:
    """Objects with uniform random levels; targets from the hidden capacity.

    With ``noise`` each target moves by up to that many levels and is then
    clamped to its object's range, so every target stays fittable by some
    Sugeno integral and the hidden capacity's error stays within the noise.
    """
    n = len(hidden_idx).bit_length() - 1
    hidden = to_values(hidden_idx)

    def draw():
        return tuple(rng.randint(0, LEVELS) for _ in range(n))

    objects = [draw() for _ in range(rows)]
    targets = []
    for x in objects:
        t = round(sugeno_ref(hidden, to_values(x)) * LEVELS)
        if noise:
            t = min(max(t + rng.randint(-noise, noise), min(x)), max(x))
        targets.append(t / LEVELS)
    return Case(
        tuple(hidden),
        tuple(tuple(to_values(x)) for x in objects),
        tuple(targets),
        tuple(tuple(to_values(draw())) for _ in range(held_out)),
        noise,
    )


def write_json(path: Path, objects, targets) -> None:
    """Training set on the 21-level chain, in caplearn's JSON layout."""
    doc = {
        "n": len(objects[0]),
        "scale": {"kind": "finite_chain", "levels": to_values(range(LEVELS + 1))},
        "items": [{"x": list(x), "alpha": a} for x, a in zip(objects, targets)],
    }
    path.write_text(json.dumps(doc))


def write_csv(path: Path, objects, targets) -> None:
    """Training set on the unit interval: header x1..xn,alpha."""
    n = len(objects[0])
    lines = [",".join([f"x{i + 1}" for i in range(n)] + ["alpha"])]
    lines += [",".join(repr(v) for v in (*x, a)) for x, a in zip(objects, targets)]
    path.write_text("\n".join(lines) + "\n")
