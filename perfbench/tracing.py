"""Spans around caplearn's entry points, for the traced run only.

Each target is wrapped where its caller looks it up (``caplearn.cli.learn``,
not ``caplearn.learning.learn``), so the wrapper sees the calls the program
really makes.  A target that no longer exists is reported as missing and
the run goes on; later changes may rename or remove any of them.
``scale`` and ``subsets`` are called per element and are not wrapped, and
``oracle`` is not on the user path.
"""

from __future__ import annotations

import importlib
import os
import time
from collections import Counter, defaultdict
from math import comb


def _cells(c, args, result):
    c["learning.cells"] += result.n_rows * result.n_cols


def _cross_terms(c, args, result):
    sys_ = args[0]
    c["chebyshev.cross_terms"] += sys_.n_rows * sys_.n_rows * sys_.n_cols


def _full_subsets(c, args, result):
    c["sugeno.subsets_visited"] += 1 << args[0].n


def _reduced_subsets(c, args, result):
    n, q = args[0].n, args[2]
    c["sugeno.subsets_visited"] += sum(comb(n, k) for k in range(1, q + 1))


def _check(c, args, result):
    c["capacity.checks"] += 1


def _bytes_out(c, args, result):
    c["io.bytes_out"] += os.path.getsize(args[1])


def _learned(c, args, result):
    c["learning.calls"] += 1
    c["learning.capacities"] += result.capacity is not None


# (module, attribute, span name, counter hook)
TARGETS = (
    ("caplearn.cli", "main", "cli", None),
    ("caplearn.cli", "load_training_set", "io.parse", None),
    ("caplearn.cli", "load_capacity", "io.parse", None),
    ("caplearn.io", "load_capacity", "io.parse", None),
    ("caplearn.cli", "save_capacity", "io.write", _bytes_out),
    ("caplearn.cli", "learn", "learning", _learned),
    ("caplearn.learning", "build_maxmin_system", "learning.build", _cells),
    ("caplearn.learning", "build_minmax_system", "learning.build", _cells),
    ("caplearn.relational", "RelationalSystem.__post_init__", "learning.validate", None),
    ("caplearn.learning", "qmax_capacity_from_solution", "learning.extend", None),
    ("caplearn.learning", "qmin_capacity_from_solution", "learning.extend", None),
    ("caplearn.learning", "_residuals", "learning.residuals", None),
    ("caplearn.learning", "potential_greatest", "relational.solve", None),
    ("caplearn.learning", "potential_lowest", "relational.solve", None),
    ("caplearn.chebyshev", "potential_greatest", "relational.solve", None),
    ("caplearn.chebyshev", "potential_lowest", "relational.solve", None),
    ("caplearn.learning", "maxmin_apply", "relational.apply", None),
    ("caplearn.learning", "minmax_apply", "relational.apply", None),
    ("caplearn.learning", "chebyshev_distance", "chebyshev.distance", _cross_terms),
    ("caplearn.learning", "greatest_approx_solution", "chebyshev.approx", None),
    ("caplearn.learning", "lowest_approx_solution", "chebyshev.approx", None),
    ("caplearn.cli", "sugeno_maxmin", "sugeno.eval", _full_subsets),
    ("caplearn.cli", "sugeno_minmax", "sugeno.eval", _full_subsets),
    ("caplearn.sugeno", "sugeno_qmax", "sugeno.eval", _reduced_subsets),
    ("caplearn.cli", "capacity_violations", "capacity.check", _check),
    ("caplearn.sugeno", "is_q_maxitive", "capacity.check", _check),
    ("caplearn.sugeno", "is_q_minitive", "capacity.check", _check),
)


class Tracer:
    """In-memory spans: [name, start, end, parent index, op id]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.missing: set[str] = set()
        self.hook_errors: set[str] = set()
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self._op = 0

    def wrap(self, name, fn, hook=None):
        def traced(*args, **kwargs):
            index = len(self.spans)
            record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self._op]
            self.spans.append(record)
            self._stack.append(index)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._stack.pop()
            if hook is not None:
                try:
                    hook(self.counts, args, result)
                except (AttributeError, TypeError, IndexError, OSError):
                    self.hook_errors.add(name)
            return result

        return traced

    def op(self, name, fn, *args):
        """Run one benchmark operation as a root span with a fresh op id."""
        self._op += 1
        return self.wrap("op." + name, fn)(*args)

    def install(self) -> None:
        for module, attr, name, hook in TARGETS:
            *path, leaf = attr.split(".")
            try:
                owner = importlib.import_module(module)
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.missing.add(f"{module}.{attr}")
                continue
            self._saved.append((owner, leaf, original))
            setattr(owner, leaf, self.wrap(name, original, hook))

    def uninstall(self) -> None:
        while self._saved:
            owner, leaf, original = self._saved.pop()
            setattr(owner, leaf, original)

    def self_times(self) -> dict[str, float]:
        """Span duration minus the time its children cover, summed by name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), covered in zip(self.spans, child):
            out[name] += end - start - covered
        return out
