"""caplearn benchmark: closed-loop learn-and-score workloads.

    python3 perfbench/run.py --workload exact-dense --seed 1 --seconds 30 --trace 0

One caller in one thread: each call starts after the previous one returns.
Set-up generates the seeded inputs as files; the timed loop then drives
caplearn's public entry points in-process (``caplearn.cli.main`` for
``learn`` and ``eval``, the library ``sugeno_qmax`` for reduced scoring)
round after round until the time is up.  Outputs are checked after the
loop.  The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics from wrapped entry points with
``--trace 1``.  README.md in this directory explains the workloads.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import inputs
from inputs import LEVELS, Case, make_case

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5

# The sandbox's CPU speed drifts by tens of percent within seconds, as
# neighbours come and go.  A fixed pure-Python kernel shaped like caplearn's
# hot loops is timed between every two timed operations, and each operation
# is scaled by REF_KERNEL_S / (the mean of the kernel times around it):
# seconds at the speed at which the kernel takes REF_KERNEL_S.  Raw seconds
# are printed beside them.
REF_KERNEL_S = 0.012


def _pos(x: float) -> float:
    return x if x > 0.0 else 0.0


def _gap(a: float, b: float, c: float) -> float:
    return min(_pos(a - c) / 2.0, _pos(b - c))


class Kernel:
    """Per-subset minima of float rows (a system build), then small function
    calls over column pairs (Chebyshev cross terms).  Uses no caplearn code."""

    def __init__(self) -> None:
        rng = random.Random(0)
        self.rows = [tuple(rng.randint(0, LEVELS) / LEVELS for _ in range(9)) for _ in range(20)]
        self.masks = [tuple(i for i in range(9) if m >> i & 1) for m in range(1, 512)]

    def seconds(self) -> float:
        t0 = time.perf_counter()
        table = tuple(tuple(min(x[i] for i in m) for m in self.masks) for x in self.rows)
        for col in list(zip(*table))[::16]:
            max(_gap(a, b, c) for a in col[:10] for b, c in zip(col, col[1:]))
        return time.perf_counter() - t0


def import_caplearn():
    """Import caplearn from src/ SETUP_REPEATS times, each time from scratch.

    Returns the package and each import's seconds.  Exits without a result
    when src/ holds no caplearn.
    """
    sys.path.insert(0, str(SRC))
    seconds = []
    for _ in range(SETUP_REPEATS):
        for name in [m for m in sys.modules if m.partition(".")[0] == "caplearn"]:
            del sys.modules[name]
        t0 = time.perf_counter()
        try:
            import caplearn.cli
            import caplearn.io
            import caplearn.sugeno
        except ImportError as exc:
            sys.exit(f"perfbench: cannot import caplearn from {SRC}: {exc}")
        seconds.append(time.perf_counter() - t0)
    if Path(caplearn.__file__).resolve().parent != SRC / "caplearn":
        sys.exit(f"perfbench: caplearn was imported from {caplearn.__file__}, not {SRC}")
    return caplearn, seconds


# ---------------------------------------------------------------------------
# workloads


@dataclasses.dataclass(frozen=True)
class Shape:
    n: int
    rows: int
    held_out: int
    q: int | None
    pool: int  # distinct datasets, cycled through by the timed loop


# Sized so one round takes about a second on a 2-core sandbox; README.md
# gives the reasons behind each workload.
SHAPES = {
    "exact-dense": Shape(n=9, rows=150, held_out=50, q=None, pool=3),
    "approx-noisy": Shape(n=8, rows=80, held_out=50, q=3, pool=3),
    "qmode-wide": Shape(n=14, rows=20, held_out=6, q=2, pool=3),
}


def warmup_shape(shape: Shape) -> Shape:
    """A tiny input that runs the same calls as the workload."""
    return dataclasses.replace(shape, n=4, rows=6, held_out=2, q=shape.q and 2, pool=1)


@dataclasses.dataclass
class Learn:
    key: str
    mode: str  # greatest | lowest | qmax | qmin
    approx: bool
    q: int | None
    case: Case
    data: Path
    report: Path
    capacity: Path

    def argv(self) -> list[str]:
        argv = ["learn", "--data", str(self.data), "--mode", self.mode]
        if self.q is not None:
            argv += ["--q", str(self.q)]
        if self.approx:
            argv.append("--approx")
        return argv + ["--capacity", str(self.capacity), "--out", str(self.report)]

    @property
    def allowed_exits(self) -> set[int]:
        # approximate modes may legitimately miss the boundary condition
        return {0, 2} if self.approx else {0}


@dataclasses.dataclass
class Score:
    key: str
    learned: Learn  # whose capacity is scored
    objects: tuple
    reduced: str  # qmax | qmin: which reduced form the check compares
    q: int
    held: Path | None  # CLI input file; None scores through the library
    out: Path


@dataclasses.dataclass
class Dataset:
    learns: list[Learn]
    scores: list[Score]


def _held_file(path: Path, case: Case, writer) -> Path:
    writer(path, case.held_out, [inputs.sugeno_ref(case.hidden, x) for x in case.held_out])
    return path


def build_exact_dense(rng, shape: Shape, d: Path, tag: str) -> Dataset:
    case = make_case(rng, inputs.random_capacity(rng, shape.n), shape.rows, shape.held_out)
    data = d / f"{tag}.json"
    inputs.write_json(data, case.objects, case.targets)
    held = _held_file(d / f"{tag}-held.json", case, inputs.write_json)
    learns = [
        Learn(f"{tag}/{m}", m, False, None, case, data, d / f"{tag}-{m}.report.json",
              d / f"{tag}-{m}.capacity.json")
        for m in ("greatest", "lowest")
    ]
    scores = [
        Score(f"{tag}/eval-{lr.mode}", lr, case.held_out, "qmax", shape.n, held,
              d / f"{tag}-eval-{lr.mode}.json")
        for lr in learns
    ]
    return Dataset(learns, scores)


def build_approx_noisy(rng, shape: Shape, d: Path, tag: str) -> Dataset:
    # each mode gets data from a hidden capacity of its own class, so the
    # hidden capacity bounds the distance by the noise in both
    hidden = inputs.random_qmax_capacity(rng, shape.n, shape.q)
    learns, scores = [], []
    for mode, idx in (("qmax", hidden), ("qmin", inputs.conjugate(hidden))):
        case = make_case(rng, idx, shape.rows, shape.held_out, noise=2)
        data = d / f"{tag}-{mode}.csv"
        inputs.write_csv(data, case.objects, case.targets)
        held = _held_file(d / f"{tag}-{mode}-held.csv", case, inputs.write_csv)
        lr = Learn(f"{tag}/{mode}", mode, True, shape.q, case, data,
                   d / f"{tag}-{mode}.report.json", d / f"{tag}-{mode}.capacity.json")
        learns.append(lr)
        scores.append(Score(f"{tag}/eval-{mode}", lr, case.held_out, mode, shape.q, held,
                            d / f"{tag}-eval-{mode}.json"))
    return Dataset(learns, scores)


def build_qmode_wide(rng, shape: Shape, d: Path, tag: str) -> Dataset:
    hidden = inputs.random_qmax_capacity(rng, shape.n, shape.q)
    clean = make_case(rng, hidden, shape.rows, shape.held_out)
    noisy = make_case(rng, hidden, shape.rows, 0, noise=1)
    learns = []
    for label, case, approx in (("qmax", clean, False), ("qmax-approx", noisy, True)):
        data = d / f"{tag}-{label}.json"
        inputs.write_json(data, case.objects, case.targets)
        learns.append(Learn(f"{tag}/{label}", "qmax", approx, shape.q, case, data,
                            d / f"{tag}-{label}.report.json",
                            d / f"{tag}-{label}.capacity.json"))
    # scoring reads the capacity file the exact learn call wrote
    scores = [Score(f"{tag}/score-qmax", learns[0], clean.held_out, "qmax", shape.q, None,
                    d / f"{tag}-score.json")]
    return Dataset(learns, scores)


BUILDERS = {
    "exact-dense": build_exact_dense,
    "approx-noisy": build_approx_noisy,
    "qmode-wide": build_qmode_wide,
}


def build_inputs(workload: str, seed: int, shape: Shape, d: Path, tag: str) -> list[Dataset]:
    return [
        BUILDERS[workload](random.Random(f"{workload}:{seed}:{tag}:{k}"), shape, d, f"{tag}{k}")
        for k in range(shape.pool)
    ]


# ---------------------------------------------------------------------------
# the closed loop


@dataclasses.dataclass
class Outputs:
    """First output per operation key, and the keys of every attempt."""

    first: dict[str, tuple[int, bytes, bytes | None]] = dataclasses.field(default_factory=dict)
    # (key, ok so far)
    attempts: list[tuple[str, bool]] = dataclasses.field(default_factory=list)

    def record(self, key: str, rc: int, main: bytes, extra: bytes | None) -> bool:
        seen = self.first.setdefault(key, (rc, main, extra))
        same = seen == (rc, main, extra)
        self.attempts.append((key, same))
        return same

    def fail(self, key: str) -> None:
        self.attempts.append((key, False))


@dataclasses.dataclass
class RoundTimes:
    """Operation seconds of one round, raw and scaled to the reference speed."""

    learn_s: float = 0.0
    raw_learn_s: float = 0.0
    learn_calls: int = 0
    score_s: float = 0.0
    raw_score_s: float = 0.0
    evals: int = 0
    wall_s: float = 0.0

    @property
    def scale(self) -> float:
        raw = self.raw_learn_s + self.raw_score_s
        return (self.learn_s + self.score_s) / raw if raw else 1.0


class Runner:
    def __init__(self, caplearn, outputs: Outputs, kernel: Kernel):
        self.caplearn = caplearn
        self.outputs = outputs
        self.kernel = kernel
        self.kernel_s = kernel.seconds()  # the latest kernel time
        self.kernel_total_s = 0.0  # time spent in the kernel, kept out of set-up
        self.tracer = None
        self.errors = 0

    def _call(self, name, fn, *args):
        if self.tracer is not None:
            return self.tracer.op(name, fn, *args)
        return fn(*args)

    def _guarded(self, key, name, fn, *args):
        """Time one operation: (result, raw seconds, scaled seconds).

        An exception counts as a failed operation and returns no result.
        """
        before = self.kernel_s
        t0 = time.perf_counter()
        try:
            result = self._call(name, fn, *args)
        except Exception:  # noqa: BLE001 - the loop must survive any failure
            if self.errors < 3:
                traceback.print_exc(file=sys.stderr)
            self.errors += 1
            self.outputs.fail(key)
            return None, 0.0, 0.0
        dt = time.perf_counter() - t0
        self.kernel_s = self.kernel.seconds()
        self.kernel_total_s += self.kernel_s
        return result, dt, dt * 2 * REF_KERNEL_S / (before + self.kernel_s)

    def _library_score(self, path: Path, objects, q: int) -> list[float]:
        mu = self.caplearn.io.load_capacity(path)
        return [self.caplearn.sugeno.sugeno_qmax(mu, x, q) for x in objects]

    def round(self, ds: Dataset) -> RoundTimes:
        t = RoundTimes()
        start = time.perf_counter()
        produced = set()
        for lr in ds.learns:
            rc, dt, scaled = self._guarded(lr.key, "learn", self.caplearn.cli.main, lr.argv())
            if rc is None:
                continue
            t.raw_learn_s += dt
            t.learn_s += scaled
            t.learn_calls += 1
            if rc not in lr.allowed_exits:
                print(f"perfbench: {lr.key} exited {rc}", file=sys.stderr)
                self.outputs.fail(lr.key)
                continue
            cap = lr.capacity.read_bytes() if rc == 0 else None
            if self.outputs.record(lr.key, rc, lr.report.read_bytes(), cap) and rc == 0:
                produced.add(lr.key)
        for sc in ds.scores:
            if sc.learned.key not in produced:
                continue
            if sc.held is None:
                values, dt, scaled = self._guarded(sc.key, "score", self._library_score,
                                                   sc.learned.capacity, sc.objects, sc.q)
                main = json.dumps(values).encode() if values is not None else None
            else:
                argv = ["eval", "--capacity", str(sc.learned.capacity), "--data",
                        str(sc.held), "--out", str(sc.out)]
                rc, dt, scaled = self._guarded(sc.key, "eval", self.caplearn.cli.main, argv)
                if rc is not None and rc != 0:
                    print(f"perfbench: {sc.key} exited {rc}", file=sys.stderr)
                    self.outputs.fail(sc.key)
                    continue
                main = sc.out.read_bytes() if rc is not None else None
            if main is None:
                continue
            t.raw_score_s += dt
            t.score_s += scaled
            t.evals += len(sc.objects)
            self.outputs.record(sc.key, 0, main, None)
        t.wall_s = time.perf_counter() - start
        return t


# ---------------------------------------------------------------------------
# checks, negative controls and digest


def check_outputs(datasets: list[Dataset], outputs: Outputs) -> dict[str, list[str]]:
    """Problems per operation key, checking each distinct output once."""
    import checks  # imports caplearn, so only after import_caplearn()

    def learned(lr):
        _, report, cap = outputs.first[lr.key]
        return checks.learn_problems(lr.mode, lr.approx, lr.q, lr.case, json.loads(report),
                                     json.loads(cap) if cap is not None else None)

    def scored(sc):
        capacity = json.loads(outputs.first[sc.learned.key][2])
        doc = json.loads(outputs.first[sc.key][1])
        values, found = (doc, []) if sc.held is None else checks.cli_eval_values(doc)
        return found + checks.score_problems(capacity, sc.objects, values, sc.reduced, sc.q)

    problems: dict[str, list[str]] = {}
    for ds in datasets:
        for op, check in [(lr, learned) for lr in ds.learns] + [(sc, scored) for sc in ds.scores]:
            if op.key in outputs.first:
                try:
                    problems[op.key] = check(op)
                except (ValueError, KeyError, TypeError) as exc:
                    problems[op.key] = [f"unreadable output: {exc!r}"]
    return problems


def negative_controls(datasets: list[Dataset], outputs: Outputs) -> list[str]:
    """Corrupted copies of real outputs; each must be flagged by the checks."""
    import checks  # imports caplearn, so only after import_caplearn()

    learned = [lr for ds in datasets for lr in ds.learns
               if lr.key in outputs.first and outputs.first[lr.key][2] is not None]
    if not learned:
        return ["no learned capacity to corrupt"]
    unflagged = []
    lr = learned[0]
    report = json.loads(outputs.first[lr.key][1])
    capacity = json.loads(outputs.first[lr.key][2])
    values = capacity["values"]
    # lower one value below a subset's value: the first set of size >= 2
    # that has a positive one-smaller subset drops to 0
    mask = next((m for m in range(len(values)) if m.bit_count() >= 2
                 and any(values[m ^ (1 << i)] > 0.0 for i in range(m.bit_length())
                         if m >> i & 1)), len(values) - 1)
    lowered = dict(capacity, values=values[:mask] + [0.0] + values[mask + 1:])
    if not checks.learn_problems(lr.mode, lr.approx, lr.q, lr.case,
                                 dict(report, capacity=lowered), lowered):
        unflagged.append(f"{lr.key}: value at {mask:#x} lowered")
    approx = [x for x in learned if x.approx] or learned
    lr = approx[0]
    report = json.loads(outputs.first[lr.key][1])
    capacity = json.loads(outputs.first[lr.key][2])
    wrong = (report["distance"] or 0.0) + 0.5 / LEVELS
    if not checks.learn_problems(lr.mode, lr.approx, lr.q, lr.case,
                                 dict(report, distance=wrong), capacity):
        unflagged.append(f"{lr.key}: distance {wrong!r}")
    return unflagged


def digest(outputs: Outputs) -> str:
    h = hashlib.sha256()
    for key in sorted(outputs.first):
        rc, main, extra = outputs.first[key]
        h.update(f"{key}\0{rc}\0".encode() + main + b"\0" + (extra or b""))
    return h.hexdigest()


def src_lines() -> int:
    count = 0
    for path in sorted((SRC / "caplearn").rglob("*.py")):
        for line in path.read_text().splitlines():
            stripped = line.strip()
            count += bool(stripped) and not stripped.startswith("#")
    return count


# ---------------------------------------------------------------------------
# metrics


def end_to_end(rounds: list[RoundTimes], pool: int, setup_s: float, rss_mb: float,
               scaled=True) -> dict:
    def learn(rs):
        return sum(r.learn_s if scaled else r.raw_learn_s for r in rs)

    def score(rs):
        return sum(r.score_s if scaled else r.raw_score_s for r in rs)

    # Medians are taken over passes: every run of `pool` consecutive rounds
    # holds each dataset once.  Datasets differ in cost (an approximate mode
    # may stop at exit 2), so a median over single rounds could land
    # between clusters and jump from run to run.
    passes = [rounds[i:i + pool] for i in range(len(rounds) - pool + 1)]
    per_call = [learn(w) / sum(r.learn_calls for r in w) for w in passes]
    scored = [sum(r.evals for r in w) / score(w) for w in passes if score(w)]
    return {
        "learn_per_s": (sum(r.learn_calls for r in rounds) / learn(rounds), "1/s"),
        "learn_s_p50": (statistics.median(per_call), "s"),
        "evals_per_s": (statistics.median(scored) if scored else 0.0, "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def per_layer(rounds: list[RoundTimes], plain: list[RoundTimes], tracer) -> dict:
    per = len(rounds)
    self_s = tracer.self_times()
    counts = tracer.counts
    evals = sum(r.evals for r in rounds) or 1

    scale = statistics.mean(r.scale for r in rounds)

    def seconds(*names):
        return (sum(self_s.get(name, 0.0) for name in names) * scale / per, "s/round")

    overhead = (statistics.median(r.wall_s * r.scale for r in rounds)
                - statistics.median(r.wall_s * r.scale for r in plain))
    return {
        "io.parse_s": seconds("io.parse"),
        "io.write_s": seconds("io.write"),
        "io.bytes_out": (counts["io.bytes_out"] / per, "bytes/round"),
        "learning.build_s": seconds("learning.build"),
        "learning.cells": (counts["learning.cells"] / per, "count/round"),
        "learning.validate_s": seconds("learning.validate"),
        "learning.extend_s": seconds("learning.extend"),
        "learning.residuals_s": seconds("learning.residuals"),
        "learning.self_s": seconds("learning"),
        "learning.capacity_yield": (
            counts["learning.capacities"] / max(counts["learning.calls"], 1), "ratio"),
        "relational.solve_s": seconds("relational.solve"),
        "relational.apply_s": seconds("relational.apply"),
        "chebyshev.distance_s": seconds("chebyshev.distance"),
        "chebyshev.approx_s": seconds("chebyshev.approx"),
        "chebyshev.cross_terms": (counts["chebyshev.cross_terms"] / per, "count/round"),
        "sugeno.eval_s": seconds("sugeno.eval"),
        "sugeno.subsets_visited": (counts["sugeno.subsets_visited"] / evals, "count/eval"),
        "capacity.check_s": seconds("capacity.check"),
        "capacity.checks_per_eval": (counts["capacity.checks"] / evals, "ratio"),
        "cli.self_s": seconds("cli"),
        "bench.self_s": seconds("op.learn", "op.eval", "op.score"),
        "trace.overhead_s": (overhead, "s/round"),
        "trace.missing_spans": (len(tracer.missing) + len(tracer.hook_errors), "count"),
        "src.lines": (src_lines(), "count"),
    }


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SHAPES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    kernel = Kernel()
    before = kernel.seconds()
    caplearn, imports = import_caplearn()
    scale = 2 * REF_KERNEL_S / (before + kernel.seconds())
    import_s = (statistics.median(imports), statistics.median(imports) * scale)
    work = ROOT / "perfbench" / "work" / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return measure(caplearn, kernel, args, work, import_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()


def measure(caplearn, kernel: Kernel, args, work: Path, import_s: tuple[float, float]) -> int:
    outputs = Outputs()
    runner = Runner(caplearn, outputs, kernel)
    before = runner.kernel_s
    setups = []
    for i in range(SETUP_REPEATS):
        t0 = time.perf_counter() - runner.kernel_total_s
        datasets = build_inputs(args.workload, args.seed, SHAPES[args.workload], work, "d")
        warm = build_inputs(args.workload, args.seed, warmup_shape(SHAPES[args.workload]),
                            work, "w")
        for ds in warm:
            runner.round(ds)
        took = time.perf_counter() - runner.kernel_total_s - t0
        after = runner.kernel_s = kernel.seconds()
        setups.append((took, 2 * REF_KERNEL_S / (before + after)))
        before = after
    raw_setup_s = import_s[0] + statistics.median(t for t, _ in setups)
    setup_s = import_s[1] + statistics.median(t * f for t, f in setups)

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    traced, plain = [], []
    deadline = time.perf_counter() + args.seconds
    k = 0
    # at least one pass over the pool, so every dataset is checked
    while k < len(datasets) or time.perf_counter() < deadline:
        ds = datasets[k % len(datasets)]
        if tracer is None:
            plain.append(runner.round(ds))
        else:
            # a plain and a traced round on the same data, in alternating
            # order; their difference is the tracing overhead
            for traced_now in ((False, True) if k % 2 == 0 else (True, False)):
                if traced_now:
                    tracer.install()
                    runner.tracer = tracer
                    try:
                        traced.append(runner.round(ds))
                    finally:
                        runner.tracer = None
                        tracer.uninstall()
                else:
                    plain.append(runner.round(ds))
        k += 1
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = check_outputs(datasets + warm, outputs)
    failed = sum(1 for key, ok in outputs.attempts if not ok or problems.get(key))
    for key, found in sorted(problems.items()):
        for p in found:
            print(f"perfbench: check failed: {key}: {p}", file=sys.stderr)
    unflagged = negative_controls(datasets, outputs)
    for p in unflagged:
        print(f"perfbench: negative control not flagged: {p}", file=sys.stderr)
    if tracer is not None:
        for name in sorted(tracer.missing | tracer.hook_errors):
            print(f"perfbench: missing span: {name}", file=sys.stderr)

    rounds = traced or plain
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(rounds)} rounds, {len(outputs.attempts)} operations, {failed} failed, "
          f"speed scale {statistics.median(r.scale for r in rounds):.3f}")
    if tracer is None:
        metrics = end_to_end(plain, len(datasets), setup_s, rss_mb)
        raw = end_to_end(plain, len(datasets), raw_setup_s, rss_mb, scaled=False)
        for name, (value, unit) in metrics.items():
            print(f"  {name:<26} {value:>14.6g} {unit:<12} raw {raw[name][0]:.6g}")
    else:
        metrics = per_layer(traced, plain, tracer)
        for name, (value, unit) in metrics.items():
            print(f"  {name:<26} {value:>14.6g} {unit}")
    print(f"digest sha256 {digest(outputs)}")
    result = {
        "correct": failed == 0 and not unflagged,
        "attempted": len(outputs.attempts),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
