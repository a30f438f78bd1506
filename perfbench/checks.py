"""Output checks that do not trust the code under test.

Each check returns a list of problems; an empty list means the output is
right.  Capacity axioms, q-properties and integral values are recomputed
here from the raw JSON tables and the generator's hidden capacity.  Only
the "forms agree" check calls caplearn, because its point is that
caplearn's own formulas agree with each other and with the reference.
"""

from __future__ import annotations

from caplearn import io, sugeno

from inputs import LEVELS, Case, bits, sugeno_ref

TOL = 1e-9  # caplearn's default tolerance for off-lattice values
MAX_PROBLEMS = 5


def capacity_problems(values, n: int) -> list[str]:
    """Boundary values and monotonicity on covering pairs."""
    size = 1 << n
    if len(values) != size:
        return [f"capacity has {len(values)} values, expected {size}"]
    out = []
    if values[0] != 0.0:
        out.append(f"empty set has {values[0]!r}")
    if values[-1] != 1.0:
        out.append(f"full set has {values[-1]!r}")
    full = size - 1
    for mask in range(size):
        for b in bits(full ^ mask):
            if values[mask] > values[mask | b]:
                out.append(f"not monotone at {mask:#x} < {mask | b:#x}")
                if len(out) >= MAX_PROBLEMS:
                    return out
    return out


def q_problems(values, n: int, q: int, mode: str) -> list[str]:
    """q-maxitive: each set above size q is the max of its one-smaller subsets.

    q-minitive (dual): each set below size n - q is the min of its
    one-larger supersets.  By induction these equal the defining max over
    small subsets and min over large supersets.
    """
    full = (1 << n) - 1
    out = []
    for mask in range(1 << n):
        size = mask.bit_count()
        if mode == "qmax" and size > q:
            want = max(values[mask ^ b] for b in bits(mask))
        elif mode == "qmin" and size < n - q:
            want = min(values[mask | b] for b in bits(full ^ mask))
        else:
            continue
        if values[mask] != want:
            out.append(f"not {q}-{mode[1:]}itive at {mask:#x}")
            if len(out) >= MAX_PROBLEMS:
                break
    return out


def closed_form(case: Case, mode: str, q: int | None) -> dict[int, float]:
    """The extremal solution each exact mode must return, per subset mask.

    greatest (and qmax on sets of size <= q): the smallest target among the
    items whose minimum inside the set exceeds their target, else 1.
    lowest: the largest target among the items whose maximum outside the
    set falls below their target, else 0.
    """
    n = case.n
    items = list(zip(case.objects, case.targets))
    full = (1 << n) - 1
    out = {}
    for mask in range(1 << n):
        inside = [i for i in range(n) if mask >> i & 1]
        if mode == "lowest":
            if mask == full:
                out[mask] = 1.0
                continue
            outside = [i for i in range(n) if not mask >> i & 1]
            out[mask] = max((a for x, a in items if max(x[i] for i in outside) < a),
                            default=0.0)
        elif mask and (q is None or len(inside) <= q):
            out[mask] = min((a for x, a in items if min(x[i] for i in inside) > a),
                            default=1.0)
    return out


def learn_problems(
    mode: str, approx: bool, q: int | None, case: Case, report: dict, capacity: dict | None
) -> list[str]:
    """Everything a learn report and its capacity file must satisfy."""
    out = []
    want_mode = mode + ("_approx" if approx else "")
    if report.get("mode") != want_mode:
        out.append(f"report mode {report.get('mode')!r}, expected {want_mode!r}")
    d = report.get("distance")
    if approx:
        if not isinstance(d, float) or d < 0.0 or d > case.noise / LEVELS + TOL:
            out.append(f"distance {d!r} outside [0, {case.noise}/{LEVELS}]")
            d = None
    elif d is not None:
        out.append(f"exact mode reports a distance {d!r}")
    if capacity is None:
        if report.get("capacity") is not None:
            out.append("report has a capacity but none was written")
        return out
    values = capacity["values"]
    n = case.n
    if capacity.get("n") != n or report.get("capacity") != capacity:
        out.append("capacity file differs from the report's capacity")
    out += capacity_problems(values, n)
    if q is not None:
        out += q_problems(values, n, q, mode)
    residuals = report.get("residuals") or []
    if len(residuals) != len(case.objects):
        return out + [f"{len(residuals)} residuals for {len(case.objects)} items"]
    for k, (x, alpha, r) in enumerate(zip(case.objects, case.targets, residuals)):
        if sugeno_ref(values, x) - alpha != r:
            out.append(f"item {k}: residual {r!r} is not the reference integral's")
            break
    if approx:
        worst = max(abs(r) for r in residuals)
        if d is not None and abs(worst - d) > TOL:
            out.append(f"max |residual| {worst!r} does not attain distance {d!r}")
    elif any(r != 0.0 for r in residuals):
        out.append("exact mode leaves a nonzero residual")
    if not approx:
        wrong = [m for m, v in closed_form(case, mode, q).items() if values[m] != v]
        if wrong:
            out.append(f"{len(wrong)} values differ from the closed-form {mode} solution")
    hidden = case.hidden
    if mode == "greatest" and any(v < h for v, h in zip(values, hidden)):
        out.append("greatest capacity lies below the hidden one somewhere")
    if mode == "lowest" and any(v > h for v, h in zip(values, hidden)):
        out.append("lowest capacity lies above the hidden one somewhere")
    if mode == "qmax" and not approx:
        for mask in range(1, 1 << n):
            if mask.bit_count() <= q and values[mask] < hidden[mask]:
                out.append(f"qmax capacity below the hidden one at {mask:#x}")
                break
    return out


def score_problems(capacity: dict, objects, values, mode: str, q: int) -> list[str]:
    """Scored values against the reference and caplearn's three forms.

    ``mode`` picks the reduced form: qmax (subsets of size <= q) or qmin
    (complements of size <= q); the full-table capacities pass q = n.
    """
    if len(values) != len(objects):
        return [f"{len(values)} scores for {len(objects)} objects"]
    mu = io.capacity_from_json(capacity)
    reduced = sugeno.sugeno_qmin_unchecked if mode == "qmin" else sugeno.sugeno_qmax_unchecked
    for k, (x, v) in enumerate(zip(objects, values)):
        forms = {
            v,
            sugeno_ref(capacity["values"], x),
            sugeno.sugeno_maxmin(mu, x),
            sugeno.sugeno_minmax(mu, x),
            reduced(mu, x, q),
        }
        if len(forms) != 1:
            return [f"object {k}: integral forms disagree: {sorted(forms)}"]
    return []


def cli_eval_values(doc: dict) -> tuple[list[float], list[str]]:
    """Values from ``caplearn eval --data`` output, with its own consistency."""
    values, out = [], []
    for k, e in enumerate(doc.get("evaluations", [])):
        if not e["maxmin"] == e["minmax"] == e["value"]:
            out.append(f"object {k}: maxmin, minmax and value differ")
        values.append(e["value"])
    return values, out
