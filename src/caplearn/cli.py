"""Command-line interface.

Subcommands: learn (fit a capacity to training data), eval (Sugeno integral
of an object under a stored capacity), check (capacity axioms and
q-properties), distance (Chebyshev distance of the induced system), oracle
(formula-versus-brute-force comparisons).

Exit codes: 0 success, 1 input error, 2 condition failure (data is valid
but the requested property does not hold), 3 enumeration budget refusal.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Any

from .capacity import _check_q, capacity_violations, is_q_maxitive, is_q_minitive
from .chebyshev import chebyshev_distance, relaxed_rhs
from .errors import BudgetError, CaplearnError, DomainError
from .io import (
    CanonicalText,
    dumps_json,
    load_capacity,
    load_data,
    load_training_set,
    report_to_json,
    save_capacity,
)
from .learning import LearnMode, _labels, _per_row, learn, validate_data
from .oracle import DEFAULT_BUDGET, grid_levels, system_checks, training_checks
from .relational import RelationalSystem, SystemKind
from .scale import ScaleKind
from .subsets import subset_label
from .sugeno import integrals, sugeno_maxmin, sugeno_minmax

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CONDITION = 2
EXIT_BUDGET = 3


class _Parser(argparse.ArgumentParser):
    # usage mistakes are input errors (exit 1), not argparse's default exit 2,
    # which this tool reserves for condition failures
    def error(self, message):
        raise DomainError(message)


# parsing leaves the parser as it found it, so one per process serves every main()
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="caplearn",
        description="Learn and evaluate capacities for Sugeno integrals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    learn_p = sub.add_parser("learn", help="fit a capacity to training data")
    learn_p.add_argument("--data", required=True, help="training CSV or JSON file")
    learn_p.add_argument(
        "--mode", required=True, choices=["greatest", "lowest", "qmax", "qmin"]
    )
    learn_p.add_argument("--q", type=int, help="cardinality bound for qmax/qmin")
    learn_p.add_argument(
        "--approx", action="store_true", help="tolerate inconsistency (qmax/qmin only)"
    )
    learn_p.add_argument("--capacity", help="where to write the learned capacity JSON")
    learn_p.set_defaults(run=_cmd_learn)
    _common_flags(learn_p)

    eval_p = sub.add_parser("eval", help="evaluate the Sugeno integral of objects")
    eval_p.add_argument("--capacity", required=True, help="capacity JSON file")
    eval_p.add_argument(
        "--object",
        help="comma-separated coordinates, e.g. 0.2,0.5,0.3; write --object=-0.0,0.5 when"
        " the first starts with a minus sign, which argparse would take for an option",
    )
    eval_p.add_argument("--data", help="training file; evaluates every row")
    eval_p.set_defaults(run=_cmd_eval)
    _common_flags(eval_p)

    check_p = sub.add_parser("check", help="verify capacity axioms and q-properties")
    check_p.add_argument("--capacity", required=True)
    check_p.add_argument("--q", type=int)
    check_p.set_defaults(run=_cmd_check)
    _common_flags(check_p)

    dist_p = sub.add_parser("distance", help="Chebyshev distance of the induced system")
    dist_p.add_argument("--data", required=True, help="training file or system JSON")
    dist_p.add_argument("--type", choices=["maxmin", "minmax"], help="default maxmin")
    dist_p.add_argument("--q", type=int)
    dist_p.set_defaults(run=_cmd_distance)
    _common_flags(dist_p)

    oracle_p = sub.add_parser("oracle", help="compare formulas against brute force")
    oracle_p.add_argument("--data", required=True, help="training file or system JSON")
    oracle_p.add_argument("--mode", choices=["qmax", "qmin"], help="default qmax")
    oracle_p.add_argument("--q", type=int)
    oracle_p.add_argument("--grid-step", type=float, default=0.05)
    oracle_p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    oracle_p.set_defaults(run=_cmd_oracle)
    _common_flags(oracle_p)
    return parser


def _common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", help="where to write the report (default stdout)")
    p.add_argument("--format", choices=["json", "table"], default="json")


def _table_lines(payload: dict | list, prefix: str = "") -> list[str]:
    if isinstance(payload, dict):
        marked = [(f"{key}:", value) for key, value in payload.items()]
    else:
        marked = [("-", value) for value in payload]
    lines: list[str] = []
    for mark, value in marked:
        if isinstance(value, (dict, list)):
            lines.append(f"{prefix}{mark}")
            lines.extend(_table_lines(value, prefix + "  "))
        else:
            lines.append(f"{prefix}{mark} {_table_scalar(value)}")
    return lines


def _table_scalar(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


def _emit(payload: Any, fmt: str, out_path: str | None) -> None:
    if fmt == "json":
        text = dumps_json(payload)
    else:
        text = "\n".join(_table_lines(payload)) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _fail(message: str, code: int) -> int:
    print(f"caplearn: {message}", file=sys.stderr)
    return code


def _cmd_learn(args) -> int:
    # usage errors exit before any file is read
    if args.mode in ("qmax", "qmin"):
        if args.q is None:
            raise DomainError(f"--mode {args.mode} requires --q")
        mode = LearnMode(args.mode + ("_approx" if args.approx else ""))
    else:
        if args.approx:
            raise DomainError("--approx applies to qmax/qmin modes only")
        if args.q is not None:
            raise DomainError(f"--mode {args.mode} does not take --q")
        mode = LearnMode(args.mode)
    ts = load_training_set(args.data)
    report = learn(ts, mode, args.q)
    payload = report_to_json(report)
    data_problems = validate_data(ts)
    if data_problems:
        payload["data_warnings"] = [v.message for v in data_problems]
    # the capacity file and a JSON report share one encoding of the 2^n
    # values; the file is written first, so a failed write leaves no report
    if report.capacity is not None and args.capacity:
        text = CanonicalText(dumps_json(payload["capacity"]))
        if args.format == "json":
            payload["capacity"] = text
        save_capacity(report.capacity, args.capacity, text=text)
    _emit(payload, args.format, args.out)
    return EXIT_OK if report.capacity is not None else EXIT_CONDITION


def _cmd_eval(args) -> int:
    # a usage error exits before any file is read
    if (args.object is None) == (args.data is None):
        raise DomainError("eval needs exactly one of --object or --data")
    mu = load_capacity(args.capacity)
    problems = capacity_violations(mu.values, mu.n)
    if problems:
        for msg in problems:
            print(f"caplearn: {msg}", file=sys.stderr)
        return EXIT_INPUT
    if args.object is not None:
        coords = _parse_object(args.object)
        payload = _evaluation(coords, sugeno_maxmin(mu, coords), sugeno_minmax(mu, coords))
    else:
        ts = load_training_set(args.data)
        scores = integrals(mu, [item.x for item in ts.items])
        payload = {"evaluations": [
            _evaluation(item.x, lo, hi, item.alpha) for item, (lo, hi) in zip(ts.items, scores)
        ]}
    _emit(payload, args.format, args.out)
    return EXIT_OK


def _parse_object(text: str) -> tuple[float, ...]:
    try:
        if "_" in text:  # float() reads PEP 515 underscores: "0.2_5" is 0.25
            raise ValueError("underscores are not allowed in numbers")
        return tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise DomainError(f"cannot parse object {text!r}: {exc}") from exc


def _evaluation(coords, lo: float, hi: float, alpha: float | None = None) -> dict:
    assert lo == hi, "the two integral formulas disagree; this is a bug"
    out = {"x": list(coords), "maxmin": lo, "minmax": hi, "value": lo}
    if alpha is not None:
        out["alpha"] = alpha
        out["residual"] = lo - alpha
    return out


def _cmd_check(args) -> int:
    mu = load_capacity(args.capacity)
    if args.q is not None:
        _check_q(args.q, mu.n)
    problems = capacity_violations(mu.values, mu.n)
    payload: dict[str, Any] = {
        "n": mu.n,
        "is_capacity": not problems,
        "violations": problems,
    }
    if args.q is not None and not problems:
        payload["q"] = args.q
        payload["q_maxitive"] = is_q_maxitive(mu, args.q)
        payload["q_minitive"] = is_q_minitive(mu, args.q)
    _emit(payload, args.format, args.out)
    return EXIT_OK if not problems else EXIT_CONDITION


def _load_data(args, kind_flag: str):
    """--data's system or training set; a system refuses ``kind_flag`` and --q."""
    data = load_data(args.data)
    if isinstance(data, RelationalSystem):
        flags = " and ".join(f"--{f}" for f in (kind_flag, "q") if getattr(args, f) is not None)
        if flags:
            raise DomainError(f"a system JSON fixes its kind and columns; {flags} cannot apply")
    return data


def _cmd_distance(args) -> int:
    data = _load_data(args, "type")
    if isinstance(data, RelationalSystem):
        kind, rhs, labels = data.kind, data.rhs, data.column_labels
        per_row = chebyshev_distance(data).per_row
    else:
        # the system's per_row and labels, from the training set's columns
        kind, rhs = SystemKind(args.type or "maxmin"), data.targets()
        q = data.n if args.q is None else _check_q(args.q, data.n)
        per_row, labels = _per_row(data, kind, q), _labels(data.n, kind, q)
    distance = max(per_row)
    payload: dict[str, Any] = {
        "kind": kind.value,
        "distance": distance,
        "per_row": list(per_row),
        "bounded_rhs": list(relaxed_rhs(rhs, distance, kind)),
        "consistent": distance == 0.0,
        "columns": [
            subset_label(lbl) if isinstance(lbl, int) and lbl >= 0 else str(lbl)
            for lbl in labels
        ],
    }
    if data.scale.kind is ScaleKind.FINITE_CHAIN:
        payload["warning"] = (
            "finite-chain values were embedded in [0, 1]; distances and"
            " approximate solutions may fall between chain levels"
        )
    _emit(payload, args.format, args.out)
    return EXIT_OK


def _cmd_oracle(args) -> int:
    # a refused grid exits before any file is read
    levels = grid_levels(args.grid_step, args.budget)
    data = _load_data(args, "mode")
    if isinstance(data, RelationalSystem):
        checks = system_checks(data, levels, args.budget)
    else:
        checks = training_checks(data, levels, args.budget, args.q, args.mode)
    ok = all(c["ok"] for c in checks)
    _emit({"ok": ok, "checks": checks}, args.format, args.out)
    return EXIT_OK if ok else EXIT_CONDITION


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.run(args)
    except BudgetError as exc:
        return _fail(str(exc), EXIT_BUDGET)
    except CaplearnError as exc:
        return _fail(str(exc), EXIT_INPUT)
    except OSError as exc:
        return _fail(str(exc), EXIT_INPUT)


if __name__ == "__main__":
    raise SystemExit(main())
