"""Golden corpus: every CLI subcommand on fixed inputs, compared byte for byte.

The inputs live in ``tests/golden``: the paper's three-criteria set (as
chain JSON and as CSV), consistent and noisy sets on the 21-level chain and
on [0, 1], a non-symmetric chain, an n = 1 and an N = 1 set, a tiny set for
the oracle, a consistent and an inconsistent system of each kind, and four
capacity files.  Only the ``ties_zeros`` sets and ``mu_zeros.json``, which
``eval --data`` scores, hold a negative zero: their objects tie coordinates
and mix zeros of both signs.  ``golden/expected.json``
stores each command's exit code and canonical stdout.  After a deliberate
output change, rewrite it with

    PYTHONPATH=src python tests/test_golden.py

and review the diff.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from caplearn.cli import main

GOLDEN = Path(__file__).parent / "golden"
EXPECTED = GOLDEN / "expected.json"

# (data file, q) for every learn and distance run
DATASETS = [
    ("paper.json", 2),
    ("paper.csv", 1),
    ("chain_consistent.json", 2),
    ("chain_noisy.json", 3),
    ("unit_consistent.csv", 2),
    ("unit_noisy.csv", 2),
    ("skewed_chain.json", 2),
    ("single_criterion.json", 1),
    ("single_item.csv", 2),
]

LEARN_MODES = [
    ("greatest", False, False),
    ("lowest", False, False),
    ("qmax", True, False),
    ("qmin", True, False),
    ("qmax", True, True),
    ("qmin", True, True),
]


def _cases() -> dict[str, list[str]]:
    cases: dict[str, list[str]] = {}
    for data, q in DATASETS:
        for mode, takes_q, approx in LEARN_MODES:
            argv = ["learn", "--data", data, "--mode", mode]
            argv += ["--q", str(q)] if takes_q else []
            argv += ["--approx"] if approx else []
            cases[f"{data} learn {mode}{' approx' if approx else ''}"] = argv
        for kind in ("maxmin", "minmax"):
            cases[f"{data} distance {kind} q"] = [
                "distance", "--data", data, "--type", kind, "--q", str(q)
            ]
            cases[f"{data} distance {kind}"] = ["distance", "--data", data, "--type", kind]
    cases.update(
        {
            "learn table": ["learn", "--data", "paper.csv", "--mode", "qmin", "--q", "2",
                            "--approx", "--format", "table"],
            "learn missing q": ["learn", "--data", "paper.csv", "--mode", "qmax"],
            "learn approx greatest": ["learn", "--data", "paper.csv", "--mode", "greatest",
                                      "--approx"],
            "learn q out of range": ["learn", "--data", "paper.json", "--mode", "qmax",
                                     "--q", "4"],
            "eval object": ["eval", "--capacity", "mu_paper.json", "--object",
                            "0.5,0.25,0.3"],
            "eval data": ["eval", "--capacity", "mu_paper.json", "--data", "paper.csv"],
            "eval skewed": ["eval", "--capacity", "mu_skewed.json", "--data",
                            "skewed_chain.json"],
            "eval ties zeros": ["eval", "--capacity", "mu_paper.json", "--data",
                                "ties_zeros.csv"],
            "eval ties zeros signed": ["eval", "--capacity", "mu_zeros.json", "--data",
                                       "ties_zeros.csv"],
            "eval ties zeros chain": ["eval", "--capacity", "mu_skewed.json", "--data",
                                      "ties_zeros_chain.json"],
            "eval ties zeros table": ["eval", "--capacity", "mu_zeros.json", "--data",
                                      "ties_zeros_chain.json", "--format", "table"],
            "eval table": ["eval", "--capacity", "mu_skewed.json", "--object", "0.7,0.1,1",
                           "--format", "table"],
            "eval broken": ["eval", "--capacity", "mu_broken.json", "--object", "0.5,0.5"],
            "check paper": ["check", "--capacity", "mu_paper.json"],
            "check paper q2": ["check", "--capacity", "mu_paper.json", "--q", "2"],
            "check paper q1": ["check", "--capacity", "mu_paper.json", "--q", "1"],
            "check skewed q1": ["check", "--capacity", "mu_skewed.json", "--q", "1"],
            "check broken": ["check", "--capacity", "mu_broken.json", "--q", "1"],
            "distance system maxmin": ["distance", "--data", "system_maxmin.json"],
            "distance system minmax": ["distance", "--data", "system_minmax.json"],
            "distance table": ["distance", "--data", "system_minmax.json",
                               "--format", "table"],
            "oracle tiny qmax": ["oracle", "--data", "tiny.json", "--mode", "qmax", "--q", "1",
                                 "--grid-step", "0.25"],
            "oracle tiny qmin": ["oracle", "--data", "tiny.json", "--mode", "qmin", "--q", "1",
                                 "--grid-step", "0.25"],
            "oracle tiny qmax full": ["oracle", "--data", "tiny.json", "--mode", "qmax",
                                      "--grid-step", "0.5"],
            "oracle system maxmin": ["oracle", "--data", "system_maxmin.json",
                                     "--grid-step", "0.25"],
            "oracle system minmax": ["oracle", "--data", "system_minmax.json",
                                     "--grid-step", "0.25"],
            "oracle consistent maxmin": ["oracle", "--data", "consistent_maxmin.json",
                                         "--grid-step", "0.25"],
            "oracle consistent minmax": ["oracle", "--data", "consistent_minmax.json",
                                         "--grid-step", "0.25"],
            "oracle budget": ["oracle", "--data", "paper.json", "--q", "3", "--budget", "10"],
        }
    )
    return cases


CASES = _cases()
FILE_FLAGS = {"--data", "--capacity"}


def run_case(argv: list[str]) -> dict:
    resolved = [
        str(GOLDEN / arg) if prev in FILE_FLAGS else arg
        for prev, arg in zip([None] + argv, argv)
    ]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(resolved)
    return {"argv": argv, "exit": code, "stdout": stdout.getvalue()}


@pytest.fixture(scope="module")
def expected() -> dict:
    return json.loads(EXPECTED.read_text(encoding="utf-8"))


def test_corpus_lists_every_case(expected):
    assert sorted(expected) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_is_unchanged(name, expected):
    assert run_case(CASES[name]) == expected[name]


def write_expected() -> None:
    doc = {name: run_case(argv) for name, argv in CASES.items()}
    EXPECTED.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    write_expected()
