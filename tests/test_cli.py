import codecs
import json
import math
import os
import random
import resource
import subprocess
import sys

import pytest

import caplearn.io
import caplearn.learning
from caplearn import (
    Capacity,
    DomainError,
    LearnMode,
    Scale,
    TrainingSet,
    learn,
    sugeno_maxmin,
    sugeno_minmax,
    validate_data,
)
from caplearn.cli import _table_lines, main
from caplearn.io import dumps_json, load_training_set, report_to_json, save_capacity

from helpers import (
    CHAIN21,
    FIVE_LEVELS,
    MU_E_VALUES,
    MU_F_VALUES,
    random_capacity,
    random_object,
    reference_training_set,
    save_system,
    save_training_set,
)
from test_golden import DATASETS, GOLDEN, LEARN_MODES

REFERENCE_CSV = """x1,x2,x3,alpha
0.15,0.2,0.3,0.2
0.5,0.25,0.3,0.3
0.4,0.7,0.35,0.4
"""

UNIT = Scale.unit_interval()


@pytest.fixture
def data_csv(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text(REFERENCE_CSV, encoding="utf-8")
    return str(path)


@pytest.fixture
def mu_e_path(tmp_path):
    path = tmp_path / "mu_e.json"
    save_capacity(Capacity(3, UNIT, MU_E_VALUES), path)
    return str(path)


@pytest.fixture
def mu_f_path(tmp_path):
    path = tmp_path / "mu_f.json"
    save_capacity(Capacity(3, UNIT, MU_F_VALUES), path)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestLearn:
    def test_greatest_writes_capacity(self, capsys, data_csv, tmp_path):
        cap_path = tmp_path / "learned.json"
        code, out, _ = run(
            capsys, "learn", "--data", data_csv, "--mode", "greatest",
            "--capacity", str(cap_path),
        )
        assert code == 0
        report = json.loads(out)
        assert report["consistent"] and report["boundary_ok"]
        stored = json.loads(cap_path.read_text(encoding="utf-8"))
        assert stored["values"] == list(MU_E_VALUES)

    def test_qmax_needs_q(self, capsys, data_csv):
        code, _, err = run(capsys, "learn", "--data", data_csv, "--mode", "qmax")
        assert code == 1
        assert "requires --q" in err

    def test_qmax_q1_condition_failure(self, capsys, data_csv):
        code, out, _ = run(
            capsys, "learn", "--data", data_csv, "--mode", "qmax", "--q", "1"
        )
        assert code == 2
        report = json.loads(out)
        assert report["consistent"] is True
        assert report["boundary_ok"] is False
        assert any("{2} = 0.4" in note for note in report["notes"])

    def test_approx_boundary_failure_skips_the_extension(self, capsys, data_csv, monkeypatch):
        def refused(*_):
            raise AssertionError("the table was extended or scored")

        monkeypatch.setattr(caplearn.learning, "extend_layer", refused)
        monkeypatch.setattr(caplearn.learning, "_products", refused)
        code, out, _ = run(
            capsys, "learn", "--data", data_csv, "--mode", "qmax", "--q", "1", "--approx"
        )
        assert code == 2
        report = json.loads(out)
        assert report["boundary_ok"] is False and report["capacity"] is None
        assert any("{2} = 0.4" in note for note in report["notes"])

    def test_contradictory_rows_fail_consistency(self, capsys, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("x1,x2,alpha\n0.5,0.6,0.5\n0.5,0.6,0.6\n", encoding="utf-8")
        code, out, _ = run(capsys, "learn", "--data", str(path), "--mode", "greatest")
        assert code == 2
        report = json.loads(out)
        assert report["consistent"] is False
        assert report["data_warnings"]

    def test_approx_mode_emits_distance(self, capsys, tmp_path):
        path = tmp_path / "noisy.csv"
        path.write_text(
            "x1,x2,x3,alpha\n0.15,0.2,0.3,0.2\n0.5,0.25,0.3,0.15\n0.4,0.7,0.35,0.4\n",
            encoding="utf-8",
        )
        code, out, _ = run(
            capsys, "learn", "--data", str(path), "--mode", "qmax", "--q", "2",
            "--approx",
        )
        assert code == 0
        report = json.loads(out)
        assert report["distance"] == pytest.approx(0.1, abs=1e-9)
        assert report["capacity"] is not None

    def test_tolerance_reaches_the_approximate_solve(self, capsys, tmp_path):
        # entries within the fixed tolerance beyond their relaxed targets stop
        # blocking, and the residuals still attain the distance
        json_path = tmp_path / "unit_noisy.json"
        save_training_set(load_training_set(GOLDEN / "unit_noisy.csv"), json_path)
        for path in (GOLDEN / "unit_noisy.csv", json_path):
            code, out, _ = run(capsys, "learn", "--data", str(path), "--mode", "qmax", "--q", "2",
                               "--approx")
            assert code == 0
            report = json.loads(out)
            assert report["capacity"]["values"][:4] == [0.0, 0.531, 0.517, 0.531]
            assert report["distance"] == max(map(abs, report["residuals"]))

    def test_malformed_file_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,x2\n0.5,0.6\n", encoding="utf-8")
        code, _, err = run(capsys, "learn", "--data", str(path), "--mode", "greatest")
        assert code == 1
        assert "header" in err

    @pytest.mark.parametrize(
        "item, named",
        [
            ({"x": [0.5, 10**400], "alpha": 0.5}, "item 0, coordinate x2"),
            ({"x": [0.5, 0.5], "alpha": 10**400}, "item 0, alpha"),
        ],
    )
    def test_huge_integer_is_input_error(self, capsys, tmp_path, item, named):
        path = tmp_path / "big.json"
        path.write_text(
            json.dumps({"n": 2, "scale": {"kind": "unit_interval"}, "items": [item]}),
            encoding="utf-8",
        )
        code, out, err = run(capsys, "learn", "--data", str(path), "--mode", "greatest")
        assert code == 1
        assert out == ""
        assert err.startswith(f"caplearn: {named}: expected a number in float range")

    def test_table_format(self, capsys, data_csv):
        code, out, _ = run(
            capsys, "learn", "--data", data_csv, "--mode", "greatest",
            "--format", "table",
        )
        assert code == 0
        assert "consistent: True" in out

    @pytest.mark.parametrize("name", ["train.json", "train.csv"])
    def test_non_utf8_file_is_input_error(self, capsys, tmp_path, name):
        path = tmp_path / name
        path.write_bytes(b"\xff\xfe" + REFERENCE_CSV.encode("utf-16-le"))
        code, out, err = run(capsys, "learn", "--data", str(path), "--mode", "greatest")
        assert code == 1
        assert out == ""
        assert err.startswith(f"caplearn: cannot read {path}: ")

    def test_bool_criteria_count_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "train.json"
        doc = {"n": True, "scale": {"kind": "unit_interval"}, "items": [{"x": [0.5], "alpha": 0.5}]}
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run(capsys, "learn", "--data", str(path), "--mode", "greatest")
        assert code == 1
        assert out == ""
        assert "field 'n' must be an integer, got True" in err


class TestLearnFiles:
    """``learn --capacity F --out R`` writes what the library renders."""

    @staticmethod
    def learn_argv(data, q, mode, takes_q, approx, cap_path, out_path, fmt):
        argv = ["learn", "--data", str(GOLDEN / data), "--mode", mode]
        argv += ["--q", str(q)] if takes_q else []
        argv += ["--approx"] if approx else []
        return argv + ["--capacity", str(cap_path), "--out", str(out_path), "--format", fmt]

    @pytest.mark.parametrize("fmt", ["json", "table"])
    @pytest.mark.parametrize("mode, takes_q, approx", LEARN_MODES)
    @pytest.mark.parametrize("data, q", DATASETS)
    def test_files_match_the_library_rendering(
        self, tmp_path, data, q, mode, takes_q, approx, fmt
    ):
        cap_path, out_path = tmp_path / "cap.json", tmp_path / "report"
        code = main(self.learn_argv(data, q, mode, takes_q, approx, cap_path, out_path, fmt))

        ts = load_training_set(GOLDEN / data)
        if takes_q:
            report = learn(ts, LearnMode(mode + ("_approx" if approx else "")), q)
        else:
            report = learn(ts, LearnMode(mode))
        payload = report_to_json(report)
        problems = validate_data(ts)
        if problems:
            payload["data_warnings"] = [v.message for v in problems]
        if fmt == "json":
            rendering = dumps_json(payload)
        else:
            rendering = "\n".join(_table_lines(payload)) + "\n"
        assert out_path.read_text(encoding="utf-8") == rendering
        if report.capacity is None:
            assert code == 2 and not cap_path.exists()
        else:
            save_capacity(report.capacity, tmp_path / "ref.json")
            assert code == 0
            assert cap_path.read_bytes() == (tmp_path / "ref.json").read_bytes()

    def test_values_are_encoded_once(self, tmp_path, monkeypatch):
        argv = self.learn_argv(
            "chain_noisy.json", 3, "qmax", True, True,
            tmp_path / "cap.json", tmp_path / "report.json", "json",
        )
        ts = load_training_set(GOLDEN / "chain_noisy.json")
        values = list(learn(ts, LearnMode.QMAX_APPROX, 3).capacity.values)
        encode = caplearn.io._encode
        calls = []

        def counted(obj, newline):
            if isinstance(obj, list) and obj == values:
                calls.append(newline)
            return encode(obj, newline)

        monkeypatch.setattr(caplearn.io, "_encode", counted)
        assert main(argv) == 0
        assert json.loads((tmp_path / "cap.json").read_text(encoding="utf-8"))["values"] == values
        assert len(calls) == 1


class TestEval:
    def test_reference_object(self, capsys, mu_e_path):
        code, out, _ = run(
            capsys, "eval", "--capacity", mu_e_path, "--object", "0.15,0.2,0.3"
        )
        assert code == 0
        assert json.loads(out)["value"] == 0.2

    def test_constant_object(self, capsys, mu_e_path):
        code, out, _ = run(capsys, "eval", "--capacity", mu_e_path, "--object", "1,1,1")
        assert code == 0
        assert json.loads(out)["value"] == 1.0

    def test_lowest_capacity_object(self, capsys, mu_f_path):
        code, out, _ = run(
            capsys, "eval", "--capacity", mu_f_path, "--object", "0.4,0.7,0.35"
        )
        assert code == 0
        assert json.loads(out)["value"] == 0.4

    def test_data_file_reports_residuals(self, capsys, mu_e_path, data_csv):
        code, out, _ = run(capsys, "eval", "--capacity", mu_e_path, "--data", data_csv)
        assert code == 0
        rows = json.loads(out)["evaluations"]
        assert [r["residual"] for r in rows] == [0.0, 0.0, 0.0]

    def test_invalid_capacity_rejected(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text(
            json.dumps(
                {
                    "n": 2,
                    "scale": {"kind": "unit_interval", "levels": None},
                    "values": [0.2, 0.5, 0.1, 1.0],
                }
            ),
            encoding="utf-8",
        )
        code, _, err = run(capsys, "eval", "--capacity", str(path), "--object", "0.5,0.5")
        assert code == 1
        assert "empty set" in err

    def test_non_utf8_capacity_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "mu.json"
        path.write_bytes(b"\xff\xfe{}")
        code, out, err = run(capsys, "eval", "--capacity", str(path), "--object", "0.5")
        assert code == 1
        assert out == ""
        assert err.startswith(f"caplearn: cannot read {path}: ")

    @pytest.mark.parametrize(
        "obj, named",
        [("0.5,1.5,0.2", "x2 1.5"), ("nan,0.5,0.2", "x1 nan"), ("0.2,0.5,-0.5", "x3 -0.5")],
    )
    def test_off_scale_object_is_input_error(self, capsys, mu_e_path, obj, named):
        code, out, err = run(capsys, "eval", "--capacity", mu_e_path, "--object", obj)
        assert (code, out) == (1, "")
        assert err == f"caplearn: coordinate {named} is not a member of the unit interval [0, 1]\n"

    def test_object_with_a_leading_minus_in_the_equals_form(self, capsys, mu_e_path):
        # after a space argparse takes "-0.0,..." for an option; after "=" it is the value
        code, out, err = run(capsys, "eval", "--capacity", mu_e_path, "--object", "-0.0,0.2,0.3")
        assert (code, out) == (1, "")
        assert err == "caplearn: argument --object: expected one argument\n"
        code, out, _ = run(capsys, "eval", "--capacity", mu_e_path, "--object=-0.0,0.2,0.3")
        assert code == 0
        assert '\n    -0.0,\n' in out
        result = json.loads(out)
        assert result["x"] == [0.0, 0.2, 0.3] and math.copysign(1.0, result["x"][0]) == -1.0
        assert result["value"] == sugeno_maxmin(Capacity(3, UNIT, MU_E_VALUES), (0.0, 0.2, 0.3))

    def test_underscored_object_is_input_error(self, capsys, mu_e_path):
        # float() would read "0.2_5" as 0.25
        code, out, err = run(capsys, "eval", "--capacity", mu_e_path, "--object", "0.1,0.2_5,0.3")
        assert (code, out) == (1, "")
        assert err.startswith("caplearn: cannot parse object '0.1,0.2_5,0.3': ")

    def test_data_failure_names_the_item(self, capsys):
        code, out, err = run(
            capsys, "eval", "--capacity", str(GOLDEN / "mu_paper.json"),
            "--data", str(GOLDEN / "tiny.json"),
        )
        assert (code, out) == (1, "")
        assert err == "caplearn: item 0: object has 2 coordinates, capacity expects 3\n"

    def test_off_scale_data_item_is_named(self, capsys, tmp_path):
        # the data is on the unit interval, the capacity on a 5-level chain
        cap_path, data_path = tmp_path / "mu.json", tmp_path / "data.csv"
        mu = Capacity(3, Scale.finite_chain(FIVE_LEVELS), [0.0] + [0.5] * 6 + [1.0])
        save_capacity(mu, cap_path)
        data_path.write_text(
            "x1,x2,x3,alpha\n0.25,0.5,1.0,0.5\n0.25,0.3,1.0,0.5\n", encoding="utf-8"
        )
        code, out, err = run(capsys, "eval", "--capacity", str(cap_path), "--data", str(data_path))
        assert (code, out) == (1, "")
        assert err == "caplearn: item 1: coordinate x2 0.3 is not a member of the 5-level chain\n"

    @pytest.mark.parametrize("k", [1, 2, 4])
    @pytest.mark.parametrize("bad", [0.3, 0.6])
    def test_first_off_scale_item_is_named(self, capsys, tmp_path, k, bad):
        # items k and 5 hold a coordinate off the capacity's 5-level chain
        cap_path, data_path = tmp_path / "mu.json", tmp_path / "data.csv"
        mu = Capacity(3, Scale.finite_chain(FIVE_LEVELS), [0.0] + [0.5] * 6 + [1.0])
        save_capacity(mu, cap_path)
        rows = [[0.25, 0.5, 1.0, 0.5] for _ in range(6)]
        rows[k][2 - k % 3] = bad
        rows[5][0] = 0.1
        data_path.write_text(
            "x1,x2,x3,alpha\n" + "".join(",".join(map(repr, r)) + "\n" for r in rows),
            encoding="utf-8",
        )
        with pytest.raises(DomainError) as info:
            sugeno_maxmin(mu, rows[k][:3])
        code, out, err = run(capsys, "eval", "--capacity", str(cap_path), "--data", str(data_path))
        assert (code, out) == (1, "")
        assert err == f"caplearn: item {k}: {info.value}\n"
        assert f"coordinate x{3 - k % 3} {bad!r} is not a member" in err

    def test_data_report_is_the_standard_encoding(self, capsys, tmp_path):
        # 2,000 items on a chain, with zeros of both signs in the table, the
        # coordinates and the targets: the report is the standard encoder's
        # text of the payload that the one-object forms give item by item
        rng = random.Random(36)
        levels = CHAIN21.levels + (-0.0,)
        mu = random_capacity(rng, 5, levels, CHAIN21)
        ts = TrainingSet.from_pairs(5, CHAIN21, [
            (random_object(rng, 5, levels), rng.choice(levels)) for _ in range(2000)
        ])
        cap_path, data_path = tmp_path / "mu.json", tmp_path / "data.json"
        save_capacity(mu, cap_path)
        save_training_set(ts, data_path)
        evaluations = []
        for item in ts.items:
            lo, hi = sugeno_maxmin(mu, item.x), sugeno_minmax(mu, item.x)
            evaluations.append({"x": list(item.x), "maxmin": lo, "minmax": hi, "value": lo,
                                "alpha": item.alpha, "residual": lo - item.alpha})
        code, out, _ = run(capsys, "eval", "--capacity", str(cap_path), "--data", str(data_path))
        assert code == 0
        assert out == json.dumps({"evaluations": evaluations}, indent=2) + "\n"
        for zero in ("0.0", "-0.0"):  # in a list and in a column of numbers
            assert f"\n        {zero}," in out and f'"alpha": {zero},' in out

    def test_exactly_one_input_required(self, capsys, mu_e_path, data_csv):
        code, _, err = run(capsys, "eval", "--capacity", mu_e_path)
        assert code == 1
        code, _, err = run(
            capsys, "eval", "--capacity", mu_e_path, "--object", "1,1,1",
            "--data", data_csv,
        )
        assert code == 1


class TestCheck:
    def test_reference_capacity_with_q(self, capsys, mu_e_path):
        code, out, _ = run(capsys, "check", "--capacity", mu_e_path, "--q", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["is_capacity"] is True
        assert payload["q_maxitive"] is True
        assert payload["q_minitive"] is False

    def test_q_equal_n_is_answered_by_monotonicity(self, capsys):
        # no golden case asks at q = n: a capacity is n-maxitive and
        # n-minitive, which the monotonicity kernel decides
        code, out, _ = run(capsys, "check", "--capacity", str(GOLDEN / "mu_paper.json"),
                           "--q", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["is_capacity"] is True and payload["q"] == 3
        assert payload["q_maxitive"] is True and payload["q_minitive"] is True

    def test_broken_capacity_condition_failure(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text(
            json.dumps(
                {
                    "n": 2,
                    "scale": {"kind": "unit_interval", "levels": None},
                    "values": [0.0, 0.5, 0.1, 0.9],
                }
            ),
            encoding="utf-8",
        )
        code, out, _ = run(capsys, "check", "--capacity", str(path))
        assert code == 2
        payload = json.loads(out)
        assert payload["is_capacity"] is False
        assert payload["violations"]

    @pytest.mark.parametrize("values", [[0.0, 0.5, 0.1, 0.9], [0.0, 0.5, 0.1, 1.0]],
                             ids=["broken", "capacity"])
    @pytest.mark.parametrize("q", ["0", "3"])
    def test_out_of_range_q_is_input_error(self, capsys, tmp_path, values, q):
        # q is checked against n before the violations decide the exit code
        path = tmp_path / "mu.json"
        doc = {"n": 2, "scale": {"kind": "unit_interval", "levels": None}, "values": values}
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run(capsys, "check", "--capacity", str(path), "--q", q)
        assert code == 1
        assert out == ""
        assert f"q must be an integer in 1..2, got {q}" in err

    def test_bool_criteria_count_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "mu.json"
        doc = {"n": True, "scale": {"kind": "unit_interval"}, "values": [0, 1]}
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run(capsys, "check", "--capacity", str(path))
        assert code == 1
        assert out == ""
        assert "field 'n' must be an integer, got True" in err

    def test_unparseable_file_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{not json", encoding="utf-8")
        code, _, err = run(capsys, "check", "--capacity", str(path))
        assert code == 1


class TestDistance:
    def test_consistent_reference_data(self, capsys, data_csv):
        code, out, _ = run(
            capsys, "distance", "--data", data_csv, "--q", "3", "--type", "maxmin"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["distance"] == 0.0
        assert payload["consistent"] is True
        assert payload["per_row"] == [0.0, 0.0, 0.0]

    def test_system_json_input(self, capsys, tmp_path):
        from caplearn import RelationalSystem, SystemKind

        sys_ = RelationalSystem(SystemKind.MAX_MIN, ((0.5,),), (0.8,), (0,), UNIT)
        path = tmp_path / "sys.json"
        save_system(sys_, path)
        code, out, _ = run(capsys, "distance", "--data", str(path))
        assert code == 0
        assert json.loads(out)["distance"] == pytest.approx(0.3, abs=1e-12)

    @pytest.mark.parametrize(
        "command, flags, named",
        [
            ("distance", ["--type", "minmax"], "--type"),
            ("distance", ["--q", "1"], "--q"),
            ("distance", ["--type", "maxmin", "--q", "1"], "--type and --q"),
            ("oracle", ["--mode", "qmin"], "--mode"),
            ("oracle", ["--mode", "qmax", "--q", "1"], "--mode and --q"),
        ],
    )
    def test_system_json_refuses_kind_and_q(self, capsys, tmp_path, command, flags, named):
        # a system fixes its kind and columns, so the flags that pick them
        # from training data are errors, not ignored
        from caplearn import RelationalSystem, SystemKind

        sys_ = RelationalSystem(SystemKind.MAX_MIN, ((0.5,),), (0.8,), (0,), UNIT)
        path = tmp_path / "sys.json"
        save_system(sys_, path)
        code, out, err = run(capsys, command, "--data", str(path), *flags)
        assert (code, out) == (1, "")
        assert err == (
            f"caplearn: a system JSON fixes its kind and columns; {named} cannot apply\n"
        )

    @pytest.mark.parametrize("q", ["0", "4"])
    def test_out_of_range_q_is_input_error(self, capsys, data_csv, q):
        code, out, err = run(capsys, "distance", "--data", data_csv, "--q", q)
        assert (code, out) == (1, "")
        assert err == f"caplearn: q must be an integer in 1..3, got {q}\n"

    def test_training_data_builds_no_system(self, capsys, data_csv, monkeypatch):
        def refused(*args):
            raise AssertionError("a system was built")

        monkeypatch.setattr(caplearn.learning, "RelationalSystem", refused)
        for kind, ends in (("maxmin", ["{1}", "{1,2,3}"]), ("minmax", ["{}", "{2,3}"])):
            code, out, _ = run(capsys, "distance", "--data", data_csv, "--type", kind)
            assert code == 0
            columns = json.loads(out)["columns"]
            assert (len(columns), columns[::6]) == (7, ends)

    def test_training_data_defaults_to_maxmin(self, capsys, data_csv):
        code, out, _ = run(capsys, "distance", "--data", data_csv)
        assert code == 0
        assert json.loads(out)["kind"] == "maxmin"

    def test_training_json_is_read_once(self, capsys, tmp_path, monkeypatch):
        import caplearn.io

        path = tmp_path / "train.json"
        save_training_set(reference_training_set(), path)
        reads = []
        read_text = caplearn.io.Path.read_text
        monkeypatch.setattr(
            caplearn.io.Path, "read_text",
            lambda p, **kw: reads.append(p) or read_text(p, **kw),
        )
        code, _, _ = run(capsys, "distance", "--data", str(path), "--q", "2")
        assert code == 0
        assert reads == [path]

    def test_negative_int_label_is_not_a_subset(self, tmp_path):
        # subset_label(-1) never returns: run in a child capped in memory and time
        doc = {"kind": "maxmin", "matrix": [[0.5, 0.2]], "rhs": [0.3], "column_labels": [1, -1]}
        (tmp_path / "sys.json").write_text(json.dumps(doc), encoding="utf-8")
        cap = 1 << 29
        child = subprocess.run(
            [sys.executable, "-m", "caplearn.cli", "distance", "--data", "sys.json"],
            cwd=tmp_path, capture_output=True, encoding="utf-8", timeout=60,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
        )
        assert child.returncode == 0, child.stderr
        assert json.loads(child.stdout)["columns"] == ["{1}", "-1"]

    @pytest.mark.parametrize(
        "labels, j",
        [([True, False], 0), ([1, True], 1), ([None, 1], 0), ([[1], 2], 0), ([{"a": 1}, 2], 0)],
    )
    def test_label_that_is_no_number_or_string_is_an_input_error(
        self, capsys, tmp_path, labels, j
    ):
        # a JSON bool is neither a subset mask nor a label distinct from 0 and
        # 1; null would print as "None", and an array or an object is unhashable
        doc = {"kind": "maxmin", "matrix": [[0.5, 0.2]], "rhs": [0.3], "column_labels": labels}
        path = tmp_path / "sys.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run(capsys, "distance", "--data", str(path))
        assert (code, out) == (1, "")
        assert err == (
            f"caplearn: column label {j}: expected a number or a string, got {labels[j]!r}\n"
        )

    def test_chain_scale_warns_about_embedding(self, capsys, tmp_path):
        ts = reference_training_set()
        path = tmp_path / "train.json"
        save_training_set(ts, path)
        code, out, _ = run(capsys, "distance", "--data", str(path), "--q", "2")
        assert code == 0
        assert "warning" in json.loads(out)


class TestOracle:
    def test_system_checks_pass(self, capsys, tmp_path):
        from caplearn import RelationalSystem, SystemKind

        sys_ = RelationalSystem(
            SystemKind.MAX_MIN,
            ((0.5, 0.25), (0.75, 1.0)),
            (0.25, 0.75),
            (0, 1),
            UNIT,
        )
        path = tmp_path / "sys.json"
        save_system(sys_, path)
        code, out, _ = run(capsys, "oracle", "--data", str(path), "--grid-step", "0.25")
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        assert len(payload["checks"]) == 3

    def test_off_grid_system_passes(self, capsys, tmp_path):
        # consistent rhs (0.82, 0.42) lies 0.18 away, but 0.82 is off the
        # default 1/20 grid, so the grid search may land anywhere above it
        doc = {"kind": "maxmin", "matrix": [[0.7, 0.82], [0.32, 0.42]],
               "rhs": [1.0, 0.42], "column_labels": [1, 2]}
        path = tmp_path / "sys.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, _ = run(capsys, "oracle", "--data", str(path))
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_training_data_learning_check(self, capsys, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("x1,x2,alpha\n0.25,0.5,0.5\n0.75,0.25,0.25\n", encoding="utf-8")
        code, out, _ = run(
            capsys, "oracle", "--data", str(path), "--mode", "qmax", "--q", "1",
            "--grid-step", "0.25",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        assert any("learning error" in c["check"] for c in payload["checks"])

    def test_budget_refusal_exit_code(self, capsys, tmp_path):
        ts = reference_training_set()
        path = tmp_path / "train.json"
        save_training_set(ts, path)
        # a grid finer than the budget (1 / step is 20 by default) is refused before
        # its levels are built, and before round(1 / 5e-324) overflows
        for flags in (["--budget", "10"], ["--budget", "30"], ["--grid-step", "5e-324"],
                      ["--grid-step", "0.001", "--budget", "100"]):
            code, _, err = run(capsys, "oracle", "--data", str(path), "--q", "3", *flags)
            assert code == 3
            assert "budget" in err
        code, _, err = run(capsys, "oracle", "--data", str(path), "--q", "3", "--budget", "0")
        assert (code, err) == (1, "caplearn: budget must be positive\n")

    @pytest.mark.parametrize("step", ["0", "-0.25", "1.5"])
    def test_grid_step_outside_the_unit_interval_refused(self, capsys, tmp_path, step):
        path = tmp_path / "train.json"
        save_training_set(reference_training_set(), path)
        code, out, err = run(capsys, "oracle", "--data", str(path), "--grid-step", step)
        assert (code, out) == (1, "")
        assert err == f"caplearn: grid step must be in (0, 1], got {float(step)}\n"

    @pytest.mark.parametrize(
        "name, text, flags, refusal",
        [
            # 21^3300 right-hand sides: more digits than int-to-str allows
            ("rows.csv", "x1,x2,alpha\n" + "0.25,0.5,0.75\n" * 3300, [],
             "rhs grid search would enumerate ~21^3300 candidates"),
            # 3^(2^14 - 1) solution vectors over the data's levels 0, 0.5, 1
            ("wide.json", json.dumps({
                "n": 14, "scale": {"kind": "unit_interval"},
                "items": [{"x": [0.5] * 14, "alpha": 0.5}] * 3,
            }), ["--grid-step", "0.5"], "solution enumeration would enumerate ~3^16383 candidates"),
        ],
        ids=["rhs-3300-rows", "solutions-14-criteria"],
    )
    def test_oversized_search_refused_at_any_size(self, tmp_path, name, text, flags, refusal):
        (tmp_path / name).write_text(text, encoding="utf-8")
        child = subprocess.run(
            [sys.executable, "-m", "caplearn.cli", "oracle", "--data", name, *flags],
            cwd=tmp_path, capture_output=True, encoding="utf-8", timeout=10,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert (child.returncode, child.stdout) == (3, "")
        assert child.stderr == f"caplearn: {refusal}, over the budget of 10000000\n"

    def test_rhs_grid_search_runs_in_bounded_memory(self, tmp_path):
        # 21^5 candidate right-hand sides, inside the default budget; sorting
        # them all once took about 800 MB, so run in a child capped at 512 MiB
        doc = {
            "kind": "maxmin",
            "matrix": [[0.5, 0.2, 0.9], [0.1, 0.7, 0.3], [0.8, 0.4, 0.6],
                       [0.3, 0.9, 0.2], [0.6, 0.1, 0.5]],
            "rhs": [0.7, 0.2, 0.55, 0.35, 0.9],
            "column_labels": [1, 2, 4],
            "scale": {"kind": "unit_interval"},
        }
        (tmp_path / "sys.json").write_text(json.dumps(doc), encoding="utf-8")
        cap = 1 << 29
        child = subprocess.run(
            [sys.executable, "-m", "caplearn.cli", "oracle", "--data", "sys.json",
             "--grid-step", "0.05"],
            cwd=tmp_path, capture_output=True, encoding="utf-8", timeout=60,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
        )
        assert child.returncode == 0, child.stderr
        payload = json.loads(child.stdout)
        assert payload["ok"] is True
        assert payload["checks"][0]["grid"] == payload["checks"][0]["formula"]


class TestUsageErrors:
    def test_unknown_mode_is_input_error(self, capsys, data_csv):
        code, _, err = run(capsys, "learn", "--data", data_csv, "--mode", "best")
        assert code == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["learn", "--mode", "greatest"],
            ["eval", "--capacity", str(GOLDEN / "mu_paper.json")],
        ],
    )
    def test_system_file_is_not_training_data(self, capsys, argv):
        path = GOLDEN / "system_maxmin.json"
        code, out, err = run(capsys, *argv, "--data", str(path))
        assert (code, out) == (1, "")
        assert err == f"caplearn: {path} holds a relational system, not training data\n"

    def test_oracle_takes_no_type_flag(self, capsys, tmp_path):
        # the oracle's system kind follows --mode; --type was never read
        path = tmp_path / "tiny.csv"
        path.write_text("x1,x2,alpha\n0.25,0.5,0.5\n", encoding="utf-8")
        code, out, err = run(capsys, "oracle", "--data", str(path), "--type", "minmax")
        assert (code, out) == (1, "")
        assert "unrecognized arguments: --type minmax" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["learn", "--data", "unit_noisy.csv", "--mode", "qmax", "--q", "2", "--approx"],
            ["eval", "--capacity", "mu_paper.json", "--object", "0.5,0.25,0.3"],
            ["check", "--capacity", "mu_paper.json"],
            ["distance", "--data", "unit_noisy.csv"],
            ["distance", "--data", "system_maxmin.json"],
            ["oracle", "--data", "tiny.json", "--grid-step", "0.25"],
            ["oracle", "--data", "system_maxmin.json", "--grid-step", "0.25"],
        ],
    )
    def test_no_command_takes_a_tolerance(self, capsys, argv):
        # the slack for values off the lattice is fixed: learning.TOLERANCE
        argv = [str(GOLDEN / a) if prev in ("--data", "--capacity") else a
                for prev, a in zip([None] + argv, argv)]
        code, out, err = run(capsys, *argv, "--tolerance", "inf")
        assert (code, out, err) == (1, "", "caplearn: unrecognized arguments: --tolerance inf\n")

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["check", "--capacity", "mu_paper.json"], "--out"),
            (["learn", "--data", "paper.csv", "--mode", "greatest"], "--capacity"),
        ],
        ids=["check-out", "learn-capacity"],
    )
    def test_unwritable_file_is_input_error(self, capsys, tmp_path, argv, flag):
        argv = [str(GOLDEN / a) if prev in ("--data", "--capacity") else a
                for prev, a in zip([None] + argv, argv)]
        target = tmp_path / "missing" / "out.json"
        code, out, err = run(capsys, *argv, flag, str(target))
        assert code == 1
        assert err == f"caplearn: [Errno 2] No such file or directory: '{target}'\n"
        # learn writes the capacity file before its report
        assert out == ""

    def test_missing_required_flag(self, capsys):
        code, _, err = run(capsys, "learn", "--mode", "greatest")
        assert code == 1

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["eval", "--capacity", "missing.json"], "eval needs exactly one of --object or --data"),
            (["eval", "--capacity", "missing.json", "--object", "0.5", "--data", "missing.csv"],
             "eval needs exactly one of --object or --data"),
            (["learn", "--data", "missing.csv", "--mode", "qmax"], "--mode qmax requires --q"),
            (["learn", "--data", "missing.csv", "--mode", "qmin", "--approx"],
             "--mode qmin requires --q"),
            (["learn", "--data", "missing.csv", "--mode", "greatest", "--q", "2"],
             "--mode greatest does not take --q"),
            (["learn", "--data", "missing.csv", "--mode", "lowest", "--approx"],
             "--approx applies to qmax/qmin modes only"),
        ],
        ids=["eval-neither", "eval-both", "qmax-no-q", "qmin-approx-no-q", "greatest-q",
             "lowest-approx"],
    )
    def test_flags_are_checked_before_any_file_is_read(self, capsys, tmp_path, argv, message):
        argv = [str(tmp_path / a) if a.startswith("missing.") else a for a in argv]
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (1, "", f"caplearn: {message}\n")


UNIT_JSON = {"kind": "unit_interval"}


class TestMalformedDocuments:
    """A document of the wrong shape is an input error: one line on stderr
    naming the fault, nothing on stdout."""

    @pytest.mark.parametrize(
        "argv, name, doc, message",
        [
            (["check", "--capacity"], "mu.json", [0.0, 1.0], "capacity must be a JSON object"),
            (["check", "--capacity"], "mu.json", {"n": 1, "scale": "unit", "values": [0, 1]},
             "scale must be an object with a 'kind' field"),
            (["check", "--capacity"], "mu.json",
             {"n": 1, "scale": {"kind": "finite_chain", "levels": "0,1"}, "values": [0, 1]},
             "finite chain scale needs a 'levels' array"),
            (["check", "--capacity"], "mu.json",
             {"n": 1, "scale": {"kind": "finite_chain", "levels": [0.5, 1]}, "values": [0, 1]},
             "invalid scale: chain levels must start at 0 and end at 1"),
            (["check", "--capacity"], "mu.json", {"n": 1, "scale": UNIT_JSON, "values": "0,1"},
             "capacity field 'values' must be an array"),
            (["distance", "--data"], "sys.json",
             {"kind": "maxmin", "matrix": [0.5], "rhs": [0.5]},
             "system field 'matrix' must be an array of rows"),
            (["distance", "--data"], "sys.json",
             {"kind": "maxmin", "matrix": [[0.5]], "rhs": 0.5},
             "system field 'rhs' must be an array"),
            (["distance", "--data"], "sys.json",
             {"kind": "maxmin", "matrix": [[0.5]], "rhs": [0.5], "column_labels": "A"},
             "system field 'column_labels' must be an array"),
            (["distance", "--data"], "sys.json",
             {"kind": "maxmin", "matrix": [["x"]], "rhs": [0.5]},
             "matrix entry (0, 0): expected a number, got 'x'"),
            (["distance", "--data"], "sys.json",
             {"kind": "maxmin", "matrix": [[0.5, 0.5]], "rhs": [0.5], "column_labels": [1, 1]},
             "invalid system: column labels must be unique"),
            (["learn", "--mode", "greatest", "--data"], "ts.json",
             {"n": 1, "scale": UNIT_JSON, "items": {"x": [0.5], "alpha": 0.5}},
             "training set field 'items' must be an array"),
            (["learn", "--mode", "greatest", "--data"], "ts.csv", "\n , \n", "{path}: no rows"),
        ],
        ids=["not-an-object", "scale-not-an-object", "levels-not-an-array",
             "levels-not-from-0-to-1", "values-not-an-array", "matrix-not-rows", "rhs-not-an-array",
             "labels-not-an-array", "matrix-entry-not-a-number", "duplicate-labels",
             "items-not-an-array", "csv-without-rows"],
    )
    def test_refused_with_one_line(self, capsys, tmp_path, argv, name, doc, message):
        path = tmp_path / name
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc), encoding="utf-8")
        code, out, err = run(capsys, *argv, str(path))
        assert (code, out, err) == (1, "", f"caplearn: {message.format(path=path)}\n")


class TestFileText:
    """Files are read as UTF-8, a leading byte-order mark skipped, and
    written as UTF-8; JSON nested past the recursion limit is an input
    error."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["learn", "--data", "F", "--mode", "greatest"],
            ["distance", "--data", "F"],
            ["oracle", "--data", "F"],
            ["eval", "--capacity", "F", "--object", "0.5"],
            ["check", "--capacity", "F"],
        ],
        ids=["learn", "distance", "oracle", "eval", "check"],
    )
    def test_deeply_nested_json_is_input_error(self, capsys, tmp_path, argv):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
        code, out, err = run(capsys, *[str(path) if a == "F" else a for a in argv])
        assert (code, out) == (1, "")
        assert err.startswith(f"caplearn: {path} is not valid JSON: ")
        assert err.count("\n") == 1

    def test_no_file_uses_the_locale_encoding(self, tmp_path):
        paper = str(GOLDEN / "paper.csv")
        runs = [
            ["learn", "--data", paper, "--mode", "greatest", "--capacity", "mu.json",
             "--out", "report.json"],
            ["eval", "--capacity", "mu.json", "--data", paper, "--out", "eval.json"],
            ["distance", "--data", paper, "--out", "distance.json"],
        ]
        for argv in runs:
            child = subprocess.run(
                [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
                 "-m", "caplearn.cli", *argv],
                cwd=tmp_path, capture_output=True, encoding="utf-8", timeout=60,
                env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
            )
            assert (child.returncode, child.stderr) == (0, ""), argv

    def test_a_byte_order_mark_is_skipped(self, capsys, tmp_path):
        path = tmp_path / "paper.csv"
        path.write_bytes(codecs.BOM_UTF8 + (GOLDEN / "paper.csv").read_bytes())
        marked = run(capsys, "learn", "--data", str(path), "--mode", "greatest")
        plain = run(capsys, "learn", "--data", str(GOLDEN / "paper.csv"), "--mode", "greatest")
        assert marked == plain
        assert plain[0] == 0
