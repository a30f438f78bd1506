import json

import pytest

from caplearn import FormatError, LearnMode, Scale, SystemKind, build_system, learn
from caplearn.io import (
    capacity_from_json,
    capacity_to_json,
    load_capacity,
    load_system,
    load_training_set,
    report_to_json,
    save_capacity,
    save_system,
    save_training_set,
    scale_from_json,
    scale_to_json,
    system_from_json,
    training_set_from_csv_text,
    training_set_from_json,
    training_set_to_json,
)

from helpers import CHAIN21, MU_E_VALUES, reference_training_set

UNIT = Scale.unit_interval()

REFERENCE_CSV = """x1,x2,x3,alpha
0.15,0.2,0.3,0.2
0.5,0.25,0.3,0.3
0.4,0.7,0.35,0.4
"""


class TestScaleJson:
    def test_round_trip_unit(self):
        assert scale_from_json(scale_to_json(UNIT)).kind is UNIT.kind

    def test_round_trip_chain(self):
        back = scale_from_json(scale_to_json(CHAIN21))
        assert back.levels == CHAIN21.levels

    def test_unknown_kind(self):
        with pytest.raises(FormatError):
            scale_from_json({"kind": "ordinal"})


class TestCapacityJson:
    def test_round_trip(self, mu_e):
        back = capacity_from_json(capacity_to_json(mu_e))
        assert back.values == mu_e.values
        assert back.scale.levels == mu_e.scale.levels

    def test_save_load_save_is_byte_identical(self, tmp_path, mu_e):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        save_capacity(mu_e, first)
        save_capacity(load_capacity(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_missing_field(self):
        with pytest.raises(FormatError, match="values"):
            capacity_from_json({"n": 2, "scale": {"kind": "unit_interval"}})

    def test_off_chain_value_rejected_at_ingestion(self):
        doc = {
            "n": 1,
            "scale": {"kind": "finite_chain", "levels": [0.0, 0.5, 1.0]},
            "values": [0.0, 0.4],
        }
        with pytest.raises(FormatError):
            capacity_from_json(doc)

    def test_non_numeric_value(self):
        doc = {"n": 1, "scale": {"kind": "unit_interval"}, "values": [0.0, "x"]}
        with pytest.raises(FormatError):
            capacity_from_json(doc)


class TestSystemJson:
    def test_round_trip(self, tmp_path, ref_ts):
        sys_ = build_system(ref_ts, SystemKind.MAX_MIN, 2)
        path = tmp_path / "sys.json"
        save_system(sys_, path)
        back = load_system(path)
        assert back.matrix == sys_.matrix
        assert back.rhs == sys_.rhs
        assert back.column_labels == sys_.column_labels
        assert back.kind is SystemKind.MAX_MIN

    def test_default_scale_and_labels(self):
        sys_ = system_from_json(
            {"kind": "minmax", "matrix": [[0.5, 0.2]], "rhs": [0.4]}
        )
        assert sys_.column_labels == (0, 1)
        assert sys_.scale.kind.value == "unit_interval"

    def test_unknown_kind(self):
        with pytest.raises(FormatError):
            system_from_json({"kind": "plus-times", "matrix": [[0.5]], "rhs": [0.4]})


class TestTrainingData:
    def test_csv_parses_reference_data(self):
        ts = training_set_from_csv_text(REFERENCE_CSV)
        assert ts.n == 3
        assert ts.targets() == (0.2, 0.3, 0.4)
        assert ts.items[0].x == (0.15, 0.2, 0.3)

    def test_csv_and_json_agree(self):
        from_csv = training_set_from_csv_text(REFERENCE_CSV)
        doc = training_set_to_json(reference_training_set(Scale.unit_interval()))
        from_json = training_set_from_json(doc)
        assert from_csv.items == from_json.items
        assert from_csv.n == from_json.n

    def test_bad_header(self):
        with pytest.raises(FormatError, match="header"):
            training_set_from_csv_text("a,b,alpha\n0.1,0.2,0.3\n")

    def test_bad_cell_names_row(self):
        with pytest.raises(FormatError, match="row 3"):
            training_set_from_csv_text("x1,alpha\n0.1,0.2\n0.1,oops\n")

    def test_short_row_rejected(self):
        with pytest.raises(FormatError, match="row 2"):
            training_set_from_csv_text("x1,x2,alpha\n0.1,0.2\n")

    def test_load_by_extension(self, tmp_path):
        csv_path = tmp_path / "data.csv"
        csv_path.write_text(REFERENCE_CSV)
        ts = load_training_set(csv_path)
        assert ts.n == 3
        json_path = tmp_path / "data.json"
        save_training_set(reference_training_set(), json_path)
        ts2 = load_training_set(json_path)
        assert ts2.items == reference_training_set().items
        assert ts2.scale.levels == CHAIN21.levels

    def test_tolerance_reaches_csv_and_json_alike(self, tmp_path):
        csv_path = tmp_path / "data.csv"
        csv_path.write_text(REFERENCE_CSV)
        json_path = tmp_path / "data.json"
        save_training_set(training_set_from_csv_text(REFERENCE_CSV), json_path)
        assert load_training_set(csv_path, tol=0.01).scale.tol == 0.01
        assert load_training_set(json_path, tol=0.01).scale.tol == 0.01
        assert load_training_set(csv_path).scale.tol == UNIT.tol

    def test_json_scale_must_match_the_requested_one(self, tmp_path):
        json_path = tmp_path / "data.json"
        save_training_set(training_set_from_csv_text(REFERENCE_CSV), json_path)
        with pytest.raises(FormatError) as info:
            load_training_set(json_path, scale=CHAIN21)
        assert "the unit interval [0, 1]" in str(info.value)
        assert "the 21-level chain" in str(info.value)
        # the same scale is accepted, with its tolerance unless tol is given
        loose = Scale.unit_interval(0.01)
        assert load_training_set(json_path, scale=loose).scale == loose
        assert load_training_set(json_path, scale=loose, tol=0.02).scale.tol == 0.02
        other_chain = Scale.finite_chain([0.0, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.5, 0.7, 1.0])
        with pytest.raises(FormatError, match="10-level chain"):
            load_training_set(json_path, scale=other_chain)

    def test_off_chain_training_value_rejected(self):
        doc = {
            "n": 1,
            "scale": {"kind": "finite_chain", "levels": [0.0, 0.5, 1.0]},
            "items": [{"x": [0.4], "alpha": 0.5}],
        }
        with pytest.raises(FormatError):
            training_set_from_json(doc)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FormatError):
            load_training_set(tmp_path / "nope.json")


class TestReportJson:
    def test_success_report_shape(self, ref_ts):
        payload = report_to_json(learn(ref_ts, LearnMode.GREATEST))
        assert payload["mode"] == "greatest"
        assert payload["consistent"] is True
        assert payload["capacity"]["values"] == list(MU_E_VALUES)
        assert payload["residuals"] == [0.0, 0.0, 0.0]
        json.dumps(payload)  # serializable as-is

    def test_failure_report_shape(self):
        ts = training_set_from_csv_text("x1,x2,alpha\n0.5,0.6,0.7\n")
        payload = report_to_json(learn(ts, LearnMode.LOWEST))
        assert payload["capacity"] is None
        assert payload["boundary_ok"] is False
        assert payload["notes"]
