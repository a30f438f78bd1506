import json
import math
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from caplearn import (
    Capacity,
    FormatError,
    LearnMode,
    Scale,
    SystemKind,
    TrainingSet,
    build_system,
    learn,
    sugeno_maxmin,
)
from caplearn.subsets import masks_of_sizes, subset_label
from caplearn.io import (
    _BLOCK,
    CanonicalText,
    capacity_from_json,
    capacity_to_json,
    dumps_json,
    load_capacity,
    load_data,
    load_training_set,
    report_to_json,
    save_capacity,
    scale_from_json,
    scale_to_json,
    system_from_json,
    training_set_from_csv_text,
    training_set_from_json,
)

from helpers import (
    CHAIN21,
    MU_E_VALUES,
    capacity_from_solution,
    random_object,
    reference_training_set,
    save_system,
    save_training_set,
    training_set_from_csv_text_reference,
    training_set_from_json_reference,
    training_set_to_json,
)

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

    @pytest.mark.parametrize("bad, message", [
        (10**400, "expected a number in float range, got an integer of 401 digits"),
        ("x", "expected a number, got 'x'"),
        (True, "expected a number, got True"),
    ], ids=["huge", "string", "true"])
    def test_huge_or_non_number_chain_level_named(self, bad, message):
        doc = {"kind": "finite_chain", "levels": [0, 0.5, bad, 1]}
        with pytest.raises(FormatError, match=rf"^scale level 2: {message}$"):
            scale_from_json(doc)


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

    @pytest.mark.parametrize("bad", [True, False, "0.5", None, [0.5]])
    @pytest.mark.parametrize("k", [0, 1, 5, 7])
    def test_non_number_named_by_index(self, bad, k):
        values = [0.0, 0.3, 0.4, 1.0, 0.2, 1.0, 1.0, 1.0]
        values[k] = bad
        doc = {"n": 3, "scale": scale_to_json(CHAIN21), "values": values}
        with pytest.raises(FormatError, match=rf"^value {k}: expected a number, got "):
            capacity_from_json(doc)

    def test_int_entries_load_as_floats(self):
        doc = {"n": 2, "scale": scale_to_json(UNIT), "values": [0, 0.5, 0, 1]}
        mu = capacity_from_json(doc)
        assert mu.values == (0.0, 0.5, 0.0, 1.0)
        assert all(type(v) is float for v in mu.values)


# values a capacity file may hold that no scale does
ODD_ENTRIES = (True, False, "0.5", None, [0.5], math.nan, math.inf, -math.inf,
               10**400, -(10**400), 2, 1.5, -0.25, 0.151)


def first_refusal(values, scale):
    """The reader's message for a table, value by value: a value that is no
    number in float range first, else the first one off the scale."""
    for i, v in enumerate(values):
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            return f"value {i}: expected a number, got {v!r}"
        try:
            float(v)
        except OverflowError:
            return (f"value {i}: expected a number in float range, got an integer of"
                    f" {len(str(abs(v)))} digits")
    for mask, v in enumerate(values):
        if not scale.contains(v):
            return f"invalid capacity: value of {subset_label(mask)} {v!r} is not a member of " + (
                scale.describe()
            )
    return None


@st.composite
def capacity_documents(draw):
    """(document, scale): a table of chain levels with up to three entries
    replaced by odd values."""
    scale = draw(st.sampled_from([UNIT, CHAIN21]))
    n = draw(st.integers(1, 3))
    values = draw(st.lists(st.sampled_from(CHAIN21.levels + (0, 1, -0.0)),
                           min_size=1 << n, max_size=1 << n))
    for _ in range(draw(st.integers(1, 3))):
        values[draw(st.integers(0, len(values) - 1))] = draw(st.sampled_from(ODD_ENTRIES))
    return {"n": n, "scale": scale_to_json(scale), "values": values}, scale


class TestCapacityValuesNamedAsWritten:
    @given(capacity_documents())
    @example(({"n": 1, "scale": scale_to_json(CHAIN21), "values": [2, "x"]}, CHAIN21))
    @example(({"n": 1, "scale": scale_to_json(UNIT), "values": [1.0, True]}, UNIT))
    @example(({"n": 2, "scale": scale_to_json(UNIT), "values": [0, 2, 0.5, 10**400]}, UNIT))
    def test_first_refused_value(self, case):
        doc, scale = case
        expected = first_refusal(doc["values"], scale)
        if expected is None:
            assert capacity_from_json(doc).values == tuple(map(float, doc["values"]))
            return
        with pytest.raises(FormatError) as info:
            capacity_from_json(doc)
        assert str(info.value) == expected


JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.sampled_from([-0.0, 5e-324, 1e16, 1e-7, float("inf"), float("-inf"), float("nan")])
    | st.text()
    | st.sampled_from(['"', "\\", "\n", 'a "quoted"\nline', "\u00e9\u4e2d\U0001f600"])
)
NUMBERS = st.floats(allow_nan=False, allow_infinity=False) | st.integers()
JSON_KEYS = st.text() | st.integers() | st.floats() | st.booleans() | st.none()


def json_documents():
    return st.recursive(
        JSON_SCALARS | st.lists(NUMBERS) | st.lists(NUMBERS | JSON_SCALARS),
        lambda children: st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(st.text(max_size=4), children, max_size=4)
        | st.dictionaries(JSON_KEYS, children, max_size=3),
        max_leaves=20,
    )


B = _BLOCK


@st.composite
def run_heavy_lists(draw):
    """Float lists longer than a block, made of runs of a few values, signed
    zeros among them, so that many blocks hold one value."""
    runs = draw(st.lists(
        st.tuples(st.sampled_from([0.0, -0.0, 0.5, 1.0, 5e-324, 1e16]), st.integers(1, 2 * B)),
        min_size=1, max_size=8,
    ))
    values = [v for v, k in runs for _ in range(k)]
    return values + [1.0] * (B + 1 - len(values))


@st.composite
def capacity_tables(draw):
    """Capacities on [0, 1] with more than a block of values, made of runs:
    blocks of one signed zero, blocks of zeros of both signs, long equal
    runs and blocks that mix values."""
    n = draw(st.integers(7, 10))
    runs = draw(st.lists(
        st.tuples(st.sampled_from([0.0, -0.0, 0.5, 1.0, 5e-324, 0.1]), st.integers(1, 3 * B)),
        min_size=1, max_size=12,
    ))
    values = [v for v, k in runs for _ in range(k)][: 1 << n]
    values += [1.0] * ((1 << n) - len(values))
    return Capacity(n, UNIT, values)


# a records column's numbers: 1 beside 1.0, and zeros of both signs
RECORD_NUMBERS = st.sampled_from([0.0, -0.0, 0.5, 5e-324, 1e16, 1, 1.0, 0, -3]) | NUMBERS
# values that take a column off the records route
RECORD_BREAKERS = (
    st.sampled_from([True, False, math.nan, math.inf, -math.inf, "n%s", None, (), [0.5, [1]]])
    | st.dictionaries(st.sampled_from(["x", "%"]), RECORD_NUMBERS, max_size=2)
)
RECORD_KEYS = st.sampled_from(["x", "n", "%", "%s", "a%%b", '"', "\u00e9\u4e2d\U0001f600"]) | st.text(max_size=3)


@st.composite
def record_lists(draw):
    """Lists of dicts built for the writer's records route: one key order,
    each key's values all numbers or all number lists of one length, zero
    included.  Then up to two changes that may take a list off the route: a
    value swapped for a bool, a nan, an inf, a string, None, a tuple, a
    nested list or a dict; a number list made longer or shorter; a row's keys
    reordered, or a key added."""
    keys = draw(st.lists(RECORD_KEYS, max_size=4, unique=True))
    # None for a column of numbers, else the length of the column's lists
    widths = [draw(st.none() | st.integers(0, 3)) for _ in keys]
    rows = [
        {k: draw(RECORD_NUMBERS if w is None else st.lists(RECORD_NUMBERS, min_size=w, max_size=w))
         for k, w in zip(keys, widths)}
        for _ in range(draw(st.integers(1, 5)))
    ]
    for change in draw(st.lists(st.sampled_from(["value", "width", "order", "key"]), max_size=2)):
        row = draw(st.sampled_from(rows))
        if change == "order":
            items = list(row.items())
            row.clear()
            row.update(reversed(items))
        elif change == "key":
            row[draw(RECORD_KEYS)] = draw(RECORD_NUMBERS)
        elif row:
            k = draw(st.sampled_from(list(row)))
            value = row[k]
            if type(value) is not list or not value:
                row[k] = draw(RECORD_BREAKERS) if change == "value" else [value]
            elif change == "value":
                i = draw(st.integers(0, len(value) - 1))
                row[k] = value[:i] + [draw(RECORD_BREAKERS)] + value[i + 1:]
            else:
                row[k] = value[:-1] if draw(st.booleans()) else value + [draw(RECORD_NUMBERS)]
    return rows if draw(st.booleans()) else {"evaluations": rows}


def assert_embeds(doc):
    """A document's canonical text, embedded in a list and in a dict, gives
    the text of the document nested there."""
    text = CanonicalText(dumps_json(doc))
    assert dumps_json([0.5, text, []]) == json.dumps([0.5, doc, []], indent=2) + "\n"
    assert dumps_json({"a": {"b": text}}) == json.dumps({"a": {"b": doc}}, indent=2) + "\n"


class TestCanonicalWriter:
    @given(json_documents() | run_heavy_lists() | record_lists())
    @example([{}, {}])
    @example([{"x": []}])
    @example([{"a%s": -0.0}, {"a%s": 0.0}])
    @example([{"x": [0.5], "y": 1}, {"x": [0.5, 1.0], "y": 1.0}])
    def test_same_text_as_the_standard_encoder(self, doc):
        assert dumps_json(doc) == json.dumps(doc, indent=2) + "\n"
        assert_embeds(doc)

    @pytest.mark.parametrize(
        "doc",
        [
            [],
            {},
            {"a": [], "b": {}},
            [-0.0, 5e-324, 1e16, 1e-7, 1, 0, -3],
            [0.5, float("nan")],
            [0.5, float("inf")],
            [1.0, True],
            [0.0, None],
            {"x": [[0.5, 1.0], [2, 3.5]], "y": {"z": [0.25]}},
            {1: [0.5], "k": [0.5, 1.0]},
            # flat lists of scalars that are not numbers go through the C encoder
            [True, False, True],
            [None, None],
            ["a", "\u00e9\n", '"q"', ""],
            {"mixed": ["x", 1, -0.0, False, None, float("-inf")]},
            "\u00e9",
            # line breaks inside strings are escaped, so re-indenting skips them
            ["\n", "\\n", "\u2028", [], {}, float("nan"), -0.0, 0.0],
            {"s": "a\nb", "\n": ["\\n", {"\u2028": [-0.0, 0.0, float("nan")]}], "e": {}},
            # number lists written by repr, and by the encoder once a nan or inf is in
            [0.5, 1, float("nan"), -0.0],
            [1e16, 5e-324, -3, float("inf")],
            {"v": float("nan"), "w": -0.0, "x": [0.5]},
            # float lists longer than a block: one value, around one and two blocks
            *([v] * k for v in (0.25, -0.0) for k in (B - 1, B, B + 1, 2 * B, 2 * B + 1)),
            # equal zeros of either sign in one block
            [0.0] * 10 + [-0.0] + [0.0] * (2 * B),
            [-0.0] * 10 + [0.0] + [-0.0] * (2 * B),
            # one NaN object repeated, and infinities: the encoder writes them
            [math.nan] * (2 * B + 1),
            [0.5] * B + [math.inf] * B,
            # an int equal to the block's float keeps its own text
            [1.0] * 10 + [1] + [1.0] * (2 * B),
        ],
    )
    def test_edge_documents(self, doc):
        assert dumps_json(doc) == json.dumps(doc, indent=2) + "\n"
        assert_embeds(doc)

    @given(capacity_tables())
    @example(Capacity(7, UNIT, [0.0] * 10 + [-0.0] + [0.0] * 117))
    @example(Capacity(7, UNIT, [-0.0] * 64 + [0.5, 1.0] * 32))
    def test_capacity_values_written_as_a_plain_list(self, mu):
        # the writer takes a capacity's values as floats without a type scan
        doc = capacity_to_json(mu)
        plain = dict(doc, values=list(mu.values))
        assert dumps_json(doc) == json.dumps(plain, indent=2) + "\n"
        assert_embeds(doc)

    def test_learned_q_capacity(self):
        # a 2-maxitive table at n = 14 with a pair of high criteria at 1: the
        # 64 sets of a block differ in the low criteria alone, so most blocks
        # hold one value
        rng = random.Random(26)
        levels = CHAIN21.levels
        solved = {1 << i: rng.choice(levels[:10]) for i in range(14)}
        for mask in masks_of_sizes(14, (2,)):
            floor = max(solved[mask & -mask], solved[mask & (mask - 1)])
            solved[mask] = rng.choice([v for v in levels[:15] if v >= floor])
        solved[0b11 << 12] = 1.0
        hidden = capacity_from_solution(solved, 14, 2, CHAIN21, SystemKind.MAX_MIN)
        objects = [random_object(rng, 14, levels) for _ in range(20)]
        ts = TrainingSet.from_pairs(14, CHAIN21, [(x, sugeno_maxmin(hidden, x)) for x in objects])
        mu = learn(ts, LearnMode.QMAX, 2).capacity
        values = list(mu.values)
        assert sum(len(set(values[i:i + B])) == 1 for i in range(0, len(values), B)) > 128
        doc = capacity_to_json(mu)
        assert dumps_json(doc) == json.dumps(doc, indent=2) + "\n"
        assert_embeds(doc)


class TestSystemJson:
    def test_round_trip(self, tmp_path, ref_ts):
        sys_ = build_system(ref_ts, SystemKind.MAX_MIN, 2)
        path = tmp_path / "sys.json"
        save_system(sys_, path)
        back = system_from_json(json.loads(path.read_text(encoding="utf-8")))
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

    @pytest.mark.parametrize("doc", [
        {"matrix": [[0.5, "x"]], "rhs": [0.5], "column_labels": [1, 1]},
        {"matrix": [[0.5, "x"]], "rhs": [0.5, 0.5]},
        {"matrix": [[0.5, "x"], [0.5]], "rhs": [0.5, 0.5]},
    ], ids=["duplicate-labels", "rhs-length", "short-row"])
    def test_non_number_named_before_the_system_refusal(self, doc):
        with pytest.raises(FormatError, match=r"^matrix entry \(0, 1\): expected a number, got 'x'$"):
            system_from_json({"kind": "maxmin", **doc})

    @pytest.mark.parametrize("doc, refusal", [
        ({"matrix": [], "rhs": []}, "system needs at least one equation"),
        ({"matrix": [[]], "rhs": [0.5]}, "system needs at least one column"),
    ], ids=["no-equations", "no-columns"])
    def test_empty_system_file_refused(self, tmp_path, doc, refusal):
        path = tmp_path / "sys.json"
        path.write_text(json.dumps({"kind": "maxmin", **doc}), encoding="utf-8")
        with pytest.raises(FormatError, match=rf"^invalid system: {refusal}$"):
            load_data(path)

    def test_huge_integer_rhs_entry_named(self):
        doc = {"kind": "maxmin", "matrix": [[0.5, 0.5], [0.5]], "rhs": [0.5, 10**400]}
        with pytest.raises(
            FormatError,
            match=r"^rhs entry 1: expected a number in float range, got an integer of 401 digits$",
        ):
            system_from_json(doc)

    def test_off_scale_integer_named_as_written(self):
        doc = {"kind": "maxmin", "matrix": [[0.5, 2]], "rhs": [0.5]}
        with pytest.raises(FormatError, match=r"^invalid system: matrix entry \(0, 1\) 2 is not"):
            system_from_json(doc)


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

    @pytest.mark.parametrize("cell", ["0.2_5", " 1_0 ", "0_0"])
    def test_underscored_cell_names_row(self, cell):
        # float() reads PEP 515 underscores: "0.2_5" would be 0.25
        with pytest.raises(FormatError, match="row 3: underscores"):
            training_set_from_csv_text(f"x1,alpha\n0.1,0.1\n0.1,{cell}\n")

    def test_short_row_rejected(self):
        with pytest.raises(FormatError, match="row 2"):
            training_set_from_csv_text("x1,x2,alpha\n0.1,0.2\n")

    @pytest.mark.parametrize("text, message", [
        ("x1,x2,alpha\n\n0.1,abc,0.2\n", "row 3: could not convert string to float: 'abc'"),
        ("\n \n,\nx1,alpha\n0.5,0.5\n0.5\n", "row 6: expected 2 cells, got 1"),
        ('x1,alpha\n"0.5\n",0.5\n0.5\n', "row 4: expected 2 cells, got 1"),
    ], ids=["blank-before-bad-row", "blank-before-header", "quoted-line-break"])
    def test_bad_row_named_by_its_line(self, text, message):
        with pytest.raises(FormatError, match=f"^<csv>, {message}$"):
            training_set_from_csv_text(text)

    def test_load_by_extension(self, tmp_path):
        csv_path = tmp_path / "data.csv"
        csv_path.write_text(REFERENCE_CSV, encoding="utf-8")
        ts = load_training_set(csv_path)
        assert ts.n == 3
        json_path = tmp_path / "data.json"
        save_training_set(reference_training_set(), json_path)
        ts2 = load_training_set(json_path)
        assert ts2.items == reference_training_set().items
        assert ts2.scale.levels == CHAIN21.levels

    def test_off_chain_training_value_rejected(self):
        doc = {
            "n": 1,
            "scale": {"kind": "finite_chain", "levels": [0.0, 0.5, 1.0]},
            "items": [{"x": [0.4], "alpha": 0.5}],
        }
        with pytest.raises(FormatError):
            training_set_from_json(doc)

    @pytest.mark.parametrize("bad", [True, "0.5", None, [0.5]])
    @pytest.mark.parametrize("i", [0, 2])
    def test_non_number_coordinate_named(self, bad, i):
        x = [0.5, 0.25, 1.0]
        x[i] = bad
        doc = {
            "n": 3,
            "scale": scale_to_json(UNIT),
            "items": [{"x": [0.5, 0.5, 0.5], "alpha": 0.5}, {"x": x, "alpha": 0.5}],
        }
        with pytest.raises(
            FormatError, match=rf"^item 1, coordinate x{i + 1}: expected a number, got "
        ):
            training_set_from_json(doc)

    @pytest.mark.parametrize("i", [0, 2])
    def test_huge_integer_coordinate_named(self, i):
        x = [0.5, 0.25, 1.0]
        x[i] = 10**400
        doc = {"n": 3, "scale": scale_to_json(UNIT), "items": [{"x": x, "alpha": 0.5}]}
        with pytest.raises(
            FormatError,
            match=rf"^item 0, coordinate x{i + 1}: expected a number in float range,"
            " got an integer of 401 digits$",
        ):
            training_set_from_json(doc)

    def test_huge_integer_capacity_value_named(self):
        doc = {"n": 1, "scale": scale_to_json(UNIT), "values": [0, 10**400]}
        with pytest.raises(
            FormatError,
            match=r"^value 1: expected a number in float range, got an integer of 401 digits$",
        ):
            capacity_from_json(doc)

    def test_huge_integer_target_named(self):
        doc = {
            "n": 2,
            "scale": scale_to_json(UNIT),
            "items": [{"x": [0.5, 0.5], "alpha": 0.5}, {"x": [0.5, 1.0], "alpha": -(10**400)}],
        }
        with pytest.raises(
            FormatError, match=r"^item 1, alpha: expected a number in float range, got an"
        ):
            training_set_from_json(doc)

    def test_integer_past_the_digit_limit_is_a_format_error(self, tmp_path):
        path = tmp_path / "data.json"
        path.write_text(
            '{"n": 1, "scale": {"kind": "unit_interval"},'
            ' "items": [{"x": [1%s], "alpha": 0.5}]}' % ("0" * 5000),
            encoding="utf-8",
        )
        with pytest.raises(FormatError, match="is not valid JSON"):
            load_training_set(path)

    @pytest.mark.parametrize("item, name", [
        ({"x": [2], "alpha": 0.5}, "coordinate x1 2"),
        ({"x": [0.5], "alpha": -3}, "target -3"),
    ], ids=["coordinate", "target"])
    def test_off_scale_integer_named_as_written(self, item, name):
        doc = {"n": 1, "scale": scale_to_json(UNIT), "items": [item]}
        with pytest.raises(FormatError, match=f"^invalid training set: item 0, {name} is not"):
            training_set_from_json(doc)

    def test_int_coordinates_load_as_floats(self):
        doc = {"n": 2, "scale": scale_to_json(UNIT), "items": [{"x": [0, 1], "alpha": 1}]}
        item = training_set_from_json(doc).items[0]
        assert item.x == (0.0, 1.0) and item.alpha == 1.0
        assert all(type(v) is float for v in item.x + (item.alpha,))

    def test_missing_file(self, tmp_path):
        with pytest.raises(FormatError):
            load_training_set(tmp_path / "nope.json")

    def test_non_utf8_files_are_format_errors(self, tmp_path):
        for name, load in (("train.json", load_training_set), ("train.csv", load_training_set),
                           ("mu.json", load_capacity)):
            path = tmp_path / name
            path.write_bytes(b"\xff\xfex1,alpha\n")
            with pytest.raises(FormatError, match="cannot read"):
                load(path)


# values a training file may hold in place of a float; 1 and -0.0 load, and 2,
# off every scale, is named as written
ODD_DATA = (True, "0.5", None, [0.5], math.nan, math.inf, -math.inf, 10**400, 1, 2, -0.0)
# the same as CSV cells, with an underscored number, and an empty cell for None
ODD_CELLS = ("True", "0.5x", "", "[0.5]", "nan", "inf", "-inf", "1" + "0" * 400, "1", "-0.0",
             "0.2_5", " 0.5 ")
LEVEL = st.sampled_from(CHAIN21.levels)


def outcome(read, source):
    """What a reader makes of ``source``: its result's repr, or its message."""
    try:
        return repr(read(source))
    except FormatError as exc:
        return f"FormatError: {exc}"


@st.composite
def training_documents(draw):
    """A training JSON document of chain levels with up to three odd entries:
    a coordinate, a target, an item's 'x' or a whole item replaced."""
    n, size = draw(st.integers(1, 3)), draw(st.integers(1, 5))
    items = [{"x": draw(st.lists(LEVEL, min_size=n, max_size=n)), "alpha": draw(LEVEL)}
             for _ in range(size)]
    for _ in range(draw(st.integers(0, 3))):
        k, spot, odd = draw(st.integers(0, size - 1)), draw(st.integers(-2, n)), draw(
            st.sampled_from(ODD_DATA))
        odd = list(odd) if isinstance(odd, list) else odd  # a fresh list for each use
        item = items[k]
        if spot == -2:
            items[k] = odd
        elif not isinstance(item, dict):
            continue
        elif spot == -1:
            item["x"] = odd
        elif spot == n:
            item["alpha"] = odd
        elif isinstance(item["x"], list) and spot < len(item["x"]):
            item["x"][spot] = odd
    scale = draw(st.sampled_from([UNIT, CHAIN21]))
    return {"n": n, "scale": scale_to_json(scale), "items": items}


@st.composite
def training_csv_texts(draw):
    """A training CSV of chain levels with up to three odd cells or rows:
    a cell replaced, a cell dropped or added, or a blank line."""
    n, size = draw(st.integers(1, 3)), draw(st.integers(1, 5))
    rows = [[repr(draw(LEVEL)) for _ in range(n + 1)] for _ in range(size)]
    for _ in range(draw(st.integers(0, 3))):
        row = rows[draw(st.integers(0, size - 1))]
        change = draw(st.sampled_from(["cell", "cell", "drop", "add", "blank"]))
        if change == "cell" and row:
            row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(ODD_CELLS))
        elif change == "drop" and row:
            row.pop()
        elif change == "add":
            row.append("0.5")
        elif change == "blank":
            row.clear()
    header = ",".join([f"x{i + 1}" for i in range(n)] + ["alpha"])
    return "\n".join([header] + [",".join(row) for row in rows]) + "\n"


class TestBulkReaders:
    """Each reader's bulk path against its item-by-item reference."""

    @given(training_documents())
    @example({"n": 1, "scale": scale_to_json(UNIT), "items": [{"x": [0.5], "alpha": 10**400}]})
    @example({"n": 2, "scale": scale_to_json(UNIT),
              "items": [{"x": [0.5, math.nan], "alpha": 0.5}, {"x": [0.5, True], "alpha": 0.5}]})
    @example({"n": 1, "scale": scale_to_json(UNIT), "items": [{"x": [0.5]}, [0.5]]})
    @example({"n": 1, "scale": scale_to_json(UNIT), "items": []})
    @example({"n": 2, "scale": scale_to_json(UNIT),
              "items": [{"x": [0, 1], "alpha": 1}, {"x": [1, 1], "alpha": 0}]})
    @example({"n": 1, "scale": scale_to_json(CHAIN21),
              "items": [{"x": [0.33], "alpha": 0.5}, {"x": ["0.5"], "alpha": 0.5}]})
    def test_json_reader_matches_reference(self, doc):
        assert outcome(training_set_from_json, doc) == outcome(
            training_set_from_json_reference, doc
        )

    @given(training_csv_texts())
    @example("x1,alpha\n0.5,0.5\n0.5,oops\n0.5\n")
    @example('x1,alpha\n"0.5\u20282",0.5\n')
    @example("x1,alpha\n0.5,0.5\x0c\n0.5,x\n")
    @example("x1,alpha\n0.5\n0.2_5,0.5\n")
    @example("x1,alpha\n")
    def test_csv_reader_matches_reference(self, text):
        assert outcome(training_set_from_csv_text, text) == outcome(
            training_set_from_csv_text_reference, text
        )


class TestCsvLines:
    """A CSV text breaks into lines at line feeds and carriage returns only."""

    def test_a_line_separator_inside_a_quoted_cell_stays_in_the_cell(self):
        # read as two lines, the cell would be "0.52"
        text = 'x1,alpha\n"0.5\u20282",0.5\n'
        for reader in (training_set_from_csv_text, training_set_from_csv_text_reference):
            with pytest.raises(FormatError, match="row 2: could not convert"):
                reader(text)

    def test_a_form_feed_is_no_line_break(self):
        # the form feed ends the cell "0.5\x0c", which float() reads as 0.5
        text = "x1,alpha\n0.5,0.5\x0c\n0.5,x\n"
        for reader in (training_set_from_csv_text, training_set_from_csv_text_reference):
            with pytest.raises(FormatError, match="row 3: could not convert"):
                reader(text)
        ts = training_set_from_csv_text("x1,alpha\n0.5,0.5\x0c\n0.25,1\n")
        assert ts.targets() == (0.5, 1.0)


@pytest.mark.parametrize("n", [True, False, 1.0, "1"])
def test_criteria_count_must_be_an_integer(n):
    scale = scale_to_json(UNIT)
    with pytest.raises(FormatError, match="field 'n' must be an integer"):
        capacity_from_json({"n": n, "scale": scale, "values": [0, 1]})
    with pytest.raises(FormatError, match="field 'n' must be an integer"):
        training_set_from_json({"n": n, "scale": scale, "items": [{"x": [0.5], "alpha": 0.5}]})


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
