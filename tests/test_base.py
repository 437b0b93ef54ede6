"""The JSON value rules and the CSV table rule every document reader shares."""

import pytest

from odd_assure import _base


class TestNumber:
    @pytest.mark.parametrize("value, spelled", [
        (True, "true"), (False, "false"), ("1", '"1"'), (None, "null"), ([1.0], "[1.0]"),
    ])
    def test_a_bool_and_a_string_are_not_numbers(self, value, spelled):
        with pytest.raises(TypeError) as raised:
            _base.number(value, "x")
        assert str(raised.value) == f"x must be a number, got {spelled}"

    def test_int_too_large_for_a_float(self):
        with pytest.raises(ValueError, match="^x is too large for a float$"):
            _base.number(10**400, "x")

    def test_ints_and_floats_read_as_floats(self):
        assert [_base.number(v, "x") for v in (3, 0.5)] == [3.0, 0.5]


class TestJsonArray:
    def test_a_list_and_a_tuple_are_arrays(self):
        assert _base.json_array(["a", "b"], "x") == ("a", "b")
        assert _base.json_array(("a", "b"), "x", 2) == ("a", "b")

    @pytest.mark.parametrize("value, spelled", [
        ("ab", '"ab"'), ({"a": 1}, '{"a": 1}'), (None, "null"), (2, "2"),
    ])
    def test_other_values_are_not(self, value, spelled):
        with pytest.raises(TypeError) as raised:
            _base.json_array(value, "x")
        assert str(raised.value) == f"x must be an array, got {spelled}"

    @pytest.mark.parametrize("value, spelled", [
        (["a", "b", "c"], '["a", "b", "c"]'), (("a",), '["a"]'), ([], "[]"),
    ])
    def test_a_pair_has_two_items(self, value, spelled):
        with pytest.raises(ValueError) as raised:
            _base.json_array(value, "x", 2)
        assert str(raised.value) == f"x must be an array of 2 items, got {spelled}"

    def test_a_pair_string_is_not_a_pair(self):
        with pytest.raises(TypeError, match='^x must be an array, got "FC"$'):
            _base.json_array("FC", "x", 2)


class TestJsonObject:
    def test_an_object_is_returned_as_is(self):
        value = {"a": "b"}
        assert _base.json_object(value, "x") is value
        assert _base.json_object(value, "x", str) is value

    @pytest.mark.parametrize("value, spelled", [
        ([["a", "b"]], '[["a", "b"]]'), ("ab", '"ab"'), (None, "null"),
    ])
    def test_other_values_are_not_objects(self, value, spelled):
        with pytest.raises(TypeError) as raised:
            _base.json_object(value, "x")
        assert str(raised.value) == f"x must be an object, got {spelled}"

    @pytest.mark.parametrize("value, spelled", [
        ({"a": 1}, '{"a": 1}'), ({"a": ["b"]}, '{"a": ["b"]}'),
        ({"a": "b", "c": None}, '{"a": "b", "c": null}'),
    ])
    def test_values_of_another_type(self, value, spelled):
        with pytest.raises(TypeError) as raised:
            _base.json_object(value, "x", str)
        assert str(raised.value) == f"x must be an object of str values, got {spelled}"


class TestJsonScalar:
    @pytest.mark.parametrize("value, kind", [("a", str), (True, bool), (False, bool), (3, int)])
    def test_exact_type_is_returned(self, value, kind):
        assert _base.json_scalar(value, "x", kind) is value

    @pytest.mark.parametrize("value, kind, message", [
        ("false", bool, 'x must be true or false, got "false"'),
        (0, bool, "x must be true or false, got 0"),
        (None, bool, "x must be true or false, got null"),
        (True, str, "x must be a string, got true"),
        (7, str, "x must be a string, got 7"),
        (["m"], str, 'x must be a string, got ["m"]'),
        (True, int, "x must be an integer, got true"),
        (2.0, int, "x must be an integer, got 2.0"),
        ({"é": "\n"}, str, 'x must be a string, got {"é": "\\n"}'),  # as the JSON text writes it
    ])
    def test_other_types_are_refused(self, value, kind, message):
        with pytest.raises(TypeError) as raised:
            _base.json_scalar(value, "x", kind)
        assert str(raised.value) == message

    def test_a_string_by_default(self):
        assert _base.json_scalar("a", "x") == "a"
        with pytest.raises(TypeError, match="^x must be a string, got 1$"):
            _base.json_scalar(1, "x")

    @pytest.mark.parametrize("value, spelled", [
        ({1.5}, "{1.5}"),  # a set, built in Python: no JSON spelling
        ([b"b"], "[b'b']"),
        (float("nan"), "NaN"),  # as json.loads reads it
    ])
    def test_a_value_json_cannot_encode_is_spelled_by_repr(self, value, spelled):
        with pytest.raises(TypeError) as raised:
            _base.json_scalar(value, "x")
        assert str(raised.value) == f"x must be a string, got {spelled}"


class TestCsvTable:
    HUGE = "1" * 200_000  # past csv's field size limit of 131072 characters

    @pytest.mark.parametrize("text, row", [
        (f"{HUGE},label\n1,Yes\n", 1),
        (f"a,label\n1,Yes\n{HUGE},No\n", 3),
        (f'a,label\n\n1,Yes\n\n"{HUGE}",No\n', 5),  # blank lines count
        (f'a,label\n"1\n2",Yes\n"{HUGE}",No\n', 4),  # as does a quoted line break
    ], ids=["header", "row", "after_blank_lines", "after_quoted_line_break"])
    def test_a_cell_past_the_field_limit_names_its_row(self, text, row):
        with pytest.raises(ValueError) as raised:
            _base.csv_table(text.splitlines(keepends=True))
        assert str(raised.value) == f"row {row}: field larger than field limit (131072)"

    def test_rows_and_the_lines_they_end_on(self):
        assert _base.csv_table(['a,b\n', '\n', '"1\n', '2",3\n', '4,5\n']) == (
            ["a", "b"], [["1\n2", "3"], ["4", "5"]], [4, 5])
