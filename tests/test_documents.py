import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epschain.documents import dumps_doc


def json_text(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


scalars = (st.none() | st.booleans()
           | st.integers() | st.integers(min_value=2 ** 63, max_value=2 ** 200)
           | st.floats() | st.sampled_from([-0.0, 1e16, 5e-324, 1e-7, 1e22])
           | st.text() | st.sampled_from(["é中\U0001f600", "\x00\x1f\x7f\"\\/\n\t"]))

values = st.recursive(
    scalars,
    lambda inner: (st.lists(inner, max_size=5) | st.lists(inner, max_size=5).map(tuple)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=5)),
    max_leaves=20)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(values)
def test_emission_is_json_dumps_with_indent_and_sorted_keys(value):
    assert dumps_doc(value) == json_text(value)


@pytest.mark.parametrize("value", [
    [], {}, [[]], {"a": {}}, [[], {}, [[{}]]],
    [1, True], [False, 0], {"x": [1, 2, True]},
    {"d": np.float64(0.1), "l": [np.float64(-0.0), np.float64("nan")]},
    {"int keys": {2: "b", 10: "a"}, "float keys": {1.5: 1, float("inf"): 2}},
    {"k": [float("inf"), float("-inf"), float("nan")]},
    (1, (2, 3)), "top-level string", 7, 0.5, None,
])
def test_emission_cases(value):
    assert dumps_doc(value) == json_text(value)


def test_a_bool_among_ints_prints_as_a_bool():
    # bool is an int subclass: the all-int join must not print True as 1
    assert dumps_doc([1, True]) == "[\n  1,\n  true\n]\n"


@pytest.mark.parametrize("value", [
    np.int64(3), {"a": [np.int64(1)]}, {1, 2}, {"a": {"b": {1}}}, {(1, 2): 3},
    {1: "mixed", "a": "keys"},
])
def test_emission_raises_type_error_where_json_does(value):
    with pytest.raises(TypeError):
        json_text(value)
    with pytest.raises(TypeError):
        dumps_doc(value)
