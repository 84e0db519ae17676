"""The spec language and its checker, on small documents."""

import pytest

from parsemunge.errors import ConfigError, DataError
from parsemunge.schema import Tagged, checker

_STATS = Tagged("coltype", {
    "numeric": {"coltype": str, "mean": float},
    "categoric": {"coltype": str, "top": [[str, int]]},
})


@pytest.mark.parametrize("spec,value", [
    (float | None, None),
    ([str], []),
    ({str: [str]}, {"a": ["x", "y"], "b": []}),
    ({"kind": str, "value?": float | str}, {"kind": "mode"}),
    ({"kind": str, "value?": float | str}, {"kind": "mode", "value": "x"}),
    (_STATS, {"coltype": "categoric", "top": [["a", 3], ["b", 1]]}),
    (_STATS, {"coltype": "numeric", "mean": -0.0}),
    ({str: object}, {"a": 5, "b": [None, {"c": "d"}]}),
])
def test_matching_documents_pass(spec, value):
    checker(spec, "doc")(value)


@pytest.mark.parametrize("spec,value,message", [
    (int, True, "doc must be an integer, not a boolean"),
    (float, 1, "doc must be a float, not an integer"),
    ([str], ["a", 2], "doc[1] must be text, not an integer"),
    ({str: float | None}, {"a": 1.0, "b": "x"}, "doc['b'] must be a float or null, not text"),
    ({"kind": str, "value?": float | str}, {"kind": "mode", "extra": 1},
     "doc must be an object with keys ['kind', 'value?'], not ['extra', 'kind']"),
    ({"kind": str, "value?": float | str}, {"value": 1.0}, "not ['value']"),
    (_STATS, {"coltype": "text"}, "doc must be an object whose 'coltype' is one of"),
    (_STATS, {"coltype": "categoric", "top": [["a", 3], ["b"]]},
     "doc['top'][1] must be a list [text, an integer], not a list"),
    (_STATS, {"coltype": "categoric", "top": [["a", 3], ["b", "1"]]},
     "doc['top'][1] must be a list [text, an integer], not a list"),
    ([[str, float | None]], [["a", None], 5],
     "doc[1] must be a list [text, a float or null], not an integer"),
    ([{"x": [str]}], [{"x": []}, {"x": [None]}], "doc[1]['x'][0] must be text, not null"),
])
def test_first_mismatch_is_named_by_its_path(spec, value, message):
    with pytest.raises(DataError) as err:
        checker(spec, "doc")(value)
    assert message in str(err.value)


def test_caller_chooses_the_error_class():
    with pytest.raises(ConfigError, match=r"config\['seed'\] must be an integer, not text"):
        checker({"seed?": int}, "config", ConfigError)({"seed": "1"})
