"""Report.to_json against the two-pass reference encoder it replaced."""

import json

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from crgeo.report import Report


def _fmt(x):
    return f"{float(x):.17g}"


def encode_value(v):
    """The reference: normalize a value into the report's JSON form, for json.dumps."""
    if v is None or isinstance(v, (bool, str, int)):
        return v
    if isinstance(v, (np.bool_,)):
        return bool(v)
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, (float, np.floating)):
        return _fmt(v)
    if isinstance(v, (complex, np.complexfloating)):
        return {"re": _fmt(v.real), "im": _fmt(v.imag)}
    if isinstance(v, np.ndarray):
        return [encode_value(x) for x in v.tolist()] if v.ndim else encode_value(v.item())
    if isinstance(v, dict):
        return {k: encode_value(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [encode_value(x) for x in v]
    raise TypeError(f"cannot serialize {type(v)!r}")


def reference_json(rep):
    return json.dumps({
        "schema_version": rep.schema_version,
        "tool_version": rep.tool_version,
        "surface": encode_value(rep.surface),
        "command": rep.command,
        "records": encode_value(rep.records),
        "aggregates": encode_value(rep.aggregates),
    }, indent=2) + "\n"


# quotes, backslashes, control characters and non-ASCII, beside any text
texts = st.text() | st.text(alphabet='"\\/\n\t\x00\x7f é€😀 ')
floats = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from([-0.0, 0.0, 1e-300, 5e-324, 1e308])
complexes = st.complex_numbers(allow_nan=True, allow_infinity=True) | st.builds(complex, floats, floats)
numpy_scalars = st.one_of(
    st.builds(np.float64, floats), st.builds(np.float32, st.floats(width=32)),
    st.builds(np.complex128, complexes), st.builds(np.int64, st.integers(-2**63, 2**63 - 1)),
    st.builds(np.bool_, st.booleans()),
)
arrays = hnp.arrays(
    st.sampled_from([np.float64, np.complex128, np.int64, np.bool_]),
    hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3),
)
leaves = st.one_of(st.none(), st.booleans(), st.integers(), texts, floats, complexes, numpy_scalars, arrays)
values = st.recursive(
    leaves,
    lambda inner: st.lists(inner, max_size=4) | st.tuples(inner, inner) | st.dictionaries(texts, inner, max_size=4),
    max_leaves=20,
)


@given(surface=values, command=texts, records=st.lists(values, max_size=3),
       aggregates=st.dictionaries(texts, values, max_size=4))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_to_json_writes_the_reference_bytes(surface, command, records, aggregates):
    rep = Report(surface=surface, command=command, records=records, aggregates=aggregates)
    assert rep.to_json() == reference_json(rep)


def test_empty_containers_and_signed_zeros():
    rep = Report(surface={}, command="", records=[[], {}, (), np.zeros((0, 2)), -0.0, complex(-0.0, 0.0)],
                 aggregates={"nan": float("nan"), "inf": -np.inf, "e": np.array(1.5)})
    assert rep.to_json() == reference_json(rep)


def test_non_str_keys_are_written_as_json_writes_them():
    rep = Report(surface={1: "a", 2.5: "b", False: "c", None: "d", float("nan"): "e"}, command="c")
    assert rep.to_json() == reference_json(rep)
