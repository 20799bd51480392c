"""Report.to_json and scan_csv against the reference encoders they replaced."""

import json

import numpy as np
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from crgeo.report import Report, scan_csv


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


def reference_csv(scan, dim):
    """The reference: every cell of the scan CSV formatted on its own."""
    P = scan["points"]
    has_imm = "II0norm2" in scan
    header = [f"z{j + 1}_{part}" for j in range(dim) for part in ("re", "im")]
    header += ["II0norm2", "Hnorm2", "r", "J", "scalarR", "min_eig_L", "is_umbilic"]
    lines = [",".join(header)]
    for i in range(P.shape[0]):
        row = []
        for j in range(dim):
            row += ["%.17g" % float(P[i, j].real), "%.17g" % float(P[i, j].imag)]
        row += ["%.17g" % float(scan[k][i]) for k in ("II0norm2", "Hnorm2")] if has_imm else ["", ""]
        row += ["%.17g" % float(scan[k][i]) for k in ("r", "J", "scalarR", "min_eig_L")]
        row.append(("true" if scan["is_umbilic"][i] else "false") if has_imm else "")
        lines.append(",".join(row))
    return "".join(line + "\r\n" for line in lines)


# NaNs with distinct payloads (quiet, signalling, negative), both zeros (equal
# under ==, printed apart), infinities and subnormals
SPECIAL = np.array([0x7FF8000000000000, 0x7FF8000000000001, 0x7FF00000DEADBEEF, 0xFFF8000000000000,
                    0x0000000000000000, 0x8000000000000000, 0x7FF0000000000000, 0xFFF0000000000000,
                    0x0000000000000001, 0x800FFFFFFFFFFFFF, 0x0000000100000000], dtype=np.uint64).view(np.float64)
CSV_FIELDS = ("II0norm2", "Hnorm2", "r", "J", "scalarR", "min_eig_L")


def by_parts(re, im):
    z = np.empty(np.shape(re), dtype=complex)  # not re + 1j*im, which turns inf into nan
    z.real, z.imag = re, im
    return z


def make_scan(P, F, umbilic):
    """A scan dict of the points P, whose six fields are strided .real/.imag views
    of the columns of F; without the immersion fields when ``umbilic`` is None."""
    scan = {"points": P}
    for k, name in enumerate(CSV_FIELDS):
        scan[name] = F[:, k // 2].imag if k % 2 else F[:, k // 2].real
    if umbilic is None:
        del scan["II0norm2"], scan["Hnorm2"]
    else:
        scan["is_umbilic"] = umbilic
    return scan, P.shape[1]


@st.composite
def scans(draw):
    """A scan whose columns repeat a few values, special ones among them, heavily."""
    dim, rows = draw(st.integers(1, 3)), draw(st.integers(0, 40))
    pool = np.array(draw(st.lists(st.sampled_from(SPECIAL.tolist()), min_size=1, max_size=5))
                    + draw(st.lists(st.floats(), max_size=4)))
    index = hnp.arrays(np.intp, (rows, dim + 3), elements=st.integers(0, len(pool) - 1))
    Z = by_parts(pool[draw(index)], pool[draw(index)])
    umbilic = draw(st.none() | hnp.arrays(np.bool_, rows))
    return make_scan(Z[:, :dim], Z[:, dim:], umbilic)


EDGE = np.tile(SPECIAL, 3)[:, None]
NONE = np.zeros((0, 3), dtype=complex)


@given(scans())
@example(make_scan(by_parts(EDGE, EDGE[::-1]), by_parts(EDGE[:, [0, 0, 0]], EDGE[::-1, [0, 0, 0]]), EDGE[:, 0] > 0))
@example(make_scan(NONE[:, :2], NONE, np.zeros(0, dtype=bool)))
@example(make_scan(NONE[:, :2], NONE, None))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_scan_csv_writes_the_reference_bytes(case):
    scan, dim = case
    assert scan_csv(scan, dim) == reference_csv(scan, dim)
