"""Serializable analysis records.

Reports are plain nested dicts with a versioned schema.  Every float is
serialized as a decimal string with 17 significant digits, so values
round-trip bit-exactly across platforms and re-encoding a decoded report
reproduces the bytes.  Complex numbers become {"re": ..., "im": ...} pairs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

SCHEMA_VERSION = "2"
TOOL_VERSION = "0.1.0"


_FLOAT = "%.17g"  # every report float, JSON and CSV: 17 significant digits round-trip a double


def _fmt(x: float) -> str:
    return _FLOAT % x


_quote = json.encoder.encode_basestring_ascii


def _key(k):
    """A dict key as ``json`` writes it: a str as itself, None, a bool, an int
    or a float as the JSON text of the value."""
    if isinstance(k, str):
        return k
    if k is None or isinstance(k, (int, float)):
        return json.dumps(k)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(k).__name__}")


def _write(v, nl, out):
    """Append to ``out`` the report text of ``v``, as ``json.dumps(indent=2)``
    lays it out at the nesting whose newline-and-indent is ``nl``: floats as
    17-digit strings, complex numbers as {"re", "im"} pairs of them, numpy
    scalars as their Python values and arrays as nested lists.  Numbers come
    first, being most of a report; bool is tested before its base class int."""
    if isinstance(v, (float, np.floating)):
        out.append(f'"{_fmt(v)}"')
    elif isinstance(v, (complex, np.complexfloating)):
        inner = nl + "  "
        out.append(f'{{{inner}"re": "{_fmt(v.real)}",{inner}"im": "{_fmt(v.imag)}"{nl}}}')
    elif isinstance(v, dict):
        if not v:
            out.append("{}")
            return
        inner, sep = nl + "  ", "{"
        for k, x in v.items():
            out.append(f"{sep}{inner}{_quote(_key(k))}: ")
            _write(x, inner, out)
            sep = ","
        out.append(nl + "}")
    elif isinstance(v, (list, tuple)):
        if not v:
            out.append("[]")
            return
        inner, sep = nl + "  ", "["
        for x in v:
            out.append(sep + inner)
            _write(x, inner, out)
            sep = ","
        out.append(nl + "]")
    elif isinstance(v, np.ndarray):
        _write(v.tolist() if v.ndim else v.item(), nl, out)
    elif isinstance(v, str):
        out.append(_quote(v))
    elif v is None:
        out.append("null")
    elif v is True or v is False or isinstance(v, np.bool_):
        out.append("true" if v else "false")
    elif isinstance(v, int):
        out.append(int.__repr__(v))
    elif isinstance(v, np.integer):
        out.append(int.__repr__(int(v)))
    else:
        raise TypeError(f"cannot serialize {type(v)!r}")


def decode_number(v):
    """Read back a serialized number (string, or {re, im} pair)."""
    if isinstance(v, str):
        return float(v)
    if isinstance(v, dict) and set(v) == {"re", "im"}:
        return complex(float(v["re"]), float(v["im"]))
    return v


@dataclass
class Report:
    surface: dict
    command: str
    records: list = field(default_factory=list)
    aggregates: dict = field(default_factory=dict)
    schema_version: str = SCHEMA_VERSION
    tool_version: str = TOOL_VERSION

    def to_json(self) -> str:
        """The report's bytes, written in one pass (``_write``)."""
        out = []
        _write({"schema_version": self.schema_version, "tool_version": self.tool_version,
                "surface": self.surface, "command": self.command,
                "records": self.records, "aggregates": self.aggregates}, "\n", out)
        out.append("\n")
        return "".join(out)

    @staticmethod
    def from_json(text: str) -> "Report":
        d = json.loads(text)
        return Report(
            surface=d["surface"],
            command=d["command"],
            records=d["records"],
            aggregates=d["aggregates"],
            schema_version=d["schema_version"],
            tool_version=d["tool_version"],
        )


def scan_csv(scan: dict, dim: int) -> str:
    """RFC-4180 CSV for a scan result dict (see gallery.scan_surface).

    Every field is a number, a boolean or blank, so none needs quoting; each
    column is formatted in one pass and the rows are joined afterwards.
    """
    P = scan["points"]
    header = [f"z{j + 1}_{part}" for j in range(dim) for part in ("re", "im")]
    header += ["II0norm2", "Hnorm2", "r", "J", "scalarR", "min_eig_L", "is_umbilic"]
    cols = [_fmt_column(x) for j in range(dim) for x in (P[:, j].real, P[:, j].imag)]
    blank = [""] * P.shape[0]
    has_imm = "II0norm2" in scan
    cols += [_fmt_column(scan["II0norm2"]), _fmt_column(scan["Hnorm2"])] if has_imm else [blank, blank]
    cols += [_fmt_column(scan[name]) for name in ("r", "J", "scalarR", "min_eig_L")]
    cols.append(["true" if u else "false" for u in np.asarray(scan["is_umbilic"], dtype=bool).tolist()]
                if has_imm else blank)
    lines = [",".join(header), *map(",".join, zip(*cols))]
    return "\r\n".join(lines) + "\r\n"


def _fmt_column(values) -> list:
    """The cells of a float column, each written as ``_fmt`` writes it.

    A scan column repeats most of its values (the grid is a symmetric product
    grid, and symmetric surfaces give bit-identical values at mirrored nodes),
    so each distinct value is formatted once and the strings are spread back
    through the inverse of ``np.unique``.  The key is the value's IEEE bits, not
    the value: -0.0 and 0.0 stay apart, and NaNs (never equal to themselves)
    group by payload.
    """
    bits = np.asarray(values, dtype=float).view(np.int64)
    distinct, inverse = np.unique(bits, return_inverse=True)
    text = np.array([_FLOAT % x for x in distinct.view(float).tolist()], dtype=object)
    return text[inverse].tolist()
