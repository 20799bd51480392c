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

SCHEMA_VERSION = "1"
TOOL_VERSION = "0.1.0"


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def encode_value(v):
    """Normalize a python/numpy value into the report's JSON form."""
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

    def to_dict(self):
        return {
            "schema_version": self.schema_version,
            "tool_version": self.tool_version,
            "surface": encode_value(self.surface),
            "command": self.command,
            "records": encode_value(self.records),
            "aggregates": encode_value(self.aggregates),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

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
    lines = [",".join(header)] + [",".join(row) for row in zip(*cols)]
    return "\r\n".join(lines) + "\r\n"


def _fmt_column(values) -> list:
    return ["%.17g" % x for x in np.asarray(values, dtype=float).tolist()]
