"""Text syntax for expressions and surface-specification files.

Expression grammar (whitespace-insensitive)::

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ['^' ['-'] INT]          (right-associative via recursion)
    atom   := NUMBER | NUMBER 'i' | 'i' | VAR | FUNC '(' expr ')' | '(' expr ')'
    VAR    := 'z' INT                        (1-based: z1 .. zm)
    FUNC   := 'conj' | 're' | 'im' | 'abs2' | 'log'

Surface files are ``key = value`` lines (``#`` comments allowed)::

    rho   = abs2(z1) + abs2(z2) - 1
    dim   = 2
    F     = [z1, z2]           # optional holomorphic components
    psi   = -1                 # optional pluriharmonic part
    sigma = log(1 + abs2(z2))  # optional conformal factor exponent
"""

from __future__ import annotations

import re as _re

from . import symbolic as sym
from .errors import DslError

_TOKEN = _re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)(?P<imag>i\b)?"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),\[\]]))"
)

_FUNCS = {
    "conj": sym.conj,
    "re": sym.re,
    "im": sym.im,
    "abs2": sym.abs2,
    "log": sym.log,
}


def _tokenize(text):
    pos, out = 0, []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise DslError(f"cannot tokenize {text[pos:pos + 12]!r} at offset {pos}")
        pos = m.end()
        if m.group("num") is not None:
            out.append(("imag" if m.group("imag") else "num", m.group("num")))
        elif m.group("name") is not None:
            out.append(("name", m.group("name")))
        else:
            out.append(("op", m.group("op")))
    out.append(("end", ""))
    return out


class _Parser:
    def __init__(self, tokens, dim=None):
        self.toks = tokens
        self.i = 0
        self.dim = dim

    def peek(self):
        return self.toks[self.i]

    def take(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, kind, value=None):
        k, v = self.take()
        if k != kind or (value is not None and v != value):
            raise DslError(f"expected {value or kind}, found {v!r}")
        return v

    def parse_expr(self):
        e = self.parse_term()
        while self.peek() == ("op", "+") or self.peek() == ("op", "-"):
            _, op = self.take()
            rhs = self.parse_term()
            e = e + rhs if op == "+" else e - rhs
        return e

    def parse_term(self):
        e = self.parse_unary()
        while self.peek() == ("op", "*") or self.peek() == ("op", "/"):
            _, op = self.take()
            rhs = self.parse_unary()
            e = e * rhs if op == "*" else e / rhs
        return e

    def parse_unary(self):
        if self.peek() == ("op", "-"):
            self.take()
            return -self.parse_unary()
        return self.parse_power()

    def parse_power(self):
        base = self.parse_atom()
        if self.peek() == ("op", "^"):
            self.take()
            sign = 1
            if self.peek() == ("op", "-"):
                self.take()
                sign = -1
            kind, v = self.take()
            if kind != "num" or "." in v or "e" in v or "E" in v:
                raise DslError(f"exponent must be an integer literal, found {v!r}")
            return sym.intpow(base, sign * int(v))
        return base

    def parse_atom(self):
        kind, v = self.take()
        if kind == "num":
            return sym.const(float(v))
        if kind == "imag":
            return sym.const(1j * float(v))
        if kind == "name":
            if v == "i":
                return sym.const(1j)
            if v in _FUNCS:
                self.expect("op", "(")
                inner = self.parse_expr()
                self.expect("op", ")")
                return _FUNCS[v](inner)
            m = _re.fullmatch(r"z(\d+)", v)
            if m:
                idx = int(m.group(1))
                if idx < 1:
                    raise DslError("variables are 1-based: z1, z2, ...")
                if self.dim is not None and idx > self.dim:
                    raise DslError(f"variable {v} exceeds declared dimension {self.dim}")
                return sym.var(idx - 1)
            raise DslError(f"unknown identifier {v!r}")
        if (kind, v) == ("op", "("):
            inner = self.parse_expr()
            self.expect("op", ")")
            return inner
        raise DslError(f"unexpected token {v!r}")


def parse_expr(text: str, dim: int | None = None) -> sym.Expr:
    """Parse a single expression; ``dim`` bounds the allowed variable index."""
    p = _Parser(_tokenize(text), dim)
    e = p.parse_expr()
    if p.peek()[0] != "end":
        raise DslError(f"trailing input {p.peek()[1]!r}")
    return e


def parse_expr_list(text: str, dim: int | None = None) -> list:
    """Parse ``[e1, e2, ...]`` into a list of expressions."""
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise DslError("expression list must be bracketed: [e1, e2, ...]")
    return [parse_expr(p, dim) for p in split_top_level(text[1:-1])]


def split_top_level(text: str) -> list:
    """Split at the commas outside parentheses and brackets; a blank last
    part is dropped."""
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if "".join(cur).strip():
        parts.append("".join(cur))
    return parts


def parse_surface_file(text: str) -> dict:
    """Parse a surface-specification file into a raw field dict.

    Returns keys ``rho`` (Expr), ``dim`` (int), and optionally ``F`` (list of
    Expr), ``psi`` (Expr), ``sigma`` (Expr).
    """
    fields = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DslError(f"line {lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        key = key.strip().lower()
        if key in fields:
            raise DslError(f"line {lineno}: duplicate key {key!r}")
        fields[key] = value.strip()

    if "rho" not in fields:
        raise DslError("surface file must define 'rho'")
    if "dim" not in fields:
        raise DslError("surface file must define 'dim'")
    try:
        dim = int(fields["dim"])
    except ValueError as exc:
        raise DslError(f"dim must be an integer, found {fields['dim']!r}") from exc
    if dim < 2:
        raise DslError("dim must be at least 2")

    out = {"dim": dim, "rho": parse_expr(fields["rho"], dim)}
    if "f" in fields:
        out["F"] = parse_expr_list(fields["f"], dim)
    if "psi" in fields:
        out["psi"] = parse_expr(fields["psi"], dim)
    if "sigma" in fields:
        out["sigma"] = parse_expr(fields["sigma"], dim)
    unknown = set(fields) - {"rho", "dim", "f", "psi", "sigma"}
    if unknown:
        raise DslError(f"unknown surface-file keys: {sorted(unknown)}")
    return out
