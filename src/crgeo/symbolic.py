"""Exact Wirtinger calculus on small expression trees.

Expressions are built over complex coordinates z^0..z^{m-1}; a variable and
its conjugate are independent symbols, so every expression has well-defined
derivatives d/dz^j and d/dzbar^j.  Trees are immutable after construction and
all operations here are pure, so expressions can be shared freely across
threads and cached aggressively.

Nodes are interned: each factory returns the one node of its (op, children,
payload), held in a module-level table for the life of the process, so equal
trees built apart are one object.  A derivative, a conjugate, a jet array or
a compiled program cached on a node is therefore shared by every surface of
the same structure, however often it is rebuilt.

Normal forms kept by the constructors:
  * conj(...) is distributed down to variables and constants at build time,
    so no conj node ever appears in a stored tree;
  * re(e) is rewritten to (e + conj(e))/2;
  * 0/1 absorption and constant folding are applied locally.

``jets`` builds every derivative array, taking each entry's steps in sorted
order so that commuting derivatives are one tree, and keeps it as a
``JetArray`` that carries its evaluation layout.  ``evaluate`` runs one or
more expressions as a flat post-order program over their union DAG: shared
nodes run once, conjugate partners are mirrored by ``np.conj``, and each
intermediate is dropped after its last reader.  The program is kept on the
first root, keyed by the tuple of roots, and compiled once per process.
``vanishes`` is the one zero test behind every load-time verdict (realness,
holomorphy, pluriharmonicity, rho = |F|^2 + psi): each bounds its deviations
by tol·max(1, |ref|) at fixed points, so a positive multiple is judged alike.

Distributing conj through log assumes the log argument stays off the negative
real axis; every expression in scope takes log of positive real quantities
(squared norms and 1 + |.|^2 combinations), where conj(log u) == log(conj u).
"""

from __future__ import annotations

import functools
import struct

import numpy as np

from .errors import DomainError

_CONST = "const"
_VAR = "var"
_ADD = "add"
_MUL = "mul"
_NEG = "neg"
_RECIP = "recip"
_POW = "pow"
_LOG = "log"


class Expr:
    """Immutable, interned expression-tree node. Build through the module
    factories: equal trees are one node, which lives for the process and
    carries its derivatives, jets, conjugate and programs for every later build."""

    __slots__ = ("op", "args", "payload", "_dcache", "_conj", "_indices", "_jets", "_progs")

    def __init__(self, op, args=(), payload=None):
        self.op = op
        self.args = args
        self.payload = payload
        self._dcache = None
        self._conj = None
        self._indices = None
        self._jets = None
        self._progs = None

    # arithmetic sugar; accepted scalars are wrapped into constants
    def __add__(self, other):
        return add(self, _coerce(other))

    def __radd__(self, other):
        return add(_coerce(other), self)

    def __sub__(self, other):
        return add(self, neg(_coerce(other)))

    def __rsub__(self, other):
        return add(_coerce(other), neg(self))

    def __mul__(self, other):
        return mul(self, _coerce(other))

    def __rmul__(self, other):
        return mul(_coerce(other), self)

    def __truediv__(self, other):
        return mul(self, recip(_coerce(other)))

    def __rtruediv__(self, other):
        return mul(_coerce(other), recip(self))

    def __neg__(self):
        return neg(self)

    def __pow__(self, k):
        return intpow(self, k)

    def __repr__(self):
        return f"Expr({to_text(self)})"


def _coerce(x):
    if isinstance(x, Expr):
        return x
    return const(x)


def _is_const(e, value=None):
    if e.op != _CONST:
        return False
    return value is None or e.payload == value


_NODES = {}  # (op, children, payload key) -> its one node, held for the process


def _node(op, args=(), payload=None, key=None):
    """The interned node of ``(op, args, payload)``; ``key`` replaces the
    payload in the table key where ``==`` is too coarse."""
    k = (op, args, payload if key is None else key)
    e = _NODES.get(k)
    if e is None:
        e = _NODES[k] = Expr(op, args, payload)
    return e


def const(c) -> Expr:
    c = complex(c)
    # keyed on the bits: ==, for which 0.0 == -0.0 and a NaN never equals itself, is too coarse and too fine
    return _node(_CONST, payload=c, key=struct.pack("<2d", c.real, c.imag))


def var(index: int, conjugated: bool = False) -> Expr:
    if index < 0:
        raise ValueError("variable index must be nonnegative")
    return _node(_VAR, payload=(index, bool(conjugated)))


def add(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b):
        return const(a.payload + b.payload)
    if _is_const(a, 0j):
        return b
    if _is_const(b, 0j):
        return a
    return _node(_ADD, (a, b))


def neg(a: Expr) -> Expr:
    if _is_const(a):
        return const(-a.payload)
    if a.op == _NEG:
        return a.args[0]
    return _node(_NEG, (a,))


def mul(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b):
        return const(a.payload * b.payload)
    if _is_const(a, 0j) or _is_const(b, 0j):
        return const(0)
    if _is_const(a, 1 + 0j):
        return b
    if _is_const(b, 1 + 0j):
        return a
    return _node(_MUL, (a, b))


def recip(a: Expr) -> Expr:
    if _is_const(a):
        if a.payload == 0:
            raise DomainError("reciprocal of the zero constant", a)
        return const(1.0 / a.payload)
    if a.op == _RECIP:
        return a.args[0]
    return _node(_RECIP, (a,))


def intpow(a: Expr, k: int) -> Expr:
    if not isinstance(k, (int, np.integer)):
        raise ValueError("only integer exponents are supported")
    k = int(k)
    if k == 0:
        return const(1)
    if k == 1:
        return a
    if _is_const(a):
        return const(a.payload**k)
    if a.op == _POW:
        return intpow(a.args[0], a.payload * k)
    return _node(_POW, (a,), k)


def log(a: Expr) -> Expr:
    if _is_const(a):
        if a.payload == 0:
            raise DomainError("log of the zero constant", a)
        return const(np.log(a.payload))
    return _node(_LOG, (a,))


def conj(e: Expr) -> Expr:
    """Structural conjugation: flips variables, folds constants, distributes."""
    cached = e._conj
    if cached is not None:
        return cached
    if e.op == _CONST:
        out = const(np.conj(e.payload))
    elif e.op == _VAR:
        j, c = e.payload
        out = var(j, not c)
    elif e.op == _POW:
        out = intpow(conj(e.args[0]), e.payload)
    else:
        children = tuple(conj(a) for a in e.args)
        out = {_ADD: add, _MUL: mul, _NEG: neg, _RECIP: recip, _LOG: log}[e.op](*children)
    e._conj = out
    out._conj = e
    return out


def re(e: Expr) -> Expr:
    """Real part, kept as the tree (e + conj(e))/2."""
    return mul(const(0.5), add(e, conj(e)))


def im(e: Expr) -> Expr:
    return mul(const(-0.5j), add(e, neg(conj(e))))


def abs2(e: Expr) -> Expr:
    """Squared modulus e * conj(e)."""
    return mul(e, conj(e))


_NO_INDICES = frozenset()


def free_indices(e: Expr) -> frozenset:
    """Set of coordinate indices occurring in the tree (barred or not)."""
    if e._indices is not None:
        return e._indices
    if e.op == _CONST:
        s = _NO_INDICES
    elif e.op == _VAR:
        s = frozenset((e.payload[0],))
    else:  # reuse a child's set when it already holds every index
        sets = [free_indices(a) for a in e.args]
        s = max(sets, key=len)
        if not all(t <= s for t in sets):
            s = s.union(*sets)
    e._indices = s
    return s


def differentiate(e: Expr, j: int, conjugated: bool = False) -> Expr:
    """Wirtinger derivative d e / dz^j (or d/dzbar^j when conjugated)."""
    e._dcache = e._dcache or {}
    key = 2 * j + bool(conjugated)  # an int key: no tuple is kept per derivative
    cached = e._dcache.get(key)
    if cached is not None:
        return cached

    if e.op == _CONST:
        out = const(0)
    elif e.op == _VAR:
        vj, vc = e.payload
        out = const(1 if (vj == j and vc == conjugated) else 0)
    elif e.op == _ADD:
        out = add(differentiate(e.args[0], j, conjugated), differentiate(e.args[1], j, conjugated))
    elif e.op == _NEG:
        out = neg(differentiate(e.args[0], j, conjugated))
    elif e.op == _MUL:
        a, b = e.args
        out = add(
            mul(differentiate(a, j, conjugated), b),
            mul(a, differentiate(b, j, conjugated)),
        )
    elif e.op == _RECIP:
        (a,) = e.args
        out = neg(mul(differentiate(a, j, conjugated), recip(intpow(a, 2))))
    elif e.op == _POW:
        (a,) = e.args
        k = e.payload
        out = mul(mul(const(k), intpow(a, k - 1)), differentiate(a, j, conjugated))
    elif e.op == _LOG:
        (a,) = e.args
        out = mul(differentiate(a, j, conjugated), recip(a))
    else:  # pragma: no cover
        raise AssertionError(f"unhandled op {e.op}")

    e._dcache[key] = out
    return out


class JetArray(tuple):
    """A nested tuple of expressions with its evaluation layout, built once:
    ``shape`` of the nesting, the row-major ``flat`` tuple of its entries, and
    ``values``, their payloads when every entry is a constant node (else None)."""

    def __new__(cls, nested):
        self = super().__new__(cls, nested)
        grid = np.array(self, dtype=object)
        self.shape, self.flat = grid.shape, tuple(grid.flat)
        self.values = constants(self.flat)
        return self


def jets(e, m: int, pattern: str):
    """``JetArray`` of the Wirtinger derivatives of ``e`` (of each expression of
    a list ``e``, one array per expression along the first index), with one
    index in ``range(m)`` per letter of ``pattern``: ``h`` is d/dz and ``b`` is
    d/dzbar, so entry ``[j][k]`` of ``"hb"`` is d_j d_kbar e.  Each entry takes
    its steps sorted by (conjugated, index): permuted multi-indices give the
    same tree.  The array is built once per process and kept on ``e``, or on a
    list's first expression keyed by the list, for every caller.
    """
    single = isinstance(e, Expr)
    if single:
        home, key = e, (m, pattern)
    else:
        e = tuple(e)
        home, key = e[0], (e, m, pattern)
    home._jets = home._jets or {}
    out = home._jets.get(key)
    if out is None:
        if single:

            def entry(steps):
                if len(steps) < len(pattern):
                    c = pattern[len(steps)] == "b"
                    return tuple(entry(steps + ((c, j),)) for j in range(m))
                out = e
                for c, j in sorted(steps):
                    out = differentiate(out, j, c)
                return out

            out = JetArray(entry(())) if pattern else e
        else:
            out = JetArray(jets(x, m, pattern) for x in e)
        home._jets[key] = out
    return out


def constants(exprs):
    """The values of a list of expressions when every one is a constant node,
    else None.  The constructors fold every tree free of variables into one
    constant node, so this tests structure: nothing is evaluated.
    """
    if all(e.op == _CONST for e in exprs):
        return [e.payload for e in exprs]
    return None


def evaluate(exprs, coords):
    """Evaluate one expression, or a list of them (giving a list), at a point.

    ``coords`` is a sequence of complex scalars, or of equally shaped numpy
    arrays for vectorized evaluation over many points at once.  The
    expressions run as one ``_compile`` program, kept on the first root and
    keyed by the tuple of roots.
    """
    roots = (exprs,) if isinstance(exprs, Expr) else tuple(exprs)
    progs = roots[0]._progs = roots[0]._progs or {}
    if roots not in progs:
        progs[roots] = _compile(roots)
    vals = _run(progs[roots], coords)
    return vals[0] if isinstance(exprs, Expr) else vals


_CONJ = "conj"  # program-only op: the conjugate of a value already computed


def _compile(roots):
    """Post-order program of the union DAG of ``roots``: ``(code, outs, nregs)``.

    A node shared between roots runs once; a node whose conjugate partner
    already ran is one ``np.conj`` of that value.  Each instruction is
    ``(op, out, a, b, node)``: it writes register ``out`` from operand
    registers ``a``, ``b`` (or the node's payload).  A register is released
    after its value's last reader, so the next value written there drops it.
    """
    pos, prog, uses = {}, [], []  # prog: (node, op, operand positions); uses: readers

    def visit(e):
        i = pos.get(id(e))
        if i is None:
            partner = pos.get(id(e._conj)) if e.args else None
            if partner is None:
                op, reads = e.op, tuple(map(visit, e.args))
            else:
                op, reads = _CONJ, (partner,)
                uses[partner] += 1
            i = pos[id(e)] = len(prog)
            prog.append((e, op, reads))
            uses.append(0)
        uses[i] += 1
        return i

    outs = [visit(e) for e in roots]  # the roots' own uses are never released
    reg, free, code, nregs = [], [], [], 0
    for e, op, reads in prog:
        a = reg[reads[0]] if reads else None
        b = reg[reads[1]] if len(reads) == 2 else None
        for q in reads:
            uses[q] -= 1
            if not uses[q]:
                free.append(reg[q])
        out = free.pop() if free else nregs
        nregs = max(nregs, out + 1)
        reg.append(out)
        if op == _CONST:
            a = e.payload
        elif op == _VAR:
            a, b = e.payload
        elif op == _POW:
            b = e.payload
        code.append((op, out, a, b, e))
    return tuple(code), tuple(reg[i] for i in outs), nregs


def _run(program, coords):
    code, outs, nregs = program
    r = [None] * nregs
    dim = len(coords)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for op, out, a, b, e in code:
            if op == _MUL:
                r[out] = r[a] * r[b]
            elif op == _ADD:
                r[out] = r[a] + r[b]
            elif op == _CONJ:
                r[out] = np.conj(r[a])
            elif op == _NEG:
                r[out] = -r[a]
            elif op == _VAR:
                if a >= dim:
                    raise DomainError(f"variable z{a + 1} outside point of dimension {dim}", e)
                r[out] = np.conj(coords[a]) if b else coords[a]
            elif op == _CONST:
                r[out] = a
            elif op == _POW:
                if b < 0:
                    _guard_nonzero(r[a], e)
                r[out] = r[a] ** b
            else:
                _guard_nonzero(r[a], e)
                r[out] = 1.0 / r[a] if op == _RECIP else np.log(r[a])
    return [r[k] for k in outs]


def _guard_nonzero(u, e):
    bad = (u == 0).any() if isinstance(u, np.ndarray) else u == 0
    if bad:
        raise DomainError(f"singular subexpression {to_text(e)}", e)


_ZERO_TEST_SEED = 0x5EED
_N_ZERO_POINTS = 16


def _random_coords(rng, m, k=1):
    """Evaluation points for randomized zero tests, kept clear of the log cut
    and of coordinate zeros (re in [0.4, 1.3], |im| <= 0.9)."""
    re_part = rng.uniform(0.4, 1.3, size=(k, m))
    im_part = rng.uniform(-0.9, 0.9, size=(k, m))
    return re_part + 1j * im_part


@functools.cache
def _zero_test_points(m):
    pts = _random_coords(np.random.default_rng(_ZERO_TEST_SEED), m, _N_ZERO_POINTS)
    pts.flags.writeable = False  # shared by every caller for the process
    return tuple(pts[:, j] for j in range(m))


def vanishes(devs, ref: Expr, tol: float) -> bool:
    """The one randomized zero test: True when every expression of ``devs`` is
    below tol·max(1, |ref|) at each of the ``_N_ZERO_POINTS`` fixed points (in
    the dimension the free indices of ``ref`` and ``devs`` need), so c·devs
    against c·ref gets the verdict of devs against ref for every c > 0; a NaN
    fails.  Exact constant zeros are not evaluated; the rest run with ``ref``
    last as one program, kept on the first of them."""
    devs = [d for d in devs if not _is_const(d, 0j)]
    if not devs:
        return True
    m = max(free_indices(ref).union(*map(free_indices, devs)), default=0) + 1
    *vals, val = evaluate(devs + [ref], _zero_test_points(m))
    bound = tol * np.maximum(1.0, np.abs(val))
    return all(bool((np.abs(v) < bound).all()) for v in vals)


def is_holomorphic(e: Expr) -> bool:
    """True iff every dzbar^j-derivative of e vanishes: ``vanishes`` against e
    with tol 1e-12."""
    return vanishes([differentiate(e, j, conjugated=True) for j in free_indices(e)], e, 1e-12)


def is_pluriharmonic(e: Expr) -> bool:
    """True iff all mixed second Wirtinger derivatives of e vanish:
    ``vanishes`` against e with tol 1e-10."""
    idx = free_indices(e)
    mixed = [differentiate(differentiate(e, j), k, conjugated=True) for j in idx for k in idx]
    return vanishes(mixed, e, 1e-10)


def to_text(e: Expr) -> str:
    """Render a tree in the surface-file expression syntax."""
    if e.op == _CONST:
        c = e.payload
        if c.imag == 0:
            return _fmt_real(c.real)
        if c.real == 0:
            return f"{_fmt_real(c.imag)}i"
        sign = "+" if c.imag >= 0 else "-"
        return f"({_fmt_real(c.real)}{sign}{_fmt_real(abs(c.imag))}i)"
    if e.op == _VAR:
        j, c = e.payload
        name = f"z{j + 1}"
        return f"conj({name})" if c else name
    if e.op == _ADD:
        return f"({to_text(e.args[0])} + {to_text(e.args[1])})"
    if e.op == _MUL:
        return f"({to_text(e.args[0])} * {to_text(e.args[1])})"
    if e.op == _NEG:
        return f"(-{to_text(e.args[0])})"
    if e.op == _RECIP:
        return f"(1 / {to_text(e.args[0])})"
    if e.op == _POW:
        return f"{to_text(e.args[0])}^{e.payload}"
    if e.op == _LOG:
        return f"log({to_text(e.args[0])})"
    raise AssertionError(f"unhandled op {e.op}")  # pragma: no cover


def _fmt_real(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)
