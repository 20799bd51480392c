"""Wirtinger engine: derivative rules, evaluation semantics, zero tests."""

import collections
import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crgeo import symbolic as sym
from crgeo.checks import fd_wirtinger, max_fd_mismatch, random_exprs, symcore_suite
from crgeo.cli import main as cli_main
from crgeo.dsl import parse_expr
from crgeo.errors import DomainError
from crgeo.gallery import gallery
from crgeo.hypersurface import eval_arrays
from crgeo.quadrature import RadialChart, _radial_batch


def ev(e, *coords):
    return sym.evaluate(e, [complex(c) for c in coords])


class TestDerivativeRules:
    def test_product_rule_abs2(self):
        # d/dz1 of z1*conj(z1) collapses structurally to conj(z1)
        d = sym.differentiate(sym.abs2(sym.var(0)), 0, conjugated=False)
        assert d.op == "var" and d.payload == (0, True)

    def test_holomorphic_kills_conjugate_derivative(self):
        d = sym.differentiate(sym.intpow(sym.var(0), 2), 0, conjugated=True)
        assert d.op == "const" and d.payload == 0

    def test_log_mixed_second_derivative(self):
        # d^2/dw dwbar log(1 + |w|^2) at w = 1 equals 1/(1+|w|^2)^2 = 1/4,
        # frozen from the central-difference oracle below
        e = sym.log(sym.const(1) + sym.abs2(sym.var(0)))
        d2 = sym.differentiate(sym.differentiate(e, 0, False), 0, True)
        val = ev(d2, 1.0)
        P = np.array([[1.0 + 0j]])
        fd = fd_wirtinger(lambda Q: sym.evaluate(sym.differentiate(e, 0, False), [Q[:, 0]]), P)[1][0, 0]
        assert abs(val - 0.25) < 1e-12
        assert abs(fd - 0.25) < 1e-6

    def test_chain_rule_recip_pow(self):
        # d/dz (1/(z^3)) = -3/z^4
        e = sym.recip(sym.intpow(sym.var(0), 3))
        d = sym.differentiate(e, 0, False)
        z = 0.7 + 0.3j
        assert abs(ev(d, z) - (-3.0 / z**4)) < 1e-12

    def test_derivative_outside_support_is_zero(self):
        d = sym.differentiate(sym.abs2(sym.var(0)), 1, False)
        assert d.op == "const" and d.payload == 0


class TestEvaluate:
    def test_abs2(self):
        assert abs(ev(sym.abs2(sym.var(0)), 3 + 4j) - 25) < 1e-14

    def test_re(self):
        assert abs(ev(sym.re(sym.var(0)), 2 + 5j) - 2) < 1e-14

    def test_log_of_squared_modulus(self):
        val = ev(sym.log(sym.abs2(sym.var(0))), np.e)
        assert abs(val - 2.0) < 1e-14

    def test_log_zero_raises(self):
        with pytest.raises(DomainError):
            ev(sym.log(sym.var(0)), 0)

    def test_recip_zero_raises(self):
        with pytest.raises(DomainError):
            ev(sym.recip(sym.var(0)), 0)

    def test_array_evaluation_matches_scalar(self):
        e = sym.log(sym.const(1) + sym.abs2(sym.var(0) * sym.var(1)))
        zs = np.array([0.3 + 0.1j, 1.2 - 0.4j, -0.7 + 0.2j])
        ws = np.array([1.0 + 0j, 0.5 + 0.5j, 2.0 - 1.0j])
        batch = sym.evaluate(e, [zs, ws])
        single = [ev(e, z, w) for z, w in zip(zs, ws)]
        assert np.allclose(batch, single, atol=1e-15)

    def test_shared_subtrees_evaluate_once(self):
        base = sym.abs2(sym.var(0))
        e = sym.add(sym.mul(base, base), base)
        assert abs(ev(e, 2.0) - 20.0) < 1e-14


def bits(v):
    """The IEEE bit patterns of a complex value or array."""
    return np.ascontiguousarray(v, dtype=complex).view(np.uint64)


def union_with_conj_pairs(rng, m):
    """Random entries plus re/im/conj trees of some of them."""
    entries = random_exprs(rng, m, count=6)
    return entries + [sym.re(entries[0]), sym.conj(entries[1]), sym.im(entries[2]), sym.abs2(entries[3])]


class TestProgram:
    @pytest.mark.parametrize("seed", range(8))
    def test_union_matches_each_entry_alone(self, seed):
        rng = np.random.default_rng(seed)
        exprs = union_with_conj_pairs(rng, 3)
        P = sym._random_coords(rng, 3, 40)
        coords = [P[:, j] for j in range(3)]
        union = sym.evaluate(exprs, coords)
        assert len(union) == len(exprs)
        for e, v in zip(exprs, union):
            np.testing.assert_array_equal(bits(v), bits(sym.evaluate(e, coords)))

    @pytest.mark.parametrize("seed", range(8))
    def test_conj_mirror_is_bitwise(self, seed):
        rng = np.random.default_rng(seed)
        P = sym._random_coords(rng, 2, 40)
        coords = [P[:, j] for j in range(2)]
        for e in random_exprs(rng, 2, count=6):
            np.testing.assert_array_equal(bits(np.conj(sym.evaluate(e, coords))),
                                          bits(sym.evaluate(sym.conj(e), coords)))

    def test_shared_and_conjugate_nodes_run_once(self):
        e = next(e for e in random_exprs(np.random.default_rng(3), 2) if e.args)
        code = sym._compile([e])[0]
        size, mirrored = len(code), [ins[0] for ins in code].count("conj")
        # re(e) = 0.5 * (e + conj(e)): conj(e) is one instruction, not a second tree
        code = sym._compile([sym.re(e)])[0]
        assert len(code) == size + 4
        assert [ins[0] for ins in code].count("conj") == mirrored + 1
        assert len(sym._compile([e, sym.mul(e, sym.const(2))])[0]) == size + 2

    def test_domain_error_in_union_names_subexpression(self):
        bad = sym.recip(sym.add(sym.var(0), sym.const(-1)))
        exprs = [sym.abs2(sym.var(1)), sym.add(sym.const(1), bad), sym.var(0)]
        with pytest.raises(DomainError) as info:
            sym.evaluate(exprs, [np.array([1.0 + 0j, 2.0]), np.array([1j, 1.0])])
        assert info.value.subexpression is bad

    @pytest.mark.parametrize("seed", range(8))
    def test_union_holds_no_more_live_values_than_its_largest_entry(self, seed):
        exprs = random_exprs(np.random.default_rng(seed), 3, count=10)
        entry_peak = max(sym._compile([e])[2] for e in exprs)
        code, outs, nregs = sym._compile(exprs)
        # interned entries share nodes (variables, constants), and a node read
        # by several entries stays held until its last reader
        counts = collections.Counter(i for e in exprs for i in tree_ids(e))
        shared = sum(1 for n in counts.values() if n > 1)
        # the finished entries' values and the shared nodes are held; beyond
        # them, the union needs no more registers than one entry alone
        assert nregs - (len(exprs) - 1) <= entry_peak + shared
        assert nregs < len(code)

    def test_union_of_disjoint_entries_keeps_the_unshared_bound(self):
        # entries over disjoint variables and constants share no node
        exprs = [sym.log(sym.abs2(sym.var(j) * sym.var(j + 3) + (j + 0.5))) for j in range(3)]
        assert not set.intersection(*(tree_ids(e) for e in exprs))
        entry_peak = max(sym._compile([e])[2] for e in exprs)
        assert sym._compile(exprs)[2] - (len(exprs) - 1) <= entry_peak


# the order in which each jet array's entries used to take their steps:
# entry index -> (index, conjugated) steps
OLD_ORDER = {
    "h": lambda j: ((j, False),),
    "hb": lambda j, k: ((j, False), (k, True)),
    "hh": lambda l, j: ((l, False), (j, False)),
    "hbh": lambda l, c, j: ((l, False), (c, True), (j, False)),
    "hbhb": lambda j, k, a, c: ((a, False), (c, True), (j, False), (k, True)),
}

JET_SURFACES = [
    ("sphere", {"r": 1.0, "n": 1}), ("sphere", {"r": 1.0, "n": 2}), ("ellipsoid", {"A": (0.1, 0.2, 0.3)}),
    ("whitney", {"n": 1}), ("whitney", {"n": 2}), ("reinhardt", {"n": 1}), ("reinhardt", {"n": 2}),
]


def chain(e, steps):
    for j, c in steps:
        e = sym.differentiate(e, j, c)
    return e


def tree_ids(e, seen=None):
    """The ids of every node of the tree ``e``."""
    seen = set() if seen is None else seen
    if id(e) not in seen:
        seen.add(id(e))
        for a in e.args:
            tree_ids(a, seen)
    return seen


def flat(nested):
    return list(np.array(nested, dtype=object).ravel())


class TestJets:
    @pytest.mark.parametrize("name,params", JET_SURFACES)
    @pytest.mark.parametrize("pattern", sorted(OLD_ORDER))
    def test_entries_match_the_ordered_chain(self, name, params, pattern):
        surf = gallery(name, **params)
        rho, m = surf.chart.rho, surf.dim
        P = surf.random_points(20, seed=7)
        new = eval_arrays([sym.jets(rho, m, pattern)], P)[0]
        idx = list(itertools.product(range(m), repeat=len(pattern)))
        old = np.stack([eval_arrays([chain(rho, OLD_ORDER[pattern](*i))], P)[0] for i in idx], axis=-1)
        old = old.reshape(new.shape)
        assert np.max(np.abs(new - old)) <= 1e-13 * max(1.0, np.max(np.abs(old)))

    def test_permuted_multi_indices_are_one_tree(self):
        rho = gallery("reinhardt", n=2).chart.rho
        hh, hbh, j4 = (sym.jets(rho, 3, p) for p in ("hh", "hbh", "hbhb"))
        for j, k, a, c in itertools.product(range(3), repeat=4):
            assert hh[j][a] is hh[a][j]
            assert hbh[j][k][a] is hbh[a][k][j]
            assert j4[j][k][a][c] is j4[a][c][j][k] is j4[a][k][j][c] is j4[j][c][a][k]
        # 81 fourth jets: 6 unbarred pairs x 6 barred pairs, one tree each
        pairs = {(tuple(sorted((j, a))), tuple(sorted((k, c))), id(j4[j][k][a][c]))
                 for j, k, a, c in itertools.product(range(3), repeat=4)}
        assert len(pairs) == 36
        # and interned: pairs with equal trees share one node (4 here)
        assert len({id(e) for e in flat(j4)}) == len({sym.to_text(e) for e in flat(j4)}) == 4

    @pytest.mark.parametrize("name,params", JET_SURFACES)
    def test_first_and_mixed_jets_are_the_ordered_nodes(self, name, params):
        surf = gallery(name, **params)
        rho, m = surf.chart.rho, surf.dim
        for j in range(m):
            assert sym.jets(rho, m, "h")[j] is sym.differentiate(rho, j, False)
            for k in range(m):
                assert sym.jets(rho, m, "hb")[j][k] is chain(rho, OLD_ORDER["hb"](j, k))

    def test_a_list_of_expressions_gives_one_array_each(self):
        F = [sym.var(0), sym.mul(sym.var(0), sym.var(1))]
        dF = sym.jets(F, 2, "h")
        assert dF[1][0] is sym.differentiate(F[1], 0, False)
        assert dF[0][1].op == "const" and dF[0][1].payload == 0
        assert sym.jets(F[1], 2, "b")[0].payload == 0


class TestProgramCache:
    @pytest.fixture
    def compiles(self, monkeypatch):
        calls = []
        real = sym._compile

        def counted(roots):
            calls.append(tuple(roots))
            return real(roots)

        monkeypatch.setattr(sym, "_compile", counted)
        return calls

    def test_once_per_distinct_root_tuple(self, compiles):
        # nodes live for the process: a constant no other test builds keeps
        # these trees uncompiled until now
        e0, e1 = (e + 7.25e-3j for e in random_exprs(np.random.default_rng(5), 2, count=2))
        assert e0._progs is None and e1._progs is None
        coords = [np.array([0.5 + 0.1j, 0.9]), np.array([0.7, 1.1 - 0.3j])]
        for _ in range(3):
            sym.evaluate([e0, e1], coords)
            sym.evaluate(e0, coords)
            sym.evaluate([e0], coords)  # one expression and a list of it share a program
            sym.evaluate([e1, e0], coords)
        assert compiles == [(e0, e1), (e0,), (e1, e0)]

    def test_radial_batch_compiles_its_gradient_list_once(self, compiles):
        # nodes live for the process: coefficients no other test builds keep
        # this surface's rho and gradient uncompiled until now
        surf = gallery("ellipsoid", A=(0.1375, 0.2625))
        compiles.clear()  # building the surface ran its zero tests
        grad = tuple(sym.jets(surf.chart.rho, 2, "h"))
        assert surf.chart.rho._progs is None and grad[0]._progs is None
        rng = np.random.default_rng(0)
        U = rng.standard_normal((16, 4))
        _radial_batch(RadialChart(surf.chart), U / np.linalg.norm(U, axis=1, keepdims=True))
        assert compiles == [(surf.chart.rho,), grad]


class TestInterning:
    """Every factory returns the one node of its (op, children, payload)."""

    def test_equal_trees_built_apart_are_one_node(self):
        def build():
            z, w = sym.var(0), sym.var(1, conjugated=True)
            return sym.log(sym.add(sym.const(2), sym.mul(sym.neg(z), sym.recip(sym.intpow(w, 3)))))

        a, b = build(), build()
        assert a is b
        assert sym.conj(a) is sym.conj(b) and sym.differentiate(a, 1, True) is sym.differentiate(b, 1, True)

    def test_parsing_the_same_text_twice_gives_one_node(self):
        text = "abs2(z1) + re(0.3*z1^2 + (0.1+0.2i)*z1*z2) - log(1 + abs2(z2))"
        assert parse_expr(text) is parse_expr(text)

    def test_rebuilt_gallery_surface_is_the_same_tree(self):
        a, b = gallery("whitney", n=2), gallery("whitney", n=2)
        assert a is not b and a.chart.rho is b.chart.rho
        assert all(f is g for f, g in zip(a.immersion.F, b.immersion.F))

    def test_signed_zero_constants_stay_apart(self):
        for zero, signed in [(0.0, -0.0), (0j, complex(0, -0.0))]:
            assert sym.const(zero) is sym.const(zero) and sym.const(signed) is sym.const(signed)
            assert sym.const(zero) is not sym.const(signed)
            np.testing.assert_array_equal(bits(sym.const(signed).payload), bits(complex(signed)))
        assert sym.const(-0.0) is not sym.const(complex(0, -0.0))

    def test_nan_constants_intern_to_one_node(self):
        nan = float("nan")
        assert sym.const(nan) is sym.const(nan)
        assert sym.const(complex(1.0, nan)) is sym.const(complex(1.0, nan))
        assert sym.const(nan) is not sym.const(complex(1.0, nan))

    def test_repeated_request_with_a_nan_constant_adds_no_node(self, tmp_path, capsys):
        # 1e400 - 1e400 folds to a NaN constant; the request fails as not real-valued
        path = tmp_path / "nan.surf"
        path.write_text("dim = 2\nrho = abs2(z1) + abs2(z2) - 1 + (1e400 - 1e400)*re(z1)\n")
        argv = ["analyze", "--surface-file", str(path), "--point", "0,1"]
        assert cli_main(argv) == 2
        before = len(sym._NODES)
        assert cli_main(argv) == 2
        assert len(sym._NODES) == before
        assert '"NotRealValued"' in capsys.readouterr().err


class TestHolomorphy:
    def test_polynomial_is_holomorphic(self):
        e = sym.intpow(sym.var(0), 2) + 3 * sym.var(1)
        assert sym.is_holomorphic(e)

    def test_abs2_is_not(self):
        assert not sym.is_holomorphic(sym.abs2(sym.var(0)))

    def test_mixed_with_conjugate_is_not(self):
        e = sym.var(0) * sym.var(1) + sym.conj(sym.var(0))
        assert not sym.is_holomorphic(e)

    def test_pluriharmonic_re_of_holomorphic(self):
        assert sym.is_pluriharmonic(sym.re(sym.intpow(sym.var(0), 3)))
        assert not sym.is_pluriharmonic(sym.abs2(sym.var(0)))

    @pytest.mark.parametrize("c", ["1e-8", "1e-4", "1", "1e4", "1e5", "1e6", "1e8"])
    def test_pluriharmonic_verdict_follows_a_positive_multiple(self, c):
        # the mixed derivatives are bounded by 1e-10 max(1, |e|): c e is judged as e is
        assert sym.is_pluriharmonic(parse_expr(f"{c}*(log(abs2(z1)) + re(z2^2))"))
        assert not sym.is_pluriharmonic(parse_expr(f"{c}*(abs2(z1) + re(z2^2))"))
        assert not sym.is_pluriharmonic(parse_expr(f"{c}*log(abs2(z1) + 0.5)"))

    @pytest.mark.parametrize("c", ["1e-8", "1e-4", "1", "1e4", "1e5", "1e6", "1e8"])
    def test_holomorphic_verdict_follows_a_positive_multiple(self, c):
        # the dzbar derivatives are bounded by 1e-12 max(1, |e|): c e is judged as e is;
        # z1 |z2|^2 / conj(z2) is z1 z2, its dzbar derivative the rounding of c-sized values
        assert sym.is_holomorphic(parse_expr(f"{c}*z1*abs2(z2)/conj(z2)"))
        assert not sym.is_holomorphic(parse_expr(f"{c}*abs2(z1)"))
        assert not sym.is_holomorphic(parse_expr(f"{c}*z1*z2 + {c}*conj(z1)"))

    def test_exact_zero_derivatives_are_not_evaluated(self, monkeypatch):
        calls = []
        evaluate = sym.evaluate
        monkeypatch.setattr(sym, "evaluate", lambda *a: calls.append(a) or evaluate(*a))
        assert sym.is_holomorphic(parse_expr("z1*z2 + 3*z2"))
        assert sym.is_pluriharmonic(parse_expr("re(z1^3)"))
        assert calls == []
        assert not sym.is_holomorphic(parse_expr("abs2(z1)"))  # the counter sees a real evaluation
        assert len(calls) == 1


class TestConjugation:
    def test_conj_distributes_to_variables(self):
        e = sym.conj(sym.var(2))
        assert e.op == "var" and e.payload == (2, True)

    def test_conj_involution(self):
        e = sym.log(sym.const(1) + sym.abs2(sym.var(0) + sym.var(1)))
        assert sym.conj(sym.conj(e)) is e

    def test_no_conj_nodes_survive(self):
        e = sym.conj(sym.re(sym.var(0) * sym.var(1)) + sym.recip(sym.const(1) + sym.abs2(sym.var(0))))
        ops = set()

        def walk(t):
            ops.add(t.op)
            for a in t.args:
                walk(a)

        walk(e)
        assert "conj" not in ops and "re" not in ops


@st.composite
def expr_seeds(draw):
    return draw(st.integers(min_value=0, max_value=2**31 - 1))


class TestProperties:
    @given(expr_seeds())
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_mixed_partials_commute(self, seed):
        rng = np.random.default_rng(seed)
        (e,) = random_exprs(rng, 3, count=1)
        j, k = int(rng.integers(3)), int(rng.integers(3))
        a = sym.differentiate(sym.differentiate(e, j, False), k, True)
        b = sym.differentiate(sym.differentiate(e, k, True), j, False)
        P = sym._random_coords(rng, 3, 50)
        coords = [P[:, i] for i in range(3)]
        assert np.max(np.abs(sym.evaluate(a, coords) - sym.evaluate(b, coords))) < 1e-9

    @given(expr_seeds())
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_conjugation_covariance(self, seed):
        rng = np.random.default_rng(seed)
        (e,) = random_exprs(rng, 2, count=1)
        j = int(rng.integers(2))
        P = sym._random_coords(rng, 2, 20)
        coords = [P[:, i] for i in range(2)]
        lhs = sym.evaluate(sym.differentiate(sym.conj(e), j, False), coords)
        rhs = np.conj(sym.evaluate(sym.differentiate(e, j, True), coords))
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    @given(expr_seeds())
    @settings(max_examples=20, deadline=None, derandomize=True)
    def test_derivatives_match_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        (e,) = random_exprs(rng, 2, count=1)
        P = sym._random_coords(rng, 2, 10)
        for j in sym.free_indices(e):
            for conjugated in (False, True):
                s = sym.evaluate(sym.differentiate(e, j, conjugated), [P[:, 0], P[:, 1]])
                f = fd_wirtinger(lambda Q: sym.evaluate(e, [Q[:, 0], Q[:, 1]]), P)[conjugated][:, j]
                assert np.max(np.abs(s - f) / (1 + np.abs(s))) < 1e-6


    @given(expr_seeds(), st.integers(min_value=1, max_value=12))
    @settings(max_examples=20, deadline=None, derandomize=True)
    def test_fd_mismatch_of_a_list_is_two_evaluations(self, seed, count):
        # one program for the exact derivatives and one for the stencil (|z1|^2
        # keeps the derivatives from all being constant), and the worst gap of
        # the list is the worst of its expressions one at a time
        rng = np.random.default_rng(seed)
        exprs = random_exprs(rng, 3, count=count) + [sym.abs2(sym.var(0))]
        P = sym._random_coords(rng, 3, 10)
        calls = []
        real = sym.evaluate
        with mock.patch.object(sym, "evaluate", lambda exprs, coords: calls.append(1) or real(exprs, coords)):
            worst = max_fd_mismatch(exprs, P)
        assert len(calls) == 2
        assert worst == max(max_fd_mismatch([e], P) for e in exprs)


class TestSymcoreSuite:
    # (z1*z1)^9 at seed 22 and its relatives at seed 18 have truncation errors
    # above 1e-6 under plain central differences at any usable step
    @pytest.mark.parametrize("seed", [18, 22])
    def test_passes_where_central_differences_failed(self, seed):
        assert all(r.passed for r in symcore_suite(seed))
