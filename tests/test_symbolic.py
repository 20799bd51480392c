"""Wirtinger engine: derivative rules, evaluation semantics, zero tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crgeo import symbolic as sym
from crgeo.checks import fd_wirtinger, random_exprs, symcore_suite
from crgeo.errors import DomainError


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
        fd = fd_wirtinger(
            lambda Q: sym.evaluate(sym.differentiate(e, 0, False), [Q[:, 0]]), P, 0
        )[1][0]
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
        # the finished entries' values are held; beyond them, the union needs
        # no more registers than one entry alone
        assert nregs - (len(exprs) - 1) <= entry_peak
        assert nregs < len(code)


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
                f = fd_wirtinger(lambda Q: sym.evaluate(e, [Q[:, 0], Q[:, 1]]), P, j)[conjugated]
                assert np.max(np.abs(s - f) / (1 + np.abs(s))) < 1e-6


class TestSymcoreSuite:
    # (z1*z1)^9 at seed 22 and its relatives at seed 18 have truncation errors
    # above 1e-6 under plain central differences at any usable step
    @pytest.mark.parametrize("seed", [18, 22])
    def test_passes_where_central_differences_failed(self, seed):
        assert all(r.passed for r in symcore_suite(seed))
