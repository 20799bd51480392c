"""Chart geometry: frames, transverse field, determinants, curvature."""

import itertools
import warnings

import numpy as np
import pytest

from crgeo import checks, hypersurface
from crgeo import symbolic as sym
from crgeo.checks import FD_STEP, _fd_suite, fd_frame_levi_derivs, fd_reeb_slot, fd_wirtinger, hypersurface_suite
from crgeo.errors import (
    DegenerateFrame,
    NoCrossing,
    NonpositiveJ,
    NotOnSurface,
    NotStrictlyPseudoconvex,
    SingularSystem,
)
from crgeo.gallery import curvature_batch, gallery
from crgeo.hypersurface import (
    HypersurfaceChart,
    _bordered,
    _conformal_batch,
    _connection_batch,
    _frame_batch,
    _frame_levi_derivs,
    _loghess_ambient,
    _loghess_batch,
    _on_surface,
    _real,
    _ricci_batch,
    eval_arrays,
    fefferman_det,
    transverse_solve,
)
from crgeo.quadrature import contact_volume_density
from crgeo.spectral import PluriharmonicFunction, _boxb_batch, _energy_density_batch


def sphere_chart(m=2, radius=1.0):
    rho = sum((sym.abs2(sym.var(j)) for j in range(m)), sym.const(0)) - radius**2
    return HypersurfaceChart(rho, m)


def ellipsoid_chart(A):
    m = len(A)
    zs = [sym.var(j) for j in range(m)]
    quad = sum((sym.const(a) * z * z for a, z in zip(A, zs)), sym.const(0))
    rho = sum((sym.abs2(z) for z in zs), sym.const(0)) + sym.re(quad) - 1
    return HypersurfaceChart(rho, m)


def grad_of(chart, P):
    """(K, m) array of rho_j at a (K, m) batch."""
    return eval_arrays([chart.jets("h")], P)[0]


def hess_of(chart, P):
    """(K, m, m) array of rho_{j kbar} at a (K, m) batch."""
    return eval_arrays([chart.jets("hb")], P)[0]


def value_of(e, P):
    """One expression on points (K, m) by its own ``sym.evaluate`` call, a constant broadcast."""
    return np.broadcast_to(sym.evaluate(e, [P[:, j] for j in range(P.shape[1])]), P.shape[:1])


def frame_of(chart, p, w_index=None):
    """Frame batch of the single point p: a one-row batch."""
    return _frame_batch(chart, np.asarray(p, dtype=complex)[None, :], w_index=w_index)


def fd_levi(chart, fb):
    """Independent Levi oracle at a one-row frame batch: restrict the finite-difference Hessian."""
    grad = lambda Q: fd_wirtinger(lambda R: np.real(chart.rho_at(R)), Q)[0]
    hess = fd_wirtinger(grad, fb.P)[1][0]  # [j, k]: d/dzbar_k of d/dz_j rho
    return fb.Zc[0] @ hess @ fb.Zc[0].conj().T


def permutation_det(M):
    """Cofactor-free determinant oracle: signed permutation sum."""
    n = M.shape[0]
    total = 0.0 + 0j
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            while seen[i] != i:
                j = seen[i]
                seen[i], seen[j] = seen[j], seen[i]
                sign = -sign
        total += sign * np.prod([M[i, perm[i]] for i in range(n)])
    return total


class TestEvalArray:
    @pytest.mark.parametrize("K", [1, 5])
    def test_nested_lists_match_eval_at_entrywise(self, K):
        rng = np.random.default_rng(12)
        m = 3
        P = rng.normal(size=(K, m)) + 1j * rng.normal(size=(K, m))
        z = [sym.var(j) for j in range(m)]
        c = sym.const(2.5 - 1j)
        leaves = [z[0] * sym.conj(z[1]), sym.abs2(z[2]) + c, c, sym.log(1 + sym.abs2(z[1]))]
        cases = [
            (leaves[0], ()),
            (leaves, (4,)),
            ([leaves[:2], leaves[2:]], (2, 2)),
            ([[leaves[:2], leaves[2:]], [leaves[1:3], [c, z[2]]]], (2, 2, 2)),
        ]
        for exprs, shape in cases:
            out = eval_arrays([exprs], P)[0]
            assert out.shape == (K, *shape)
            for idx in np.ndindex(*shape):
                entry = exprs
                for i in idx:
                    entry = entry[i]
                np.testing.assert_array_equal(out[(slice(None), *idx)], value_of(entry, P))

    def test_constant_broadcasts_to_batch_shape(self):
        P = np.zeros((5, 2), dtype=complex)
        out = eval_arrays([[[sym.const(3j), sym.var(0)]]], P)[0]
        assert out.shape == (5, 1, 2)
        np.testing.assert_array_equal(out[:, 0, 0], np.full(5, 3j))
        assert eval_arrays([sym.const(1)], P)[0].shape == (5,)

    def test_one_evaluate_call_per_array(self, monkeypatch):
        ch = sphere_chart(m=3)
        P = np.array([[0.6, 0.8j, 0.0], [0.0, 0.6, 0.8]], dtype=complex)
        calls = []
        evaluate = sym.evaluate
        monkeypatch.setattr(sym, "evaluate", lambda e, coords: calls.append(e) or evaluate(e, coords))
        grad = grad_of(ch, P)
        assert len(calls) == 1 and len(calls[0]) == 3
        np.testing.assert_array_equal(grad, np.conj(P))
        # the sphere's Hessian entries are constant nodes: filled in, not evaluated
        hess = hess_of(ch, P)
        assert len(calls) == 1
        assert hess.shape == (2, 3, 3)
        np.testing.assert_array_equal(hess[0], np.eye(3))


class TestFrame:
    def test_sphere_pole(self):
        ch = sphere_chart()
        fb = frame_of(ch, [0, 1])
        assert abs(fb.h[0, 0, 0] - 1) < 1e-14
        assert abs(fb.r[0] - 1) < 1e-14
        assert abs(fb.J[0] - 1) < 1e-14

    def test_sphere_diagonal_point(self):
        ch = sphere_chart()
        p = np.array([1, 1], dtype=complex) / np.sqrt(2)
        fb = frame_of(ch, p)
        assert abs(fb.h[0, 0, 0] - 2) < 1e-12
        # frame annihilates the gradient
        assert abs(fb.Zc[0] @ grad_of(ch, p[None, :])[0]) < 1e-12
        # and the value matches the finite-difference Levi oracle
        assert abs(fd_levi(ch, fb)[0, 0] - 2) < 1e-6

    def test_ellipsoid_levi_vs_fd_oracle(self):
        ch = ellipsoid_chart((0.1, 0.2, 0.3))
        rng = np.random.default_rng(1)
        for _ in range(3):
            p = ch.project(rng.normal(size=3) + 1j * rng.normal(size=3))
            fb = frame_of(ch, p)
            oracle = fd_levi(ch, fb)
            assert np.max(np.abs(fb.h[0] - oracle)) < 1e-6
            eigs = np.linalg.eigvalsh(fb.h[0])
            assert np.min(eigs) > 0

    def test_reeb_field_pairs_to_one(self):
        ch = ellipsoid_chart((0.1, 0.2, 0.3))
        p = ch.project(np.array([0.5 + 0.1j, 0.4 - 0.7j, 0.3 + 0.2j]))
        fb = frame_of(ch, p)
        grad = grad_of(ch, p[None, :])[0]
        theta_T = np.conj(np.sum(grad * fb.xi[0]))
        assert abs(theta_T - 1) < 1e-12

    def test_off_surface_rejected(self):
        ch = sphere_chart()
        with pytest.raises(NotOnSurface):
            frame_of(ch, [0, 1.26])

    def test_unconverged_projection_rejected(self):
        # the gradient vanishes at the origin, so Newton cannot move
        with pytest.raises(NotOnSurface, match=r"projection left \|rho\| = 1.000e\+00 at point index 1"):
            sphere_chart().project(np.array([[0.6, 0.8], [0, 0]], dtype=complex))

    def test_converged_projection_adds_no_rho_evaluation(self, monkeypatch):
        ch = sphere_chart()
        calls = {"rho": 0, "grad": 0}
        rho_at, real = ch.rho_at, hypersurface.eval_arrays

        def counted_rho(P):
            calls["rho"] += 1
            return rho_at(P)

        def counted_arrays(arrays, P):
            # a gradient evaluation is an eval_arrays call that carries the chart's rho_j
            calls["grad"] += any(a is ch.jets("h") for a in arrays)
            return real(arrays, P)

        monkeypatch.setattr(ch, "rho_at", counted_rho)
        monkeypatch.setattr(hypersurface, "eval_arrays", counted_arrays)
        p = ch.project(np.array([0.9, 0.5j]))
        assert abs(np.abs(p[0]) ** 2 + np.abs(p[1]) ** 2 - 1) < 1e-13
        # one rho per Newton step, plus the one that stops the loop
        assert calls["rho"] == calls["grad"] + 1

    @pytest.mark.parametrize("c,calls", [(1.0, 1), (1e6, 2), (1e9, 2)])
    def test_projection_stop_scales_with_rho(self, monkeypatch, c, calls):
        # the Newton stop is 1e-13 max(1, |P| |rho_j|): c rho stops where rho does,
        # where an absolute 1e-13 ran all 80 steps (81 rho evaluations) at c = 1e6
        z1, z2 = sym.var(0), sym.var(1)
        rho = c * (sym.abs2(z1) + sym.abs2(z2) + sym.re(0.3 * z1 * z1 + (0.1 + 0.2j) * z1 * z2) - 1)
        ch = HypersurfaceChart(rho, 2)
        seen = []
        rho_at = ch.rho_at
        monkeypatch.setattr(ch, "rho_at", lambda P: seen.append(len(P)) or rho_at(P))
        p = ch.project(np.array([0.6, 0.7], dtype=complex))
        assert len(seen) == calls
        assert np.max(np.abs(p - [0.6, 0.7])) < 1e-15

    def test_levi_gate_rejects_rounding_excess_at_unit_scale(self, monkeypatch):
        # max|Zc| = max|rho''| = 1 here, so the bound is 1e-10 and the gap 3.1e-10
        ch = sphere_chart()
        real = hypersurface.eval_arrays

        def gapped(arrays, Q):
            # the Hessian comes out of the frame batch's one evaluation
            return [v + 1e-10j * np.eye(2) if a is ch.jets("hb") else v for a, v in zip(arrays, real(arrays, Q))]

        monkeypatch.setattr(hypersurface, "eval_arrays", gapped)
        with pytest.raises(NotStrictlyPseudoconvex, match="non-Hermitian"):
            frame_of(ch, [0.6, 0.8])

    def test_levi_gate_scales_with_pinned_frame(self):
        # check --surface reinhardt --params n=1 --seed 4: the pinned-w frame
        # reaches |Zc| ~ 519, where the Levi gap 1.2e-10 is rounding
        results = hypersurface_suite(gallery("reinhardt", n=1), seed=4)
        assert [r.name for r in results if not r.passed] == []

    def test_degenerate_gradient_rejected(self):
        # (|Z|^2 - 1)^2 vanishes to second order on its zero set
        base = sym.abs2(sym.var(0)) + sym.abs2(sym.var(1)) - 1
        ch = HypersurfaceChart(sym.intpow(base, 2), 2)
        with pytest.raises(DegenerateFrame):
            frame_of(ch, [0, 1])

    def test_indefinite_levi_rejected(self):
        rho = sym.abs2(sym.var(0)) - 0.5 * sym.abs2(sym.var(1)) - 0.25
        ch = HypersurfaceChart(rho, 2)
        p = np.array([1.0, np.sqrt(1.5)], dtype=complex)
        with pytest.raises(NotStrictlyPseudoconvex):
            frame_of(ch, p)

    def test_pinned_w_with_vanishing_rho_w_rejected(self):
        # at (1, 0) on the unit sphere rho_2 = conj(z2) = 0; the argmax frame picks w = 0
        ch = sphere_chart()
        p = np.array([1, 0], dtype=complex)
        assert frame_of(ch, p).w[0] == 0
        with pytest.raises(DegenerateFrame):
            frame_of(ch, p, w_index=1)


class TestTransverse:
    def test_unit_sphere_field_is_position(self):
        ch = sphere_chart()
        rng = np.random.default_rng(2)
        p = ch.project(rng.normal(size=2) + 1j * rng.normal(size=2))
        xi, r = transverse_solve(ch, p[None, :])
        assert np.max(np.abs(xi[0] - p)) < 1e-12
        assert abs(r[0] - 1) < 1e-12

    def test_radius_two_sphere(self):
        ch = sphere_chart(radius=2.0)
        xi, r = transverse_solve(ch, np.array([[0, 2]], dtype=complex))
        assert abs(r[0] - 0.25) < 1e-13

    def test_ellipsoid_against_lstsq_oracle(self):
        ch = ellipsoid_chart((0.3, 0.0, 0.0))
        p = np.array([1 / np.sqrt(1.3), 0, 0], dtype=complex)
        xi, r = transverse_solve(ch, p[None, :])
        xi, r = xi[0], r[0]
        grad = grad_of(ch, p[None, :])[0]
        hess = hess_of(ch, p[None, :])[0]
        m = 3
        A = np.zeros((m + 1, m + 1), dtype=complex)
        A[0, :m] = grad
        A[1:, :m] = hess.T
        A[1:, m] = -np.conj(grad)
        b = np.zeros(m + 1, dtype=complex)
        b[0] = 1
        sol = np.linalg.lstsq(A, b, rcond=None)[0]
        assert abs(r - sol[m].real) < 1e-9
        assert np.max(np.abs(xi - sol[:m])) < 1e-9

    def test_defining_equations_hold(self):
        ch = ellipsoid_chart((0.1, 0.2, 0.3))
        P = np.stack([
            ch.project(np.array([0.3 + 0.4j, 0.5, 0.2 - 0.6j])),
            ch.project(np.array([0.9, 0.1j, 0.1])),
        ])
        xi, r = transverse_solve(ch, P)
        grad, hess = grad_of(ch, P), hess_of(ch, P)
        assert np.max(np.abs(np.einsum("kj,kj->k", grad, xi) - 1)) < 1e-12
        resid = np.einsum("kjl,kj->kl", hess, xi) - r[:, None] * np.conj(grad)
        assert np.max(np.abs(resid)) < 1e-12

    def test_singular_system_rejected(self):
        ch = HypersurfaceChart(sym.var(0) + sym.conj(sym.var(0)), 2)
        with pytest.raises(SingularSystem):
            transverse_solve(ch, np.array([[1j, 0.0]]))

    @pytest.mark.parametrize("route", [transverse_solve, fefferman_det])
    def test_oracle_routes_take_only_a_batch(self, route):
        ch = sphere_chart()
        for bad in (np.array([0.6, 0.8]), np.zeros((2, 3)), np.zeros((1, 1, 2))):
            with pytest.raises(ValueError, match=r"expected points of shape \(K, 2\)"):
                route(ch, bad)
        route(ch, np.array([[0.6, 0.8]]))

    @staticmethod
    def _near_singular_system(rng, eps, m=3):
        """(grad, hess) whose Levi block has eigenvalue eps on a direction
        orthogonal to grad: the bordered system's cond grows like 1/eps, while
        its solution stays of order one."""
        X = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        U = np.linalg.qr(X)[0]
        lam = np.concatenate([rng.uniform(0.5, 2.0, m - 1), [eps]])
        return 1.5 * np.conj(U[:, 0]), ((U * lam) @ np.conj(U.T)).T

    def test_ill_conditioned_points_get_their_own_solve(self):
        rng = np.random.default_rng(3)
        grad, hess = map(np.array, zip(*[self._near_singular_system(rng, e)
                                         for e in (0.7, 1e-11, 3e-12, 1e-11)]))
        Bt = np.swapaxes(_bordered(0.0, np.conj(grad), grad, hess), 1, 2)
        cond = np.linalg.cond(Bt)
        assert cond[0] < 1e2 and np.all((cond[1:] > 1e10) & (cond[1:] <= hypersurface.COND_REJECT))
        Binv = hypersurface._transverse_batch(grad, hess)
        xi, r = Binv[:, 0, 1:], -Binv[:, 0, 0]
        e0 = np.eye(4, dtype=complex)[0]
        for k in range(4):
            u = np.linalg.solve(Bt[k], e0)
            np.testing.assert_allclose(xi[k], u[1:], rtol=1e-13, atol=1e-15)
            assert abs(r[k] + u[0]) <= 1e-13 * abs(u[0])
        assert np.max(np.abs(np.einsum("kj,kj->k", grad, xi) - 1)) < 1e-12
        resid = np.einsum("kjl,kj->kl", hess, xi) - r[:, None] * np.conj(grad)
        assert np.max(np.abs(resid)) < 1e-12

    def test_cond_beyond_reject_raises(self):
        rng = np.random.default_rng(4)
        grad, hess = map(np.array, zip(*[self._near_singular_system(rng, e) for e in (0.7, 1e-15)]))
        with pytest.raises(SingularSystem, match="point index 1"):
            hypersurface._transverse_batch(grad, hess)

    def test_gate_reads_the_2_norm_cond(self, monkeypatch):
        rng = np.random.default_rng(4)
        grad, hess = map(np.array, zip(*[self._near_singular_system(rng, e) for e in (0.7, 1e-3)]))
        cond = np.linalg.cond(np.swapaxes(_bordered(0.0, np.conj(grad), grad, hess), 1, 2))
        monkeypatch.setattr(hypersurface, "COND_REJECT", 0.5 * cond[1])
        assert cond[0] < hypersurface.COND_REJECT
        with pytest.raises(SingularSystem, match="point index 1") as err:
            hypersurface._transverse_batch(grad, hess)
        gated = float(str(err.value).split("cond ")[1].rstrip(")"))
        assert abs(gated / cond[1] - 1) < 1e-3  # the message keeps 4 digits


class TestOneInverse:
    """A frame batch inverts its bordered matrix once, in ``_transverse_batch``: xi, r,
    the Reeb slot and the log J Hessian all read that one gated B^-1."""

    SURFACES = [("sphere", {"n": 2}), ("ellipsoid", {}), ("whitney", {"n": 2}), ("reinhardt", {"n": 2})]

    @pytest.mark.parametrize("name,params", SURFACES)
    def test_curvature_batch_inverts_once_and_solves_nothing(self, monkeypatch, name, params):
        surf = gallery(name, **params)
        P = surf.random_points(20, seed=6)
        calls, shapes = [], []
        real_batch, real_inv = hypersurface._transverse_batch, np.linalg.inv

        def no_solve(*args, **kwargs):
            raise AssertionError("np.linalg.solve was called")

        monkeypatch.setattr(hypersurface, "_transverse_batch", lambda g, h: calls.append(len(g)) or real_batch(g, h))
        monkeypatch.setattr(np.linalg, "inv", lambda a: shapes.append(np.shape(a)) or real_inv(a))
        monkeypatch.setattr(np.linalg, "solve", no_solve)
        curvature_batch(surf, P)
        assert calls == [20]
        m = surf.dim
        assert shapes.count((20, m + 1, m + 1)) == 1

    @pytest.mark.parametrize("name,params", SURFACES)
    def test_row_0_is_the_transverse_solve_bit_for_bit(self, name, params):
        surf = gallery(name, **params)
        P = surf.random_points(30, seed=7)
        fb = curvature_batch(surf, P)[0]
        xi, r = transverse_solve(surf.chart, P)
        assert np.ascontiguousarray(fb.Binv[:, 0, 1:]).tobytes() == np.ascontiguousarray(xi).tobytes()
        assert (-fb.Binv[:, 0, 0].real).tobytes() == r.tobytes()

    @pytest.mark.parametrize("eps", [1e-9, 1e-11])
    def test_reeb_row_keeps_its_accuracy_near_singular(self, eps):
        # row 0 of B^-1 d_j B B^-1 is u^T d_j B B^-1 with B^T u = e_0: two solves
        rng = np.random.default_rng(8)
        grad, hess = map(np.array, zip(*[TestTransverse._near_singular_system(rng, eps) for _ in range(6)]))
        Bt = np.swapaxes(_bordered(0.0, np.conj(grad), grad, hess), 1, 2)
        assert np.all(np.linalg.cond(Bt) <= hypersurface.COND_REJECT)
        dB = rng.standard_normal((6, 4, 4)) + 1j * rng.standard_normal((6, 4, 4))
        Binv = hypersurface._transverse_batch(grad, hess)
        got = (Binv @ dB @ Binv)[:, 0]
        e0 = np.eye(4, dtype=complex)[0]
        for k in range(6):
            ref = np.linalg.solve(Bt[k], dB[k].T @ np.linalg.solve(Bt[k], e0))
            assert np.max(np.abs(got[k] - ref)) <= 1e-13 * np.max(np.abs(ref))


class TestFefferman:
    def test_sphere_is_one(self):
        ch = sphere_chart()
        rng = np.random.default_rng(3)
        p = ch.project(rng.normal(size=2) + 1j * rng.normal(size=2))
        assert abs(fefferman_det(ch, p[None, :])[0] - 1) < 1e-13

    def test_ellipsoid_vs_permutation_oracle(self):
        ch = ellipsoid_chart((0.5, 0.0, 0.0))
        p = np.array([0, 1, 0], dtype=complex)
        J = fefferman_det(ch, p[None, :])[0]
        m = 3
        B = np.zeros((m + 1, m + 1), dtype=complex)
        B[0, 0] = np.real(ch.rho_at(p[None, :])[0])
        B[0, 1:] = np.conj(grad_of(ch, p[None, :])[0])
        B[1:, 0] = grad_of(ch, p[None, :])[0]
        B[1:, 1:] = hess_of(ch, p[None, :])[0]
        assert abs(J - (-permutation_det(B)).real) < 1e-10

    def test_scaling_multilinearity(self):
        base = sym.abs2(sym.var(0)) + sym.abs2(sym.var(1)) - 1
        ch1 = HypersurfaceChart(base, 2)
        ch2 = HypersurfaceChart(2 * base, 2)
        P = np.array([[0.6, 0.8]], dtype=complex)
        # m + 1 = 3 rows scale together: factor 2^3
        assert abs(fefferman_det(ch2, P)[0] - 8 * fefferman_det(ch1, P)[0]) < 1e-12


class TestLogHessian:
    def test_sphere_vanishes(self):
        ch = sphere_chart()
        rng = np.random.default_rng(4)
        p = ch.project(rng.normal(size=2) + 1j * rng.normal(size=2))
        assert np.max(np.abs(_loghess_batch(ch, frame_of(ch, p))[0])) < 1e-9

    def test_ellipsoid_closed_form(self):
        # J^2 (log J)_{j kbar} = |drho|^2 A_j A_k delta_jk - A_j A_k rho_jbar rho_k
        A = (0.1, 0.2, 0.3)
        ch = ellipsoid_chart(A)
        rng = np.random.default_rng(5)
        Avec = np.array(A)
        for _ in range(4):
            p = ch.project(rng.normal(size=3) + 1j * rng.normal(size=3))
            P = p[None, :]
            lh = _loghess_ambient(ch, _frame_batch(ch, P))[0]
            J = fefferman_det(ch, P)[0]
            grad = grad_of(ch, P)[0]
            closed = np.diag(Avec**2) * np.sum(np.abs(grad) ** 2) - np.einsum(
                "j,k->jk", Avec * np.conj(grad), Avec * grad
            )
            assert np.max(np.abs(J**2 * lh - closed)) < 1e-8

    def test_umbilic_locus_point(self):
        # single nonzero coefficient: the form vanishes where z2 = z3 = 0
        A1 = 0.4
        ch = ellipsoid_chart((A1, 0.0, 0.0))
        x = 1 / np.sqrt(1 + A1)
        p = np.array([x, 0, 0], dtype=complex)
        L = _loghess_batch(ch, frame_of(ch, p))[0]
        assert np.max(np.abs(L)) < 1e-10
        # and is positive semidefinite nearby
        q = ch.project(np.array([x, 0.3 + 0.1j, 0.2 - 0.2j]))
        Lq = _loghess_batch(ch, frame_of(ch, q))[0]
        assert np.min(np.linalg.eigvalsh(Lq)) > -1e-12

    def test_nonpositive_J_guard(self):
        ch = sphere_chart()
        fb = _frame_batch(ch, np.array([[0, 1]], dtype=complex))
        fb.J = np.array([-1.0])
        with pytest.raises(NonpositiveJ):
            _loghess_batch(ch, fb)


class TestConnection:
    def test_sphere_holomorphic_slots_vanish(self):
        ch = sphere_chart(m=3)
        rng = np.random.default_rng(6)
        p = ch.project(rng.normal(size=3) + 1j * rng.normal(size=3))
        omega = _connection_batch(ch, frame_of(ch, p))[0]
        n = 2
        assert np.max(np.abs(omega[:, :, :n])) < 1e-12

    def test_metric_compatibility_on_ellipsoid(self):
        # Z_gamma h_{beta mubar} from finite differences of the numeric Levi
        # matrix against the connection's omega h + h conj(omega)
        ch = ellipsoid_chart((0.1, 0.2, 0.3))
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(5):
            p = ch.project(rng.normal(size=3) + 1j * rng.normal(size=3))
            fb = frame_of(ch, p)
            omega, h = _connection_batch(ch, fb)[0], fb.h[0]
            Zgh = fd_frame_levi_derivs(ch, fb)[0]
            n = 2
            for g in range(n):
                for b in range(n):
                    for mu in range(n):
                        rhs = sum(omega[b, s, g] * h[s, mu] for s in range(n))
                        rhs += sum(
                            np.conj(omega[mu, s, n + g]) * h[b, s] for s in range(n)
                        )
                        worst = max(worst, abs(Zgh[g, b, mu] - rhs))
        assert worst < 1e-8

    def test_reeb_slot_on_sphere(self):
        # omega_b^a(T) = -i Z_b xi^a; on the unit sphere xi is the position
        # field, so Z_b xi^a is the frame coefficient itself
        ch = sphere_chart()
        p = np.array([1, 1], dtype=complex) / np.sqrt(2)
        fb = frame_of(ch, p)
        omega = _connection_batch(ch, fb)[0]
        expected = -1j * fb.Zc[0, 0, fb.fc[0, 0]]
        assert abs(omega[0, 0, 2] - expected) < 1e-12

    @pytest.mark.parametrize("name,params", [
        ("ellipsoid", {"A": (0.1, 0.2, 0.3)}), ("whitney", {"n": 1}), ("whitney", {"n": 2})])
    def test_reeb_slot_vs_fd_of_transverse_field(self, name, params):
        # implicit derivative of the transverse solve against central finite
        # differences of the solved field; whitney's Levi Hessian is not real,
        # so an index swap in d_j rho_{k bar} shows there
        ch = gallery(name, **params).chart
        n, m = ch.n, ch.m
        p = ch.project(np.array([0.4 + 0.2j, 0.5 - 0.1j, 0.6 + 0.3j])[:m])
        fb = frame_of(ch, p)
        omega = _connection_batch(ch, fb)[0]

        def xi_at(q):
            return transverse_solve(ch, q[None, :])[0][0]

        h = 1e-5
        dxi = np.zeros((m, m), dtype=complex)  # d xi^a / dz^j
        for j in range(m):
            ex = np.zeros(m, dtype=complex)
            ex[j] = h
            dx = (xi_at(p + ex) - xi_at(p - ex)) / (2 * h)
            dy = (xi_at(p + 1j * ex) - xi_at(p - 1j * ex)) / (2 * h)
            dxi[:, j] = 0.5 * (dx - 1j * dy)
        for b in range(n):
            for a in range(n):
                zb_xi = sum(fb.Zc[0, b, j] * dxi[fb.fc[0, a], j] for j in range(m))
                assert abs(omega[b, a, 2 * n] - (-1j) * zb_xi) < 1e-6

    def test_whitney_chart_small_w_slice(self):
        wh = gallery("whitney")
        ch = wh.chart
        p = np.array([np.exp(0.4j), 0.0], dtype=complex)
        fb = frame_of(ch, p)
        assert np.all(np.isfinite(_connection_batch(ch, fb)))
        # chain-rule frame derivatives against finite differences of the Levi matrix
        assert np.max(np.abs(_frame_levi_derivs(ch, fb) - fd_frame_levi_derivs(ch, fb))) < 1e-6

    @pytest.mark.parametrize("name,params", [("ellipsoid", {"A": (0.1, 0.2, 0.3)}), ("whitney", {"n": 1})])
    def test_fd_oracle_flags_wrong_chain_rule(self, monkeypatch, name, params):
        surf = gallery(name, **params)
        fb = _frame_batch(surf.chart, surf.random_points(20, seed=0))
        assert _fd_suite(surf, fb) < 1e-6

        def frame_held_constant(chart, fb):
            # forgets that conj(Z_mu^w) varies along Z_gamma
            v = np.einsum("kbl,kl->kb", fb.Zc, fb.at_w(fb.hess))
            hw = fb.h / np.conj(fb.at_w(fb.grad))[:, None, None]
            return _frame_levi_derivs(chart, fb) + v[:, None, :, None] * hw[:, :, None, :]

        monkeypatch.setattr(checks, "_frame_levi_derivs", frame_held_constant)
        assert _fd_suite(surf, fb) > 1e-3

    @pytest.mark.parametrize("name,params", [("whitney", {"n": 1}), ("whitney", {"n": 2})])
    def test_fd_oracle_flags_conjugated_reeb_derivative(self, monkeypatch, name, params):
        surf = gallery(name, **params)
        fb = _frame_batch(surf.chart, surf.random_points(20, seed=0))
        assert _fd_suite(surf, fb) < 1e-6

        def conjugated_column(chart, fb):
            # takes d_j rho_kbar as rho_{k jbar}: row 0 of d_j B transposed
            omega = _connection_batch(chart, fb)
            dB = fb.dB.copy()
            dB[:, :, 0, 1:] = np.swapaxes(fb.hess, 1, 2)
            BdBB = np.einsum("krs,kjsp,kpq->kjrq", fb.Binv, dB, fb.Binv)
            dxi = np.take_along_axis(BdBB[:, :, 0, 1:], fb.fc[:, None, :], axis=2)
            omega[..., -1] = 1j * np.einsum("kbj,kja->kba", fb.Zc, dxi)
            return omega

        monkeypatch.setattr(checks, "_connection_batch", conjugated_column)
        assert _fd_suite(surf, fb) > 1e-3

    @pytest.mark.parametrize("name,params", [("sphere", {"n": 1}), ("reinhardt", {"n": 2})])
    def test_fd_oracle_flags_wrong_loghess_sign(self, monkeypatch, name, params):
        surf = gallery(name, **params)
        fb = _frame_batch(surf.chart, surf.random_points(20, seed=0))
        assert _fd_suite(surf, fb) < 1e-6

        def second_term_flipped(chart, fb):
            # tr(B^-1 d_kbar d_j B) + tr(B^-1 d_kbar B B^-1 d_j B)
            hol2, jet3 = fb.hol2, fb.jet3
            Binv = np.linalg.inv(_bordered(fb.rho, np.conj(fb.grad), fb.grad, fb.hess))
            dB = _bordered(fb.grad, fb.hess, np.swapaxes(hol2, 1, 2), np.moveaxis(jet3, 3, 1))
            second = np.einsum("kpq,kcrq,krs,kjsp->kjc", Binv, np.conj(dB), Binv, dB)
            return _loghess_ambient(chart, fb) + 2 * second

        monkeypatch.setattr(checks, "_loghess_ambient", second_term_flipped)
        assert _fd_suite(surf, fb) > 1e-3


class TestRicci:
    def test_sphere_scalar_curvature(self):
        ch = sphere_chart()
        p = np.array([0.6, 0.8j], dtype=complex)
        _, R, _ = _ricci_batch(ch, frame_of(ch, p))
        assert abs(R[0] - 2) < 1e-12

    def test_sphere_n2_ricci_is_three_h(self):
        ch = sphere_chart(m=3)
        rng = np.random.default_rng(8)
        p = ch.project(rng.normal(size=3) + 1j * rng.normal(size=3))
        fb = frame_of(ch, p)
        ric, R, _ = _ricci_batch(ch, fb)
        assert np.max(np.abs(ric[0] - 3 * fb.h[0])) < 1e-12
        assert abs(R[0] - 6) < 1e-12

    def test_whitney_curvature_chain(self):
        # scalar curvature from the chart route matches
        # n(n+1)|H|^2 - |II0|^2 from the extrinsic route at a w = 0 point
        from crgeo.immersion import _sff_batch

        wh = gallery("whitney")
        p = np.array([np.exp(0.9j), 0.0], dtype=complex)
        _, R, _ = _ricci_batch(wh.chart, frame_of(wh.chart, p))
        _, f = _sff_batch(wh.immersion, p[None, :])
        Hnorm2, II0 = f["Hnorm2"][0], f["II0"][0]
        assert abs(R[0] - (2 * Hnorm2 - II0)) < 1e-9
        assert abs(Hnorm2 - 1.0) < 1e-12
        assert abs(II0 - 4.0) < 1e-12


class TestConformalChange:
    def test_constant_sigma_on_sphere(self):
        ch = sphere_chart()
        p = np.array([0.6, 0.8], dtype=complex)
        val = _conformal_batch(ch, sym.const(0.7), frame_of(ch, p))[0]
        assert abs(val - np.exp(-0.7)) < 1e-12

    def test_whitney_factor_on_sphere(self):
        ch = sphere_chart()
        sigma = sym.log(sym.const(1) + sym.abs2(sym.var(1)))
        rng = np.random.default_rng(9)
        for _ in range(5):
            p = ch.project(rng.normal(size=2) + 1j * rng.normal(size=2))
            lhs = _conformal_batch(ch, sigma, frame_of(ch, p))[0]
            w2 = abs(p[1]) ** 2
            # pointwise formula for this factor on the unit sphere
            xi_sigma = w2 / (1 + w2)
            db2 = w2 * (1 - w2) / (1 + w2) ** 2
            rhs = (1 + 2 * xi_sigma - db2) / (1 + w2)
            assert abs(lhs - rhs) < 1e-12

    def test_random_log_factor_two_routes(self):
        surf = gallery("ellipsoid", A=(0.1, 0.2, 0.3))
        ch = surf.chart
        rng = np.random.default_rng(10)
        q = sym.var(0) * sym.var(1) + 0.3 * sym.intpow(sym.var(2), 2) + 0.2
        positive = sym.const(1) + 0.25 * sym.abs2(q)
        sigma = sym.log(positive)
        P = surf.random_points(20, seed=10)
        lhs = _conformal_batch(ch, sigma, _frame_batch(ch, P))
        hat = HypersurfaceChart(positive * ch.rho, 3)
        rhs = transverse_solve(hat, P)[1]
        assert np.max(np.abs(lhs - rhs)) < 1e-8


class TestFrameIndependence:
    def test_invariants_stable_under_w_choice(self):
        surf = gallery("ellipsoid", A=(0.1, 0.2, 0.3))
        ch = surf.chart
        P = surf.random_points(5, seed=11)
        for k in range(5):
            vals = []
            grad = grad_of(ch, P[k][None, :])[0]
            for w in range(3):
                if abs(grad[w]) < 1e-6:
                    continue
                fb = frame_of(ch, P[k], w_index=w)
                _, R, _ = _ricci_batch(ch, fb)
                vals.append((fb.r[0], fb.J[0], R[0]))
            arr = np.array(vals)
            assert np.max(np.abs(arr - arr[0])) < 1e-8


class TestSuiteFrameBatches:
    """hypersurface_suite builds one frame batch, plus one per pinned w."""

    @pytest.mark.parametrize("name,params,batches", [
        ("sphere", {"r": 1.0, "n": 1}, 3),
        ("reinhardt", {"n": 1}, 3),
        ("whitney", {"n": 1}, 3),
        ("reinhardt", {"n": 2}, 4),
    ])
    def test_frame_batch_count(self, monkeypatch, name, params, batches):
        calls = []
        real = hypersurface._frame_batch

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(hypersurface, "_frame_batch", counted)
        monkeypatch.setattr(checks, "_frame_batch", counted)
        results = hypersurface_suite(gallery(name, **params), seed=0)
        assert all(r.passed for r in results)
        assert len(calls) == batches

    def test_nan_in_a_reselected_frame_fails_w_independence(self, monkeypatch):
        real = checks._frame_batch

        def broken(chart, P, w_index=None):
            fb = real(chart, P, w_index=w_index)
            if w_index == 1:
                fb.r = fb.r * np.nan
            return fb

        monkeypatch.setattr(checks, "_frame_batch", broken)
        results = {r.name: r for r in hypersurface_suite(gallery("sphere", r=1.0, n=1), seed=0)}
        assert np.isnan(results["frame.w-independence"].residual)
        assert not results["frame.w-independence"].passed


def loghess_ambient_adding_every_term(chart, fb):
    """(log J)_{j kbar} with every jet term added, zero or not, by plain einsum."""
    jet3 = fb.jet3
    jet4 = eval_arrays([sym.jets(chart.rho, chart.m, "hbhb")], fb.P)[0]
    Binv = fb.Binv
    first = (Binv[:, 0, 0, None, None] * fb.hess
             + np.einsum("kb,kbjc->kjc", Binv[:, 1:, 0], np.conj(jet3))
             + np.einsum("ka,kacj->kjc", Binv[:, 0, 1:], jet3)
             + np.einsum("kba,kjcab->kjc", Binv[:, 1:, 1:], jet4))
    BdBB = np.einsum("krs,kjsp,kpq->kjrq", Binv, fb.dB, Binv)
    return first - np.einsum("kjrq,kcrq->kjc", BdBB, np.conj(fb.dB))


def frame_levi_derivs_adding_every_term(chart, fb):
    """Z_gamma h_{beta mubar} with the jet3 term added, zero or not, by plain einsum."""
    jet3 = fb.jet3
    Zc = fb.Zc
    v = np.einsum("kbl,kl->kb", Zc, fb.at_w(fb.hess))
    return (np.einsum("kgj,kbl,klcj,kmc->kgbm", Zc, Zc, jet3, np.conj(Zc))
            + fb.dZw[:, :, :, None] * np.conj(v)[:, None, None, :]
            + v[:, None, :, None] * hypersurface._frame_conj_w_derivs(fb)[:, :, None, :])


class TestZeroJetsAndContractionOrder:
    """Quadrics skip their zero third and fourth jets; the contractions keep one order at every K."""

    @pytest.mark.parametrize("name,params", [("ellipsoid", {}), ("sphere", {"n": 2})])
    def test_skipped_zero_terms_change_nothing(self, name, params):
        surf = gallery(name, **params)
        assert surf.chart.third_jets_vanish
        fb = _frame_batch(surf.chart, surf.random_points(40, seed=2))
        for got, ref in [(_loghess_ambient(surf.chart, fb), loghess_ambient_adding_every_term(surf.chart, fb)),
                         (_frame_levi_derivs(surf.chart, fb), frame_levi_derivs_adding_every_term(surf.chart, fb))]:
            assert np.max(np.abs(got - ref)) < 1e-15

    def test_constant_jet_arrays_compile_nothing(self, monkeypatch):
        P = gallery("ellipsoid").random_points(4, seed=0)
        # nodes live for the process: coefficients no other test builds keep
        # this surface's gradient uncompiled until now
        surf = gallery("ellipsoid", A=(0.1125, 0.2375, 0.3125))
        assert all(g._progs is None for g in sym.jets(surf.chart.rho, 3, "h"))

        def no_compile(roots):
            raise AssertionError("a program was compiled")

        monkeypatch.setattr(sym, "_compile", no_compile)
        np.testing.assert_array_equal(hess_of(surf.chart, P), np.broadcast_to(np.eye(3), (4, 3, 3)))
        for pattern in ("hbh", "hbhb"):
            out = eval_arrays([sym.jets(surf.chart.rho, 3, pattern)], P)[0]
            assert out.shape == (4,) + (3,) * len(pattern) and not out.any()
        with pytest.raises(AssertionError, match="compiled"):
            grad_of(surf.chart, P)

    def test_whitney_keeps_the_jet_terms(self, monkeypatch):
        patterns = []
        jets = sym.jets
        monkeypatch.setattr(sym, "jets", lambda e, m, pattern: patterns.append(pattern) or jets(e, m, pattern))
        for name, full in [("whitney", True), ("sphere", False)]:
            surf = gallery(name, n=2)
            assert surf.chart.third_jets_vanish is not full
            del patterns[:]
            fb = _frame_batch(surf.chart, surf.random_points(20, seed=1))
            assert ("hbhb" in patterns) is full
            lh = _loghess_ambient(surf.chart, fb)
            assert np.max(np.abs(lh - loghess_ambient_adding_every_term(surf.chart, fb))) < 1e-13
            Zgh = _frame_levi_derivs(surf.chart, fb)
            assert np.max(np.abs(Zgh - frame_levi_derivs_adding_every_term(surf.chart, fb))) < 1e-13

    @pytest.mark.parametrize("name,params", [("whitney", {"n": 2}), ("ellipsoid", {}), ("reinhardt", {"n": 2})])
    def test_one_point_equals_its_row_of_a_batch(self, name, params):
        # a single point is a one-row batch, so every route must give it its batch row
        surf = gallery(name, **params)
        ch = surf.chart
        P = surf.random_points(50, seed=3)
        sigma = sym.log(sym.const(1) + sym.abs2(sym.var(surf.dim - 1)))
        fs = surf.plurifamily + [PluriharmonicFunction(sym.re(sym.var(0) * sym.var(1)), "re(z1 z2)")]

        def fields(Q):
            fb, f, ric, R, L = curvature_batch(surf, Q)
            assert (f is None) == (surf.immersion is None)
            out = [fb.BdBB, _frame_levi_derivs(ch, fb), _loghess_ambient(ch, fb), ric, R, L,
                   _connection_batch(ch, fb), _conformal_batch(ch, sigma, fb),
                   *transverse_solve(ch, Q), fefferman_det(ch, Q)]
            out += [_boxb_batch(ch, fs, Q, fb.xi), _energy_density_batch(ch, fs, fb)]
            return out if f is None else out + [f["holo"], f["II0"]]

        batch = fields(P)
        for i in (0, 17, 49):
            for rows, one in zip(batch, fields(P[i:i + 1])):
                assert np.max(np.abs(rows[i] - one[0])) < 1e-13


class TestOneProgram:
    """``eval_arrays`` runs every array a point set needs as one program, bit for bit as array by array."""

    @pytest.mark.parametrize("name,params", [("sphere", {"n": 2}), ("ellipsoid", {}), ("whitney", {"n": 2}),
                                             ("reinhardt", {"n": 2})])
    @pytest.mark.parametrize("K", [1, 50])
    def test_union_equals_each_array_bit_for_bit(self, name, params, K):
        surf = gallery(name, **params)
        m = surf.dim
        arrays = [surf.chart.jets(p) for p in ("", "h", "hb", "hh", "hbh", "hbhb")]
        arrays.append(sym.jets(sym.abs2(sym.var(0)) + sym.abs2(sym.var(1)), m, "hb"))  # all constant
        if surf.immersion is not None:
            arrays += [sym.jets(surf.immersion.F, m, "h"), sym.jets(surf.immersion.F, m, "hh")]
        assert arrays[-1 if surf.immersion is None else -3].values is not None
        P = surf.random_points(K, seed=5)
        for a, got in zip(arrays, hypersurface.eval_arrays(arrays, P)):
            ref = eval_arrays([a], P)[0]
            assert got.shape == ref.shape == (K,) + np.shape(np.array(a, dtype=object))
            assert got.tobytes() == np.ascontiguousarray(ref).tobytes()

    @pytest.mark.parametrize("name", ["whitney", "sphere"])
    def test_frame_batch_is_one_evaluation(self, monkeypatch, name):
        surf = gallery(name, n=2)
        P = surf.random_points(20, seed=1)
        calls = []
        real = sym.evaluate
        monkeypatch.setattr(sym, "evaluate", lambda exprs, coords: calls.append(1) or real(exprs, coords))
        fb = _frame_batch(surf.chart, P)
        _ricci_batch(surf.chart, fb)
        _connection_batch(surf.chart, fb)
        assert len(calls) == 1
        assert (fb.jet4 is None) is surf.chart.third_jets_vanish

    @pytest.mark.parametrize("name", ["whitney", "sphere", "reinhardt"])
    def test_oracle_routes_are_one_evaluation_each(self, monkeypatch, name):
        surf = gallery(name, n=2)
        P = surf.random_points(6, seed=4)
        V = np.random.default_rng(4).normal(size=(6, 2 * surf.n + 1, surf.dim)) + 0j
        calls = []
        real = sym.evaluate
        monkeypatch.setattr(sym, "evaluate", lambda exprs, coords: calls.append(1) or real(exprs, coords))
        for route in (lambda: transverse_solve(surf.chart, P), lambda: fefferman_det(surf.chart, P),
                      lambda: contact_volume_density(surf.chart, P, V)):
            del calls[:]
            route()
            assert len(calls) == 1


def fd_wirtinger_per_coordinate(f, P, j):
    """(d/dz_j, d/dzbar_j) of a batch callable by four calls of f per step along z_j alone."""

    def central(h):
        e = np.zeros(P.shape[1], dtype=complex)
        e[j] = h
        return np.array([f(P + e) - f(P - e), f(P + 1j * e) - f(P - 1j * e)]) / (2 * h)

    dx, dy = (4 * central(FD_STEP / 2) - central(FD_STEP)) / 3
    return 0.5 * (dx - 1j * dy), 0.5 * (dx + 1j * dy)


class TestOneStencil:
    """Each finite-difference oracle evaluates its whole stencil as one batch."""

    def test_stencil_equals_per_coordinate_differences_bit_for_bit(self):
        surf = gallery("whitney", n=2)
        P = surf.random_points(7, seed=2)
        for f in (lambda Q: eval_arrays([surf.chart.rho], Q)[0], lambda Q: eval_arrays([surf.chart.jets("hb")], Q)[0]):
            batched = fd_wirtinger(f, P)
            assert batched[0].shape == f(P).shape + (surf.dim,)
            for j in range(surf.dim):
                for got, ref in zip(batched, fd_wirtinger_per_coordinate(f, P, j)):
                    assert np.array_equal(got[..., j], ref)

    def test_fd_wirtinger_calls_f_once_on_the_whole_stencil(self):
        shapes = []
        P = gallery("reinhardt", n=2).random_points(5, seed=1)
        fd_wirtinger(lambda Q: shapes.append(Q.shape) or Q[:, 0] * Q[:, 1], P)
        assert shapes == [(2 * 4 * 3 * 5, 3)]  # both steps, +-Re and +-Im, every coordinate

    @pytest.mark.parametrize("name", ["whitney", "sphere", "reinhardt"])
    def test_frame_oracles_are_one_evaluation_each(self, monkeypatch, name):
        surf = gallery(name, n=2)
        fb = _frame_batch(surf.chart, surf.random_points(6, seed=4))
        calls = []
        real = sym.evaluate
        monkeypatch.setattr(sym, "evaluate", lambda exprs, coords: calls.append(1) or real(exprs, coords))
        for route in (lambda: fd_frame_levi_derivs(surf.chart, fb), lambda: fd_reeb_slot(surf.chart, fb)):
            del calls[:]
            route()
            assert len(calls) == 1


class TestRealnessGate:
    """``_real``: |Im x| <= tol max(1, |Re x|), the given class, the first offending index."""

    @pytest.mark.parametrize("x,ok", [
        (0.5 + 0.9e-10j, True), (0.5 + 1.1e-10j, False),  # |Re x| <= 1: the bound is tol
        (-1.0 - 0.9e-10j, True), (-1.0 - 1.1e-10j, False),
        (1e6 + 0.9e-4j, True), (1e6 + 1.1e-4j, False),  # above it, tol |Re x|
        (-1e-8 + 0.9e-10j, True), (0.0 + 1.1e-10j, False),
    ])
    def test_bound_is_tol_at_unit_scale_and_relative_above(self, x, ok):
        values = np.array([1.0, x, 2.0])
        if ok:
            assert np.array_equal(_real(values, 1e-10, "J", NonpositiveJ), values.real)
        else:
            with pytest.raises(NonpositiveJ, match=r"^J has imaginary residual .* at point index 1 "):
                _real(values, 1e-10, "J", NonpositiveJ)

    def test_raises_the_given_class_at_the_first_offending_index(self):
        values = np.array([3.0, 2.0 + 1e-3j, 1.0 + 1.0j, 4.0 + 1e-3j])
        with pytest.raises(SingularSystem, match="point index 1 "):
            _real(values, 1e-10, "transverse curvature", SingularSystem)

    def test_nan_passes_through(self):
        values = np.array([complex(np.nan, 0.0), complex(1.0, np.nan), complex(np.nan, np.nan), 2.0])
        assert np.array_equal(_real(values, 1e-10, "r", SingularSystem), values.real, equal_nan=True)


OFF = "off: |rho| = {:.3e} at point index {}"


class TestOnSurfaceRule:
    """``_on_surface``: |rho| <= tol max(1, |P| |rho_j|), the given class, the
    first offending index or ray label; NaN and inf fail."""

    @pytest.mark.parametrize("scale", [0.0, 0.25, 1.0, 3.0, 1e6, 1e12])
    def test_bound_is_tol_up_to_unit_scale_and_grows_above(self, scale):
        # |P| = 2 and |grad| = scale / 2, split over two coordinates
        P = np.array([[2.0, 0.0], [1.2, 1.6j], [0.0, -2.0]])
        grad = np.array([[0.0, 0.5j], [0.3, -0.4], [0.5, 0.0]]) * scale
        bound = 1e-10 * max(1.0, scale)
        _on_surface(np.array([0.0, 0.99 * bound, -0.99j * bound]), P, grad, 1e-10, NotOnSurface, OFF)
        with pytest.raises(NotOnSurface, match=r"^off: \|rho\| = .* at point index 1 \(tol "):
            _on_surface(np.array([0.0, 1.01 * bound, 0.0]), P, grad, 1e-10, NotOnSurface, OFF)

    def test_raises_the_given_class_at_the_first_offender_or_its_ray_label(self):
        P = np.ones((4, 2), dtype=complex)
        grad = np.zeros((4, 2))
        rho = np.array([0.0, 1e-3, 0.0, 1.0])
        with pytest.raises(NoCrossing, match=r"^stalled at \|rho\| = 1.000e-03 on ray 701 \(tol 1.0e-12\)$"):
            _on_surface(rho, P, grad, 1e-12, NoCrossing, "stalled at |rho| = {:.3e} on ray {}", np.array([700, 701, 702, 703]))
        with pytest.raises(NotOnSurface, match=r"^left \|rho\| = 1.000e-03 at point index 1 \(tol 1.0e-12\)$"):
            _on_surface(rho, P, grad, 1e-12, NotOnSurface, "left |rho| = {:.3e} at point index {}")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    @pytest.mark.parametrize("x", [0.5, 1e300])
    def test_nan_and_inf_fail(self, bad, x):
        # |P| |grad| is 0.5 at x = 0.5; at 1e300 the bound overflows to inf, and inf must still fail
        P, grad = np.full((2, 2), x), np.full((2, 2), x)
        with pytest.raises(NotOnSurface, match="at point index 1 "):
            _on_surface(np.array([0.0, bad]), P, grad, 1e-10, NotOnSurface, OFF)

    def test_far_point_gate_emits_no_runtime_warning(self):
        # rho overflows to inf before any gradient is taken: the scale is inf * 0
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NotOnSurface, match=r"^projection left \|rho\| = inf at point index 0 \(tol 1.0e-10\)$"):
                sphere_chart().project(np.array([1e200, 0.0]))
