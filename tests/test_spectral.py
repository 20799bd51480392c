"""Kohn-Laplacian formula, energy densities, eigenmap and bound routes."""

import numpy as np
import pytest

from crgeo import checks, hypersurface, spectral
from crgeo import symbolic as sym
from crgeo.checks import spectral_suite
from crgeo.errors import NotEigenmap, NotPluriharmonic, SingularSystem, ZeroEnergy
from crgeo.gallery import gallery
from crgeo.immersion import ImmersionSpec
from crgeo.quadrature import monte_carlo, product_grid
from crgeo.hypersurface import _frame_batch, transverse_solve
from crgeo.spectral import (
    PluriharmonicFunction,
    _boxb_batch,
    _energy_density_batch,
    reilly_bound,
    takahashi_check,
    tension_bound,
)


def boxb(chart, f, P):
    """(K,) box_b f at a (K, m) batch, the transverse field solved for the same points."""
    return _boxb_batch(chart, [f], P, transverse_solve(chart, P)[0])[:, 0]


def energy_density(chart, f, P):
    """(K,) |dbar_b f|^2 at a (K, m) batch."""
    return _energy_density_batch(chart, [f], _frame_batch(chart, P))[:, 0]


class TestKohnLaplacian:
    def test_sphere_conjugate_coordinates(self):
        surf = gallery("sphere", r=1.0, n=1)
        P = surf.random_points(25, seed=1)
        for j, f in enumerate(surf.plurifamily):
            vals = boxb(surf.chart, f, P)
            assert np.max(np.abs(vals - np.conj(P[:, j]))) < 1e-12

    def test_reinhardt_log_moduli(self):
        for n in (1, 2):
            surf = gallery("reinhardt", n=n)
            P = surf.random_points(25, seed=2)
            for j, f in enumerate(surf.plurifamily):
                vals = boxb(surf.chart, f, P)
                Lj = np.log(np.abs(P[:, j]) ** 2)
                assert np.max(np.abs(vals - (n / 2) * Lj)) < 1e-12

    def test_constant_annihilated(self):
        surf = gallery("sphere", r=1.0, n=1)
        f = PluriharmonicFunction(sym.const(3.7), "const")
        P = surf.random_points(1, seed=3)
        assert boxb(surf.chart, f, P)[0] == 0

    def test_cr_function_annihilated_exactly(self):
        surf = gallery("sphere", r=1.0, n=1)
        f = PluriharmonicFunction(sym.var(0) * sym.var(1), "holomorphic")
        P = surf.random_points(1, seed=4)
        assert boxb(surf.chart, f, P)[0] == 0

    def test_nonpluriharmonic_rejected(self):
        surf = gallery("sphere", r=1.0, n=1)
        f = PluriharmonicFunction(sym.abs2(sym.var(0)), "bad")
        with pytest.raises(NotPluriharmonic):
            boxb(surf.chart, f, surf.random_points(1, seed=5))

    def test_linearity(self):
        surf = gallery("ellipsoid", A=(0.1, 0.2, 0.3))
        P = surf.random_points(10, seed=6)
        f = PluriharmonicFunction(sym.re(sym.var(0) * sym.var(1)), "f")
        g = PluriharmonicFunction(sym.re(sym.intpow(sym.var(2), 2)), "g")
        a, b = 1.3 - 0.2j, -0.7 + 2.1j
        combo = PluriharmonicFunction(a * f.ftilde + b * g.ftilde, "combo")
        lhs = boxb(surf.chart, combo, P)
        rhs = a * boxb(surf.chart, f, P) + b * boxb(surf.chart, g, P)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestEnergyDensity:
    def test_reinhardt_pointwise_identity(self):
        surf = gallery("reinhardt", n=1)
        P = surf.random_points(25, seed=7)
        for j, f in enumerate(surf.plurifamily):
            dens = energy_density(surf.chart, f, P)
            Lj = np.log(np.abs(P[:, j]) ** 2)
            assert np.max(np.abs(dens - (0.5 - 0.5 * Lj**2))) < 1e-12

    def test_reinhardt_sum_is_half_n(self):
        for n in (1, 2):
            surf = gallery("reinhardt", n=n)
            P = surf.random_points(25, seed=8)
            total = sum(energy_density(surf.chart, f, P) for f in surf.plurifamily)
            assert np.max(np.abs(total - n / 2)) < 1e-12

    def test_sphere_conjugate_sum_is_n(self):
        for n in (1, 2):
            surf = gallery("sphere", r=1.0, n=n)
            P = surf.random_points(25, seed=9)
            total = sum(energy_density(surf.chart, f, P) for f in surf.plurifamily)
            assert np.max(np.abs(total - n)) < 1e-12

    def test_cr_function_has_zero_density(self):
        surf = gallery("sphere", r=1.0, n=1)
        f = PluriharmonicFunction(sym.var(0), "cr")
        P = surf.random_points(1, seed=10)
        assert abs(energy_density(surf.chart, f, P)[0]) < 1e-15


class TestTakahashi:
    def test_identity_map(self):
        surf = gallery("sphere", r=1.0, n=1)
        rep = takahashi_check(surf.immersion, surf.random_points(10, seed=11))
        assert abs(rep.lam - 1) < 1e-12
        assert abs(rep.radius - 1) < 1e-12
        assert rep.is_eigen and rep.is_pseudohermitian

    def test_quadratic_monomial_map(self):
        z, w = sym.var(0), sym.var(1)
        c = 2**-0.5
        spec = ImmersionSpec(
            [c * z * z, sym.const(1.0) * z * w, c * w * w],
            dim=2,
            psi=sym.const(-0.5),
            name="deg2",
        )
        surf = gallery("sphere", r=1.0, n=1)
        samples = surf.random_points(10, seed=12)
        rep = takahashi_check(spec, samples)
        assert abs(rep.lam - 2) < 1e-10
        assert abs(rep.radius - 1 / np.sqrt(2)) < 1e-12
        assert rep.worst_radius_residual < 1e-9
        assert rep.is_pseudohermitian

    def test_noneigenmap_rejected(self):
        z, w = sym.var(0), sym.var(1)
        spec = ImmersionSpec([z, w, z * w], dim=2, name="mixed-degree")
        sph = gallery("sphere", r=1.0, n=1)
        P = spec.chart.project(0.8 * sph.random_points(10, seed=13))
        with pytest.raises(NotEigenmap):
            takahashi_check(spec, P)


class TestReillyBound:
    def test_unit_sphere_equality_case(self):
        surf = gallery("sphere", r=1.0, n=1)
        rep = reilly_bound(surf.immersion, product_grid(16))
        assert abs(rep.volume - 4 * np.pi**2) / (4 * np.pi**2) < 1e-3
        assert abs(rep.mean_H2 - 1) < 1e-6
        assert abs(rep.upper_bound - 1) < 1e-6

    def test_radius_two_sphere(self):
        surf = gallery("sphere", r=2.0, n=1)
        rep = reilly_bound(surf.immersion, product_grid(12))
        assert abs(rep.upper_bound - 0.25) < 1e-6
        assert abs(rep.volume - 16 * 4 * np.pi**2) / (16 * 4 * np.pi**2) < 2e-3

    def test_whitney_grid_vs_monte_carlo(self):
        surf = gallery("whitney")
        rep = reilly_bound(surf.immersion, product_grid(16))
        rep_mc = reilly_bound(surf.immersion, monte_carlo(60000, seed=2))
        assert abs(rep.upper_bound - rep_mc.upper_bound) / rep.upper_bound < 5e-3


class TestTensionBound:
    def test_reinhardt_certified_constants(self):
        for n in (1, 2):
            surf = gallery("reinhardt", n=n)
            rep = tension_bound(
                surf.chart, surf.plurifamily, sample_points=surf.random_points(100, seed=14)
            )
            assert abs(rep.tension_bound - n / 2) < 1e-12
            assert abs(rep.energy - n / 2) < 1e-12
            assert abs(rep.total_tension - n**2 / 4) < 1e-12
            assert rep.volume is None

    def test_sphere_equality_case(self):
        surf = gallery("sphere", r=1.0, n=1)
        rep = tension_bound(surf.chart, surf.plurifamily, quad=product_grid(12))
        assert abs(rep.tension_bound - 1) < 1e-8
        rb = reilly_bound(surf.immersion, product_grid(12))
        assert abs(rep.tension_bound - rb.upper_bound) < 1e-8

    def test_cr_component_changes_nothing(self):
        surf = gallery("reinhardt", n=1)
        fam = surf.plurifamily + [PluriharmonicFunction(sym.var(0) * sym.var(1), "cr")]
        P = surf.random_points(100, seed=15)
        rep0 = tension_bound(surf.chart, surf.plurifamily, sample_points=P)
        rep1 = tension_bound(surf.chart, fam, sample_points=P)
        assert abs(rep0.tension_bound - rep1.tension_bound) < 1e-12

    def test_all_cr_rejected(self):
        surf = gallery("sphere", r=1.0, n=1)
        fam = [PluriharmonicFunction(sym.var(0), "cr")]
        with pytest.raises(ZeroEnergy):
            tension_bound(surf.chart, fam, sample_points=surf.random_points(20, seed=16))

    @pytest.mark.parametrize("route", [{"quad": monte_carlo(50, 0)}, {"sample_points": np.array([[1.0, 0.0]])}])
    def test_empty_family_has_zero_energy(self, route):
        with pytest.raises(ZeroEnergy, match="all components are CR"):
            tension_bound(gallery("sphere", r=1.0, n=1).chart, [], **route)


@pytest.fixture
def solves(monkeypatch):
    """Record every transverse solve, wherever it is called from."""
    calls = []
    real = hypersurface._transverse_batch

    def counted(grad, hess):
        calls.append(grad.shape[0])
        return real(grad, hess)

    monkeypatch.setattr(hypersurface, "_transverse_batch", counted)
    return calls


def test_xi_batch_rejects_complex_curvature(monkeypatch):
    real = hypersurface._transverse_batch

    def complex_r(grad, hess):
        Binv = real(grad, hess)
        Binv[:, 0, 0] += 1e-8j
        return Binv

    monkeypatch.setattr(hypersurface, "_transverse_batch", complex_r)
    surf = gallery("sphere", r=1.0, n=1)
    with pytest.raises(SingularSystem, match="transverse curvature"):
        spectral._xi_batch(surf.chart, surf.random_points(5, seed=0))


def test_nan_energy_density_fails_its_check(monkeypatch):
    monkeypatch.setattr(checks, "_energy_density_batch", lambda chart, fs, fb: np.full((len(fb.P), len(fs)), np.nan))
    results = {r.name: r for r in spectral_suite(gallery("reinhardt", n=1), seed=0)}
    assert np.isnan(results["reinhardt.energy-density"].residual)
    assert not results["reinhardt.energy-density"].passed


class TestOneFamilyProgram:
    """The densities evaluate a whole family as one program, each column its function's own call."""

    # the sphere's conj(z_j) have constant dbar jets, filled without evaluating
    @pytest.mark.parametrize("name,evaluations", [("reinhardt", 1), ("sphere", 0)])
    def test_family_densities_are_one_evaluation_each(self, monkeypatch, name, evaluations):
        surf = gallery(name, n=2)
        fs = surf.plurifamily
        assert len(fs) == 3
        P = surf.random_points(8, seed=3)
        fb = _frame_batch(surf.chart, P)
        for f in fs:
            f.ensure_valid()
        calls = []
        real = sym.evaluate
        monkeypatch.setattr(sym, "evaluate", lambda exprs, coords: calls.append(1) or real(exprs, coords))
        for route in (lambda: _boxb_batch(surf.chart, fs, P, fb.xi), lambda: _energy_density_batch(surf.chart, fs, fb)):
            del calls[:]
            assert route().shape == (8, 3)
            assert len(calls) == evaluations

    @pytest.mark.parametrize("name,params", [("sphere", {"r": 1.0, "n": 2}), ("reinhardt", {"n": 2}),
                                             ("ellipsoid", {"A": (0.1, 0.2, 0.3)})])
    def test_each_column_equals_its_one_function_call(self, name, params):
        surf = gallery(name, **params)
        fs = surf.plurifamily + [PluriharmonicFunction(sym.re(sym.var(0) * sym.var(1)), "re(z1 z2)"),
                                 PluriharmonicFunction(sym.var(1), "cr")]
        P = surf.random_points(20, seed=6)
        fb = _frame_batch(surf.chart, P)
        boxb_all = _boxb_batch(surf.chart, fs, P, fb.xi)
        dens_all = _energy_density_batch(surf.chart, fs, fb)
        for j, f in enumerate(fs):
            assert np.array_equal(boxb_all[:, j], _boxb_batch(surf.chart, [f], P, fb.xi)[:, 0])
            assert np.array_equal(dens_all[:, j], _energy_density_batch(surf.chart, [f], fb)[:, 0])


class TestSolveCounts:
    """Densities read the caller's batch: one transverse solve per point set."""

    @pytest.mark.parametrize("name,params", [("sphere", {"r": 1.0, "n": 1}), ("reinhardt", {"n": 1})])
    def test_spectral_suite_solves_once(self, solves, name, params):
        results = spectral_suite(gallery(name, **params), seed=0)
        assert all(r.passed for r in results)
        assert solves == [50]

    def test_tension_density_solves_once_per_evaluation(self, solves, monkeypatch):
        per_eval = []
        real = spectral.integrate

        def counting_integrate(rc, density, rule):
            def counted(P):
                before = len(solves)
                out = density(P)
                per_eval.append(len(solves) - before)
                return out

            return real(rc, counted, rule)

        monkeypatch.setattr(spectral, "integrate", counting_integrate)
        surf = gallery("sphere", r=1.0, n=1)
        tension_bound(surf.chart, surf.plurifamily, quad=monte_carlo(50, 0))
        # energy, tension and volume densities, one Monte-Carlo node set each
        assert per_eval == [1, 1, 0]

        solves.clear()
        surf = gallery("reinhardt", n=2)
        tension_bound(surf.chart, surf.plurifamily, sample_points=surf.random_points(20, seed=0))
        assert solves == [20, 20]
