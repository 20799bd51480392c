"""Radial root-finding and contact-volume integration."""

import numpy as np
import pytest

from crgeo import checks, quadrature
from crgeo import symbolic as sym
from crgeo.errors import BadParams, NoCrossing, NotStarShaped
from crgeo.gallery import gallery
from crgeo.hypersurface import HypersurfaceChart
from crgeo.quadrature import (
    FD_STEP,
    RAY_BLOCK,
    QuadratureRule,
    RadialChart,
    _eval_on_angles,
    _radial_batch,
    contact_volume_density,
    integrate,
    monte_carlo,
    parse_quad_flag,
    product_grid,
    quasi_monte_carlo,
    radial_points,
    sphere_angles,
    sphere_point,
)

VOL_S3 = 4 * np.pi**2


def ones(P):
    return np.ones(P.shape[0])


def root(rc, u):
    """First positive radial root along one unit direction u in R^{2m}: a one-row batch."""
    return _radial_batch(rc, np.asarray(u, dtype=float)[None, :])[0]


class TestRadialSolve:
    def test_unit_sphere_every_direction(self):
        rc = RadialChart(gallery("sphere", r=1.0, n=1).chart)
        rng = np.random.default_rng(1)
        for _ in range(5):
            u = rng.standard_normal(4)
            u /= np.linalg.norm(u)
            assert abs(root(rc, u) - 1) < 1e-12

    def test_ellipsoid_axis_closed_form(self):
        surf = gallery("ellipsoid", A=(0.44, 0.0, 0.0))
        rc = RadialChart(surf.chart)
        t = root(rc, [1.0, 0, 0, 0, 0, 0])
        assert abs(t - 1 / 1.2) < 1e-12

    def test_whitney_is_round(self):
        rc = RadialChart(gallery("whitney").chart)
        rng = np.random.default_rng(2)
        for _ in range(5):
            u = rng.standard_normal(4)
            u /= np.linalg.norm(u)
            assert abs(root(rc, u) - 1) < 1e-12

    def test_no_crossing(self):
        rc = RadialChart(gallery("sphere", r=20.0, n=1).chart)
        with pytest.raises(NoCrossing):
            root(rc, [1.0, 0, 0, 0])

    def test_double_crossing_flags_not_star_shaped(self):
        rc = RadialChart(gallery("reinhardt", n=1).chart)
        u = np.array([1.0, 0, 1.0, 0]) / np.sqrt(2)
        with pytest.raises(NotStarShaped):
            root(rc, u)


def random_directions(seed, K, d):
    U = np.random.default_rng(seed).standard_normal((K, d))
    return U / np.linalg.norm(U, axis=1, keepdims=True)


class TestRadialBatch:
    # (surface, params, closed-form radius along the complex direction u)
    CASES = [
        ("sphere", {"r": 1.3, "n": 1}, lambda u: np.full(len(u), 1.3)),
        ("sphere", {"r": 0.8, "n": 2}, lambda u: np.full(len(u), 0.8)),
        ("whitney", {}, lambda u: np.ones(len(u))),
        ("ellipsoid", {"A": (0.1, 0.2, 0.3)},
         lambda u: 1 / np.sqrt(1 + np.real(u**2 @ np.array([0.1, 0.2, 0.3])))),
    ]

    @pytest.mark.parametrize("name,params,radius", CASES)
    def test_roots_match_closed_forms(self, name, params, radius):
        surf = gallery(name, **params)
        U = random_directions(7, 200, 2 * surf.chart.m)
        t = _radial_batch(RadialChart(surf.chart), U)
        assert np.max(np.abs(t - radius(U[:, 0::2] + 1j * U[:, 1::2]))) < 1e-12

    def test_evaluation_counts_per_batch(self, monkeypatch):
        chart = gallery("ellipsoid", A=(0.1, 0.2, 0.3)).chart
        K = 17
        calls = {"rho": [], "grad": []}
        rho_at, real = chart.rho_at, quadrature.eval_arrays

        def counted_rho(P):
            calls["rho"].append(P.shape)
            return rho_at(P)

        def counted_arrays(arrays, P):
            # a gradient evaluation is an eval_arrays call that carries the chart's rho_j
            if any(a is chart.jets("h") for a in arrays):
                calls["grad"].append(P.shape)
            return real(arrays, P)

        monkeypatch.setattr(chart, "rho_at", counted_rho)
        monkeypatch.setattr(quadrature, "eval_arrays", counted_arrays)
        _radial_batch(RadialChart(chart), random_directions(8, K, 6))
        assert calls["rho"] == [(K, 3)] * 92
        assert calls["grad"] == [(K, 3)] * 7

    def test_error_messages(self):
        rc = RadialChart(gallery("sphere", r=20.0, n=1).chart)
        with pytest.raises(NoCrossing, match=r"^ray 0 misses the surface for t in \(0, 10.0\]$"):
            _radial_batch(rc, np.array([[1.0, 0, 0, 0]]))
        rc = RadialChart(gallery("reinhardt", n=1).chart)
        U = np.array([[1.0, 0, 1.0, 0]]) / np.sqrt(2)
        with pytest.raises(NotStarShaped, match=r"^ray 0 crosses the surface \d+ times: not star-shaped about the origin$"):
            _radial_batch(rc, U)


def rule_angles(rule, d):
    if rule.kind == "product-grid":
        return quadrature._grid_nodes(rule.resolution, d)[0]
    return sphere_angles(quadrature._sample_directions(rule, d))


def per_shift_reference(rc, density, angles):
    """_eval_on_angles with one radial solve per angle set: the centre, then
    each +-FD_STEP shift of each angle, every set over all nodes."""
    chart = rc.chart
    d = 2 * chart.m
    P = radial_points(rc, sphere_point(angles))
    V = np.empty((angles.shape[0], d - 1, chart.m), dtype=complex)
    for i in range(d - 1):
        step = np.zeros_like(angles)
        step[:, i] = FD_STEP
        plus = radial_points(rc, sphere_point(angles + step))
        V[:, i, :] = (plus - radial_points(rc, sphere_point(angles - step))) / (2 * FD_STEP)
    return np.abs(contact_volume_density(chart, P, V)) * density(P)


class TestStencilSolve:
    """The FD stencil's rays are solved in node blocks of at most RAY_BLOCK rays."""

    # the grids and mc:700 need more than one block: 585 nodes per block for m = 2, 372 for m = 3
    CASES = [
        ("sphere", {"r": 1.3, "n": 1}, "grid:10"),
        ("sphere", {"r": 1.3, "n": 1}, "mc:700:3"),
        ("sphere", {"r": 0.8, "n": 2}, "grid:4"),
        ("sphere", {"r": 0.8, "n": 2}, "mc:100:5"),
        ("whitney", {}, "grid:10"),
        ("whitney", {}, "mc:100:6"),
        ("ellipsoid", {"A": (0.1, 0.2, 0.3)}, "grid:4"),
        ("ellipsoid", {"A": (0.1, 0.2, 0.3)}, "mc:400:7"),
    ]

    @pytest.mark.parametrize("name,params,quad", CASES)
    def test_equals_per_shift_solves_bit_for_bit(self, name, params, quad):
        rc = RadialChart(gallery(name, **params).chart)
        angles = rule_angles(parse_quad_flag(quad), 2 * rc.chart.m)
        dens = lambda P: 1.0 + np.abs(P[:, 0]) ** 2
        assert np.array_equal(_eval_on_angles(rc, dens, angles), per_shift_reference(rc, dens, angles))

    @pytest.mark.parametrize("n,quad,nodes", [(1, "grid:10", 1000), (1, "mc:100:0", 100), (2, "grid:4", 1024)])
    def test_one_call_per_node_block(self, monkeypatch, n, quad, nodes):
        rc = RadialChart(gallery("sphere", r=1.0, n=n).chart)
        d = 2 * rc.chart.m
        angles = rule_angles(parse_quad_flag(quad), d)
        rays = []

        def counted(rc, U, labels=None):
            rays.append(U.shape[0])
            return _radial_batch(rc, U, labels)

        monkeypatch.setattr(quadrature, "_radial_batch", counted)
        _eval_on_angles(rc, ones, angles)
        per_block = RAY_BLOCK // (2 * d - 1)
        assert len(angles) == nodes
        assert len(rays) == -(-nodes // per_block)
        assert max(rays) <= RAY_BLOCK
        assert sum(rays) == (2 * d - 1) * nodes

    def test_failing_shifted_ray_names_its_node(self, monkeypatch):
        rc = RadialChart(gallery("sphere", r=1.0, n=1).chart)
        angles = rule_angles(product_grid(10), 4)
        target = angles[700].copy()
        target[1] -= FD_STEP  # node 700, in the second block, shifted down in its second angle
        real = quadrature.sphere_point

        def blinded(a):
            U = real(a)
            U[np.all(a == target, axis=1)] = 0.0  # a zero direction never meets the surface
            return U

        monkeypatch.setattr(quadrature, "sphere_point", blinded)
        with pytest.raises(NoCrossing, match=r"^ray 700 misses the surface for t in \(0, 10.0\]$"):
            _eval_on_angles(rc, ones, angles)


def three_terms(P):
    z2 = np.abs(P[:, 0]) ** 2
    return np.stack([np.ones(P.shape[0]), z2, 1.0 + z2], axis=1)


class TestSharedNodes:
    """Several densities share one node set: each column is the one-density value."""

    @pytest.mark.parametrize("name,params,quad", [("whitney", {}, "grid:6"), ("sphere", {"r": 1.3, "n": 2}, "qmc:200:3")])
    def test_each_column_equals_its_one_density_call(self, name, params, quad):
        rc = RadialChart(gallery(name, **params).chart)
        angles = rule_angles(parse_quad_flag(quad), 2 * rc.chart.m)
        together = _eval_on_angles(rc, three_terms, angles)
        assert together.shape == (angles.shape[0], 3)
        for j in range(3):
            assert np.array_equal(together[:, j], _eval_on_angles(rc, lambda P: three_terms(P)[:, j], angles)), j

    @pytest.mark.parametrize("name,params,resolutions", [("sphere", {"r": 1.0, "n": 1}, (4, 8, 16)),
                                                         ("ellipsoid", {"A": (0.1, 0.2, 0.3)}, (3, 5, 10))])
    def test_check_suite_solves_each_grid_once(self, monkeypatch, name, params, resolutions):
        surface = gallery(name, **params)
        d = 2 * surface.dim
        nodes, rules = [], []

        def counted(rc, density, angles):
            nodes.append(angles.shape[0])
            return _eval_on_angles(rc, density, angles)

        def recorded(rc, density, rule):
            rules.append(rule.kind)
            return integrate(rc, density, rule)

        monkeypatch.setattr(quadrature, "_eval_on_angles", counted)
        monkeypatch.setattr(checks, "_eval_on_angles", counted, raising=False)
        monkeypatch.setattr(checks, "integrate", recorded)
        results = checks.quadrature_suite(surface, seed=0)
        assert [r.name for r in results] == ["quadrature.refinement-convergence", "quadrature.orientation-positive",
                                             "quadrature.grid-vs-monte-carlo"]
        assert rules == ["quasi-monte-carlo"]
        assert nodes == [quadrature._grid_nodes(r, d)[0].shape[0] for r in resolutions] + [4000]


class TestSphericalCoordinates:
    def test_round_trip(self):
        rng = np.random.default_rng(3)
        U = rng.standard_normal((40, 6))
        U /= np.linalg.norm(U, axis=1, keepdims=True)
        back = sphere_point(sphere_angles(U))
        assert np.max(np.abs(back - U)) < 1e-12


class TestIntegrate:
    def test_unit_sphere_volume(self):
        rc = RadialChart(gallery("sphere", r=1.0, n=1).chart)
        val, err = integrate(rc, ones, product_grid(16))
        assert abs(val - VOL_S3) / VOL_S3 < 1e-3
        assert err < 1e-3 * VOL_S3

    def test_mean_curvature_density(self):
        surf = gallery("sphere", r=1.0, n=1)
        rc = RadialChart(surf.chart)
        from crgeo.spectral import _xi_batch

        val, _ = integrate(rc, lambda P: _xi_batch(surf.chart, P)[1], product_grid(16))
        assert abs(val - VOL_S3) / VOL_S3 < 1e-3

    def test_radius_scaling(self):
        rc = RadialChart(gallery("sphere", r=2.0, n=1).chart)
        val, _ = integrate(rc, ones, product_grid(16))
        assert abs(val - 16 * VOL_S3) / (16 * VOL_S3) < 2e-3

    def test_grid_vs_monte_carlo(self):
        surf = gallery("ellipsoid", A=(0.1, 0.2))
        rc = RadialChart(surf.chart)
        dens = lambda P: 1.0 + np.abs(P[:, 0]) ** 2
        v1, _ = integrate(rc, dens, product_grid(12))
        v2, e2 = integrate(rc, dens, monte_carlo(20000, seed=4))
        assert abs(v1 - v2) / abs(v1) < 5e-3

    def test_refinement_convergence(self):
        rc = RadialChart(gallery("ellipsoid", A=(0.15, 0.25)).chart)
        dens = lambda P: 1.0 + np.real(P[:, 0]) ** 2
        ref, _ = integrate(rc, dens, product_grid(32))
        e_coarse = abs(integrate(rc, dens, product_grid(4))[0] - ref)
        e_fine = abs(integrate(rc, dens, product_grid(8))[0] - ref)
        assert e_coarse / max(e_fine, 1e-14) >= 3

    def test_determinism(self):
        rc = RadialChart(gallery("sphere", r=1.0, n=1).chart)
        a = integrate(rc, ones, monte_carlo(2000, seed=9))
        b = integrate(rc, ones, monte_carlo(2000, seed=9))
        assert a == b


class TestQuasiMonteCarlo:
    def test_halton_radical_inverses(self):
        h = quadrature._halton(4, 3)
        np.testing.assert_allclose(h[:, 0], [1 / 2, 1 / 4, 3 / 4, 1 / 8], rtol=0, atol=1e-15)
        np.testing.assert_allclose(h[:, 1], [1 / 3, 2 / 3, 1 / 9, 4 / 9], rtol=0, atol=1e-15)
        np.testing.assert_allclose(h[:, 2], [1 / 5, 2 / 5, 3 / 5, 4 / 5], rtol=0, atol=1e-15)

    def test_shift_onto_zero_stays_finite(self, monkeypatch):
        rule = quasi_monte_carlo(16, seed=5)
        shift = np.random.default_rng(5).random(4)
        halton = quadrature._halton(16, 4)
        halton[:, 0] = 1.0 - shift[0]  # every first coordinate lands on u = 0
        monkeypatch.setattr(quadrature, "_halton", lambda n, d: halton)
        U = quadrature._sample_directions(rule, 4)
        assert np.all(np.isfinite(U))
        np.testing.assert_allclose(np.linalg.norm(U, axis=1), 1.0, rtol=1e-15)

    @pytest.mark.parametrize("seed", range(4))
    def test_beats_monte_carlo_error_bar(self, seed):
        # |z1|^2 averages to 1/2 over the unit sphere
        rc = RadialChart(gallery("sphere", r=1.0, n=1).chart)
        dens = lambda P: 1.0 + np.abs(P[:, 0]) ** 2
        exact = 1.5 * VOL_S3
        qmc, _ = integrate(rc, dens, quasi_monte_carlo(4000, seed))
        _, mc_err = integrate(rc, dens, monte_carlo(4000, seed))
        assert abs(qmc - exact) / exact < 1e-3
        assert abs(qmc - exact) < 0.2 * mc_err


class TestRuleParsing:
    def test_grid(self):
        r = parse_quad_flag("grid:24")
        assert r.kind == "product-grid" and r.resolution == 24

    def test_mc_with_seed(self):
        r = parse_quad_flag("mc:5000:7")
        assert r.kind == "monte-carlo" and r.samples == 5000 and r.seed == 7

    def test_qmc_round_trips(self):
        for text, seed in (("qmc:4000:3", 3), ("qmc:64", 0)):
            r = parse_quad_flag(text)
            assert r.kind == "quasi-monte-carlo" and r.seed == seed
            assert parse_quad_flag(r.describe()) == r
        assert parse_quad_flag("mc:5000:7").describe() == "mc:5000:7"

    def test_malformed(self):
        for bad in ("grid", "grid:x", "mc:", "foo:3", "grid:2", "qmc:4", "qmc:1:2:3"):
            with pytest.raises(BadParams):
                parse_quad_flag(bad)

    def test_unknown_kind_rejected(self):
        with pytest.raises(BadParams, match="unknown quadrature kind 'sobol'"):
            QuadratureRule(kind="sobol", samples=64)

    def test_node_ceiling(self):
        with pytest.raises(BadParams, match="ceiling"):
            parse_quad_flag("mc:1000001")
        rc = RadialChart(gallery("sphere", r=1.0, n=1).chart)
        with pytest.raises(BadParams, match=rf"^grid:100000000 needs {10**24} nodes on S\^3"):
            integrate(rc, ones, product_grid(100000000))


def test_pfaffian_of_a_4x4_matrix():
    a = np.random.default_rng(0).standard_normal((3, 4, 4))
    a = a - np.swapaxes(a, 1, 2)
    expected = a[:, 0, 1] * a[:, 2, 3] - a[:, 0, 2] * a[:, 1, 3] + a[:, 0, 3] * a[:, 1, 2]
    np.testing.assert_allclose(quadrature._pfaffian(a), expected, rtol=1e-14)
