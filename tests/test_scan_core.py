"""Scan blocks compute only what their six columns read: the core SFF route, a
linear F taken as structure, and closed-form relative eigenvalues for n <= 2."""

import sys

import numpy as np
import pytest

from crgeo import hypersurface, immersion
from crgeo import symbolic as sym
from crgeo.dsl import parse_surface_file
from crgeo.errors import RankDeficientNormalBasis
from crgeo.gallery import curvature_batch, gallery, load_surface, scan_surface
from crgeo.hypersurface import _rel_eigs
from crgeo.immersion import ImmersionSpec, _sff_batch, _sff_residuals
from crgeo.quadrature import SCAN_BLOCK

# the field dict of curvature_batch before its SFF was split into core and residuals
SFF_KEYS = {"dF", "E", "qbasis", "holo", "H", "Ha", "Hnorm2", "torsion", "torsion_ambient", "II0",
            "normality", "symmetry", "H_tangential"}
RESIDUAL_KEYS = {"normality", "symmetry", "H_tangential", "Ha", "torsion", "torsion_ambient"}

GALLERY = [("sphere", {"n": 1}), ("sphere", {"r": 1.3, "n": 2}), ("ellipsoid", {}), ("ellipsoid", {"A": (0.3, -0.2)}),
           ("whitney", {"n": 1}), ("whitney", {"n": 2}), ("reinhardt", {"n": 1}), ("reinhardt", {"n": 2})]


def _cholesky_route(L, h):
    """Eigenvalues of C^-1 L C^-* by LAPACK's Cholesky and eigvalsh: the route n >= 3 takes."""
    cinv = np.linalg.inv(np.linalg.cholesky(h))
    return np.linalg.eigvalsh(cinv @ L @ np.conj(np.swapaxes(cinv, -1, -2)))


def _hermitian(rng, K, n):
    Y = rng.standard_normal((K, n, n)) + 1j * rng.standard_normal((K, n, n))
    return Y + np.conj(np.swapaxes(Y, 1, 2))


def _metric(rng, K, n):
    """Seeded positive definite h = I + G G^*, condition numbers up to about 10."""
    G = 0.5 * (rng.standard_normal((K, n, n)) + 1j * rng.standard_normal((K, n, n)))
    return np.eye(n) + G @ np.conj(np.swapaxes(G, 1, 2))


def _assert_agree(lam, ref):
    """Within 1e-14 max(1, |lambda|), |lambda| the largest at the point: the scale of
    the rounding of either route."""
    scale = np.maximum(1.0, np.abs(ref).max(axis=1, keepdims=True))
    assert lam.shape == ref.shape
    assert np.all(np.abs(lam - ref) <= 1e-14 * scale), float(np.max(np.abs(lam - ref) / scale))


class TestRelEigsClosedForm:
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_pairs_agree_with_the_cholesky_route(self, n, seed):
        rng = np.random.default_rng(seed)
        h, L = _metric(rng, 5000, n), _hermitian(rng, 5000, n)
        lam = _rel_eigs(L, h)
        _assert_agree(lam, _cholesky_route(L, h))
        assert np.all(np.diff(lam, axis=1) >= 0)  # ascending

    @pytest.mark.parametrize("n", [1, 2])
    def test_degenerate_pencils_give_their_multiple(self, n):
        rng = np.random.default_rng(7)
        h = _metric(rng, 2000, n)
        c = 3.0 * rng.standard_normal(2000)
        L = c[:, None, None] * h
        lam = _rel_eigs(L, h)
        _assert_agree(lam, _cholesky_route(L, h))
        _assert_agree(lam, np.repeat(c[:, None], n, axis=1))

    def test_ill_conditioned_metric(self):
        # a graded h = D A D, D = diag(1, 1e-4): condition numbers about 1e8
        rng = np.random.default_rng(11)
        A = _metric(rng, 2000, 2)
        D = np.array([1.0, 1e-4])
        h = D[None, :, None] * A * D[None, None, :]
        assert np.median(np.linalg.cond(h)) > 5e7
        L = _hermitian(rng, 2000, 2)
        _assert_agree(_rel_eigs(L, h), _cholesky_route(L, h))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_a_points_values_do_not_depend_on_its_batch(self, n):
        rng = np.random.default_rng(3)
        h, L = _metric(rng, 300, n), _hermitian(rng, 300, n)
        whole = _rel_eigs(L, h)
        for k in range(0, 300, 37):
            assert np.array_equal(_rel_eigs(L[k:k + 1], h[k:k + 1])[0], whole[k])
        perm = rng.permutation(300)
        assert np.array_equal(_rel_eigs(L[perm], h[perm]), whole[perm])

    def test_three_and_more_take_the_cholesky_route(self):
        rng = np.random.default_rng(5)
        h, L = _metric(rng, 50, 3), _hermitian(rng, 50, 3)
        assert np.array_equal(_rel_eigs(L, h), _cholesky_route(L, h))


class TestScanCoreRoute:
    @pytest.mark.parametrize("name,params", GALLERY)
    def test_scan_columns_are_the_bits_of_curvature_batch(self, name, params):
        surface = gallery(name, **params)
        res = scan_surface(surface, 7**3)
        assert res["points"].shape[0] <= SCAN_BLOCK  # one block: the scan's route, not its cutting
        fb, f, _, R, L = curvature_batch(surface, res["points"])
        cols = {"r": fb.r, "J": fb.J, "scalarR": R, "min_eig_L": _rel_eigs(L, fb.h)[:, 0]}
        if f is not None:
            cols.update(II0norm2=f["II0"], Hnorm2=f["Hnorm2"])
        assert ("II0norm2" in res) == (surface.immersion is not None)
        for key, col in cols.items():
            assert np.array_equal(res[key], col), key

    @pytest.mark.parametrize("name,params", [g for g in GALLERY if g[0] != "reinhardt"])
    def test_curvature_batch_keeps_every_field(self, name, params):
        surface = gallery(name, **params)
        P = surface.random_points(9, seed=2)
        _, f, _, _, _ = curvature_batch(surface, P)
        assert SFF_KEYS <= set(f)
        _, core = _sff_batch(surface.immersion, P)
        assert not RESIDUAL_KEYS & set(core)
        assert all(f[key].shape[0] == 9 for key in SFF_KEYS)

    def test_the_core_route_computes_no_residual(self, monkeypatch):
        def refused(fb, f):
            raise AssertionError("a scan block computed the SFF residuals")

        monkeypatch.setattr(immersion, "_sff_residuals", refused)
        monkeypatch.setattr(sys.modules["crgeo.gallery"], "_sff_residuals", refused)
        res = scan_surface(gallery("whitney", n=2), 6**3)
        assert res["II0norm2"].shape == res["r"].shape


class TestLinearF:
    def test_flag(self):
        text = "dim = 2\nrho = abs2(z1) + abs2(z2) - 1\nF = [z1, z2]\n"
        assert load_surface(parse_surface_file(text)).immersion.linear
        for name, params in [("sphere", {"n": 1}), ("sphere", {"n": 2}), ("ellipsoid", {}), ("ellipsoid", {"A": (0.3, -0.2)})]:
            spec = gallery(name, **params).immersion
            assert spec.linear, name
            vals = sym.jets(spec.F, spec.dim, "hh").values
            assert vals is not None and not any(vals)  # every second jet is the constant 0
        for n in (1, 2):
            assert not gallery("whitney", n=n).immersion.linear

    @pytest.mark.parametrize("name,params", [("sphere", {"r": 1.3, "n": 1}), ("sphere", {"n": 2}), ("ellipsoid", {}),
                                             ("ellipsoid", {"A": (0.3, -0.2)})])
    def test_forced_off_gives_the_same_bits(self, monkeypatch, name, params):
        surface = gallery(name, **params)
        P = surface.random_points(200, seed=8)
        fb, f = _sff_batch(surface.immersion, P)
        _sff_residuals(fb, f)
        monkeypatch.setattr(ImmersionSpec, "linear", property(lambda self: False))
        fb_off, f_off = _sff_batch(surface.immersion, P)
        _sff_residuals(fb_off, f_off)
        assert set(f) == set(f_off)
        for key in f:
            assert np.array_equal(f[key], f_off[key]), key

    def test_linear_route_reads_no_second_jet(self, monkeypatch):
        spec = gallery("ellipsoid").immersion
        second = sym.jets(spec.F, spec.dim, "hh")
        seen = []
        real = hypersurface.eval_arrays

        def spy(arrays, P):
            seen.extend(arrays)
            return real(arrays, P)

        monkeypatch.setattr(immersion, "eval_arrays", spy)
        _sff_batch(spec, gallery("ellipsoid").random_points(5, seed=0))
        assert seen and not any(a is second for a in seen)

    def test_a_rank_deficient_linear_map_keeps_its_gate_message(self, monkeypatch):
        # F = (z1, z1) is linear and never an immersion; psi keeps the level set pseudoconvex
        spec = ImmersionSpec([sym.var(0), sym.var(0)], dim=2, psi=sym.add(sym.re(sym.var(1)), sym.const(-1)))
        assert spec.linear
        P = spec.chart.project(np.array([[0.3, 0.5], [0.2j, 0.7], [0.4, 0.1j]], dtype=complex))
        with pytest.raises(RankDeficientNormalBasis) as on:
            _sff_batch(spec, P)
        monkeypatch.setattr(ImmersionSpec, "linear", property(lambda self: False))
        with pytest.raises(RankDeficientNormalBasis) as off:
            _sff_batch(spec, P)
        assert str(on.value) == str(off.value)
        assert str(on.value).endswith("at point index 0: not an immersion")
