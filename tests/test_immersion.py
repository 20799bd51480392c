"""Second fundamental form, curvature via the Gauss identity, umbilicity."""

import numpy as np
import pytest

from crgeo import hypersurface, immersion
from crgeo import symbolic as sym
from crgeo.checks import immersion_suite
from crgeo.errors import BadParams, GeometryError, NotPluriharmonic, RankDeficientNormalBasis
from crgeo.gallery import gallery, scan_surface
from crgeo.hypersurface import _connection_batch, _frame_batch, _loghess_batch, _ricci_batch, eval_arrays
from crgeo.immersion import (
    UMBILIC_TOLERANCE,
    ImmersionSpec,
    _gauss_curvature_batch,
    _gauss_form,
    _mixed_sff_batch,
    _sff_batch,
    _sff_residuals,
)


def sff_of(spec, p, w_index=None):
    """(fb, f) of ``_sff_batch`` with its ``_sff_residuals`` fields at the single point p: a one-row batch."""
    fb, f = _sff_batch(spec, np.asarray(p, dtype=complex)[None, :], w_index=w_index)
    return fb, _sff_residuals(fb, f)


def gauss_of(fb, f):
    """(riem, ric, scalarR, cm_norm2) of the Gauss identity at the batch's points."""
    return _gauss_curvature_batch(f["holo"], f["Hnorm2"], fb.h, fb.hinv)


class TestConstruction:
    def test_nonholomorphic_component_rejected(self):
        with pytest.raises(NotPluriharmonic):
            ImmersionSpec([sym.var(0), sym.conj(sym.var(1))], dim=2)

    def test_nonpluriharmonic_psi_rejected(self):
        with pytest.raises(NotPluriharmonic):
            ImmersionSpec([sym.var(0), sym.var(1)], dim=2, psi=sym.abs2(sym.var(0)))

    def test_default_psi_is_minus_one(self):
        spec = ImmersionSpec([sym.var(0), sym.var(1)], dim=2)
        p = np.array([0.6, 0.8j], dtype=complex)
        assert abs(spec.chart.rho_at(p[None, :])[0]) < 1e-14

    def test_too_few_components_rejected(self):
        # a load-time rejection of the input, not a failure at a point
        with pytest.raises(BadParams, match="need at least dim=2 components for an immersion, got 1"):
            ImmersionSpec([sym.var(0)], dim=2)

    def test_rank_deficient_map_rejected(self):
        # dF never touches z2; the pluriharmonic part keeps the point
        # admissible so the rank check itself has to fire
        spec = ImmersionSpec(
            [sym.var(0), sym.intpow(sym.var(0), 2)],
            dim=2,
            psi=sym.re(sym.var(1)) - 1,
        )
        p = np.array([0.9, -0.9322], dtype=complex)
        p = spec.chart.project(p)
        with pytest.raises(RankDeficientNormalBasis):
            sff_of(spec, p)


class TestSphere:
    def test_form_vanishes_identically(self):
        surf = gallery("sphere", r=1.0, n=1)
        for p in surf.random_points(10, seed=1):
            _, f = sff_of(surf.immersion, p)
            assert np.max(np.abs(f["holo"])) < 1e-13
            assert np.max(np.abs(f["torsion"])) < 1e-13
            assert abs(f["Hnorm2"][0] - 1) < 1e-12

    def test_mixed_part_is_levi_times_conj_mean_curvature(self):
        surf = gallery("sphere", r=1.0, n=2)
        spec = surf.immersion
        P = surf.random_points(8, seed=2)
        fb, f = _sff_batch(spec, P)
        assert np.max(np.abs(f["E"] - fb.Zc)) < 1e-15  # E = Z F = Zc for the identity map
        M = _mixed_sff_batch(fb, f)
        # II(Z_a, Z_bbar) = -h_{a bbar} conj(xi) for the identity map
        pred = -np.einsum("kab,kd->kabd", fb.h, np.conj(fb.xi))
        assert np.max(np.abs(M - pred)) < 1e-12

    def test_gauss_tensor_is_metric_pattern(self):
        surf = gallery("sphere", r=1.0, n=2)
        p = surf.random_points(1, seed=3)[0]
        fb, f = sff_of(surf.immersion, p)
        riem, _, R, cm = gauss_of(fb, f)
        h = fb.h[0]
        pattern = np.einsum("ab,cd->abcd", h, h) + np.einsum("ad,cb->abcd", h, h)
        assert np.max(np.abs(riem[0] - pattern)) < 1e-12
        assert abs(R[0] - 6) < 1e-11
        assert cm[0] < 1e-22

    def test_nonreal_scalar_curvature_rejected(self):
        surf = gallery("sphere", r=1.0, n=2)
        fb, f = _sff_batch(surf.immersion, surf.random_points(1, seed=3))
        hinv = fb.hinv.copy()
        hinv[0, 0, 1] += 0.5j  # no longer Hermitian
        with pytest.raises(GeometryError, match="scalar curvature"):
            _gauss_curvature_batch(f["holo"], f["Hnorm2"], fb.h, hinv)


class TestWhitney:
    def test_traceless_norm_at_equator(self):
        surf = gallery("whitney")
        p = np.array([np.exp(0.3j), 0], dtype=complex)
        _, f = sff_of(surf.immersion, p)
        assert abs(f["II0"][0] - 4.0) < 1e-12

    def test_traceless_norm_profile(self):
        # |II0|^2 = 2(n+1)(1 - |w|^2) / (1 + |w|^2)^3 along the sphere
        surf = gallery("whitney")
        for eta in np.linspace(0.1, 1.5, 7):
            p = np.array([np.cos(eta) * np.exp(0.2j), np.sin(eta) * np.exp(-0.6j)])
            _, f = sff_of(surf.immersion, p)
            w2 = np.sin(eta) ** 2
            pred = 4 * (1 - w2) / (1 + w2) ** 3
            assert abs(f["II0"][0] - pred) < 1e-10

    def test_umbilic_circle(self):
        surf = gallery("whitney")
        for t in (0.0, 1.1, 2.7):
            _, f = sff_of(surf.immersion, [0, np.exp(1j * t)])
            assert f["II0"][0] < UMBILIC_TOLERANCE
            assert f["II0"][0] < 1e-20
        _, f = sff_of(surf.immersion, [0.6, 0.8])
        assert not f["II0"][0] < UMBILIC_TOLERANCE

    def test_two_route_identity(self):
        # the chart's log J Hessian against the Gauss form of the second fundamental form
        surf = gallery("whitney")
        for p in surf.random_points(10, seed=4):
            fb, f = sff_of(surf.immersion, p)
            residual = np.max(np.abs(_loghess_batch(surf.chart, fb) - _gauss_form(f["holo"], fb.hinv)))
            assert residual < 1e-9


class TestTorsion:
    def test_sphere_torsion_vanishes(self):
        surf = gallery("sphere", r=1.0, n=2)
        p = surf.random_points(1, seed=5)[0]
        _, f = sff_of(surf.immersion, p)
        assert np.max(np.abs(f["torsion"])) < 1e-13

    def test_whitney_torsion_profile(self):
        surf = gallery("whitney")
        # on the w = 0 slice the form's only nonzero component is orthogonal
        # to the mean curvature, so the torsion pairing vanishes there
        _, f0 = sff_of(surf.immersion, [np.exp(0.3j), 0])
        assert np.max(np.abs(f0["torsion"])) < 1e-13
        # while at generic points it does not
        p = np.array([np.cos(0.7) * np.exp(0.2j), np.sin(0.7) * np.exp(-0.6j)])
        A = sff_of(surf.immersion, p)[1]["torsion"][0]
        assert np.max(np.abs(A)) > 0.1
        assert np.max(np.abs(A - A.T)) < 1e-12

    def test_ellipsoid_torsion_symmetric_and_frame_stable(self):
        surf = gallery("ellipsoid", A=(0.2, 0.3, 0.0))
        P = surf.random_points(6, seed=6)
        for p in P:
            _, f = sff_of(surf.immersion, p)
            # -i holo . conj(H) in the normal basis, by its own contraction
            A = -1j * np.einsum("abx,x->ab", f["holo"][0], np.conj(f["Ha"][0]))
            assert np.max(np.abs(A - A.T)) < 1e-9
            assert np.max(np.abs(A - f["torsion"][0])) < 1e-13
            # h-raised squared norm is stable under re-selecting w
            norms = []
            grad = eval_arrays([surf.chart.jets("h")], p[None, :])[0][0]
            for w in range(3):
                if abs(grad[w]) < 1e-6:
                    continue
                fb2, f2 = sff_of(surf.immersion, p, w_index=w)
                T, hinv = f2["torsion"][0], fb2.hinv[0]
                norms.append(np.real(np.einsum(
                    "ab,pq,pa,qb->", T, np.conj(T), hinv, hinv)))
            assert np.max(np.abs(np.array(norms) - norms[0])) < 1e-8


class TestNormalBasis:
    @pytest.mark.parametrize("name, params", [
        ("whitney", {"n": 2}),
        ("ellipsoid", {"A": (0.3, -0.2, 0.1)}),
        ("sphere", {"r": 1.0, "n": 1}),
    ])
    def test_rows_orthonormal_and_orthogonal_to_pushed_frame(self, name, params):
        surf = gallery(name, **params)
        _, f = _sff_batch(surf.immersion, surf.random_points(30, seed=4))
        q, E = f["qbasis"], f["E"]
        assert q.shape[1:] == (surf.immersion.N - surf.n, surf.immersion.N)
        gram = np.einsum("kxd,kyd->kxy", q, np.conj(q))
        assert np.max(np.abs(gram - np.eye(q.shape[1]))) < 1e-14
        assert np.max(np.abs(np.einsum("kad,kxd->kax", E, np.conj(q)))) < 1e-14

    def test_rank_deficient_frame_rejected(self):
        E = np.array([[[1.0, 0.5j, 0.0], [2.0, 1.0j, 0.0]]])
        with pytest.raises(RankDeficientNormalBasis, match="point index 0"):
            immersion._normal_basis(E)

    @pytest.mark.parametrize("n", [1, 2])
    def test_torsion_ambient_route_flags_a_truncated_basis(self, monkeypatch, n):
        real = immersion._normal_basis

        def truncated(E):
            # zero the last basis row, keeping the shapes the suite expects
            q = real(E)
            q[:, -1] = 0.0
            return q

        monkeypatch.setattr(immersion, "_normal_basis", truncated)
        results = {r.name: r for r in immersion_suite(gallery("whitney", n=n), seed=0)}
        assert results["sff.torsion-ambient-route"].residual > 1e-3
        assert not results["sff.torsion-ambient-route"].passed


class TestCurvatureBounds:
    def test_scalar_curvature_identity_everywhere(self):
        for name, params in [("sphere", {"n": 2}), ("ellipsoid", {"A": (0.1, 0.2, 0.3)}), ("whitney", {})]:
            surf = gallery(name, **params)
            n = surf.n
            for p in surf.random_points(10, seed=7):
                fb, f = sff_of(surf.immersion, p)
                _, _, R, _ = gauss_of(fb, f)
                assert abs(R[0] - (n * (n + 1) * f["Hnorm2"][0] - f["II0"][0])) < 1e-10

    def test_ricci_dominated_by_mean_curvature(self):
        surf = gallery("ellipsoid", A=(0.1, 0.2, 0.3))
        n = surf.n
        for p in surf.random_points(10, seed=8):
            fb, f = sff_of(surf.immersion, p)
            _, ric, _, _ = gauss_of(fb, f)
            gap = (n + 1) * f["Hnorm2"][0] * fb.h[0] - ric[0]
            assert np.min(np.linalg.eigvalsh(gap)) > -1e-9

    def test_chern_moser_norm_tracks_traceless_form(self):
        # codimension is low here, so both vanish together
        surf = gallery("ellipsoid", A=(0.1, 0.2, 0.3))
        for p in surf.random_points(6, seed=9):
            fb, f = sff_of(surf.immersion, p)
            cm = gauss_of(fb, f)[3][0]
            assert (cm > 1e-10) == (f["II0"][0] > 1e-10)
        sph = gallery("sphere", r=1.0, n=2)
        p = sph.random_points(1, seed=10)[0]
        fb, f = sff_of(sph.immersion, p)
        cm = gauss_of(fb, f)[3][0]
        assert cm < 1e-20 and f["II0"][0] < 1e-20

    @pytest.mark.parametrize("name,params,cm_bound", [
        ("sphere", {"n": 2}, 1e-25), ("whitney", {"n": 1}, 0.0), ("whitney", {"n": 2}, 1e-25),
        ("ellipsoid", {}, None),
    ])
    def test_batch_rows_equal_per_point_calls(self, name, params, cm_bound):
        surf = gallery(name, **params)
        P = surf.random_points(20, seed=13)
        fb, f = _sff_batch(surf.immersion, P)
        riem, ric, R, cm = _gauss_curvature_batch(f["holo"], f["Hnorm2"], fb.h, fb.hinv)
        for i, p in enumerate(P):
            riem1, ric1, R1, cm1 = (v[0] for v in gauss_of(*sff_of(surf.immersion, p)))
            for rows, one in [(riem, riem1), (ric, ric1), (R, R1)]:
                assert np.max(np.abs(rows[i] - one)) <= 1e-13 * np.max(np.abs(one))
            assert abs(cm[i] - cm1) <= 1e-13 * cm1 + 1e-28  # rounding noise where it vanishes
        if cm_bound is None:  # the ellipsoid is not spherical (Webster)
            assert np.min(cm) > 1e-5
        else:  # sphere and whitney are: the Chern-Moser tensor vanishes
            assert np.max(cm) <= cm_bound

    def test_curvature_tensor_pair_symmetries(self):
        for name, params in [("ellipsoid", {"A": (0.1, 0.2, 0.3)}), ("whitney", {})]:
            surf = gallery(name, **params)
            for p in surf.random_points(5, seed=12):
                R = gauss_of(*sff_of(surf.immersion, p))[0][0]
                # R_{a b~ c d~} = conj(R_{b a~ d c~}) and symmetry in (a, c)
                assert np.max(np.abs(R - np.conj(np.transpose(R, (1, 0, 3, 2))))) < 1e-9
                assert np.max(np.abs(R - np.transpose(R, (2, 1, 0, 3)))) < 1e-9

    def test_trace_identity_with_chart_route(self):
        surf = gallery("whitney")
        for p in surf.random_points(6, seed=11):
            R = gauss_of(*sff_of(surf.immersion, p))[2][0]
            _, R_chart, _ = _ricci_batch(surf.chart, _frame_batch(surf.chart, p[None, :]))
            assert abs(R - R_chart[0]) < 1e-9


class TestEllipsoidUmbilicity:
    def test_two_nonzero_coefficients_admit_none(self):
        surf = gallery("ellipsoid", A=(0.1, 0.2, 0.0))
        res = scan_surface(surf, 12**3)
        assert res["is_umbilic"].sum() == 0
        assert np.min(res["II0norm2"]) > 1e-7

    def test_single_coefficient_locus_is_plane_ellipse(self):
        A1 = 0.4
        surf = gallery("ellipsoid", A=(A1, 0.0, 0.0))
        res = scan_surface(surf, 12**3)
        flagged = res["points"][res["is_umbilic"]]
        assert flagged.shape[0] > 0
        tail = np.sqrt(np.abs(flagged[:, 1]) ** 2 + np.abs(flagged[:, 2]) ** 2)
        defect = np.abs(
            np.abs(flagged[:, 0]) ** 2 + A1 * np.real(flagged[:, 0] ** 2) - 1
        )
        assert np.max(tail) < res["spacing"]
        assert np.max(defect) < 1e-10


def _leaf_ids(exprs):
    return tuple(id(e) for e in np.array(exprs, dtype=object).ravel())


class TestMixedW:
    """Every point picks its own w; batching never changes a number."""

    @pytest.mark.parametrize("name,params", [
        ("sphere", {"r": 1.0, "n": 1}),
        ("sphere", {"r": 1.0, "n": 2}),
        ("whitney", {"n": 1}),
        ("ellipsoid", {"A": (0.1, 0.2, 0.3)}),
    ])
    def test_mixed_w_batch_matches_per_point_batches(self, name, params):
        surf = gallery(name, **params)
        spec = surf.immersion
        P = surf.random_points(12, seed=3)
        fb, f = _sff_batch(spec, P)
        assert len(np.unique(fb.w)) > 1
        omega = _connection_batch(spec.chart, fb)
        M = _mixed_sff_batch(fb, f)
        for k in range(P.shape[0]):
            fbk, fk = _sff_batch(spec, P[k : k + 1])
            assert fbk.w[0] == fb.w[k]
            assert np.max(np.abs(_connection_batch(spec.chart, fbk)[0] - omega[k])) < 1e-12
            for key, v in f.items():
                assert np.max(np.abs(fk[key][0] - v[k])) < 1e-12, key
            assert np.max(np.abs(_mixed_sff_batch(fbk, fk)[0] - M[k])) < 1e-12


class TestBatchReuse:
    """The SFF batch carries what the checks need; nothing is re-evaluated."""

    def test_sff_batch_evaluates_each_jet_array_once(self, monkeypatch):
        surf = gallery("whitney", n=1)
        spec, chart = surf.immersion, surf.chart
        P = surf.random_points(20, seed=0)
        calls = []
        real = hypersurface.eval_arrays

        def counted(arrays, P):
            calls.extend(_leaf_ids(exprs) for exprs in arrays)
            return real(arrays, P)

        for mod in (hypersurface, immersion):
            monkeypatch.setattr(mod, "eval_arrays", counted)
        fb, f = _sff_batch(spec, P)
        assert len(np.unique(fb.w)) == 2
        jets = (
            sym.jets(chart.rho, chart.m, "hh"),
            sym.jets(chart.rho, chart.m, "hbh"),
            sym.jets(spec.F, chart.m, "hh"),
        )
        assert all(calls.count(_leaf_ids(exprs)) == 1 for exprs in jets)
        assert len(set(calls)) == len(calls)

        calls.clear()
        _mixed_sff_batch(fb, f)
        assert calls == []

    def test_sff_then_ricci_inverts_bordered_matrix_once(self, monkeypatch):
        # the connection's Reeb slot and the log J Hessian share one B^-1
        surf = gallery("whitney", n=2)
        inverted = []
        real = np.linalg.inv

        def counted(a):
            inverted.append(a.shape)
            return real(a)

        monkeypatch.setattr(np.linalg, "inv", counted)
        fb, _ = _sff_batch(surf.immersion, surf.random_points(20, seed=0))
        _ricci_batch(surf.chart, fb)
        assert inverted.count((20, 4, 4)) == 1

    def test_immersion_suite_evaluates_loghess_ambient_once(self, monkeypatch):
        calls = []
        real = hypersurface._loghess_ambient

        def counted(chart, fb):
            calls.append(1)
            return real(chart, fb)

        monkeypatch.setattr(hypersurface, "_loghess_ambient", counted)
        results = immersion_suite(gallery("whitney", n=1), seed=0)
        assert all(r.passed for r in results)
        assert len(calls) == 1
