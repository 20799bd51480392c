"""Acceptance suite: one test per top-level criterion, tolerances pinned.

Each test prints a single PASS line on success (pytest -s shows them); any
assertion failure marks the criterion red with the measured residual.
"""

import io
import time
from contextlib import redirect_stdout

import numpy as np

from crgeo import symbolic as sym
from crgeo.checks import fd_loghess, max_fd_mismatch, run_suites
from crgeo.cli import main as cli_main
from crgeo.gallery import gallery, scan_surface
from crgeo.hypersurface import (
    HypersurfaceChart,
    _conformal_batch,
    _frame_batch,
    _loghess_ambient,
    eval_arrays,
    fefferman_det,
    transverse_solve,
)
from crgeo.immersion import ImmersionSpec, _sff_batch
from crgeo.quadrature import RadialChart, integrate, product_grid
from crgeo.spectral import (
    _boxb_batch,
    _energy_density_batch,
    reilly_bound,
    takahashi_check,
    tension_bound,
)

VOL_S3 = 4 * np.pi**2


def _report(num, text):
    print(f"criterion {num} PASS: {text}")


def test_criterion_1_sphere_baseline():
    t0 = time.time()
    worst = 0.0
    for n in (1, 2):
        surf = gallery("sphere", r=1.0, n=n)
        P = surf.random_points(100, seed=100 + n)
        from crgeo.hypersurface import _ricci_batch

        fb, f = _sff_batch(surf.immersion, P)
        _, R, _ = _ricci_batch(surf.chart, fb)
        worst = max(worst, float(np.max(np.abs(fb.r - 1))))
        worst = max(worst, float(np.max(np.abs(fb.J - 1))))
        worst = max(worst, float(np.max(f["II0"])))
        worst = max(worst, float(np.max(np.abs(f["torsion"]))))
        worst = max(worst, float(np.max(np.abs(R - n * (n + 1)))))
        worst = max(worst, float(np.max(np.abs(f["Hnorm2"] - 1))))
    elapsed = time.time() - t0
    assert worst < 1e-9, f"sphere baseline residual {worst:.3e}"
    assert elapsed < 10.0, f"sphere baseline took {elapsed:.1f}s"
    _report(1, f"sphere baseline residual {worst:.2e} in {elapsed:.1f}s")


def test_criterion_2_beltrami_equality_case():
    surf = gallery("sphere", r=1.0, n=1)
    P = surf.random_points(100, seed=21)
    worst = 0.0
    xi, _ = transverse_solve(surf.chart, P)
    vals = _boxb_batch(surf.chart, surf.plurifamily, P, xi)
    for j in range(len(surf.plurifamily)):
        worst = max(worst, float(np.max(np.abs(vals[:, j] - np.conj(P[:, j])))))
    assert worst < 1e-10, f"pointwise eigenfunction residual {worst:.3e}"

    rep = reilly_bound(surf.immersion, product_grid(16))
    vol_err = abs(rep.volume - VOL_S3) / VOL_S3
    bound_err = abs(rep.upper_bound - 1.0)
    assert vol_err < 1e-3, f"volume off by {vol_err:.2e}"
    assert bound_err < 1e-3, f"bound off by {bound_err:.2e}"
    _report(2, f"eigen residual {worst:.2e}, vol rel err {vol_err:.2e}, bound err {bound_err:.2e}")


def test_criterion_3_reinhardt_identities():
    worst = 0.0
    for n in (1, 2):
        surf = gallery("reinhardt", n=n)
        P = surf.random_points(100, seed=30 + n)
        total = np.zeros(P.shape[0])
        fb = _frame_batch(surf.chart, P)
        dens = _energy_density_batch(surf.chart, surf.plurifamily, fb)
        bx = _boxb_batch(surf.chart, surf.plurifamily, P, fb.xi)
        for j in range(len(surf.plurifamily)):
            Lj = np.log(np.abs(P[:, j]) ** 2)
            worst = max(worst, float(np.max(np.abs(dens[:, j] - (0.5 - 0.5 * Lj**2)))))
            total += dens[:, j]
            worst = max(worst, float(np.max(np.abs(bx[:, j] - (n / 2) * Lj))))
        worst = max(worst, float(np.max(np.abs(total - n / 2))))
        rep = tension_bound(surf.chart, surf.plurifamily, sample_points=P)
        assert abs(rep.tension_bound - n / 2) < 1e-12, f"tension bound {rep.tension_bound}"
    assert worst < 1e-9, f"pointwise identity residual {worst:.3e}"
    _report(3, f"identity residual {worst:.2e}, certified bounds exact for n=1,2")


def test_criterion_4_whitney_example():
    surf = gallery("whitney")
    n = surf.n

    # traceless-norm profile along a curve sweeping |w| from 0 to 1
    worst = 0.0
    for eta in np.linspace(0.05, np.pi / 2, 25):
        p = np.array([np.cos(eta) * np.exp(0.3j), np.sin(eta) * np.exp(-0.4j)])
        _, f = _sff_batch(surf.immersion, p[None, :])
        w2 = np.sin(eta) ** 2
        pred = 2 * (n + 1) * (1 - w2) / (1 + w2) ** 2 / (1 + w2)
        worst = max(worst, abs(f["II0"][0] - pred))
    assert worst < 1e-7, f"traceless profile residual {worst:.3e}"

    # umbilic scan flags exactly the |w| = 1 circle
    res = scan_surface(surf, 24**3)
    flagged = res["points"][res["is_umbilic"]]
    assert flagged.shape[0] > 0, "no umbilic points flagged"
    dist = np.hypot(np.abs(flagged[:, 0]), np.abs(flagged[:, 1]) - 1)
    assert np.max(dist) < res["spacing"], f"flagged point {np.max(dist):.3e} off the circle"
    off = res["points"][~res["is_umbilic"]]
    doff = np.hypot(np.abs(off[:, 0]), np.abs(off[:, 1]) - 1)
    assert np.min(doff) > 1e-6, "an on-circle point escaped the flag"

    # conformal-change law: formula route against the direct transverse solve
    base = gallery("sphere", r=1.0, n=1)
    sigma = surf.sigma
    P = base.random_points(40, seed=44)
    lhs = _conformal_batch(base.chart, sigma, _frame_batch(base.chart, P))
    rhs = transverse_solve(surf.chart, P)[1]
    conf = float(np.max(np.abs(lhs - rhs)))
    assert conf < 1e-8, f"conformal two-route residual {conf:.3e}"
    _report(4, f"profile {worst:.2e}, {flagged.shape[0]} umbilics on circle, conformal {conf:.2e}")


def test_criterion_5_ellipsoid_umbilicity():
    # two nonzero coefficients: no umbilical points, margin above 1e-4
    surf = gallery("ellipsoid", A=(0.2, 0.3, 0.0))
    res = scan_surface(surf, 40**3)
    min_ii0 = float(np.min(res["II0norm2"]))
    assert res["points"].shape[0] >= 40**3 * 0.9
    assert min_ii0 > 1e-4, f"min traceless norm {min_ii0:.3e}"
    assert res["is_umbilic"].sum() == 0

    # one nonzero coefficient: locus is the plane ellipse
    A1 = 0.4
    surf1 = gallery("ellipsoid", A=(A1, 0.0, 0.0))
    res1 = scan_surface(surf1, 40**3)
    flagged = res1["points"][res1["is_umbilic"]]
    assert flagged.shape[0] > 0
    tail = np.sqrt(np.abs(flagged[:, 1]) ** 2 + np.abs(flagged[:, 2]) ** 2)
    defect = np.abs(np.abs(flagged[:, 0]) ** 2 + A1 * np.real(flagged[:, 0] ** 2) - 1)
    assert np.max(tail) < res1["spacing"]
    assert np.max(defect) < res1["spacing"]

    # closed form for the log-determinant Hessian on ellipsoids
    worst = 0.0
    for A in [(0.2, 0.3, 0.0), (A1, 0.0, 0.0), (0.1, 0.2, 0.3)]:
        surfA = gallery("ellipsoid", A=A)
        ch = surfA.chart
        Avec = np.array(A)
        for p in surfA.random_points(10, seed=55):
            P = p[None, :]
            lh = _loghess_ambient(ch, _frame_batch(ch, P))[0]
            J = fefferman_det(ch, P)[0]
            grad = eval_arrays([ch.jets("h")], P)[0][0]
            closed = np.diag(Avec**2) * np.sum(np.abs(grad) ** 2) - np.einsum(
                "j,k->jk", Avec * np.conj(grad), Avec * grad
            )
            worst = max(worst, float(np.max(np.abs(J**2 * lh - closed))))
    assert worst < 1e-8, f"closed-form residual {worst:.3e}"
    _report(5, f"min |II0|^2 {min_ii0:.2e}, locus within spacing, closed form {worst:.2e}")


def test_criterion_6_identity_suite():
    surfaces = [
        gallery("sphere", r=1.0, n=1),
        gallery("sphere", r=1.0, n=2),
        gallery("ellipsoid", A=(0.1, 0.2, 0.3)),
        gallery("whitney"),
    ]
    worst = {"gauss": 0.0, "tworoute": 0.0, "meanr": 0.0, "torsion": 0.0, "ric": 0.0}
    for surf in surfaces:
        n = surf.n
        P = surf.random_points(50, seed=66)
        from crgeo.hypersurface import _loghess_batch, _ricci_batch
        from crgeo.immersion import _gauss_form, _sff_batch

        fb, f = _sff_batch(surf.immersion, P)
        ric_ll, R_ll, L = _ricci_batch(surf.chart, fb)
        R_gauss = n * (n + 1) * f["Hnorm2"] - f["II0"]
        worst["gauss"] = max(worst["gauss"], float(np.max(np.abs(R_gauss - R_ll))))
        G = _gauss_form(f["holo"], fb.hinv)
        worst["tworoute"] = max(worst["tworoute"], float(np.max(np.abs(L - G))))
        worst["meanr"] = max(worst["meanr"], float(np.max(np.abs(f["Hnorm2"] - fb.r))))
        # the basis-free pairing -i <V, H> against the normal-basis torsion
        amb = f["torsion_ambient"]
        worst["torsion"] = max(worst["torsion"], float(np.max(np.abs(amb - np.swapaxes(amb, 1, 2)))),
                               float(np.max(np.abs(amb - f["torsion"]))))
        gap = (n + 1) * f["Hnorm2"][:, None, None] * fb.h - ric_ll
        from crgeo.checks import _rel_eigs

        worst["ric"] = max(worst["ric"], float(-np.min(_rel_eigs(gap, fb.h))))
    assert worst["gauss"] < 1e-8, worst
    assert worst["tworoute"] < 1e-7, worst
    assert worst["meanr"] < 1e-9, worst
    assert worst["torsion"] < 1e-9, worst
    assert worst["ric"] < 1e-9, worst
    _report(6, ", ".join(f"{k} {v:.2e}" for k, v in worst.items()))


def test_criterion_7_takahashi():
    surf = gallery("sphere", r=1.0, n=1)
    samples = surf.random_points(12, seed=77)
    rep = takahashi_check(surf.immersion, samples)
    assert abs(rep.lam - 1) < 1e-10 and abs(rep.radius - 1) < 1e-10

    z, w = sym.var(0), sym.var(1)
    c = 2**-0.5
    h2 = ImmersionSpec(
        [c * z * z, sym.const(1.0) * z * w, c * w * w], dim=2, psi=sym.const(-0.5), name="deg2"
    )
    rep2 = takahashi_check(h2, samples)
    assert abs(rep2.lam - 2) < 1e-10
    assert abs(rep2.radius - 1 / np.sqrt(2)) < 1e-12
    assert rep2.worst_radius_residual < 1e-9
    assert rep2.is_pseudohermitian
    _report(7, f"identity (lam={rep.lam:.3f}, r={rep.radius:.3f}); "
               f"quadratic (lam={rep2.lam:.3f}, r={rep2.radius:.4f}, "
               f"sphere residual {rep2.worst_radius_residual:.1e})")


def test_criterion_8_oracle_suite_and_full_check():
    # symbolic jets against central finite differences on every gallery surface
    worst = 0.0
    for name, params in [
        ("sphere", {"r": 1.0, "n": 1}), ("sphere", {"r": 1.0, "n": 2}),
        ("ellipsoid", {"A": (0.1, 0.2, 0.3)}), ("whitney", {}),
        ("reinhardt", {"n": 1}), ("reinhardt", {"n": 2}),
    ]:
        surf = gallery(name, **params)
        P = surf.random_points(50, seed=88)
        worst = max(worst, max_fd_mismatch([surf.chart.rho, *sym.jets(surf.chart.rho, surf.dim, "h")], P))
        fb = _frame_batch(surf.chart, P)
        lh = _loghess_ambient(surf.chart, fb)
        worst = max(worst, float(np.max(np.abs(lh - fd_loghess(surf.chart, P)) / (1.0 + np.abs(lh)))))
        if surf.immersion is not None:
            worst = max(worst, max_fd_mismatch(surf.immersion.F, P))
    assert worst < 1e-6, f"fd mismatch {worst:.3e}"

    t0 = time.time()
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = cli_main(["check", "--all"])
    elapsed = time.time() - t0
    assert rc == 0, f"check --all failed:\n{buf.getvalue()[-2000:]}"
    assert elapsed < 300.0, f"check --all took {elapsed:.0f}s"
    _report(8, f"fd mismatch {worst:.2e}, full check --all green in {elapsed:.0f}s")
