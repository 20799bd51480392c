"""Bounded working memory: scans, radial solves and quadrature densities run one
block at a time, and a point's values do not depend on the block it falls in."""

import io
import sys
import tracemalloc
from contextlib import redirect_stdout

import numpy as np
import pytest

from crgeo import cli
from crgeo import quadrature, symbolic as sym
from crgeo.errors import NoCrossing, NotStrictlyPseudoconvex
from crgeo.gallery import _curvature_core, curvature_batch, gallery, scan_surface
from crgeo.hypersurface import _frame_batch, _rel_eigs
from crgeo.immersion import UMBILIC_TOLERANCE
from crgeo.quadrature import RAY_BLOCK, SCAN_BLOCK, RadialChart, _blocks, _radial_batch
from crgeo.spectral import PluriharmonicFunction, _energy_density_batch


@pytest.mark.parametrize("K,size", [(1, 512), (2, 512), (512, 512), (513, 512), (1025, 512), (59049, 512),
                                    (4096, 4096), (4097, 4096), (7, 3), (0, 4)])
def test_blocks_are_array_split_sizes(K, size):
    blocks = _blocks(K, size)
    lengths = [b.stop - b.start for b in blocks]
    assert lengths == [a.size for a in np.array_split(np.empty(K), len(blocks))]
    assert len(blocks) == max(1, -(-K // size)) and max(lengths) <= size
    assert [b.start for b in blocks[1:]] == [b.stop for b in blocks[:-1]]
    assert blocks[0].start == 0 and blocks[-1].stop == K


class TestBatchSplit:
    """Rows of ``curvature_batch`` are computed on their own: split or permuted, the bits stay."""

    SURFACES = [("sphere", {"n": 1}), ("ellipsoid", {}), ("whitney", {"n": 2}), ("reinhardt", {"n": 2})]

    @staticmethod
    def columns(surface, P):
        fb, f, _, R, L = curvature_batch(surface, P)
        cols = {"r": fb.r, "J": fb.J, "scalarR": R, "min_eig_L": _rel_eigs(L, fb.h)[:, 0]}
        if f is not None:
            cols.update(II0=f["II0"], Hnorm2=f["Hnorm2"])
        return cols

    @pytest.mark.parametrize("name,params", SURFACES)
    def test_split_and_permuted_batches_give_the_same_bits(self, name, params):
        surface = gallery(name, **params)
        P = surface.random_points(5000, seed=31)
        whole = self.columns(surface, P)
        assert len(whole) == (6 if surface.immersion is not None else 4)
        for ways in (2, 33, 512):
            parts = [self.columns(surface, Q) for Q in np.array_split(P, ways)]
            for key, col in whole.items():
                assert np.array_equal(np.concatenate([p[key] for p in parts]), col), (ways, key)
        perm = np.random.default_rng(5).permutation(P.shape[0])
        shuffled = self.columns(surface, P[perm])
        for key, col in whole.items():
            assert np.array_equal(shuffled[key], col[perm]), ("permuted", key)


class TestScanBlocks:
    # grids of 243, 59,049, 729, 27 and 1,280 points: one block, 116, 2, 1 and 3 blocks
    @pytest.mark.parametrize("name,params,grid", [("ellipsoid", {}, 8), ("ellipsoid", {}, 40), ("whitney", {"n": 1}, 9),
                                                  ("sphere", {"n": 1}, 3), ("reinhardt", {"n": 2}, 10)])
    def test_no_block_exceeds_scan_block_or_has_fewer_than_two_points(self, monkeypatch, name, params, grid):
        surface = gallery(name, **params)
        sizes = []

        def counted(surface, P):
            sizes.append(P.shape[0])
            return _curvature_core(surface, P)

        monkeypatch.setattr(sys.modules["crgeo.gallery"], "_curvature_core", counted)
        res = scan_surface(surface, grid**3)
        K = res["points"].shape[0]
        assert sum(sizes) == K and len(sizes) == -(-K // SCAN_BLOCK)
        assert max(sizes) <= SCAN_BLOCK and min(sizes) >= 2
        assert all(res[key].shape == (K,) for key in ("r", "J", "scalarR", "min_eig_L"))

    @pytest.mark.parametrize("failing_call,suffix", [(0, ""), (1, ", in the scan block from grid point 365")])
    def test_a_geometry_error_names_its_block(self, monkeypatch, failing_call, suffix):
        calls = []

        def failing(surface, P):
            calls.append(P.shape[0])
            if len(calls) > failing_call:
                raise NotStrictlyPseudoconvex("Levi eigenvalue -1.000e+00 at point index 3")
            return _curvature_core(surface, P)

        monkeypatch.setattr(sys.modules["crgeo.gallery"], "_curvature_core", failing)
        with pytest.raises(NotStrictlyPseudoconvex, match=rf"^Levi eigenvalue -1.000e\+00 at point index 3{suffix}$"):
            scan_surface(gallery("whitney"), 9**3)  # 729 points: blocks of 365 and 364
        assert calls == [365, 364][:failing_call + 1]

    def test_blocked_scan_equals_one_batch(self):
        surface = gallery("whitney", n=2)
        res = scan_surface(surface, 12**3)
        assert res["points"].shape[0] > SCAN_BLOCK
        fb, f, _, R, L = curvature_batch(surface, res["points"])
        for key, col in [("r", fb.r), ("J", fb.J), ("scalarR", R), ("min_eig_L", _rel_eigs(L, fb.h)[:, 0]),
                         ("II0norm2", f["II0"]), ("Hnorm2", f["Hnorm2"])]:
            assert np.array_equal(res[key], col), key
        assert np.array_equal(res["is_umbilic"], f["II0"] < UMBILIC_TOLERANCE)


class TestRadialBlocks:
    def test_random_points_solve_at_most_ray_block_rays_per_call(self, monkeypatch):
        surface = gallery("sphere", r=1.3, n=1)
        rays = []

        def counted(rc, U, labels=None):
            rays.append(U.shape[0])
            return _radial_batch(rc, U, labels)

        monkeypatch.setattr(quadrature, "_radial_batch", counted)
        P = surface.random_points(2 * RAY_BLOCK + 3, seed=4)
        assert rays == [2732, 2732, 2731]
        assert np.allclose(np.linalg.norm(P, axis=1), 1.3, rtol=0, atol=1e-12)

    def test_blocked_roots_equal_one_batch(self):
        rc = RadialChart(gallery("ellipsoid").chart)
        U = np.random.default_rng(1).standard_normal((RAY_BLOCK + 100, 6))
        U /= np.linalg.norm(U, axis=1, keepdims=True)
        t = _radial_batch(rc, U)
        assert np.array_equal(quadrature.radial_points(rc, U), t[:, None] * (U[:, 0::2] + 1j * U[:, 1::2]) + 0j)

    def test_a_failing_ray_past_the_first_block_keeps_its_index(self):
        rc = RadialChart(gallery("sphere", n=1).chart)
        U = np.random.default_rng(0).standard_normal((RAY_BLOCK + 10, 4))
        U /= np.linalg.norm(U, axis=1, keepdims=True)
        U[RAY_BLOCK + 5] = 0.0  # a zero direction never meets the surface
        with pytest.raises(NoCrossing, match=rf"^ray {RAY_BLOCK + 5} misses the surface"):
            quadrature.radial_points(rc, U)


def test_densities_run_per_node_block(monkeypatch):
    rc = RadialChart(gallery("sphere", n=1).chart)
    angles, _ = quadrature._grid_nodes(16, 4)
    seen = []

    def density(P):
        seen.append(P.shape[0])
        return np.ones(P.shape[0])

    vals = quadrature._eval_on_angles(rc, density, angles)
    per_block = RAY_BLOCK // 7
    assert vals.shape == (4096,) and sum(seen) == 4096
    assert len(seen) == -(-4096 // per_block) and max(seen) <= per_block and min(seen) >= per_block // 2


class TestEnergyDensityOrder:
    """``dbar_b_norm2`` is a fixed-order sum: a one-point batch's column equals its one-function call."""

    @pytest.mark.parametrize("name,params", [("whitney", {"n": 2}), ("reinhardt", {"n": 2}), ("sphere", {"n": 2})])
    def test_one_point_family_columns_equal_one_function_calls(self, name, params):
        surface = gallery(name, **params)
        fs = surface.plurifamily + [PluriharmonicFunction(sym.re(sym.mul(sym.var(0), sym.var(1))), "re(z1 z2)"),
                                    PluriharmonicFunction(sym.re(sym.var(1)), "re z2"),
                                    PluriharmonicFunction(sym.im(sym.var(0)), "im z1")]
        P = surface.random_points(40, seed=9)
        for k in range(0, 40, 7):
            fb = _frame_batch(surface.chart, P[k:k + 1])
            together = _energy_density_batch(surface.chart, fs, fb)
            for j, f in enumerate(fs):
                assert np.array_equal(together[:, j], _energy_density_batch(surface.chart, [f], fb)[:, 0]), (k, j)
        # and a point's value does not depend on its batch
        fb = _frame_batch(surface.chart, P)
        whole = _energy_density_batch(surface.chart, fs, fb)
        for k in range(0, 40, 7):
            assert np.array_equal(_energy_density_batch(surface.chart, fs, _frame_batch(surface.chart, P[k:k + 1]))[0],
                                  whole[k])


# measured 12.2 MB and 4.1 MB (numpy 2, Python 3.12); one batch of all points traced 286.5 MB and 29.4 MB
SCAN_BUDGET_MB = 30.0
BOUND_BUDGET_MB = 10.0


def _traced_peak_mb(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


class TestTracedPeak:
    """Traced (tracemalloc) peaks, budgets set from the measured value with headroom.
    Run as one batch, the ellipsoid's grid-40 scan held every frame, jet and
    SFF array of its 59,049 points at once."""

    def test_ellipsoid_grid_40_scan(self):
        surface = gallery("ellipsoid")
        assert _traced_peak_mb(lambda: scan_surface(surface, 40**3)) < SCAN_BUDGET_MB

    def test_whitney_grid_32_bound(self):
        argv = ["bound", "--surface", "whitney", "--quad", "grid:32"]
        with redirect_stdout(io.StringIO()):
            assert _traced_peak_mb(lambda: cli.main(argv)) < BOUND_BUDGET_MB
