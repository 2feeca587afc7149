"""The mesh is its cell table: it stores no array with a row per triangle,
and every reader that sums over the triangles, kind by kind over runs of
cells, equals the same sum over the flat list of triangles
(``helpers.flat_triangles``)."""

import functools

import numpy as np
import pytest

import membrane_homog.homogenize as homogenize
from membrane_homog.cli import SOURCE_PRESETS
from membrane_homog.corrector import CorrectorSolution, _corrector_solutions, window_mask
from membrane_homog.fem import (
    BilinearFormSpec,
    FemSolution,
    aniso_field,
    edge_jump_energy,
    flux_pairing,
    gradient_load,
    norms,
    volume_load,
)
from membrane_homog.geometry import BernoulliCellwiseMap, InterfaceSpec
from membrane_homog.homogenize import HomogSolution, _test_field_values, error_suite
from membrane_homog.meshing import (
    MINUS,
    PLUS,
    build_cell_mesh,
    build_square_mesh,
    tile_domain_mesh,
    triangle_centroids,
    triangle_geometry,
    truncated_template,
)

from helpers import flat_gradient, flat_interface, flat_triangles, stored_arrays

SPEC = InterfaceSpec()
NAMES = ["cell_h005", "bernoulli_n8", "tiled_sixteenth", "square255"]


@functools.lru_cache(maxsize=None)
def built(name):
    """The mesh ``name`` and the meshes that share its arrays: the cell mesh
    at h = 0.05; an n = 8 Bernoulli realization and its template; the
    eps = 1/16 tiling with cushions and its template; and the square grid
    of four block kinds."""
    cell = build_cell_mesh(SPEC, 0.05)
    if name == "cell_h005":
        return cell, ()
    if name == "bernoulli_n8":
        template = truncated_template(cell, 8)
        return template.realize(BernoulliCellwiseMap(0)), (template.mesh,)
    if name == "tiled_sixteenth":
        mesh = tile_domain_mesh(cell, BernoulliCellwiseMap(0), 1 / 16, SPEC)
        return mesh, (mesh.with_kinds(mesh.cell_kind, mesh.ref_vertices),)
    return build_square_mesh(255), ()


class TestNoPerTriangleArrays:
    """No array stored on a mesh, or shared by its realizations and copies,
    has a row per triangle.  Only on a mesh of one cell, whose triangles are
    its prototypes, do the per-prototype and per-class arrays have as many
    rows."""

    PER_PROTOTYPE = {"mesh.prototypes", "mesh.proto_areas", "mesh.proto_grads",
                     *(f"mesh.{links}.{key}" for links in ("links[0]", "kinds[0].links")
                       for key in ("corners", "region", "tri"))}

    @pytest.mark.parametrize("name", NAMES)
    def test_no_array_has_a_row_per_triangle(self, name):
        mesh, sharing = built(name)
        nt = mesh.num_triangles
        for owner in (mesh, *sharing):
            assert owner.num_triangles == nt
            rows = {path for path, a in stored_arrays(owner, "mesh") if a.ndim and len(a) == nt}
            if len(mesh.cells) == 1:
                assert rows <= self.PER_PROTOTYPE, rows
            else:
                assert len(mesh.prototypes) < nt and not rows, rows
        assert nt == len(flat_triangles(mesh).triangles) > 0


@functools.lru_cache(maxsize=None)
def oracle_case(name):
    """The mesh, random nodal values, the aniso conductivity per prototype,
    the flat list and each flat triangle's conductivity and gradient."""
    mesh = built(name)[0]
    values = np.random.default_rng(7).standard_normal(mesh.num_vertices)
    proto = BilinearFormSpec(conductivity=aniso_field).proto_tensor(mesh)
    flat = flat_triangles(mesh)
    return mesh, values, proto, flat, proto[flat.prototype], flat_gradient(mesh, values, flat)


def assert_close(got, want, tol=1e-13):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= tol * np.abs(want).max(), np.abs(got - want).max()


def nodal(mesh, flat, per_corner):
    """The nodal sum of per-corner values (nt, 3) over the flat list."""
    return np.bincount(flat.triangles.ravel(), weights=per_corner.ravel(),
                       minlength=mesh.num_vertices)


class TestReadersMatchFlatOracle:
    """Each reader that runs kind by kind over cells equals the same sum over
    the flat list of triangles within 1e-13 relative."""

    @pytest.mark.parametrize("name", NAMES)
    def test_volume_load(self, name):
        mesh, _, _, flat, _, _ = oracle_case(name)
        f = SOURCE_PRESETS["tilted"]
        fc = f(triangle_centroids(mesh.vertices, flat.triangles))
        want = nodal(mesh, flat, np.repeat((flat.areas * fc / 3.0)[:, None], 3, axis=1))
        assert_close(volume_load(mesh, f), want)

    @pytest.mark.parametrize("name", NAMES)
    def test_gradient_load(self, name):
        mesh, _, proto, flat, A, _ = oracle_case(name)
        p = np.array([0.7, -0.2])
        grads = mesh.proto_grads[flat.prototype]
        want = nodal(mesh, flat, -np.einsum("t,tij,j,tki->tk", flat.areas, A, p, grads))
        assert_close(gradient_load(mesh, proto, p), want)

    @pytest.mark.parametrize("name", NAMES)
    def test_cell_energy(self, name):
        # each triangle at its own reference geometry, not its prototype's
        mesh, values, proto, flat, _, _ = oracle_case(name)
        sol = FemSolution(values=values, mesh=mesh, proto_tensor=proto)
        corr = CorrectorSolution(sol=sol, p=np.zeros(2), window_sides=None, window_energy=None,
                                 mass_weight=0.3)
        areas, grads = triangle_geometry(mesh.ref_vertices, flat.triangles)
        u = values[flat.triangles]
        g = np.einsum("tid,ti->td", grads, u)
        e_tri = areas * (g ** 2).sum(axis=1) + 0.3 * areas * ((u**2).sum(axis=1) + u.sum(axis=1) ** 2) / 12
        interface = flat_interface(mesh)
        jump2 = edge_jump_energy(mesh.ref_vertices, interface.edges, values)
        nc = len(mesh.cells)
        want = (np.bincount(flat.cell, weights=e_tri, minlength=nc)
                + np.bincount(interface.edge_cell_index, weights=jump2, minlength=nc))
        assert_close(corr.cell_energy, want)

    @pytest.mark.parametrize("name", NAMES)
    def test_window_sides(self, name):
        mesh, values, proto, flat, A, g = oracle_case(name)
        p = np.array([1.0, 0.3])
        inside = window_mask(mesh.cells, 1 if len(mesh.cells) == 1 else 4)
        sol = FemSolution(values=values, mesh=mesh, proto_tensor=proto)
        (corr,) = _corrector_solutions([sol], [p], inside, BilinearFormSpec(jump_weight=1.0))
        flux = np.einsum("tij,tj->ti", A, g + p)
        on = inside[flat.cell]
        key = 2 * (np.cumsum(inside) - 1)[flat.cell[on]] + (flat.region[on] == PLUS)
        want = np.stack([np.bincount(key, weights=flat.areas[on] * f, minlength=2 * inside.sum())
                         for f in flux[on].T], axis=-1).reshape(-1, 2, 2)
        assert 0 < inside.sum() and corr.window_sides.shape == want.shape
        assert_close(corr.window_sides, want)

    @pytest.mark.parametrize("name", NAMES)
    def test_error_suite_sums(self, name, monkeypatch):
        # a smooth stand-in for u0 on the grid, so that meshes off the unit square read it too
        mesh, values, proto, flat, A, g = oracle_case(name)
        monkeypatch.setattr(homogenize, "grid_interpolate", lambda u0, pts: np.sin(pts[:, 0]) + pts[:, 1])
        u0 = HomogSolution(values=np.zeros(4), m=1, A0=np.eye(2), flux_pairings=np.zeros(3),
                           mass_pairings=np.zeros(4))
        sol = FemSolution(values=values, mesh=mesh, proto_tensor=proto)
        row = error_suite(sol, u0, 0.2, 0.25, np.eye(2))
        cent = triangle_centroids(mesh.vertices, flat.triangles)
        u_c = triangle_centroids(values, flat.triangles)
        scalars, vectors = _test_field_values(cent)
        flux, g2, minus = np.einsum("tij,tj->ti", A, g), (g ** 2).sum(axis=1), flat.region == MINUS
        a = flat.areas
        assert_close(row.l2_error, np.sqrt(np.sum(a * (u_c - np.sin(cent[:, 0]) - cent[:, 1]) ** 2)))
        assert_close(row.grad_plus, np.sqrt(np.sum((a * g2)[~minus])))
        assert_close(row.grad_minus, np.sqrt(np.sum((a * g2)[minus])))
        assert_close(row.flux_residuals, np.abs([np.einsum("t,ti,ti->", a, flux, v) for v in vectors]))
        assert_close(row.mass_residuals, np.abs([np.sum((a * u_c * s)[minus]) for s in scalars]))

    @pytest.mark.parametrize("name", NAMES)
    def test_norms_and_flux_pairing(self, name):
        mesh, values, proto, flat, A, g = oracle_case(name)
        sol = FemSolution(values=values, mesh=mesh, proto_tensor=proto)
        rec, g2, plus = norms(sol), flat.areas * (g ** 2).sum(axis=1), flat.region == PLUS
        assert_close(rec["grad_plus_L2"], np.sqrt(g2[plus].sum()))
        assert_close(rec["grad_minus_L2"], np.sqrt(g2[~plus].sum()))
        fields = [lambda pts: pts[:, ::-1], lambda pts: np.column_stack([np.cos(pts[:, 0]), pts[:, 1]])]
        cent = triangle_centroids(mesh.vertices, flat.triangles)
        flux = np.einsum("tij,tj->ti", A, g)
        want = [np.einsum("t,ti,ti->", flat.areas, flux, psi(cent)) for psi in fields]
        assert_close(flux_pairing(sol, proto, fields), want)

    @pytest.mark.parametrize("name", NAMES)
    def test_min_angle(self, name):
        mesh, _, _, flat, _, _ = oracle_case(name)
        corners = mesh.vertices[flat.triangles]
        u, v = np.roll(corners, -1, axis=1) - corners, np.roll(corners, 1, axis=1) - corners
        cross = u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]
        angle = np.degrees(np.arctan2(np.abs(cross), (u * v).sum(axis=2))).min()
        assert_close(mesh.min_angle_deg(), angle)
