import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import membrane_homog.corrector as corrector
import membrane_homog.fem as fem
import membrane_homog.meshing as meshing
from membrane_homog.corrector import (
    CorrectorConfig,
    CorrectorSolution,
    energy_profile,
    periodic_cell_solve,
    periodic_representatives,
    solve_truncated,
    window_mask,
    write_energy_csv,
    write_flux_csv,
)
from membrane_homog.errors import ConfigError, MeshQualityFailure
from membrane_homog.fem import CONDUCTIVITY_PRESETS, BilinearFormSpec
from membrane_homog.geometry import BernoulliCellwiseMap, IdentityMap, InterfaceSpec
from membrane_homog.meshing import build_cell_mesh

SPEC = InterfaceSpec()


def total_flux(corr):
    return corr.flux_plus.sum(axis=0) + corr.flux_minus.sum(axis=0)


class TestConfig:
    def test_rejects_zero_delta(self):
        with pytest.raises(ConfigError):
            CorrectorConfig(delta=0.0)

    def test_rejects_bad_window(self):
        with pytest.raises(ConfigError):
            CorrectorConfig(n=4, m=4)


class TestTruncated:
    def test_zero_direction_gives_zero(self):
        [corr] = solve_truncated(CorrectorConfig(n=2, m=1, h=0.1), IdentityMap(), [[0, 0]])
        assert np.abs(corr.sol.values).max() <= 1e-10

    def test_linearity_in_p(self):
        c1, c2 = solve_truncated(CorrectorConfig(n=2, m=1, h=0.1), IdentityMap(), [[1, 0], [2, 0]])
        assert np.abs(c2.sol.values - 2.0 * c1.sol.values).max() < 1e-8

    def test_window_flux_matches_periodic_oracle(self):
        cfg = CorrectorConfig(n=4, m=2, h=0.1, delta=1e-3)
        [tr] = solve_truncated(cfg, IdentityMap(), [[1, 0]])
        per = periodic_cell_solve([1, 0], SPEC, h=0.1)
        a_tr = tr.window_flux()[0]
        a_per = (per.flux_plus[0] + per.flux_minus[0])[0]
        assert abs(a_tr - a_per) / abs(a_per) < 0.02

    def test_dirichlet_trace_zero(self):
        cfg = CorrectorConfig(n=2, m=1, h=0.1)
        [corr] = solve_truncated(cfg, BernoulliCellwiseMap(seed=4), [[1, 0]])
        assert np.abs(corr.sol.values[corr.mesh.boundary_nodes]).max() == 0.0

    def test_stationarity_under_index_shift(self):
        """Solving around center k with seed s equals solving around the
        origin with the shifted field, cell for cell."""
        k = (3, 1)
        cfg = CorrectorConfig(n=2, m=1, h=0.1)
        dmap = BernoulliCellwiseMap(seed=77)
        [a] = solve_truncated(cfg, dmap, [[1, 0]], center=k)
        [b] = solve_truncated(cfg, dmap.shifted(k), [[1, 0]])
        order_a = np.lexsort((a.cells[:, 1], a.cells[:, 0]))
        order_b = np.lexsort((b.cells[:, 1], b.cells[:, 0]))
        assert np.array_equal(a.cells[order_a] - np.array(k), b.cells[order_b])
        assert np.abs(a.flux_plus[order_a] - b.flux_plus[order_b]).max() < 1e-9
        assert np.abs(a.flux_minus[order_a] - b.flux_minus[order_b]).max() < 1e-9

    def test_delta_robustness(self):
        fluxes = []
        for delta in (1e-2, 1e-3):
            cfg = CorrectorConfig(n=8, m=4, h=0.1, delta=delta)
            [corr] = solve_truncated(cfg, IdentityMap(), [[1, 0]])
            fluxes.append(corr.window_flux()[0])
        assert abs(fluxes[0] - fluxes[1]) / abs(fluxes[1]) < 0.01

    def test_window_selection(self):
        """The window is the Q_m block of the 2n x 2n cube, and the window
        flux is the plain mean of F_k^+ + F_k^- over its cells."""
        cfg = CorrectorConfig(n=4, m=2, h=0.1)
        [corr] = solve_truncated(cfg, IdentityMap(), [[1, 0]])
        assert len(corr.cells) == 64
        assert np.array_equal(corr.window, window_mask(corr.cells, 2))
        assert corr.window.sum() == 16
        # the cube's cells are [-4, 4)^2, so Q_2's are those whose centers lie in (-2, 2)^2
        inside = [i for i, k in enumerate(corr.cells) if max(abs(k[0] + 0.5), abs(k[1] + 0.5)) < 2]
        assert np.array_equal(np.flatnonzero(corr.window), inside)
        manual = sum(corr.flux_plus[i] + corr.flux_minus[i] for i in inside) / len(inside)
        assert np.abs(corr.window_flux() - manual).max() < 1e-14

    def test_geometry_and_tensor_evaluated_once_per_mesh(self, monkeypatch):
        """Two loads on one realization: triangle geometry for the cell
        template, the truncated cube's reference configuration (the cached
        tiling) and its deformed one, and one conductivity evaluation shared
        by the matrix, the loads and the fluxes.  A second realization reuses
        the cell mesh and the tiling: one geometry call for its deformed
        positions."""
        meshing.build_cell_mesh.cache_clear()
        meshing._template.cache_clear()
        calls = {"geometry": 0, "tensor": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        geometry = counted("geometry", meshing.triangle_geometry)
        monkeypatch.setattr(meshing, "triangle_geometry", geometry)
        tensor = counted("tensor", BilinearFormSpec.tensor)
        monkeypatch.setattr(BilinearFormSpec, "tensor", tensor)
        loads = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        solve_truncated(CorrectorConfig(n=2, m=1, h=0.1), BernoulliCellwiseMap(seed=0), loads)
        assert calls == {"geometry": 3, "tensor": 1}
        calls.update(geometry=0, tensor=0)
        solve_truncated(CorrectorConfig(n=2, m=1, h=0.1), BernoulliCellwiseMap(seed=1), loads)
        assert calls == {"geometry": 1, "tensor": 1}


class TestPeriodic:
    def test_plus_mean_zero(self):
        corr = periodic_cell_solve([1, 0], SPEC, h=0.1)
        areas = corr.mesh.areas
        plus = corr.mesh.tri_region == 1
        uc = corr.sol.values[corr.mesh.triangles].mean(axis=1)
        mean = np.sum(areas[plus] * uc[plus]) / np.sum(areas[plus])
        assert abs(mean) < 1e-12

    def test_zero_direction(self):
        corr = periodic_cell_solve([0, 0], SPEC, h=0.1)
        assert np.abs(corr.sol.values).max() <= 1e-10

    def test_small_inclusion_flux_near_p(self):
        corr = periodic_cell_solve([1, 0], InterfaceSpec(radius=0.02), h=0.1)
        flux = total_flux(corr)
        assert np.abs(flux - np.array([1.0, 0.0])).max() < 2e-2

    def test_membrane_resists_conduction(self):
        flux = total_flux(periodic_cell_solve([1, 0], SPEC, h=0.05))
        assert flux[0] < 1.0
        assert flux[0] > 0.5

    def test_direction_symmetry(self):
        """e1 and e2 answers are related by the quarter-turn symmetry of the
        centered circular membrane."""
        f1 = total_flux(periodic_cell_solve([1, 0], SPEC, h=0.05))
        f2 = total_flux(periodic_cell_solve([0, 1], SPEC, h=0.05))
        assert abs(f1[0] - f2[1]) < 1e-6
        assert abs(f1[1]) < 1e-6
        assert abs(f2[0]) < 1e-6

    def test_window_is_the_one_cell(self):
        corr = periodic_cell_solve([1, 0], SPEC, h=0.1)
        assert np.array_equal(corr.window, [True])
        assert np.array_equal(corr.window_flux(), total_flux(corr))

    def test_periodic_trace_identified(self):
        corr = periodic_cell_solve([1, 0], SPEC, h=0.1)
        v = corr.mesh.vertices
        u = corr.sol.values
        left = [b for b in corr.mesh.boundary_nodes if v[b, 0] == 0.0]
        for b in left:
            match = [
                c for c in corr.mesh.boundary_nodes
                if v[c, 0] == 1.0 and abs(v[c, 1] - v[b, 1]) < 1e-12
            ]
            assert match and abs(u[b] - u[match[0]]) < 1e-14


class TestEnergyProfile:
    def test_zero_solution(self):
        [corr] = solve_truncated(CorrectorConfig(n=2, m=1, h=0.1), IdentityMap(), [[0, 0]])
        assert np.abs(energy_profile(corr)).max() <= 1e-18

    def test_nondecreasing(self):
        cfg = CorrectorConfig(n=4, m=2, h=0.1)
        [corr] = solve_truncated(cfg, BernoulliCellwiseMap(seed=2), [[1, 0]])
        E = energy_profile(corr)
        assert np.all(np.diff(E) >= 0.0)

    def test_quadratic_growth_stable_across_n(self):
        ratios = []
        for n in (2, 4):
            cfg = CorrectorConfig(n=n, m=1, h=0.1)
            [corr] = solve_truncated(cfg, IdentityMap(), [[1, 0]])
            E = energy_profile(corr)
            assert len(E) == n  # n worked out from the 2n x 2n cells
            assert E[-1] == corr.cell_energy.sum()  # Q_n is the whole cube
            k = np.arange(1, n + 1)
            ratios.append((E / k**2).max())
        assert max(ratios) <= 2.0 * min(ratios)


def looped_representatives(mesh):
    """Reference periodic fold by a loop over the boundary nodes: a node with
    a coordinate 1 maps to the first boundary node within 1e-12 of its folded
    position."""
    canon = np.arange(mesh.num_vertices)
    v = mesh.vertices
    for b in mesh.boundary_nodes:
        x, y = v[b]
        cx = 0.0 if x == 1.0 else x
        cy = 0.0 if y == 1.0 else y
        if cx != x or cy != y:
            match = np.flatnonzero(
                (np.abs(v[mesh.boundary_nodes, 0] - cx) < 1e-12)
                & (np.abs(v[mesh.boundary_nodes, 1] - cy) < 1e-12)
            )
            canon[b] = mesh.boundary_nodes[match[0]]
    return canon


class TestPeriodicFoldMatchesLoop:
    """The vectorized periodic fold gives bitwise the partners of a per-node loop."""

    def test_cell_meshes_over_radius_and_h(self):
        built = 0
        for radius in (0.05, 0.15, 0.25, 0.35, 0.45):
            for h in (0.25, 0.15, 0.1, 0.07, 0.05):
                try:
                    mesh = build_cell_mesh(InterfaceSpec(radius=radius), h)
                except MeshQualityFailure:
                    continue
                built += 1
                canon = periodic_representatives(mesh)
                assert np.array_equal(canon, looped_representatives(mesh)), (radius, h)
                v = mesh.vertices
                corners = mesh.boundary_nodes[(v[mesh.boundary_nodes] % 1.0 == 0.0).all(axis=1)]
                assert len(corners) == 4 and (v[canon[corners]] == 0.0).all(), (radius, h)
        assert built >= 15

    @pytest.mark.parametrize("conductivity", ["identity", "aniso"])
    def test_periodic_solve_bitwise(self, monkeypatch, conductivity):
        field = CONDUCTIVITY_PRESETS[conductivity]
        fast = periodic_cell_solve([1.0, 0.3], SPEC, field, h=0.1)
        pinned = pinned_periodic_values([1.0, 0.3], SPEC, field, h=0.1)
        assert np.abs(fast.sol.values - pinned[0]).max() <= 1e-14
        assert fast.sol.iterations == pinned[1] > 0
        monkeypatch.setattr(corrector, "periodic_representatives", looped_representatives)
        slow = periodic_cell_solve([1.0, 0.3], SPEC, field, h=0.1)
        assert np.array_equal(fast.sol.values, slow.sol.values)
        assert np.array_equal(fast.flux_plus, slow.flux_plus)
        assert np.array_equal(fast.flux_minus, slow.flux_minus)
        assert np.array_equal(fast.cell_energy, slow.cell_energy)


class TestFoldedCell:
    """The periodic solve goes through the per-kind condensed solver like
    every other: its folded system has a mesh of one cell, whose one boundary
    node, node 0, is its skeleton and is held at zero."""

    @pytest.mark.parametrize("h", [0.1, 0.05])
    def test_solves_on_a_folded_mesh(self, monkeypatch, h):
        systems = []

        def recorded(system):
            systems.append(system)
            return fem.solve(system)

        monkeypatch.setattr(corrector, "solve", recorded)
        corr = periodic_cell_solve([1.0, 0.0], SPEC, h=h)
        (system,) = systems
        folded = system.mesh
        assert isinstance(folded, meshing.MembraneMesh)
        assert folded.num_vertices == len(system.load) == system.matrix.shape[0]
        assert len(folded.cells) == 1
        cell = build_cell_mesh(SPEC, h)
        reps, inv = np.unique(periodic_representatives(cell), return_inverse=True)
        assert folded.num_vertices == len(reps)
        assert np.array_equal(folded.skeleton, [0]) and np.array_equal(system.fixed, [0])
        # the folded matrix is in the folded mesh's pattern, which the solver reads
        assert np.array_equal(system.matrix.indptr, folded.indptr)
        assert np.array_equal(system.matrix.indices, folded.indices)
        assert corr.sol.iterations == 1 and corr.sol.mesh is cell


def pinned_periodic_values(p, spec, conductivity, h):
    """Periodic corrector values and CG iterations with the pin written out:
    the folded system restricted to all dofs but the first, solved by CG
    through the full folded matrix, preconditioned by the complete sparse LU
    of the restricted block, then the PLUS-mean gauge."""
    mesh = build_cell_mesh(spec, h)
    form = BilinearFormSpec(conductivity=conductivity, jump_weight=1.0, mass_weight=0.0)
    system = fem.assemble(mesh, form, p=np.asarray(p, dtype=float))
    nv = mesh.num_vertices
    reps, inv = np.unique(periodic_representatives(mesh), return_inverse=True)
    P = sp.coo_matrix((np.ones(nv), (np.arange(nv), inv)), shape=(nv, len(reps))).tocsr()
    K = (P.T @ system.matrix @ P).tocsr()
    b = P.T @ system.load
    keep = np.arange(1, len(reps))
    lu = spla.splu(K[keep][:, keep].tocsc(), permc_spec="MMD_AT_PLUS_A",
                   diag_pivot_thresh=0.0, options={"SymmetricMode": True})

    def matvec(v):
        u = np.zeros(len(reps))
        u[keep] = v
        return (K @ u)[keep]

    def precondition(r):
        g = np.zeros(len(reps))
        g[keep] = r
        x = np.zeros(len(reps))
        x[keep] = lu.solve(g[keep])
        return x[keep]

    shape = (len(keep), len(keep))
    iterations = []
    x = np.zeros(len(reps))
    x[keep], info = spla.cg(
        spla.LinearOperator(shape, matvec=matvec, dtype=float), b[keep], rtol=fem.CG_RTOL,
        maxiter=int(50 * np.sqrt(len(keep))) + 10,
        M=spla.LinearOperator(shape, matvec=precondition, dtype=float),
        callback=iterations.append,
    )
    assert info == 0
    values = P @ x
    plus = mesh.tri_region == meshing.PLUS
    uc = values[mesh.triangles].mean(axis=1)
    return values - np.sum(mesh.areas[plus] * uc[plus]) / np.sum(mesh.areas[plus]), len(iterations)


class TestCsv:
    def test_flux_csv_format(self, tmp_path):
        path = tmp_path / "corrector_flux.csv"
        F = np.array([[0.77, 0.0], [0.0, 0.77]])
        write_flux_csv(path, [(5, "e1;e2", 1e-3, 8, 4, F)])
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "seed,p,delta,n,m,F11,F12,F21,F22"
        fields = lines[1].split(",")
        assert fields[0] == "5"
        assert float(fields[5]) == 0.77

    def test_energy_csv_format(self, tmp_path):
        path = tmp_path / "energy_profile.csv"
        write_energy_csv(path, [(1, np.array([0.5, 2.0]))])
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "seed,k,E_k"
        assert lines[1] == "1,1,0.5"
        assert lines[2] == "1,2,2"
