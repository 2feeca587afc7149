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
from membrane_homog.geometry import BernoulliCellwiseMap, BumpMap, IdentityMap, InterfaceSpec
from membrane_homog.meshing import build_cell_mesh

from helpers import (ShiftedMap, flat_edge_runs, flat_gradient, flat_interface, flat_runs,
                     flat_triangles, flux_minus, flux_plus, skeleton, trefftz_a0)

SPEC = InterfaceSpec()


def total_flux(corr):
    return flux_plus(corr).sum(axis=0) + flux_minus(corr).sum(axis=0)


class TestConfig:
    def test_rejects_zero_delta(self):
        with pytest.raises(ConfigError):
            CorrectorConfig(delta=0.0)

    def test_rejects_bad_window(self):
        with pytest.raises(ConfigError):
            CorrectorConfig(n=4, m=4)


class TestExactA0:
    """The periodic identity cell against its exact A0_11, a Trefftz
    collocation that has no mesh error (``helpers.trefftz_a0``)."""

    def test_collocation_converges_in_the_mode_count(self):
        a30, residual30 = trefftz_a0(modes=30)
        a40, residual40 = trefftz_a0(modes=40)
        assert residual30 <= 1e-13 and residual40 <= 1e-13
        assert abs(a40 - a30) <= 1e-15
        assert abs(trefftz_a0(modes=20)[0] - a40) <= 1e-11

    def test_periodic_cell_converges_at_second_order(self):
        exact = trefftz_a0(modes=40)[0]
        errors = [abs(periodic_cell_solve([1, 0], SPEC, h=h).window_flux()[0] - exact)
                  for h in (0.05, 0.025, 0.0125)]
        orders = np.log2(np.divide(errors[:-1], errors[1:]))
        assert 3e-3 < errors[0] < 5e-3
        assert ((1.9 <= orders) & (orders <= 2.1)).all(), (errors, orders)

    def test_bumped_cell_approaches_the_identity_cell_at_second_order(self):
        """The bump moves the circle rigidly, so the bumped periodic cell has
        the identity cell's exact A0: their difference is mesh artifact and
        falls at an order near 2.  The bump keeps every boundary node, so the
        periodic fold is the identity cell's."""
        diffs, skews = bumped_minus_identity((0.05, 0.025, 0.0125))
        orders = np.log2(diffs[:-1] / diffs[1:])
        assert (diffs > 0.0).all() and (np.diff(diffs, axis=0) < 0.0).all(), diffs
        assert ((1.6 <= orders) & (orders <= 2.2)).all(), (diffs, orders)
        assert max(skews) < 1e-15, skews


def bumped_minus_identity(hs):
    """(A0_11, A0_22) of the periodic cell bumped by ``BumpMap(0.1)`` minus
    those of the identity cell at each h of ``hs``, one row per h, and the
    bumped cell's skew |A0_12 - A0_21| at each h."""
    def a0(h):
        return np.column_stack([periodic_cell_solve(p, SPEC, h=h).window_flux()
                                for p in ([1, 0], [0, 1])])

    diffs, skews = [], []
    for h in hs:
        cell = build_cell_mesh(SPEC, h)
        bumped_cell = cell.with_kinds(cell.cell_kind, BumpMap(0.1).apply(cell.vertices))
        with pytest.MonkeyPatch.context() as m:
            m.setattr(corrector, "build_cell_mesh", lambda *_: bumped_cell)
            bumped = a0(h)
        diffs.append(np.diag(bumped - a0(h)))
        skews.append(abs(bumped[0, 1] - bumped[1, 0]))
    return np.array(diffs), skews


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
        a_per = (flux_plus(per)[0] + flux_minus(per)[0])[0]
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
        [b] = solve_truncated(cfg, ShiftedMap(dmap.seed, dmap.amplitude, k), [[1, 0]])
        cells_a, cells_b = a.mesh.cells, b.mesh.cells
        order_a = np.lexsort((cells_a[:, 1], cells_a[:, 0]))
        order_b = np.lexsort((cells_b[:, 1], cells_b[:, 0]))
        assert np.array_equal(cells_a[order_a] - np.array(k), cells_b[order_b])
        assert np.abs(flux_plus(a)[order_a] - flux_plus(b)[order_b]).max() < 1e-9
        assert np.abs(flux_minus(a)[order_a] - flux_minus(b)[order_b]).max() < 1e-9

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
        cells = corr.mesh.cells
        assert len(cells) == 64
        window = window_mask(cells, 2)
        assert window.sum() == 16
        # the cube's cells are [-4, 4)^2, so Q_2's are those whose centers lie in (-2, 2)^2
        inside = [i for i, k in enumerate(cells) if max(abs(k[0] + 0.5), abs(k[1] + 0.5)) < 2]
        assert np.array_equal(np.flatnonzero(window), inside)
        manual = sum(flux_plus(corr)[i] + flux_minus(corr)[i] for i in inside) / len(inside)
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
        tensor = counted("tensor", BilinearFormSpec.proto_tensor)
        monkeypatch.setattr(BilinearFormSpec, "proto_tensor", tensor)
        loads = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        solve_truncated(CorrectorConfig(n=2, m=1, h=0.1), BernoulliCellwiseMap(seed=0), loads)
        assert calls == {"geometry": 3, "tensor": 1}
        calls.update(geometry=0, tensor=0)
        solve_truncated(CorrectorConfig(n=2, m=1, h=0.1), BernoulliCellwiseMap(seed=1), loads)
        assert calls == {"geometry": 1, "tensor": 1}


class TestPeriodic:
    def test_plus_mean_zero(self):
        corr = periodic_cell_solve([1, 0], SPEC, h=0.1)
        flat = flat_triangles(corr.mesh)
        areas, plus = flat.areas, flat.region == 1
        uc = corr.sol.values[flat.triangles].mean(axis=1)
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
        assert len(corr.mesh.cells) == 1
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
        assert np.array_equal(flux_plus(fast), flux_plus(slow))
        assert np.array_equal(flux_minus(fast), flux_minus(slow))
        assert np.array_equal(fast.cell_energy, slow.cell_energy)


def whole_mesh_window_energy(corrs, m) -> np.ndarray:
    """The window-energy form of solves of one mesh, from gradients and
    fluxes over every triangle of the flat list, restricted to the window
    Q_m and summed run by run in the readers' order (``flat_runs``), and
    the jump form (jump weight 1) of the interface edges of the flat list
    whose cell is in the window, in the readers' order (``flat_edge_runs``)."""
    mesh, flat = corrs[0].mesh, flat_triangles(corrs[0].mesh)
    inside = window_mask(mesh.cells, m)
    tensor = np.take(corrs[0].sol.proto_tensor, flat.prototype, axis=0)
    grads = [flat_gradient(mesh, c.sol.values, flat) + c.p for c in corrs]
    fluxes = [fem.apply_tensor(tensor, g) for g in grads]
    interface = flat_interface(mesh)
    rows = np.concatenate([np.zeros(0, dtype=np.intp)]
                          + [at.ravel() for at in flat_edge_runs(mesh)])
    edges = interface.edges[rows[inside[interface.edge_cell_index[rows]]]]
    jump = 1.0 * fem.jump_element_matrices(mesh.vertices, edges)
    energy, pairs = np.zeros((len(corrs), len(corrs))), list(zip(*np.triu_indices(len(corrs))))
    for at in flat_runs(mesh, inside):
        for i, j in pairs:
            gi, fj = grads[i][at], fluxes[j][at]
            energy[i, j] += np.einsum("t,ct->", flat.areas[at[0]],
                                      gi[..., 0] * fj[..., 0] + gi[..., 1] * fj[..., 1])
    for i, j in pairs:
        e_jump = np.einsum("ei,eij,ej->", corrs[i].sol.values[edges], jump,
                           corrs[j].sol.values[edges])
        energy[i, j] = energy[j, i] = (energy[i, j] + e_jump) / inside.sum()
    return energy


class TestWindowOnly:
    """A sample reads only its window's triangles and interface edges, and
    equals bit for bit the reduction of every cell restricted to the window,
    summed in the readers' order; the fluxes of every cell are computed on
    first use."""

    @pytest.mark.parametrize("dmap, conductivity, center", [
        (IdentityMap(), "identity", (0, 0)),
        (BumpMap(0.1), "identity", (0, 0)),
        (BernoulliCellwiseMap(seed=3), "identity", (0, 0)),
        (BernoulliCellwiseMap(seed=5), "aniso", (0, 0)),
        (BernoulliCellwiseMap(seed=7), "identity", (2, -1)),
        (IdentityMap(), "aniso", (-3, 1)),
    ], ids=["identity", "bump", "bernoulli", "bernoulli-aniso", "bernoulli-center",
            "identity-aniso-center"])
    def test_truncated_window_equals_whole_mesh_reduction(self, dmap, conductivity, center):
        cfg = CorrectorConfig(n=4, m=2, h=0.1)
        corrs = solve_truncated(cfg, dmap, [[1.0, 0.0], [0.0, 1.0]],
                                CONDUCTIVITY_PRESETS[conductivity], center=center)
        w = window_mask(corrs[0].mesh.cells, cfg.m)
        assert 0 < w.sum() < len(w)
        assert "cell_energy" not in vars(corrs[0])  # nothing of the other cells yet
        energy = whole_mesh_window_energy(corrs, cfg.m)
        for c, row in zip(corrs, energy):
            plus, minus = flux_plus(c)[w], flux_minus(c)[w]
            assert np.array_equal(c.window_flux(), (plus + minus).sum(0) / w.sum())
            assert np.array_equal(c.window_sides[:, 1], plus)
            assert np.array_equal(c.window_sides[:, 0], minus)
            assert np.array_equal(c.window_energy, row)

    @pytest.mark.parametrize("conductivity", ["identity", "aniso"])
    def test_periodic_window_is_its_one_cell(self, conductivity):
        c = periodic_cell_solve([1.0, 0.3], SPEC, CONDUCTIVITY_PRESETS[conductivity], h=0.1)
        assert len(c.mesh.cells) == 1
        assert np.array_equal(c.window_flux(), (flux_plus(c)[0] + flux_minus(c)[0]) / 1)
        assert np.array_equal(c.window_energy, whole_mesh_window_energy([c], 1)[0])


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
        assert np.array_equal(skeleton(folded), [0]) and np.array_equal(system.fixed, [0])
        # the one cell matrix, folded, holds exactly the folded mesh's links, in
        # the columns of its one table row: the node numbering
        (K,) = system.cell_matrices
        links = folded.links[folded.cell_links[0]]
        assert np.array_equal(folded.cell_nodes, [np.arange(len(reps))])
        assert K.shape == (len(links.pairs),)
        M = system.matrix
        assert M.shape == (len(reps),) * 2 and M.has_canonical_format
        assert np.array_equal(np.repeat(np.arange(len(reps)), np.diff(M.indptr)), links.pairs[:, 0])
        assert np.array_equal(M.indices, links.pairs[:, 1]) and np.array_equal(M.data, K)
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
        spla.LinearOperator(shape, matvec=matvec, dtype=float), b[keep], rtol=fem.RTOL,
        maxiter=int(50 * np.sqrt(len(keep))) + 10,
        M=spla.LinearOperator(shape, matvec=precondition, dtype=float),
        callback=iterations.append,
    )
    assert info == 0
    values = P @ x
    flat = flat_triangles(mesh)
    plus = flat.region == meshing.PLUS
    uc = values[flat.triangles].mean(axis=1)
    return values - np.sum(flat.areas[plus] * uc[plus]) / np.sum(flat.areas[plus]), len(iterations)


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
