"""The convergence harness: heterogeneous membrane solves across an epsilon
sweep against the homogenized constant-coefficient solve, with every limit
statement turned into a measurable residual."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFit, MeshMismatch
from .fem import (
    BilinearFormSpec,
    FemSolution,
    apply_tensor,
    assemble,
    edge_jump_energy,
    identity_field,
    p1_gradient,
    solve,
)
from .geometry import DeformationMap, InterfaceSpec
from .meshing import (
    MINUS,
    PLUS,
    build_cell_mesh,
    build_square_mesh,
    tile_domain_mesh,
    triangle_centroids,
)


def bump_profile(pts: np.ndarray) -> np.ndarray:
    """b = (x1 (1-x1) x2 (1-x2))^2, the compactly supported test envelope."""
    x, y = pts[:, 0], pts[:, 1]
    return (x * (1.0 - x) * y * (1.0 - y)) ** 2


def _test_field_values(pts: np.ndarray) -> tuple[tuple, tuple]:
    """The scalar test fields (n,) and the vector test fields (n, 2) at
    ``pts``, the envelope evaluated once: b, b x1, b x2, b x1 x2 and
    (b, 0), (0, b), (b x2, b x1)."""
    b = bump_profile(pts)
    x, y, zero = pts[:, 0], pts[:, 1], np.zeros(len(pts))
    scalars = (b, b * x, b * y, b * x * y)
    vectors = (np.column_stack([b, zero]), np.column_stack([zero, b]),
               np.column_stack([b * y, b * x]))
    return scalars, vectors


def _runs(mesh, values: np.ndarray, proto_tensor: np.ndarray):
    """Each run of cells of ``mesh``, kind by kind (``MembraneMesh.runs``):
    per triangle of the run, its region and area, its centroid, the
    centroid value and gradient of the nodal ``values``, the flux A grad with
    A the conductivity per prototype ``proto_tensor``, and the scalar and
    vector test fields at the centroid.  Summing a term run by run, no
    buffer grows with the mesh."""
    for kind in mesh.kinds:
        for cells, tri in mesh.runs(kind):
            g = p1_gradient(mesh.proto_grads[kind.protos], values[tri])
            centroids = triangle_centroids(mesh.vertices, tri).reshape(-1, 2)
            yield (np.tile(kind.links.region, len(cells)),
                   np.tile(mesh.proto_areas[kind.protos], len(cells)), centroids,
                   triangle_centroids(values, tri).ravel(), g.reshape(-1, 2),
                   apply_tensor(proto_tensor[kind.protos], g).reshape(-1, 2),
                   *_test_field_values(centroids))


def solve_hetero(
    eps: float,
    dmap: DeformationMap,
    f,
    conductivity=identity_field,
    spec: InterfaceSpec = None,
    h_cell: float = 0.05,
    membranes: bool = True,
) -> FemSolution:
    """Transmission problem with jump weight 1/eps and zero Dirichlet data;
    the solution carries the conductivity per prototype it was assembled
    with."""
    if spec is None:
        spec = InterfaceSpec()
    cell = build_cell_mesh(spec, h_cell)
    mesh = tile_domain_mesh(cell, dmap, eps, spec, membranes=membranes)
    return solve(assemble(mesh, hetero_form(eps, conductivity), f=f))


def hetero_form(eps: float, conductivity=identity_field) -> BilinearFormSpec:
    """The heterogeneous form: conductivity, jump weight 1/eps."""
    return BilinearFormSpec(conductivity=conductivity, jump_weight=1.0 / eps)


def constant_field(A0: np.ndarray):
    A0 = np.asarray(A0, dtype=float)

    def field(points):
        return np.broadcast_to(A0, (len(points), 2, 2)).copy()

    return field


def symmetric_part(A0) -> np.ndarray:
    """(A0 + A0^T) / 2, the tensor the homogenized problem is solved with."""
    A0 = np.asarray(A0, dtype=float)
    return 0.5 * (A0 + A0.T)


def homog_form(A0: np.ndarray) -> BilinearFormSpec:
    """The constant-coefficient form of the symmetric part of A0 (the
    computed A0 is symmetric only within its Monte-Carlo and mesh error,
    which ``ellipticity_check`` gates)."""
    sym = symmetric_part(A0)
    eig = np.linalg.eigvalsh(sym)
    return BilinearFormSpec(
        conductivity=constant_field(sym), lam=float(eig.min()) - 1e-12,
        Lam=float(eig.max()) + 1e-12,
    )


@dataclass
class HomogSolution:
    """The homogenized solution u0 on the uniform grid ``build_square_mesh(m)``:
    nodal ``values`` (index i * (m + 1) + j at (i/m, j/m)), the symmetric
    ``A0`` it was solved with, and its pairings with the vector test fields
    (``flux_pairings``) and the scalar ones (``mass_pairings``) of
    ``_test_field_values``, which every error row compares against."""

    values: np.ndarray
    m: int
    A0: np.ndarray
    flux_pairings: np.ndarray
    mass_pairings: np.ndarray


def solve_homog(A0: np.ndarray, f, m: int = 128) -> HomogSolution:
    """Constant-coefficient Dirichlet solve on the uniform fine grid, paired
    once with the test fields, a run of cells at a time (``_runs``)."""
    mesh = build_square_mesh(m)
    system = assemble(mesh, homog_form(A0), f=f)
    # the system's tensor, as perfbench/selftest.py's stand-in solve attaches none
    sol, proto_tensor = solve(system), system.proto_tensor
    del system  # and its solver's factorization, before the pairings
    total = np.zeros(3 + 4)  # the pairings with the vector test fields, then the scalar ones
    for _, areas, _, u_c, _, flux, scalars, vectors in _runs(mesh, sol.values, proto_tensor):
        total += [*[np.einsum("t,ti,ti->", areas, flux, psi) for psi in vectors],
                  *[np.sum(areas * u_c * phi) for phi in scalars]]
    return HomogSolution(values=sol.values, m=m, A0=symmetric_part(A0),
                         flux_pairings=total[:3], mass_pairings=total[3:])


def grid_interpolate(u0: HomogSolution, pts: np.ndarray) -> np.ndarray:
    """P1 evaluation of the grid solution u0 at arbitrary points."""
    m = u0.m
    if len(u0.values) != (m + 1) ** 2:
        raise MeshMismatch(f"{len(u0.values)} values do not fit a {m} x {m} square grid")
    if pts.min() < -1e-12 or pts.max() > 1.0 + 1e-12:
        raise MeshMismatch("points outside the unit square")
    u = u0.values.reshape(m + 1, m + 1)  # index [i, j] at (i/m, j/m)
    s = np.clip(pts * m, 0.0, m * (1.0 - 1e-15))
    i = np.minimum(s[:, 0].astype(int), m - 1)
    j = np.minimum(s[:, 1].astype(int), m - 1)
    x = s[:, 0] - i
    y = s[:, 1] - j
    fa = u[i, j]
    fb = u[i + 1, j]
    fc = u[i + 1, j + 1]
    fd = u[i, j + 1]
    lower = x >= y  # triangle (a, b, c) below the cell diagonal
    out = np.where(
        lower,
        fa + (fb - fa) * x + (fc - fb) * y,
        fa + (fc - fd) * x + (fd - fa) * y,
    )
    return out


@dataclass
class ErrorRow:
    eps: float
    seed: int
    l2_error: float
    jump_l2: float
    jump_over_sqrt_eps: float
    flux_residuals: np.ndarray
    mass_residuals: np.ndarray
    grad_plus: float
    grad_minus: float


def error_suite(
    u_eps: FemSolution,
    u0: HomogSolution,
    theta: float,
    eps: float,
    A0: np.ndarray,
    seed: int = 0,
    conductivity=identity_field,
) -> ErrorRow:
    """The limit residuals of u_eps against u0.  ``A0`` must be the tensor u0
    was solved with (ValueError otherwise).  u_eps's flux uses the tensor it
    carries; ``conductivity`` is evaluated only for a solution without one.

    Every triangle sum is taken a run of cells at a time (``_runs``), the
    jump one through their interface edges' columns (``MembraneMesh.runs``),
    and the runs' sums are added in order."""
    if not np.array_equal(symmetric_part(A0), u0.A0):
        raise ValueError("A0 is not the tensor u0 was solved with")
    mesh, values = u_eps.mesh, u_eps.values
    proto = u_eps.proto_tensor
    if proto is None:
        proto = hetero_form(eps, conductivity).proto_tensor(mesh)

    # l2 error squared, gradient L2 squared on PLUS and on MINUS, the flux
    # pairings with the vector test fields and u_eps's with the scalar ones
    total = np.zeros(3 + 3 + 4)
    for region, areas, centroids, ue_c, g, flux, scalars, vectors in _runs(mesh, values, proto):
        g2 = np.einsum("td,td->t", g, g)
        plus, minus = region == PLUS, region == MINUS
        weight = areas[minus] * ue_c[minus]
        total += [
            np.sum(areas * (ue_c - grid_interpolate(u0, centroids)) ** 2),
            np.sum(areas[plus] * g2[plus]), np.sum(areas[minus] * g2[minus]),
            *[np.einsum("t,ti,ti->", areas, flux, psi) for psi in vectors],
            *[np.sum(weight * phi[minus]) for phi in scalars],
        ]
    l2, grad_plus, grad_minus = np.sqrt(total[:3])
    jump2 = sum(edge_jump_energy(mesh.vertices, ends.reshape(-1, 4), values).sum()
                for kind in mesh.kinds
                for _, ends in mesh.runs(kind, columns=kind.links.edge_columns))
    jump = float(np.sqrt(max(jump2, 0.0)))

    return ErrorRow(
        eps=eps,
        seed=seed,
        l2_error=float(l2),
        jump_l2=jump,
        jump_over_sqrt_eps=jump / np.sqrt(eps),
        flux_residuals=np.abs(total[3:6] - u0.flux_pairings),
        mass_residuals=np.abs(total[6:] - theta * u0.mass_pairings),
        grad_plus=float(grad_plus),
        grad_minus=float(grad_minus),
    )


def rate_fit(eps_values, errors) -> tuple[float, float]:
    """Least-squares slope of log error against log eps, with R^2."""
    eps_values = np.asarray(eps_values, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if len(eps_values) < 3:
        raise ValueError("rate fit needs at least 3 points")
    if np.any(errors <= 1e-14):
        raise DegenerateFit("error at round-off level, rate fit meaningless")
    x = np.log(eps_values)
    y = np.log(errors)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = np.sum((y - y.mean()) ** 2)
    r2 = 1.0 - np.sum(resid**2) / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(r2)


CSV_HEADER = (
    "seed,eps,l2_error,jump_l2,jump_over_sqrt_eps,"
    "flux_res_1,flux_res_2,flux_res_3,"
    "mass_res_1,mass_res_2,mass_res_3,mass_res_4,grad_plus,grad_minus"
)


def write_convergence_csv(path, rows: list[ErrorRow]) -> None:
    lines = [CSV_HEADER]
    for r in rows:
        vals = [
            f"{r.eps:.17g}",
            f"{r.l2_error:.17g}",
            f"{r.jump_l2:.17g}",
            f"{r.jump_over_sqrt_eps:.17g}",
            *[f"{v:.17g}" for v in r.flux_residuals],
            *[f"{v:.17g}" for v in r.mass_residuals],
            f"{r.grad_plus:.17g}",
            f"{r.grad_minus:.17g}",
        ]
        lines.append(f"{r.seed}," + ",".join(vals))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_report_json(path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
