"""Quantities only the tests read: per-triangle conductivities, the fluxes
of every cell of a corrector, and the lattice shift of the Bernoulli field
and map."""

import numpy as np

from membrane_homog.corrector import flux_density, side_sums
from membrane_homog.geometry import BernoulliCellwiseMap, BernoulliField


def form_tensor(form, mesh):
    """The per-triangle conductivity of ``form`` on ``mesh``: its
    ``proto_tensor`` gathered by the ``tri_prototype`` of ``kinds(mesh)``."""
    mesh = form.kinds(mesh)
    return np.take(form.proto_tensor(mesh), mesh.tri_prototype, axis=0)


def cell_sides(corr):
    """(nc, side MINUS/PLUS, 2) int over Phi(Y_k^-) and Phi(Y_k^+) of A (p +
    grad w) of the corrector ``corr``, every cell."""
    mesh, every = corr.mesh, slice(None)
    return side_sums(mesh, every, np.arange(len(mesh.cells)), len(mesh.cells),
                     flux_density(corr.sol, corr.p, every)[1])


def flux_plus(corr):
    """(nc, 2) int over Phi(Y_k^+) of A (p + grad w)."""
    return cell_sides(corr)[:, 1]


def flux_minus(corr):
    """(nc, 2) int over Phi(Y_k^-) of A (p + grad w)."""
    return cell_sides(corr)[:, 0]


def shifted_field(field, k):
    """The Bernoulli field shifted by the lattice vector ``k``: at cell j it
    reads ``field``'s bit of cell j + k."""
    return BernoulliField(field.seed, (field.shift[0] + k[0], field.shift[1] + k[1]))


def shifted_map(dmap, k):
    """The Bernoulli map whose field is ``dmap``'s shifted by ``k``."""
    shift = shifted_field(dmap.field, k).shift
    return BernoulliCellwiseMap(dmap.seed, dmap.amplitude, shift)
