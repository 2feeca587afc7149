"""Quantities only the tests read: per-triangle conductivities, the fluxes
of every cell of a corrector, and the lattice shift of the Bernoulli field
and map."""

from dataclasses import dataclass

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


@dataclass(frozen=True)
class ShiftedField(BernoulliField):
    """The Bernoulli field shifted by the lattice vector ``shift``: at cell k
    it reads the bit of cell k + shift."""

    shift: tuple = (0, 0)

    def bits(self, kx, ky):
        return super().bits(np.asarray(kx, dtype=np.int64) + self.shift[0],
                            np.asarray(ky, dtype=np.int64) + self.shift[1])


class ShiftedMap(BernoulliCellwiseMap):
    """The Bernoulli map of seed ``seed`` shifted by ``shift``: it bumps cell
    k where the unshifted map bumps cell k + shift."""

    def __init__(self, seed, amplitude, shift):
        super().__init__(seed, amplitude)
        self.shift = np.asarray(shift, dtype=float)

    def bumped(self, k):
        return super().bumped(k + self.shift)

