import types

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from membrane_homog.errors import HypothesisViolation, MembraneHomogError
from membrane_homog.fem import BilinearFormSpec, DiscreteSystem, FemSolution, assemble, solve
from membrane_homog.geometry import BumpMap, IdentityMap, ScalingMap
from membrane_homog.meshing import build_square_mesh
from membrane_homog.verify import (
    D,
    InductionInstance,
    backward_induction_bound,
    random_induction_instance,
    surface_integral_crosscheck,
)

NO_FIXED = (np.zeros(0, dtype=np.int64), np.zeros(0))
DENSE_DOF_LIMIT = 2000


class SingularMatrix(MembraneHomogError):
    """Direct factorization failed on a singular system."""


def dense_solve_oracle(system: DiscreteSystem) -> FemSolution:
    """Direct sparse LU on the free degrees of freedom, for cross-checking
    the condensed solve of ``fem.solve`` on small systems."""
    n = system.matrix.shape[0]
    if n > DENSE_DOF_LIMIT:
        raise ValueError(f"dense oracle limited to {DENSE_DOF_LIMIT} dof, got {n}")
    values = np.zeros(n)
    if len(system.fixed):
        values[system.fixed] = system.fixed_values
    free = system.free
    if len(free):
        b = system.load - system.matrix @ values
        K = sp.csc_matrix(system.matrix[free][:, free])
        try:
            lu = spla.splu(K)
        except RuntimeError as exc:
            raise SingularMatrix(str(exc)) from exc
        x = lu.solve(b[free])
        if not np.all(np.isfinite(x)):
            raise SingularMatrix("factorization produced non-finite values")
        values[free] = x
    return FemSolution(values=values, mesh=system.mesh)


def make_system(K, b, fixed=None, fixed_values=None):
    """A system as the dense oracle reads it, with its own Dirichlet data
    (a ``DiscreteSystem`` is always zero on its mesh's boundary nodes)."""
    if fixed is None:
        fixed, fixed_values = NO_FIXED
    load = np.asarray(b, dtype=float)
    return types.SimpleNamespace(
        matrix=sp.csr_matrix(K), load=load, fixed=fixed, fixed_values=fixed_values,
        free=np.setdiff1d(np.arange(len(load)), fixed), mesh=None,
    )


class TestBackwardInduction:
    def test_quadratic_sequence(self):
        inst = InductionInstance(E=np.arange(1.0, 21.0) ** 2, C=1.0, C1=1.0)
        Cp = backward_induction_bound(inst)
        assert np.isfinite(Cp) and Cp >= 1.0
        k = np.arange(1, inst.n + 1)
        assert np.all(inst.E <= Cp * k**2)

    def test_zero_sequence(self):
        inst = InductionInstance(E=np.zeros(10), C=1.0, C1=1.0)
        assert backward_induction_bound(inst) > 0.0

    def test_thousand_random_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            inst = random_induction_instance(rng)
            inst.validate()  # generator soundness, re-checked here
            Cp = backward_induction_bound(inst)
            k = np.arange(1, inst.n + 1, dtype=float)
            assert np.all(inst.E <= Cp * k**D * (1.0 + 1e-12))

    def test_rejects_decreasing(self):
        inst = InductionInstance(E=np.array([2.0, 1.0, 3.0]), C=1.0, C1=1.0)
        with pytest.raises(HypothesisViolation):
            inst.validate()

    def test_rejects_negative(self):
        inst = InductionInstance(E=np.array([-1.0, 0.0, 1.0]), C=1.0, C1=1.0)
        with pytest.raises(HypothesisViolation):
            inst.validate()

    def test_rejects_top_bound_violation(self):
        inst = InductionInstance(E=np.array([1.0, 2.0, 100.0]), C=1.0, C1=1.0)
        with pytest.raises(HypothesisViolation):
            inst.validate()

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_generated_instances_always_bounded(self, seed):
        inst = random_induction_instance(np.random.default_rng(seed))
        Cp = backward_induction_bound(inst)
        k = np.arange(1, inst.n + 1, dtype=float)
        assert np.all(inst.E <= Cp * k**D * (1.0 + 1e-12))

    def test_rejects_recursion_violation(self):
        # E_1 > C1 (E_2 - E_1 + 2^d) = 0.1 (0 + 4)
        inst = InductionInstance(E=np.array([1.0, 1.0, 1.0]), C=1.0, C1=0.1)
        with pytest.raises(HypothesisViolation):
            inst.validate()


class TestDenseOracle:
    def test_hand_system(self):
        sol = dense_solve_oracle(make_system([[2.0, 0.0], [0.0, 4.0]], [2.0, 8.0]))
        assert np.abs(sol.values - [1.0, 2.0]).max() < 1e-14

    def test_matches_cg_on_fem_system(self):
        mesh = build_square_mesh(12)
        system = assemble(mesh, BilinearFormSpec(), f=1.0)
        dense = dense_solve_oracle(system).values
        cg = solve(system).values
        assert np.abs(dense - cg).max() <= 1e-8 * np.abs(dense).max()

    def test_singular(self):
        with pytest.raises(SingularMatrix):
            dense_solve_oracle(make_system([[1.0, 1.0], [1.0, 1.0]], [1.0, 0.0]))

    def test_dof_limit(self):
        n = 2001
        with pytest.raises(ValueError):
            dense_solve_oracle(make_system(sp.eye(n, format="csr"), np.ones(n)))

    def test_respects_dirichlet(self):
        K = np.array([[2.0, -1.0], [-1.0, 2.0]])
        system = make_system(K, [0.0, 0.0], np.array([0]), np.array([3.0]))
        sol = dense_solve_oracle(system)
        assert sol.values[0] == 3.0
        assert abs(sol.values[1] - 1.5) < 1e-14


def ones(pts):
    return np.ones(len(pts))


def coord1(pts):
    return pts[:, 0]


class TestSurfaceCrosscheck:
    def test_identity_perimeter(self):
        r = surface_integral_crosscheck(IdentityMap(), ones)
        assert abs(r["via_formula"] - np.pi / 2.0) < 1e-12
        assert r["diff"] < 1e-10

    def test_scaling_perimeter(self):
        r = surface_integral_crosscheck(ScalingMap(2.0), ones)
        assert abs(r["via_formula"] - np.pi) < 1e-12
        assert r["diff"] < 1e-10

    def test_bump_with_coordinate_weight(self):
        r = surface_integral_crosscheck(BumpMap(), coord1)
        assert r["diff"] < 1e-8

    def test_bump_translates_circle_rigidly(self):
        """The bump displacement is constant on the interface circle, so the
        deformed perimeter equals the reference one."""
        r = surface_integral_crosscheck(BumpMap(), ones)
        assert abs(r["via_formula"] - np.pi / 2.0) < 1e-10
