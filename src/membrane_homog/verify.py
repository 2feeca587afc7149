"""Independent oracles and property utilities: the constructive
backward-induction bound with a randomized instance generator, and a
two-quadrature cross-check for surface integrals under a deformation of the
ambient plane."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import HypothesisViolation
from .geometry import CENTER, DeformationMap, InterfaceSpec, jacobian_det


D = 2  # the exponent d of the induction bounds: the dimension of the workbench


@dataclass
class InductionInstance:
    """Nondecreasing nonnegative sequence E_1 <= ... <= E_n with a top bound
    E_n <= C n^d and the one-step recursion
    E_k <= C1 (E_{k+1} - E_k + (k+1)^d), for d = ``D``."""

    E: np.ndarray
    C: float
    C1: float

    def __post_init__(self):
        self.E = np.asarray(self.E, dtype=float)

    @property
    def n(self) -> int:
        return len(self.E)

    def validate(self) -> None:
        E, n, d = self.E, self.n, D
        if n < 1:
            raise HypothesisViolation("empty sequence")
        if self.C <= 0.0 or self.C1 <= 0.0:
            raise HypothesisViolation("constants must be positive")
        if E.min() < 0.0:
            raise HypothesisViolation(f"negative entry {E.min():.6g}")
        if np.any(np.diff(E) < 0.0):
            raise HypothesisViolation("sequence not nondecreasing")
        if E[-1] > self.C * n**d * (1.0 + 1e-12):
            raise HypothesisViolation(
                f"E_n = {E[-1]:.6g} exceeds C n^d = {self.C * n**d:.6g}"
            )
        k = np.arange(1, n)
        rhs = self.C1 * (E[1:] - E[:-1] + (k + 1.0) ** d)
        bad = np.flatnonzero(E[:-1] > rhs * (1.0 + 1e-12))
        if len(bad):
            j = bad[0]
            raise HypothesisViolation(
                f"recursion fails at k={j + 1}: E_k={E[j]:.6g} > {rhs[j]:.6g}"
            )


def backward_induction_bound(inst: InductionInstance) -> float:
    """Constructive constant C' with E_k <= C' k^d for all k.

    Choose C2 = beta C1 with beta > 1 and C2 >= C.  A descent from k = n
    using the recursion shows E_k <= C2 (k^d + C3) where C3 dominates the
    finitely many indices k <= k0 at which (C1 + 1/beta)(1 + 1/k)^d still
    exceeds C1 + 1.  Then C' = C2 (C3 + 1)."""
    inst.validate()
    C, C1, d = inst.C, inst.C1, D
    beta = max(2.0, C / C1)
    C2 = beta * C1

    def excess(k: float) -> float:
        return (C1 + 1.0 / beta) * (1.0 + 1.0 / k) ** d - (C1 + 1.0)

    k0 = 0
    k = 1
    while excess(k) > 0.0:
        k0 = k
        k += 1
    if k0 == 0:
        C3 = 1.0
    else:
        ks = np.arange(1, k0 + 1, dtype=float)
        C3 = float(np.max(ks**d * ((C1 + 1.0 / beta) * (1.0 + 1.0 / ks) ** d - (C1 + 1.0))))
    Cp = C2 * (C3 + 1.0)

    k = np.arange(1, inst.n + 1, dtype=float)
    if np.any(inst.E > Cp * k**d * (1.0 + 1e-12)):
        raise RuntimeError("constructive bound violated; constants inconsistent")
    return Cp


def random_induction_instance(rng: np.random.Generator) -> InductionInstance:
    """Instance drawn backward from E_n.  The recursion upper bound at step k
    is U_k = C1/(1+C1) (E_{k+1} + (k+1)^d); with probability 0.3 the entry is
    pinned at its cap min(E_{k+1}, U_k) to exercise near-equality."""
    n = int(rng.integers(3, 31))
    C1 = float(rng.uniform(0.5, 5.0))
    C = float(rng.uniform(0.1, 3.0))
    E = np.zeros(n)
    E[-1] = rng.uniform(0.0, C * n**D)
    for k in range(n - 1, 0, -1):
        cap = min(E[k], C1 / (1.0 + C1) * (E[k] + (k + 1.0) ** D))
        E[k - 1] = cap if rng.uniform() < 0.3 else rng.uniform(0.0, cap)
    inst = InductionInstance(E=E, C=C, C1=C1)
    inst.validate()
    return inst


def surface_integral_crosscheck(dmap: DeformationMap, f, spec: InterfaceSpec = None) -> dict:
    """Integral of f over the deformed interface circle, two ways: pullback
    quadrature on the reference circle with the weight
    det(D Phi) |D Phi^{-T} grad g| / |grad g| for the level set
    g = |x - c|^2 - r^2, and midpoint quadrature on a dense polyline of the
    deformed curve itself."""
    n_formula, n_dense = 4096, 400000  # reference points, polyline chords
    if spec is None:
        spec = InterfaceSpec()
    c = np.asarray(CENTER, dtype=float)
    r = spec.radius

    # pullback route: trapezoid in angle is spectrally accurate here
    t = 2.0 * np.pi * np.arange(n_formula) / n_formula
    x = c + r * np.column_stack([np.cos(t), np.sin(t)])
    grad_g = 2.0 * (x - c)
    J = dmap.jacobian(x)
    dets = jacobian_det(J)
    Jinv_t = np.linalg.inv(J).transpose(0, 2, 1)
    num = np.linalg.norm(np.einsum("nij,nj->ni", Jinv_t, grad_g), axis=1)
    weight = dets * num / np.linalg.norm(grad_g, axis=1)
    fx = np.asarray(f(dmap.apply(x)), dtype=float)
    via_formula = float(np.sum(fx * weight) * r * 2.0 * np.pi / n_formula)

    # dense polyline route: chord lengths on the deformed curve
    s = 2.0 * np.pi * np.arange(n_dense + 1) / n_dense
    y = dmap.apply(c + r * np.column_stack([np.cos(s), np.sin(s)]))
    seg = np.linalg.norm(np.diff(y, axis=0), axis=1)
    mid = 0.5 * (y[:-1] + y[1:])
    via_parametric = float(np.sum(np.asarray(f(mid), dtype=float) * seg))

    return {
        "via_formula": via_formula,
        "via_parametric": via_parametric,
        "diff": abs(via_formula - via_parametric),
    }
