"""Model curvature tensors with quasi-constant holomorphic diagonal.

Three (0,4) building blocks live on the Hermitian stage: the constant
holomorphic block built from the full metric, a mixed block coupling the
metric to the distinguished plane, and a plane block quadratic in the plane's
area form.  One pair pattern P, quadratic in a symmetric form and its
J-pairing, generates them all: Pi = P(g, Omega), Psi = P(h, omega), and Phi
polarizes the two, so every combination ``a * Pi + b * Phi + c * Psi`` is a
quadratic form in those pairs.  Its holomorphic diagonal R(X, JX, JX, X) on
unit vectors is the quartic ``a + b t^2 + c t^4`` in ``t = |X_D|``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spaces import HermitianSpace, structure_tensors
from .tensors import Tensor, frobenius_inner, max_abs

__all__ = [
    "QCHCoefficients",
    "CurvatureTensor",
    "SymmetryReport",
    "build_pi",
    "build_phi",
    "build_psi",
    "combine",
    "check_kahler_symmetries",
    "hol_sect",
    "fit_coefficients",
    "product_curvature",
]

_UNIT_TOL = 1e-12


@dataclass(frozen=True)
class QCHCoefficients:
    """Coefficients (a, b, c) of a combination a*Pi + b*Phi + c*Psi."""

    a: float
    b: float
    c: float

    def __post_init__(self):
        for name in ("a", "b", "c"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"coefficient {name} must be finite")


@dataclass(frozen=True, eq=False)
class CurvatureTensor:
    """A (0,4) tensor tied to its stage.

    Kahler-type symmetries are expected but deliberately not enforced at
    construction: perturbed inputs are legitimate test subjects, and
    :func:`check_kahler_symmetries` reports how far a tensor strays.
    """

    tensor: Tensor
    space: HermitianSpace

    def __post_init__(self):
        if self.tensor.valence != (0, 4):
            raise ValueError("curvature must be a (0,4) tensor")
        if self.tensor.dim != self.space.dim:
            raise ValueError("curvature dim does not match the space")

    def _wrap(self, t: Tensor) -> "CurvatureTensor":
        return CurvatureTensor(t, self.space)

    def __add__(self, other):
        if isinstance(other, CurvatureTensor):
            other = other.tensor
        return self._wrap(self.tensor + other)

    def __sub__(self, other):
        if isinstance(other, CurvatureTensor):
            other = other.tensor
        return self._wrap(self.tensor - other)

    def __mul__(self, scalar):
        return self._wrap(self.tensor * scalar)

    __rmul__ = __mul__

    def __neg__(self):
        return self._wrap(-self.tensor)


def _pair_pattern(sym: np.ndarray, skew: np.ndarray) -> np.ndarray:
    """Quarter-weight curvature pattern from a symmetric form and its J-pairing.

    pattern(X,Y,Z,U) = 1/4 ( s(Y,Z) s(X,U) - s(X,Z) s(Y,U)
                             + w(Y,Z) w(X,U) - w(X,Z) w(Y,U)
                             - 2 w(X,Y) w(Z,U) )
    """
    return 0.25 * (
        np.einsum("jk,il->ijkl", sym, sym)
        - np.einsum("ik,jl->ijkl", sym, sym)
        + np.einsum("jk,il->ijkl", skew, skew)
        - np.einsum("ik,jl->ijkl", skew, skew)
        - 2.0 * np.einsum("ij,kl->ijkl", skew, skew)
    )


def build_pi(space: HermitianSpace) -> CurvatureTensor:
    """Constant holomorphic block: the pair pattern of (g, Omega).

    Its holomorphic diagonal is identically 1 on unit vectors.
    """
    _, _, big_omega = structure_tensors(space)
    arr = _pair_pattern(space.g.entries, big_omega.entries)
    return CurvatureTensor(Tensor(space.dim, (0, 4), arr), space)


def build_phi(space: HermitianSpace) -> CurvatureTensor:
    """Mixed block coupling the metric to the plane; diagonal is t^2.

    Phi = 1/2 [P(g + h, Omega + omega) - P(g, Omega) - P(h, omega)], the
    polarization of the quadratic pair pattern P.
    """
    gm = space.g.entries
    h, omega, big_omega = (t.entries for t in structure_tensors(space))
    arr = 0.5 * (
        _pair_pattern(gm + h, big_omega + omega)
        - _pair_pattern(gm, big_omega)
        - _pair_pattern(h, omega)
    )
    return CurvatureTensor(Tensor(space.dim, (0, 4), arr), space)


def build_psi(space: HermitianSpace) -> CurvatureTensor:
    """Plane block: psi = P(h, omega) = -omega (x) omega; diagonal is t^4."""
    h, omega, _ = structure_tensors(space)
    arr = _pair_pattern(h.entries, omega.entries)
    return CurvatureTensor(Tensor(space.dim, (0, 4), arr), space)


def combine(coeffs: QCHCoefficients, space: HermitianSpace) -> CurvatureTensor:
    """a*Pi + b*Phi + c*Psi on the given stage."""
    t = (
        coeffs.a * build_pi(space).tensor
        + coeffs.b * build_phi(space).tensor
        + coeffs.c * build_psi(space).tensor
    )
    return CurvatureTensor(t, space)


@dataclass(frozen=True)
class SymmetryReport:
    """Max defects of the four Kahler-type symmetries, plus the verdict.

    ``passed`` holds when every defect is at most ``tol * (1 + max_abs(R))``;
    that scaled bound is recorded as ``tolerance``.
    """

    pair_antisymmetry: float
    pair_symmetry: float
    first_bianchi: float
    j_invariance: float
    tolerance: float
    passed: bool

    def defects(self) -> dict[str, float]:
        return {
            "pair_antisymmetry": self.pair_antisymmetry,
            "pair_symmetry": self.pair_symmetry,
            "first_bianchi": self.first_bianchi,
            "j_invariance": self.j_invariance,
        }


def check_kahler_symmetries(r: CurvatureTensor, tol: float = 1e-12) -> SymmetryReport:
    """Measure the four symmetries: antisymmetry in both pairs, pair exchange,
    the first Bianchi identity, and J-invariance in the first pair."""
    arr = r.tensor.entries
    jm = r.space.J.entries
    anti = max(
        float(np.max(np.abs(arr + arr.transpose(1, 0, 2, 3)))),
        float(np.max(np.abs(arr + arr.transpose(0, 1, 3, 2)))),
    )
    pair = float(np.max(np.abs(arr - arr.transpose(2, 3, 0, 1))))
    bianchi = float(
        np.max(np.abs(arr + arr.transpose(2, 0, 1, 3) + arr.transpose(1, 2, 0, 3)))
    )
    j_inv = float(np.max(np.abs(np.einsum("ai,bj,abkl->ijkl", jm, jm, arr) - arr)))
    scaled = tol * (1.0 + max_abs(r.tensor))
    passed = all(v <= scaled for v in (anti, pair, bianchi, j_inv))
    return SymmetryReport(anti, pair, bianchi, j_inv, scaled, passed)


def hol_sect(r: CurvatureTensor, x: np.ndarray) -> float:
    """Holomorphic diagonal R(X, JX, JX, X) at a unit vector X.

    Non-unit input (including the zero vector) is rejected rather than
    silently normalized: callers own their normalization.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (r.space.dim,):
        raise ValueError(f"vector shape {x.shape} does not match dim {r.space.dim}")
    norm2 = float(x @ r.space.g.entries @ x)
    if abs(norm2 - 1.0) > _UNIT_TOL:
        raise ValueError(f"hol_sect expects a unit vector; got |X|^2 = {norm2!r}")
    jx = r.space.J.entries @ x
    return r.tensor.evaluate(x, jx, jx, x)


def fit_coefficients(
    r: CurvatureTensor, cond_limit: float = 1e12
) -> tuple[QCHCoefficients, float]:
    """Least-squares projection onto span{Pi, Phi, Psi}.

    Solves the 3x3 Gram system in the Frobenius inner product and returns the
    fitted coefficients together with the sup-norm residual
    ``max_abs(R - combine(fit))``.  Raises if the Gram matrix is numerically
    singular (it is not, for any stage with n >= 2).
    """
    basis = [build_pi(r.space).tensor, build_phi(r.space).tensor, build_psi(r.space).tensor]
    gram = np.array([[frobenius_inner(u, v) for v in basis] for u in basis])
    if np.linalg.cond(gram) > cond_limit:
        raise ValueError("Gram system of the model blocks is ill-conditioned")
    rhs = np.array([frobenius_inner(u, r.tensor) for u in basis])
    a, b, c = np.linalg.solve(gram, rhs)
    fit = QCHCoefficients(float(a), float(b), float(c))
    pi, phi, psi = basis
    residual = max_abs(r.tensor - (fit.a * pi + fit.b * phi + fit.c * psi))
    return fit, residual


def product_curvature(k: float, l: float, space: HermitianSpace) -> CurvatureTensor:
    """Blockwise curvature of a product of two factors through the stage.

    The complement factor contributes ``k`` times the pair pattern of the
    metric restricted to E; the plane factor contributes ``l`` times the pair
    pattern of the metric restricted to D (which on a J-invariant 2-plane is
    the constant-curvature surface tensor).  The E pair is (g - h, Omega - omega),
    so by the quadratic expansion of P this equals ``combine(k, -2k, l + k)``.
    """
    if not (math.isfinite(k) and math.isfinite(l)):
        raise ValueError("factor curvatures k, l must be finite")
    gm, jm, pm = space.g.entries, space.J.entries, space.p_D.entries
    pe = np.eye(space.dim) - pm
    g_e = pe.T @ gm @ pe
    omega_e = jm.T @ g_e
    h = pm.T @ gm @ pm
    w = jm.T @ h
    arr = k * _pair_pattern(g_e, omega_e) + l * _pair_pattern(h, w)
    return CurvatureTensor(Tensor(space.dim, (0, 4), arr), space)
