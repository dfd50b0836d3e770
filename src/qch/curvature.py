"""Model curvature tensors with quasi-constant holomorphic diagonal.

Three (0,4) building blocks live on the Hermitian stage: the constant
holomorphic block built from the full metric, a mixed block coupling the
metric to the distinguished plane, and a plane block quadratic in the plane's
area form.  One bilinear form B of pairs (s, w), a symmetric form and its
J-pairing, generates them all: with u = (g, Omega) and v = (h, omega),
Pi = B(u, u), Phi = 1/2 [B(u, v) + B(v, u)] and Psi = B(v, v), and the
product model is k B(e, e) + l B(v, v) with e = (g_E, Omega_E).  B is
antisymmetric in its first slot pair bit for bit, and so is every block,
combination and product curvature.  The blocks are built once per stage, on
first use, and shared as the tensors ``space.blocks``.  The holomorphic diagonal
R(X, JX, JX, X) of ``a * Pi + b * Phi + c * Psi`` on unit vectors is the
quartic ``a + b t^2 + c t^4`` in ``t = |X_D|``.
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


def _pair_form(u: tuple, v: tuple) -> np.ndarray:
    """Quarter-weight bilinear curvature form of two pairs (s, w).

    A pair is a symmetric form s and its J-pairing w, which is made exactly
    antisymmetric first.  With A = s1(Y,Z) s2(X,U) + w1(Y,Z) w2(X,U),

        B(u, v)(X,Y,Z,U) = 1/4 ( A(X,Y,Z,U) - A(Y,X,Z,U) - 2 w1(X,Y) w2(Z,U) ),

    so B is antisymmetric in its first slot pair bit for bit.
    """
    (s1, w1), (s2, w2) = u, v
    w1, w2 = 0.5 * (w1 - w1.T), 0.5 * (w2 - w2.T)
    a = np.einsum("jk,il->ijkl", s1, s2) + np.einsum("jk,il->ijkl", w1, w2)
    return 0.25 * (a - a.swapaxes(0, 1) - 2.0 * np.einsum("ij,kl->ijkl", w1, w2))


def _build_blocks(space: HermitianSpace) -> tuple[Tensor, Tensor, Tensor]:
    """Pi = B(u, u), Phi = 1/2 [B(u, v) + B(v, u)] and Psi = B(v, v) for the
    pairs u = (g, Omega) and v = (h, omega); read them as ``space.blocks``."""
    h, omega, big_omega = (t.entries for t in structure_tensors(space))
    u, v = (space.g.entries, big_omega), (h, omega)
    arrays = (_pair_form(u, u), 0.5 * (_pair_form(u, v) + _pair_form(v, u)), _pair_form(v, v))
    return tuple(Tensor(space.dim, (0, 4), a) for a in arrays)


def build_pi(space: HermitianSpace) -> CurvatureTensor:
    """Constant holomorphic block B((g, Omega), (g, Omega)); diagonal is 1."""
    return CurvatureTensor(space.blocks[0], space)


def build_phi(space: HermitianSpace) -> CurvatureTensor:
    """Mixed block coupling the metric to the plane; diagonal is t^2."""
    return CurvatureTensor(space.blocks[1], space)


def build_psi(space: HermitianSpace) -> CurvatureTensor:
    """Plane block: psi = B((h, omega), (h, omega)) = -omega (x) omega; diagonal is t^4."""
    return CurvatureTensor(space.blocks[2], space)


def combine(coeffs: QCHCoefficients, space: HermitianSpace) -> CurvatureTensor:
    """a*Pi + b*Phi + c*Psi on the given stage."""
    with np.errstate(over="ignore", invalid="ignore"):  # a sum not finite: Tensor refuses it
        arr = _combination(space, coeffs.a, coeffs.b, coeffs.c)
    return CurvatureTensor(Tensor(space.dim, (0, 4), arr), space)


def _combination(space: HermitianSpace, a, b, c) -> np.ndarray:
    """Entries of a*Pi + b*Phi + c*Psi, over the leading axes of the
    coefficients ``a``, ``b`` and ``c`` (scalars or arrays of one shape)."""
    pi, phi, psi = (t.entries for t in space.blocks)
    a, b, c = (np.reshape(x, np.shape(x) + (1,) * 4) for x in (a, b, c))
    return a * pi + b * phi + c * psi


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
    *defects, size = (float(x) for x in _symmetry_defects(r.space, r.tensor.entries))
    scaled, passed = _kahler_verdict(defects, size, tol)
    return SymmetryReport(*defects, scaled, bool(passed))


def _symmetry_defects(space: HermitianSpace, arr: np.ndarray) -> tuple:
    """The four defects of :func:`check_kahler_symmetries`, then the sup norm,
    of each (0,4) array over the leading axes of ``arr``."""
    lead = arr.ndim - 4

    def perm(*axes):
        return arr.transpose(*range(lead), *(lead + a for a in axes))

    def sup(x):  # of a fresh temporary, whose absolute value is taken in place
        return np.max(np.abs(x, out=x), axis=(-4, -3, -2, -1))

    anti = np.maximum(sup(arr + perm(1, 0, 2, 3)), sup(arr + perm(0, 1, 3, 2)))
    pair = sup(arr - perm(2, 3, 0, 1))
    bianchi = arr + perm(2, 0, 1, 3)
    bianchi += perm(1, 2, 0, 3)
    bianchi = sup(bianchi)  # which frees the sum before the pull-back
    # R(JX, JY, Z, U) as two matmuls over the first two slots
    d, jt, shape = space.dim, space.J.entries.T, arr.shape[:lead]
    pulled = np.matmul(jt, (jt @ arr.reshape(shape + (d, -1))).reshape(shape + (d, d, -1)))
    pulled = pulled.reshape(arr.shape)
    pulled -= arr
    return anti, pair, bianchi, sup(pulled), sup(np.abs(arr))


def _kahler_verdict(defects, size, tol: float):
    """The scaled bound ``tol * (1 + size)`` and whether every one of the
    ``defects`` is at most it (NaN is not), elementwise over the leading axes."""
    scaled = tol * (1.0 + size)
    return scaled, np.all([v <= scaled for v in defects], axis=0)


def hol_sect(r: CurvatureTensor, x: np.ndarray) -> float:
    """Holomorphic diagonal R(X, JX, JX, X) at a unit vector X.

    Non-unit input (including the zero vector) is rejected rather than
    silently normalized: callers own their normalization.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (r.space.dim,):
        raise ValueError(f"vector shape {x.shape} does not match dim {r.space.dim}")
    with np.errstate(over="ignore", invalid="ignore"):  # inf/NaN length: rejected below
        norm2 = float(x @ r.space.g.entries @ x)
    if not abs(norm2 - 1.0) <= _UNIT_TOL:  # written so that NaN fails it
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
    basis = r.space.blocks
    gram = np.array([[frobenius_inner(u, v) for v in basis] for u in basis])
    if np.linalg.cond(gram) > cond_limit:
        raise ValueError("Gram system of the model blocks is ill-conditioned")
    rhs = np.array([frobenius_inner(u, r.tensor) for u in basis])
    fit = QCHCoefficients(*(float(x) for x in np.linalg.solve(gram, rhs)))
    residual = max_abs(r.tensor - combine(fit, r.space).tensor)
    return fit, residual


def product_curvature(k: float, l: float, space: HermitianSpace) -> CurvatureTensor:
    """Blockwise curvature of a product of two factors through the stage.

    The complement factor contributes ``k B(e, e)`` for the pair
    e = (g_E, Omega_E) of the metric restricted to E; the plane factor
    contributes ``l B(v, v)`` for the pair v = (h, omega) of the metric
    restricted to D (which on a J-invariant 2-plane is the constant-curvature
    surface tensor).  As e = u - v with u = (g, Omega), the bilinearity of B
    makes this ``combine(k, -2k, l + k)``.
    """
    if not (math.isfinite(k) and math.isfinite(l)):
        raise ValueError("factor curvatures k, l must be finite")
    h, omega, _ = (t.entries for t in structure_tensors(space))
    pe = np.eye(space.dim) - space.p_D.entries
    g_e = pe.T @ space.g.entries @ pe
    e, v = (g_e, space.J.entries.T @ g_e), (h, omega)
    arr = k * _pair_form(e, e) + l * _pair_form(v, v)
    return CurvatureTensor(Tensor(space.dim, (0, 4), arr), space)
