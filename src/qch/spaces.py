"""The flat Hermitian stage shared by every tensor in this package.

A stage is a real 2n-dimensional inner-product space carrying an orthogonal
complex structure J and a distinguished J-invariant 2-plane D (with
orthogonal complement E).  The canonical model uses the identity metric, J
rotating consecutive coordinate pairs, and D spanned by the first pair; all
other admissible frames are reached by metric-preserving, J-commuting,
D-preserving (block-unitary) changes of basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .tensors import Tensor, _checked_int, pullback

__all__ = [
    "HermitianSpace",
    "make_space",
    "random_adapted_change",
    "structure_tensors",
    "project_D",
]

_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class HermitianSpace:
    """A working frame on the stage, with its structure cached as tensors.

    ``basis_map`` expresses the working basis in canonical coordinates
    (columns are basis vectors); ``g``, ``J`` and ``p_D`` are the metric, the
    complex structure and the g-orthogonal projection onto D, all in working
    components.  Instances are immutable; construction validates the algebraic
    invariants to 1e-12 and raises ``ValueError`` on any violation.
    """

    n: int
    basis_map: np.ndarray
    g: Tensor
    J: Tensor
    p_D: Tensor

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("complex dimension n must be at least 2")
        d = 2 * self.n
        bm = np.array(self.basis_map, dtype=float)
        if bm.shape != (d, d):
            raise ValueError("basis_map must be a d x d matrix with d = 2n")
        if abs(np.linalg.det(bm)) < 1e-12:
            raise ValueError("basis_map must be invertible")
        bm.flags.writeable = False
        object.__setattr__(self, "basis_map", bm)
        if self.g.valence != (0, 2) or self.g.dim != d:
            raise ValueError("g must be a (0,2) tensor on R^d")
        if self.J.valence != (1, 1) or self.J.dim != d:
            raise ValueError("J must be a (1,1) tensor on R^d")
        if self.p_D.valence != (1, 1) or self.p_D.dim != d:
            raise ValueError("p_D must be a (1,1) tensor on R^d")
        gm, jm, pm = self.g.entries, self.J.entries, self.p_D.entries
        eye = np.eye(d)

        def check(defect: float, what: str):
            if defect > _TOL:
                raise ValueError(f"HermitianSpace invariant violated: {what} (defect {defect:.3e})")

        check(float(np.max(np.abs(gm - gm.T))), "g symmetric")
        try:
            np.linalg.cholesky(gm)
        except np.linalg.LinAlgError as exc:
            raise ValueError("HermitianSpace invariant violated: g positive-definite") from exc
        check(float(np.max(np.abs(jm @ jm + eye))), "J o J = -id")
        check(float(np.max(np.abs(jm.T @ gm @ jm - gm))), "g(JX, JY) = g(X, Y)")
        check(float(np.max(np.abs(pm @ pm - pm))), "p_D idempotent")
        check(abs(float(np.trace(pm)) - 2.0), "p_D has rank 2")
        check(float(np.max(np.abs(gm @ pm - pm.T @ gm))), "p_D g-self-adjoint")
        check(float(np.max(np.abs(jm @ pm - pm @ jm))), "p_D commutes with J")

    @property
    def dim(self) -> int:
        return 2 * self.n

    @cached_property
    def blocks(self):
        """The model blocks ``(Pi, Phi, Psi)`` as tensors, built on first use; they
        hold no reference to the stage, so they die with it, cycle collector or not."""
        from .curvature import _build_blocks  # curvature builds on this module
        return _build_blocks(self)


def _canonical_j(n: int) -> np.ndarray:
    d = 2 * n
    jm = np.zeros((d, d))
    for i in range(n):
        jm[2 * i + 1, 2 * i] = 1.0
        jm[2 * i, 2 * i + 1] = -1.0
    return jm


def make_space(n: int) -> HermitianSpace:
    """Canonical stage of complex dimension n (real dimension 2n), n >= 2."""
    n = _checked_int(n, 2, "complex dimension n")
    d = 2 * n
    pm = np.zeros((d, d))
    pm[0, 0] = pm[1, 1] = 1.0
    return HermitianSpace(
        n=n,
        basis_map=np.eye(d),
        g=Tensor(d, (0, 2), np.eye(d)),
        J=Tensor(d, (1, 1), _canonical_j(n)),
        p_D=Tensor(d, (1, 1), pm),
    )


def _haar_unitary(m: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed complex unitary via QR with phase correction."""
    z = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * phases


def _realify(u: np.ndarray) -> np.ndarray:
    """Real 2m x 2m picture of a complex m x m matrix, pair-interleaved.

    The embedding a + ib -> [[a, -b], [b, a]] per complex entry commutes with
    the canonical J, and sends unitaries to orthogonal matrices.
    """
    m = u.shape[0]
    out = np.zeros((2 * m, 2 * m))
    out[0::2, 0::2] = u.real
    out[0::2, 1::2] = -u.imag
    out[1::2, 0::2] = u.imag
    out[1::2, 1::2] = u.real
    return out


def random_adapted_change(space: HermitianSpace, seed: int) -> HermitianSpace:
    """New working frame reached by a seeded random adapted rotation.

    The rotation is block-unitary (an independent Haar unitary on D and on E,
    realized as real matrices), hence metric-preserving, J-commuting and
    D-preserving.  The PRNG is numpy's PCG64 seeded with ``seed``; identical
    seeds give bit-identical frames.
    """
    rng = np.random.default_rng(seed)
    d = space.dim
    q = np.zeros((d, d))
    q[:2, :2] = _realify(_haar_unitary(1, rng))
    q[2:, 2:] = _realify(_haar_unitary(space.n - 1, rng))
    return HermitianSpace(
        n=space.n,
        basis_map=space.basis_map @ q,
        g=pullback(space.g, q),
        J=pullback(space.J, q),
        p_D=pullback(space.p_D, q),
    )


def structure_tensors(space: HermitianSpace) -> tuple[Tensor, Tensor, Tensor]:
    """Derived 2-forms: ``(h, omega, Omega)`` in working components.

    h(X,Y) = g(p_D X, p_D Y) is the metric seen through the plane,
    omega(X,Y) = h(JX, Y) is the plane's area 2-form, and
    Omega(X,Y) = g(JX, Y) is the full fundamental 2-form.
    """
    gm, jm, pm = space.g.entries, space.J.entries, space.p_D.entries
    d = space.dim
    h = pm.T @ gm @ pm
    omega = jm.T @ h
    big_omega = jm.T @ gm
    return (
        Tensor(d, (0, 2), h),
        Tensor(d, (0, 2), omega),
        Tensor(d, (0, 2), big_omega),
    )


def project_D(space: HermitianSpace, x: np.ndarray) -> tuple[np.ndarray, float]:
    """Component of ``x`` in the plane D and its g-length.

    Returns ``(x_D, t)`` with ``t = |x_D|``; for unit x this t is the
    parameter entering the holomorphic diagonal a + b t^2 + c t^4.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (space.dim,):
        raise ValueError(f"vector shape {x.shape} does not match dim {space.dim}")
    xd = space.p_D.entries @ x
    t2 = float(xd @ space.g.entries @ xd)
    return xd, float(np.sqrt(max(t2, 0.0)))
