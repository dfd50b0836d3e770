"""Independent oracles for the test suite.

Everything in this module is built with explicit Python loops and hand-written
index formulas, or with an einsum the library does not use, deliberately
avoiding the library's code paths, so that agreement between the two is
meaningful evidence rather than a tautology.
"""

import numpy as np


def canonical_matrices(n):
    """Return (g, J, p, h, omega, big_omega) for the canonical stage, by hand."""
    d = 2 * n
    g = np.eye(d)
    J = np.zeros((d, d))
    for i in range(n):
        # J e_{2i} = e_{2i+1},  J e_{2i+1} = -e_{2i}
        J[2 * i + 1, 2 * i] = 1.0
        J[2 * i, 2 * i + 1] = -1.0
    p = np.zeros((d, d))
    p[0, 0] = 1.0
    p[1, 1] = 1.0
    h = p.T @ g @ p
    omega = np.zeros((d, d))
    big_omega = np.zeros((d, d))
    for i in range(d):
        for j in range(d):
            ji = J[:, i]  # column i of J = J e_i
            omega[i, j] = (p @ ji) @ g @ (p[:, j])  # h(J e_i, e_j)
            big_omega[i, j] = ji @ g @ np.eye(d)[:, j]
    return g, J, p, h, omega, big_omega


def loop_pi(G, Om):
    """Entrywise first-generator formula from the pairwise pattern."""
    d = G.shape[0]
    out = np.zeros((d, d, d, d))
    for i in range(d):
        for j in range(d):
            for k in range(d):
                for l in range(d):
                    out[i, j, k, l] = 0.25 * (
                        G[j, k] * G[i, l] - G[i, k] * G[j, l]
                        + Om[j, k] * Om[i, l] - Om[i, k] * Om[j, l]
                        - 2.0 * Om[i, j] * Om[k, l]
                    )
    return out


def loop_phi(G, Om, H, W):
    d = G.shape[0]
    out = np.zeros((d, d, d, d))
    for i in range(d):
        for j in range(d):
            for k in range(d):
                for l in range(d):
                    out[i, j, k, l] = 0.125 * (
                        G[j, k] * H[i, l] - G[i, k] * H[j, l]
                        + G[i, l] * H[j, k] - G[j, l] * H[i, k]
                        + Om[j, k] * W[i, l] - Om[i, k] * W[j, l]
                        + Om[i, l] * W[j, k] - Om[j, l] * W[i, k]
                        - 2.0 * Om[i, j] * W[k, l] - 2.0 * Om[k, l] * W[i, j]
                    )
    return out


def loop_psi(W):
    d = W.shape[0]
    out = np.zeros((d, d, d, d))
    for i in range(d):
        for j in range(d):
            for k in range(d):
                for l in range(d):
                    out[i, j, k, l] = -W[i, j] * W[k, l]
    return out


def loop_endo_derive(A, T, r):
    """(A . T) for a (r, k) array T with r in {0, 1}, by loops over slots."""
    out = np.zeros_like(T)
    k = T.ndim - r
    if r == 1:
        out += np.tensordot(A, T, axes=([1], [0]))
    for slot in range(r, r + k):
        moved = np.moveaxis(T, slot, -1)
        out -= np.moveaxis(moved @ A, -1, slot)
    return out


def loop_curvature_operator(R, ginv, u, v):
    """The endomorphism X -> R(e_u, e_v) X as a matrix, by loops."""
    d = R.shape[0]
    op = np.zeros((d, d))
    for a in range(d):
        for b in range(d):
            s = 0.0
            for w in range(d):
                s += ginv[a, w] * R[u, v, b, w]
            op[a, b] = s
    return op


def random_unit_vector(rng, d):
    while True:
        x = rng.standard_normal(d)
        norm = np.linalg.norm(x)
        if norm > 1e-6:
            return x / norm


def tensor_product_2_2(A, B):
    """(i,j,k,l) -> A[i,j] * B[k,l] without einsum."""
    return np.multiply.outer(A, B)


def einsum_j_invariance(R, J):
    """Sup of |R(JX, JY, Z, U) - R(X, Y, Z, U)| over basis vectors, by one
    three-operand einsum (the library's former formula)."""
    return float(np.max(np.abs(np.einsum("ai,bj,abkl->ijkl", J, J, R) - R)))


def scalar_bisection(ab2, profile, lo, hi, tol=1e-12):
    """The sign change of ``ab2`` in [lo, hi] by the plain scalar loop: every
    point, lo among them, is one call of ``ab2(profile, t)``; a midpoint whose
    value is zero is returned, and the loop stops at the tolerance or at
    adjacent floats."""
    flo = ab2(profile, lo)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        fmid = ab2(profile, mid)
        if fmid == 0.0:
            return mid
        if (flo < 0.0) == (fmid < 0.0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)
