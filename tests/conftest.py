import numpy as np
import pytest

from qch import HermitianSpace, Tensor, identities, make_space, pullback, random_adapted_change


@pytest.fixture
def space2():
    return make_space(2)


@pytest.fixture
def space3():
    return make_space(3)


@pytest.fixture
def adapted3():
    return random_adapted_change(make_space(3), 7)


@pytest.fixture
def noisy_phi(monkeypatch):
    """``noisy_phi(size, seed)`` has the verifiers' ``build_phi`` add a seeded
    uniform(-1, 1) perturbation of ``size`` to the mixed block, which breaks
    the relations that involve it by about that amount."""
    build_phi = identities.build_phi

    def corrupt(size, seed):
        def noisy(space):
            phi = build_phi(space)
            noise = np.random.default_rng(seed).uniform(-1.0, 1.0, size=phi.tensor.entries.shape)
            return phi + size * Tensor(space.dim, (0, 4), noise)

        monkeypatch.setattr(identities, "build_phi", noisy)

    return corrupt


@pytest.fixture
def gl_frame():
    """``gl_frame(n)`` is the canonical stage of complex dimension n in the
    frame q = I + 0.3 N, N a seed-5 standard normal d x d matrix: cond(q) is
    2.8 at n = 2, 5.6 at n = 3, 8.1 at n = 4 and 11.8 at n = 5.  Unlike an
    adapted frame, q fixes neither g nor J, and the blocks are dense, so
    using g for g^-1 or J for J^T does not cancel on it."""

    def frame(n):
        space = make_space(n)
        d = space.dim
        q = np.eye(d) + 0.3 * np.random.default_rng(5).standard_normal((d, d))
        return HermitianSpace(n, q, pullback(space.g, q), pullback(space.J, q),
                              pullback(space.p_D, q))

    return frame
