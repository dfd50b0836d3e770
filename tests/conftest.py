import numpy as np
import pytest

from qch import Tensor, identities, make_space, random_adapted_change


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
