import numpy as np
import pytest

from randbc import extension_lab as lab
from randbc import impedance


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture
def chain8():
    return lab.build_discrete_triple(8, h=0.25)


@pytest.fixture
def chain12(rng):
    return lab.build_discrete_triple(12, h=0.2, potential=rng.standard_normal(12))


def random_vector(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


@pytest.fixture
def contraction_sampler(rng):
    def make(boundary=False, unitary=False):
        if unitary:
            return lab.ContractionOp(impedance.haar_unitary(2, rng))
        return lab.ContractionOp(
            impedance.random_contraction(2, rng, boundary=boundary))
    return make

