import numpy as np
import pytest

from nonloc import (MeasurementSettings, Ray, SymmetricState,
                    genuine_entanglement_check, solve_auto)


def random_symmetric(n: int, rng: np.random.Generator,
                     entangled: bool = True) -> SymmetricState:
    """Random symmetric state; optionally redrawn until genuinely entangled."""
    while True:
        h = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
        s = SymmetricState(n, h)
        if not entangled or genuine_entanglement_check(s, 1e-4):
            return s


def random_ray(rng: np.random.Generator) -> Ray:
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    return Ray(complex(v[0]), complex(v[1]))


def random_settings(n: int, rng: np.random.Generator) -> MeasurementSettings:
    """Random non-parallel measurement pairs on every party."""
    pairs = []
    while len(pairs) < n:
        a, b = random_ray(rng), random_ray(rng)
        ov = abs(np.vdot(a.ket(), b.ket()))
        if ov < 0.99:
            pairs.append((a, b))
    return MeasurementSettings(n, tuple(pairs))


@pytest.fixture(scope="session")
def ghz3_solution():
    return solve_auto(SymmetricState.ghz(3, np.pi / 4))


@pytest.fixture
def rng():
    return np.random.default_rng(20240814)
