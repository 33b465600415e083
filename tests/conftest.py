import numpy as np
import pytest

from nonloc import (MeasurementSettings, Ray, SymmetricState,
                    genuine_entanglement_check, solve_auto)


# nearly-product two-term states (n, h_1, with h_0 = 1 and the rest 0) that pass
# solve_auto's entanglement check, yet whose success probability along the
# chosen ray stays near 1e-12, below the 1e-10 floor
NEAR_PRODUCT = ((6, 0.00182 + 0.00042j), (8, -0.00200 - 0.00249j))


def near_product(n: int, h1: complex) -> SymmetricState:
    return SymmetricState(n, [1, h1] + [0] * (n - 1))


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
