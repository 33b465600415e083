import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonloc import JointDistribution, PureState, SymmetricState, fileio
from conftest import random_settings

PROPERTY = settings(derandomize=True, database=None, max_examples=40, deadline=None)
SEEDS = st.integers(0, 2 ** 32 - 1)
PARTIES = st.integers(2, 5)


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("fileio") / "payload.json"


def _ray_bits(m):
    return np.array([[(r.c0, r.c1) for r in pair] for pair in m.pairs]).tobytes()


def _complex_vector(rng, size):
    return rng.standard_normal(size) + 1j * rng.standard_normal(size)


@PROPERTY
@given(SEEDS, PARTIES)
def test_settings_round_trip_bit_for_bit(path, seed, n):
    m = random_settings(n, np.random.default_rng(seed))
    fileio.write_json(path, fileio.settings_payload(m),
                      fileio.make_manifest("settings", {"n": n}, seed))
    got = fileio.load_settings(path)
    assert got.n == n and _ray_bits(got) == _ray_bits(m)


@PROPERTY
@given(SEEDS, PARTIES)
def test_distribution_round_trip_bit_for_bit_after_the_clamp(path, seed, n):
    # rows from a Dirichlet draw, with exact zeros and the negative rounding
    # noise (>= -1e-12) that JointDistribution tolerates and the writer clamps
    rng = np.random.default_rng(seed)
    dim = 2 ** n
    p = rng.dirichlet(np.ones(dim), size=dim)
    draw = rng.random((dim, dim))
    draw[np.diag_indices(dim)] = 1.0    # the diagonal takes up each row's slack
    p[draw < 0.2] = 0.0
    p[draw < 0.1] = -1e-13
    p[np.diag_indices(dim)] += 1.0 - p.sum(axis=1)
    d = JointDistribution(n, p)
    fileio.write_json(path, fileio.distribution_payload(d))
    got = fileio.load_distribution(path)
    assert got.n == n
    assert got.p.dtype == float and got.p.tobytes() == np.maximum(d.p, 0.0).tobytes()


@PROPERTY
@given(SEEDS, PARTIES)
def test_states_round_trip_to_rounding(path, seed, n):
    # each load renormalizes, which can move the last bit of an amplitude
    rng = np.random.default_rng(seed)
    psi = PureState(n, _complex_vector(rng, 2 ** n))
    fileio.write_json(path, fileio.state_payload(psi))
    got = fileio.load_state(path)
    assert got.n == n and np.abs(got.amplitudes - psi.amplitudes).max() <= 1e-15

    s = SymmetricState(n, _complex_vector(rng, n + 1))
    fileio.write_json(path, {"n": n, "h": [[z.real, z.imag] for z in s.h]})
    got = fileio.load_symmetric(path)
    assert got.n == n and np.abs(got.h - s.h).max() <= 1e-15
