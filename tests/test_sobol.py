"""The numpy Sobol sampler against scipy's, which is the oracle here: the
direction-number table, the scrambled blocks bit for bit, and the sampled
Diophantine points at the seeds the acceptance suite, the unit tests and the
bench use."""
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.stats
from scipy.stats import qmc

from lindbeam.bruno import sample_diophantine_points
from lindbeam.diophantine import check_melnikov
from lindbeam.sobol import BITS, MAXDIM, Sobol, _random_bits, direction_table
from lindbeam.spectrum import MU_MAX, ModelParams, mode_set

TREE_P = ModelParams(a=1.0, b=0.5, mu=0.01, eps0=0.02, omega_branch=1, Mmax=9, Nmax=60)
# the cutoffs at which `verify` and `bruno check` sample, whatever the model
CLI_MMAX, CLI_NMAX = 9, 60


def test_table_is_scipys():
    npz = np.load(Path(scipy.stats.__file__).parent / "_sobol_direction_numbers.npz")
    poly, vinit = direction_table()
    assert np.array_equal(poly, npz["poly"][:MAXDIM])
    assert np.array_equal(vinit, npz["vinit"][:MAXDIM])


@pytest.mark.parametrize("d, seed", [(12, 2024), (12, 7), (12, 11), (12, 0), (3, 0),
                                     (30, 5), (224, 3), (MAXDIM, 3), (1, 9)])
def test_blocks_equal_scipys(d, seed):
    ours, theirs = Sobol(d, seed), qmc.Sobol(d, scramble=True, seed=seed)
    for _ in range(10):
        a, b = ours.random(32), theirs.random(32)
        assert a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize("seed", [0, 7, 2024, 2 ** 32 + 5, 2 ** 130 + 3])
@pytest.mark.parametrize("d", [1, 12])
def test_bits_equal_numpys(seed, d):
    # the Sobol order from one generator: the (d, 30) shift bits, then the
    # (d, 30, 30) matrix bits; 2**32 + 5 has two entropy words, and 2**130 + 3
    # more than SeedSequence's 4-word pool holds
    rng = np.random.default_rng(seed)
    want = np.concatenate([rng.integers(2, size=(d, BITS), dtype=np.uint32).ravel(),
                           rng.integers(2, size=(d, BITS, BITS), dtype=np.uint32).ravel()])
    got = _random_bits(seed, d * BITS * (1 + BITS))
    assert got.dtype == want.dtype and np.array_equal(got, want)
    # an odd count ends on the low half of an output
    assert np.array_equal(_random_bits(seed, 7), want[:7])


@pytest.mark.parametrize("seed", [-1, -2 ** 40])
def test_negative_seed_raises(seed):
    with pytest.raises(ValueError):
        np.random.default_rng(seed)
    with pytest.raises(ValueError, match="non-negative"):
        Sobol(3, seed)


def _scipy_sample(params, count, seed=0, max_draws=4000):
    """sample_diophantine_points as it was with scipy's Sobol engine."""
    ms = mode_set(params.mu, params.eps0, params.Mmax, params.Nmax)
    eng = qmc.Sobol(d=1 + len(ms), scramble=True, seed=seed)
    out, draws = [], 0
    cap = params.nu_cap * params.eps0 * 0.999
    while len(out) < count and draws < max_draws:
        block = eng.random(32)
        draws += 32
        for row in block:
            eps = float(row[0]) * params.eps0
            if not 1e-8 < eps < params.eps0:
                continue
            nu = ms.nu_table((2.0 * row[1:] - 1.0) * cap)
            if check_melnikov(eps, nu, params):
                out.append((eps, nu))
                if len(out) >= count:
                    break
    return out


@pytest.mark.parametrize("seed, count", [(2024, 20), (7, 100), (11, 6),
                                         (0, 16), (1, 16), (2, 16), (3, 16)])
def test_points_equal_scipy_sampling(seed, count):
    ours = sample_diophantine_points(TREE_P, count, seed=seed)
    theirs = _scipy_sample(TREE_P, count, seed=seed)
    assert len(ours) == len(theirs) == count
    for (eps, nu), (eps_s, nu_s) in zip(ours, theirs):
        assert eps == eps_s
        assert repr(sorted(nu.items())) == repr(sorted(nu_s.items()))


def test_reachable_dimensions_have_direction_numbers():
    # A mode (n, m) of Lambda has m^2 - om1 n <= 1 + eps0 n, so
    # m^2 <= (sqrt(1 + MU_MAX) + 1) n + 1 for every admissible mu and eps0.
    slope = math.sqrt(1.0 + MU_MAX) + 1.0
    bound = sum(1 for m in range(1, CLI_MMAX + 1, 2) for n in range(1, CLI_NMAX + 1)
                if (n, m) != (1, 1) and m * m <= slope * n + 1.0)
    assert 1 + bound <= MAXDIM
    reached = max(1 + len(mode_set(mu, eps0, CLI_MMAX, CLI_NMAX))
                  for mu in np.linspace(0.0, MU_MAX, 5) for eps0 in (0.02, 0.5, 1.0 - 1e-12))
    assert reached == 224
    assert 1 + len(mode_set(TREE_P.mu, TREE_P.eps0, CLI_MMAX, CLI_NMAX)) == 12


def test_past_the_table_raises():
    with pytest.raises(ValueError, match=f"d={MAXDIM + 1}.*D={MAXDIM}"):
        Sobol(MAXDIM + 1, 0)
    big = TREE_P.with_(Mmax=64, Nmax=2000)
    assert 1 + len(mode_set(big.mu, big.eps0, big.Mmax, big.Nmax)) > MAXDIM
    with pytest.raises(ValueError, match=f"D={MAXDIM}"):
        sample_diophantine_points(big, 1)


def test_exhausted_sampler_raises_value_error():
    with pytest.raises(ValueError, match=r"only \d+ of 4001 Diophantine samples after 32 draws"):
        sample_diophantine_points(TREE_P, 4001, seed=0, max_draws=32)
