"""The model contract: dhamiltonian is the time derivative of hamiltonian,
and H(lambda) = H0 + lambda H1 has the documented terms of each system."""

from functools import reduce

import numpy as np
import pytest

from shortcut_forge import HermiticityError
from shortcut_forge.models import DrivenSystem, landau_zener, random_hermitian_ramp, tfim_chain
from shortcut_forge.schedule import Schedule

from conftest import ID2, SX, SZ, random_hermitian_pair

SYSTEMS = {
    "landau_zener": lambda shape: landau_zener(delta=0.7, shape=shape),
    "tfim2": lambda shape: tfim_chain(n_sites=2, coupling=1.3, field=0.6, shape=shape),
    "tfim3": lambda shape: tfim_chain(n_sites=3, coupling=1.3, field=0.6, shape=shape),
    "random_hermitian4": lambda shape: random_hermitian_ramp(4, 0, shape=shape),
}
#: interior times as fractions of the duration, away from the zeros of the
#: smoothstep's third derivative (u = 1/2 -+ sqrt(3)/6), where its central
#: difference error would vanish at second order
FRACTIONS = (0.3, 0.5, 0.7)


def _central_difference_errors(system, t, steps):
    """max |(H(t + h) - H(t - h)) / 2h - dH(t)| relative to max |dH(t)|, per h."""
    dH = system.dhamiltonian(t)
    return np.array([np.abs((system.hamiltonian(t + h) - system.hamiltonian(t - h)) / (2 * h) - dH).max()
                     for h in steps]) / np.abs(dH).max()


@pytest.mark.parametrize("name", sorted(SYSTEMS))
@pytest.mark.parametrize("frac", FRACTIONS)
def test_linear_dhamiltonian_is_the_exact_difference(name, frac):
    """On a linear ramp H is affine in t, so the central difference is exact
    up to rounding at every step."""
    system = SYSTEMS[name]("linear")
    errors = _central_difference_errors(system, frac * system.duration, (1e-3, 5e-4, 1e-4))
    assert errors.max() < 1e-10


@pytest.mark.parametrize("name", sorted(SYSTEMS))
@pytest.mark.parametrize("frac", FRACTIONS)
def test_smoothstep_dhamiltonian_matches_at_second_order(name, frac):
    """Halving h cuts the central difference error 4-fold: dH is the
    derivative of H, not a multiple of it or of another term."""
    system = SYSTEMS[name]("smoothstep")
    coarse, fine = _central_difference_errors(system, frac * system.duration, (1e-3, 5e-4))
    assert coarse / fine == pytest.approx(4.0, abs=0.4)


def test_landau_zener_terms():
    """H(lambda) = lambda sz + delta sx."""
    system = landau_zener(delta=0.7)
    for lam in (-2.5, 0.0, 1.25):
        assert np.abs(system.H_of_lambda(lam) - (lam * SZ + 0.7 * SX)).max() < 1e-15


def _site_sum(op, n_sites, span):
    """sum_i op on sites i .. i + span - 1 of an open chain, identity elsewhere."""
    return sum(reduce(np.kron, [op if i <= j < i + span else ID2 for j in range(n_sites)])
               for i in range(n_sites - span + 1))


@pytest.mark.parametrize("n_sites", [2, 3])
def test_tfim_terms(n_sites):
    """H(0) = -h sum_i sx_i is the field and H(1) = -J sum_i sz_i sz_{i+1} the
    coupling: a swapped H0 and H1 fails here, not in the derivative checks."""
    system = tfim_chain(n_sites=n_sites, coupling=1.3, field=0.6)
    assert np.abs(system.H_of_lambda(0.0) + 0.6 * _site_sum(SX, n_sites, 1)).max() < 1e-14
    assert np.abs(system.H_of_lambda(1.0) + 1.3 * _site_sum(SZ, n_sites, 2)).max() < 1e-14


def test_random_hermitian_terms():
    """H0 and H1 are the first and second draws of the seeded generator."""
    system = random_hermitian_ramp(4, 3)
    H0, H1 = random_hermitian_pair(4, 3)
    assert np.array_equal(system.H_of_lambda(0.0), H0)
    assert np.array_equal(system.H_of_lambda(1.0), H0 + H1)


def test_non_hermitian_term_is_rejected():
    with pytest.raises(HermiticityError):
        DrivenSystem(H0=SX, H1=np.array([[0.0, 1.0], [0.0, 0.0]]), schedule=Schedule.linear(0.0, 1.0, 1.0))
