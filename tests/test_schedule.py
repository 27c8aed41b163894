import numpy as np
import pytest

from shortcut_forge.models import landau_zener, random_hermitian_ramp, tfim_chain
from shortcut_forge.schedule import SHAPES, Schedule


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_shape_by_name(name):
    named = Schedule.of_shape(name, -1.0, 3.0, 2.0)
    direct = SHAPES[name](-1.0, 3.0, 2.0)
    for t in (0.0, 0.3, 1.0, 2.0):
        assert named(t) == pytest.approx(direct(t), abs=0)
        assert named.rate(t) == pytest.approx(direct.rate(t), abs=0)


def test_models_pass_the_shape_through():
    u = 0.25
    smooth = u**3 * (10 - 15 * u + 6 * u**2)
    assert landau_zener(shape="linear").schedule(u) == pytest.approx(-5.0 + 10.0 * u, abs=1e-15)
    assert landau_zener(shape="smoothstep").schedule(u) == pytest.approx(-5.0 + 10.0 * smooth, abs=1e-15)
    assert random_hermitian_ramp(3, 0, shape="linear").schedule(u) == pytest.approx(u, abs=1e-15)


@pytest.mark.parametrize("make", [
    lambda shape: landau_zener(shape=shape),
    lambda shape: tfim_chain(n_sites=2, shape=shape),
    lambda shape: random_hermitian_ramp(4, 0, shape=shape),
    lambda shape: Schedule.of_shape(shape, 0.0, 1.0, 1.0),
], ids=["landau_zener", "tfim_chain", "random_hermitian_ramp", "of_shape"])
def test_unknown_shape_raises(make):
    """A typo must not silently become another ramp."""
    with pytest.raises(ValueError, match="'cubic'"):
        make("cubic")


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_value_and_rate_broadcast_over_times(name):
    """The path is scalar: a number at one time and an (n,) array at n times,
    which the system maps to one D x D matrix and to an (n, D, D) stack."""
    sched = Schedule.of_shape(name, -1.0, 3.0, 2.0)
    times = np.array([0.0, 0.3, 1.0, 2.0])
    assert isinstance(sched(0.3), float) and isinstance(sched.rate(0.3), float)
    assert sched(times).shape == sched.rate(times).shape == (4,)
    assert np.array_equal(sched(times), [sched(t) for t in times])
    assert np.array_equal(sched.rate(times), [sched.rate(t) for t in times])
    system = random_hermitian_ramp(4, 0, shape=name)
    assert system.hamiltonian(0.3).shape == system.dhamiltonian(0.3).shape == (4, 4)
    assert np.array_equal(system.hamiltonian(times), np.array([system.hamiltonian(t) for t in times]))
    assert np.array_equal(system.dhamiltonian(times), np.array([system.dhamiltonian(t) for t in times]))


@pytest.mark.parametrize("name", sorted(SHAPES))
@pytest.mark.parametrize("duration", [0.0, -1.0])
def test_non_positive_duration_raises(name, duration):
    with pytest.raises(ValueError, match="duration must be positive"):
        SHAPES[name](0.0, 1.0, duration)
