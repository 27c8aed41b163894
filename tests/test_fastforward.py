"""Fast-forward (FF) against counterdiabatic (CD) driving.

Relation 1: ``ff_of_cd`` is ``ff_hamiltonian`` of the CD reference H + H_cd
in the adiabatic-projector gauge df_n/dt = (ds/dt - 1) E_n(s).
Relation 2: ``ff_hamiltonian`` of H itself, in any adiabatic-projector gauge,
reproduces the reference populations at s(t).
"""

import numpy as np
import pytest

from shortcut_forge.dynamics import evolve
from shortcut_forge.fastforward import FFGauge, TimeRescaling, ff_hamiltonian, ff_of_cd
from shortcut_forge.models import landau_zener, random_hermitian_ramp
from shortcut_forge.spectral import counterdiabatic_term

from conftest import sine_rescaling, stacked

SYSTEMS = {"lz": landau_zener, "rh4": lambda: random_hermitian_ramp(dim=4, seed=0)}


def _lz_energy_integral(system):
    """s -> int_0^s E_n ds' for lam sz + sx on a linear ramp, E = -+sqrt(lam^2 + 1)."""
    lam0, lam1 = system.schedule(0.0), system.schedule(system.duration)
    G = lambda lam: 0.5 * (lam * np.sqrt(lam**2 + 1.0) + np.arcsinh(lam))
    scale = system.duration / (lam1 - lam0)

    def integral(s):
        value = scale * (G(system.schedule(s)) - G(lam0))
        return np.array([-value, value])

    return integral


def _gauss_energy_integral(system, nodes=80):
    """s -> int_0^s E_n ds' per ascending level by Gauss-Legendre quadrature;
    80 nodes resolve the random_hermitian D = 4 ramp to rounding."""
    x, w = np.polynomial.legendre.leggauss(nodes)

    def integral(s):
        E = np.array([np.linalg.eigvalsh(system.hamiltonian(u)) for u in 0.5 * s * (x + 1)])
        return 0.5 * s * w @ E

    return integral


def _projectors(system, rescale):
    """Adiabatic projectors of H(s(t)), ascending, as an (n, D, D) stack."""
    def projectors(t):
        _, V = np.linalg.eigh(system.hamiltonian(rescale.s(t)))
        return np.einsum("in,jn->nij", V, V.conj())

    return projectors


def _relation_1_gauge(name, system, rescale, rate):
    """df_n/dt = (rate - 1) E_n(s), i.e. f_n = (1 - 1/rate) int_0^s E_n."""
    integral = (_lz_energy_integral if name == "lz" else _gauss_energy_integral)(system)
    return FFGauge(_projectors(system, rescale), lambda t: (1 - 1 / rate) * integral(rescale.s(t)))


def _cd(system):
    return lambda s: counterdiabatic_term(system.hamiltonian(s), system.dhamiltonian(s))


def _times(rescale):
    """Interior points, both ends, and points within one difference step of each end."""
    T = rescale.T_ff
    return np.concatenate([[0.0, 1e-7, 2e-6], np.linspace(0.0, T, 21)[1:-1], [T - 2e-6, T - 1e-7, T]])


@pytest.mark.parametrize("name", SYSTEMS)
def test_ff_of_cd_at_rate_one_is_cd_driving(name):
    system = SYSTEMS[name]()
    rescale = TimeRescaling.uniform(1.0, system.duration)
    cd = _cd(system)
    for t in _times(rescale):
        expected = system.hamiltonian(t) + cd(t)
        assert np.abs(ff_of_cd(system.hamiltonian, cd, rescale, t) - expected).max() <= 1e-14


#: models by the duration they are built with
_MODELS = {"lz": lambda T: landau_zener(duration=T),
           "lz_smoothstep": lambda T: landau_zener(delta=0.7, duration=T, shape="smoothstep"),
           "rh4": lambda T: random_hermitian_ramp(dim=4, seed=0, duration=T)}


@pytest.mark.parametrize("rate, rel", [(2.0, 0.0), (0.5, 0.0), (3.0, 1e-14)])
@pytest.mark.parametrize("name", _MODELS)
def test_uniform_ff_of_cd_is_cd_of_the_model_on_the_faster_clock(name, rate, rel):
    """On the uniform clock s = rate t, ff_of_cd is H' + H'_cd of the same
    model built with duration T / rate: H'(t) = H(rate t) and dH' = rate dH.
    At 101 times the two agree bit for bit where rate is a power of two, and
    to rounding of the schedule's t / T' at rate 3."""
    system = _MODELS[name](1.0)
    fast = _MODELS[name](system.duration / rate)
    t = np.linspace(0.0, fast.duration, 101)
    ff = ff_of_cd(system.hamiltonian, _cd(system), TimeRescaling.uniform(rate, fast.duration), t)
    cd = fast.hamiltonian(t) + _cd(fast)(t)
    assert np.abs(ff - cd).max() <= rel * np.abs(cd).max()


@pytest.mark.parametrize("rate", [2.0, 3.0])
@pytest.mark.parametrize("name", SYSTEMS)
def test_relation_1_ff_of_cd_is_a_gauge_of_the_generator_form(name, rate):
    system = SYSTEMS[name]()
    rescale = TimeRescaling.uniform(rate, system.duration / rate)
    gauge = _relation_1_gauge(name, system, rescale, rate)
    cd = _cd(system)
    reference = lambda s: system.hamiltonian(s) + cd(s)
    for t in _times(rescale):
        generator_form = ff_hamiltonian(reference, gauge, rescale, t)
        assert np.abs(ff_of_cd(system.hamiltonian, cd, rescale, t) - generator_form).max() <= 1e-8, t


@pytest.mark.parametrize("name", SYSTEMS)
def test_generator_form_of_h_is_fast_forwarded_cd_plus_the_nonadiabatic_term(name):
    """In the gauge of relation 1, ff_hamiltonian of H is H + (ds/dt)(H_cd - U_f H_cd U_f^dag)."""
    system = SYSTEMS[name]()
    rate = 2.0
    rescale = TimeRescaling.uniform(rate, system.duration / rate)
    gauge = _relation_1_gauge(name, system, rescale, rate)
    cd = _cd(system)
    for t in _times(rescale):
        s, U = rescale.s(t), gauge.unitary(t)
        expected = system.hamiltonian(s) + rate * (cd(s) - U @ cd(s) @ U.conj().T)
        assert np.abs(ff_hamiltonian(system.hamiltonian, gauge, rescale, t) - expected).max() <= 1e-8, t


def _populations(system, times, states):
    """|<n(s)|psi>|^2 in the ascending adiabatic basis of H at each time."""
    return np.array([np.abs(np.linalg.eigh(system.hamiltonian(s))[1].conj().T @ psi) ** 2
                     for s, psi in zip(times, states)])


@pytest.mark.parametrize("name, phases, clock", [("lz", "relation_1", "uniform"), ("lz", "arbitrary", "uniform"),
                                                  ("rh4", "arbitrary", "uniform"), ("lz", "arbitrary", "sine"),
                                                  ("rh4", "arbitrary", "sine")])
def test_relation_2_any_projector_gauge_reproduces_reference_populations(name, phases, clock):
    """The fast-forward populations at t are the reference populations at
    s(t), on the uniform clock s = 2 t and on the non-uniform sine clock. The
    reference is evolved under (ds/dt) H(s(t)) on the uniform t grid, which
    carries psi0 to the reference state at s(t) (time rescaling)."""
    system = SYSTEMS[name]()
    rate = 2.0
    if clock == "sine":
        rescale = sine_rescaling(system.duration)
    else:
        rescale = TimeRescaling.uniform(rate, system.duration / rate)
    if phases == "relation_1":
        gauge = _relation_1_gauge(name, system, rescale, rate)
    else:
        n = np.arange(system.dim)
        gauge = FFGauge(_projectors(system, rescale), lambda t: (n + 1) * np.sin(3 * t) + n * t**2)
    grid = np.linspace(0.0, rescale.T_ff, 1001)
    s = rescale.s(grid)
    psi0 = np.linalg.eigh(system.hamiltonian(0.0))[1][:, 0]
    reference = evolve(stacked(lambda t: rescale.dsdt(t) * system.hamiltonian(rescale.s(t))), psi0, grid)
    H_ff = lambda t: ff_hamiltonian(system.hamiltonian, gauge, rescale, t)
    fast = evolve(stacked(H_ff), psi0, grid)
    expected = _populations(system, s, reference.states)
    assert expected[-1, 0] < 0.9          # the reference is far from adiabatic
    deviation = _populations(system, s, fast.states) - expected
    assert np.abs(deviation).max() <= 1e-5
    for t in np.linspace(0.0, rescale.T_ff, 11):
        H = H_ff(t)
        assert np.abs(H - H.conj().T).max() <= 1e-13


def test_rescaling_rejects_a_moved_origin_and_a_non_positive_rate():
    with pytest.raises(ValueError, match="s\\(0\\)"):
        TimeRescaling(s=lambda t: t + 0.1, dsdt=lambda t: 1.0, d2sdt2=lambda t: 0.0, T_ff=1.0)
    for ratio in (0.0, -1.0):
        with pytest.raises(ValueError, match="positive"):
            TimeRescaling.uniform(ratio, 1.0)
    # a rate that turns negative only late in the interval
    with pytest.raises(ValueError, match="positive"):
        TimeRescaling(s=lambda t: t - t**2, dsdt=lambda t: 1 - 2 * t, d2sdt2=lambda t: -2.0, T_ff=1.0)
