"""Relations between shortcut methods, checked as executable oracles."""

import numpy as np

from shortcut_forge import adiabatic_coefficients, counterdiabatic_term, eigenpath, evolve
from shortcut_forge.models import random_hermitian_ramp


class TestCounterdiabaticInvariant:
    def test_mode_populations_are_conserved_at_second_order(self):
        """CD <-> Lewis-Riesenfeld invariant: under H + H_cd every
        sum_n f_n |n(t)><n(t)| is conserved, so a D = 64 superposition with
        c_n = 1/8 on every mode keeps |c_n|^2 = 1/64. The deviation is the
        midpoint integrator's: doubling the grid cuts it by about 4, with no
        floor from the Lanczos steps of this D."""
        system = random_hermitian_ramp(64, 0)
        driven = lambda t: system.hamiltonian(t) + counterdiabatic_term(system.hamiltonian(t), system.dhamiltonian(t))
        deviation = []
        for points in (201, 401):
            grid = np.linspace(0.0, 1.0, points)
            path = eigenpath(system.hamiltonian, grid)
            traj = evolve(driven, path.vectors[0].sum(axis=1) / 8, grid)
            c = adiabatic_coefficients(traj, path)
            deviation.append(np.abs(np.abs(c) ** 2 - 1 / 64).max())
        assert 3.5 <= deviation[0] / deviation[1] <= 4.5
