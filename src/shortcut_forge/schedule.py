"""Smooth parameter paths lambda(t) on [0, T] with derivative access."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass
class Schedule:
    """A vector-valued parameter path on [0, duration].

    ``value(t)`` returns lambda(t) as a 1-D array; ``derivative`` falls back
    to centered finite differences when no analytic form is supplied.
    """

    duration: float
    value: Callable[[float], np.ndarray]
    derivative: Callable[[float], np.ndarray] | None = None

    def __post_init__(self):
        if self.duration <= 0:
            raise ValueError("duration must be positive")

    def __call__(self, t: float) -> np.ndarray:
        return np.atleast_1d(np.asarray(self.value(t), dtype=float))

    def rate(self, t: float) -> np.ndarray:
        if self.derivative is not None:
            return np.atleast_1d(np.asarray(self.derivative(t), dtype=float))
        h = max(self.duration * 1e-7, 1e-10)
        lo, hi = max(t - h, 0.0), min(t + h, self.duration)
        return (self(hi) - self(lo)) / (hi - lo)

    @classmethod
    def linear(cls, start, stop, duration: float) -> "Schedule":
        a = np.atleast_1d(np.asarray(start, dtype=float))
        b = np.atleast_1d(np.asarray(stop, dtype=float))
        slope = (b - a) / duration
        return cls(duration, value=lambda t: a + slope * t, derivative=lambda t: slope.copy())

    @classmethod
    def smoothstep(cls, start, stop, duration: float) -> "Schedule":
        """Quintic ramp with vanishing first and second endpoint derivatives."""
        a = np.atleast_1d(np.asarray(start, dtype=float))
        b = np.atleast_1d(np.asarray(stop, dtype=float))

        def val(t):
            u = np.clip(t / duration, 0.0, 1.0)
            p = u**3 * (10 - 15 * u + 6 * u**2)
            return a + (b - a) * p

        def der(t):
            u = np.clip(t / duration, 0.0, 1.0)
            dp = 30 * u**2 * (1 - u) ** 2 / duration
            return (b - a) * dp

        return cls(duration, value=val, derivative=der)

    @classmethod
    def of_shape(cls, shape: str, start, stop, duration: float) -> "Schedule":
        """The ramp named ``shape`` (a key of ``SHAPES``) from start to stop."""
        if shape not in SHAPES:
            raise ValueError(f"unknown schedule shape {shape!r}; choose from {tuple(SHAPES)}")
        return SHAPES[shape](start, stop, duration)


#: schedule constructors by shape name
SHAPES = {"linear": Schedule.linear, "smoothstep": Schedule.smoothstep}
