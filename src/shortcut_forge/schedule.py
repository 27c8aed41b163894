"""Smooth scalar parameter paths lambda(t) on [0, T] with derivative access."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass
class Schedule:
    """A scalar parameter path on [0, duration].

    ``value(t)`` returns lambda(t) and ``derivative(t)`` its time derivative,
    each shaped like t: a number (np.float64) for one time, an (n,) array for
    an array of n times.
    """

    duration: float
    value: Callable[[np.ndarray], np.ndarray]
    derivative: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        if self.duration <= 0:
            raise ValueError("duration must be positive")

    def __call__(self, t) -> float | np.ndarray:
        # [()] makes the 0-d array of one time a number and leaves arrays as they are
        return np.asarray(self.value(t), dtype=float)[()]

    def rate(self, t) -> float | np.ndarray:
        return np.asarray(self.derivative(t), dtype=float)[()]

    @classmethod
    def linear(cls, start: float, stop: float, duration: float) -> "Schedule":
        # the slope is formed per call, so a non-positive duration reaches
        # __post_init__'s ValueError instead of dividing by zero here
        return cls(duration, value=lambda t: start + np.asarray(t) * ((stop - start) / duration),
                   derivative=lambda t: np.full(np.shape(t), (stop - start) / duration))

    @classmethod
    def smoothstep(cls, start: float, stop: float, duration: float) -> "Schedule":
        """Quintic ramp with vanishing first and second endpoint derivatives."""

        def val(t):
            u = np.clip(np.asarray(t) / duration, 0.0, 1.0)
            return start + u**3 * (10 - 15 * u + 6 * u**2) * (stop - start)

        def der(t):
            u = np.clip(np.asarray(t) / duration, 0.0, 1.0)
            return 30 * u**2 * (1 - u) ** 2 / duration * (stop - start)

        return cls(duration, value=val, derivative=der)

    @classmethod
    def of_shape(cls, shape: str, start: float, stop: float, duration: float) -> "Schedule":
        """The ramp named ``shape`` (a key of ``SHAPES``) from start to stop."""
        if shape not in SHAPES:
            raise ValueError(f"unknown schedule shape {shape!r}; choose from {tuple(SHAPES)}")
        return SHAPES[shape](start, stop, duration)


#: schedule constructors by shape name
SHAPES = {"linear": Schedule.linear, "smoothstep": Schedule.smoothstep}
