"""Smooth parameter paths lambda(t) on [0, T] with derivative access."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass
class Schedule:
    """A vector-valued parameter path on [0, duration].

    ``value(t)`` returns lambda(t) and ``derivative(t)`` its time derivative,
    each of shape t.shape + (p,): one p-vector for a time, an (n, p) array
    for an array of n times.
    """

    duration: float
    value: Callable[[np.ndarray], np.ndarray]
    derivative: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        if self.duration <= 0:
            raise ValueError("duration must be positive")

    def __call__(self, t) -> np.ndarray:
        return np.asarray(self.value(t), dtype=float)

    def rate(self, t) -> np.ndarray:
        return np.asarray(self.derivative(t), dtype=float)

    @classmethod
    def linear(cls, start, stop, duration: float) -> "Schedule":
        a = np.atleast_1d(np.asarray(start, dtype=float))
        b = np.atleast_1d(np.asarray(stop, dtype=float))
        slope = (b - a) / duration
        return cls(duration, value=lambda t: a + np.multiply.outer(t, slope),
                   derivative=lambda t: np.broadcast_to(slope, np.shape(t) + slope.shape).copy())

    @classmethod
    def smoothstep(cls, start, stop, duration: float) -> "Schedule":
        """Quintic ramp with vanishing first and second endpoint derivatives."""
        a = np.atleast_1d(np.asarray(start, dtype=float))
        b = np.atleast_1d(np.asarray(stop, dtype=float))

        def val(t):
            u = np.clip(np.asarray(t) / duration, 0.0, 1.0)
            p = u**3 * (10 - 15 * u + 6 * u**2)
            return a + np.multiply.outer(p, b - a)

        def der(t):
            u = np.clip(np.asarray(t) / duration, 0.0, 1.0)
            dp = 30 * u**2 * (1 - u) ** 2 / duration
            return np.multiply.outer(dp, b - a)

        return cls(duration, value=val, derivative=der)

    @classmethod
    def of_shape(cls, shape: str, start, stop, duration: float) -> "Schedule":
        """The ramp named ``shape`` (a key of ``SHAPES``) from start to stop."""
        if shape not in SHAPES:
            raise ValueError(f"unknown schedule shape {shape!r}; choose from {tuple(SHAPES)}")
        return SHAPES[shape](start, stop, duration)


#: schedule constructors by shape name
SHAPES = {"linear": Schedule.linear, "smoothstep": Schedule.smoothstep}
