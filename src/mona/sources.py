"""Time-dependent source waveforms for independent voltage/current sources."""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["Waveform"]


@dataclass(frozen=True)
class Waveform:
    """A scalar signal: either a constant or a sinusoid.

    Sinusoids are ``amplitude * sin(2*pi*frequency*t + phase)``.  An
    amplitude (the value of a constant) whose square is not finite in
    binary64, NaN or above about 1.34e154 in size, raises ``ValueError``:
    the source's power, its value times a current, would overflow.  So does
    a frequency whose 2*pi*frequency is not finite, above about 2.86e307 in
    size: the source's phase would overflow.
    """

    kind: str  # "dc" | "sin"
    amplitude: float = 0.0
    frequency: float = 0.0
    phase: float = 0.0

    def __post_init__(self):
        if self.kind not in ("dc", "sin"):
            raise ValueError(f"unknown waveform kind {self.kind!r}")
        if not math.isfinite(self.amplitude * self.amplitude):
            what = "DC value" if self.kind == "dc" else "amplitude"
            raise ValueError(f"{what} {self.amplitude!r}: its square is not finite in "
                             f"binary64, so the source's power would overflow")
        if not math.isfinite(2.0 * math.pi * self.frequency):
            raise ValueError(f"frequency {self.frequency!r}: 2*pi*frequency is not finite "
                             f"in binary64, so the source's phase would overflow")

    @classmethod
    def dc(cls, value: float) -> "Waveform":
        return cls(kind="dc", amplitude=float(value))

    @classmethod
    def sine(cls, amplitude: float, frequency: float, phase: float = 0.0) -> "Waveform":
        return cls(kind="sin", amplitude=float(amplitude),
                   frequency=float(frequency), phase=float(phase))

    def __call__(self, t: float) -> float:
        if self.kind == "dc":
            return self.amplitude
        return self.amplitude * math.sin(2.0 * math.pi * self.frequency * t + self.phase)

