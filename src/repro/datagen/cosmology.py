"""Synthetic cosmology-like density fields.

Spectral synthesis of a log-normal density field with a power-law
spectrum -- the standard cheap stand-in for hydrodynamic cosmology
output: filaments, voids, and concentrated halos, which is the visual
structure of the SC99 cosmology demo data (Figure 9).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.util.rng import make_rng


@dataclass(frozen=True)
class CosmologyConfig:
    """Parameters for the synthetic density field."""

    shape: Tuple[int, int, int] = (64, 64, 64)
    #: power spectrum index: P(k) ~ k**spectral_index
    spectral_index: float = -2.2
    #: log-density amplitude; higher = more contrast between halo/void
    sigma: float = 1.4
    #: growth of structure per unit time (time evolution knob)
    growth_rate: float = 0.15
    seed: int = 99

    def __post_init__(self):
        if len(self.shape) != 3 or any(s < 2 for s in self.shape):
            raise ValueError(f"shape must be 3 axes of >= 2, got {self.shape}")
        if self.sigma <= 0:
            raise ValueError("sigma must be > 0")


def cosmology_field(time: float, config: CosmologyConfig) -> np.ndarray:
    """Evaluate the density field at ``time``; float32 in [0, 1].

    Time evolution sharpens contrast (structure growth) while keeping
    the underlying random phases fixed, so consecutive timesteps look
    like an evolving universe rather than independent noise.
    """
    rng = make_rng(config.seed)
    nx, ny, nz = config.shape

    kx = np.fft.fftfreq(nx)[:, None, None]
    ky = np.fft.fftfreq(ny)[None, :, None]
    kz = np.fft.rfftfreq(nz)[None, None, :]
    k = np.sqrt(kx * kx + ky * ky + kz * kz)
    k[0, 0, 0] = 1.0  # avoid division by zero at the DC mode

    amplitude = k ** (config.spectral_index / 2.0)
    amplitude[0, 0, 0] = 0.0  # zero-mean fluctuations

    phases = rng.random(amplitude.shape) * 2.0 * np.pi
    spectrum = amplitude * np.exp(1j * phases)
    gaussian = np.fft.irfftn(spectrum, s=config.shape, axes=(0, 1, 2))
    std = gaussian.std()
    if std > 0:
        gaussian /= std

    sigma_t = config.sigma * (1.0 + config.growth_rate * time)
    density = np.exp(sigma_t * gaussian)
    density /= density.max()
    return density.astype(np.float32)
