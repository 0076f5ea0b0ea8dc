"""Statistical realism checks for the synthetic datasets.

The substitution argument in DESIGN.md says the generators preserve
the *structure* the paper's data had; this module makes that claim
checkable: combustion fields must show localized, sharp-fronted
kernels (what drives AMR refinement and makes volume rendering
interesting), and cosmology fields must follow a power-law spectrum
with log-normal contrast (filaments and voids).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class FieldStats:
    """Summary statistics a generated field is validated against."""

    occupancy: float  # fraction of voxels above 10% of peak
    front_sharpness: float  # mean gradient magnitude on the front
    skewness: float
    spectral_slope: float  # log-log slope of the isotropic spectrum

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"occupancy={self.occupancy:.3f} "
            f"front={self.front_sharpness:.3f} "
            f"skew={self.skewness:.2f} slope={self.spectral_slope:.2f}"
        )


def field_stats(field: np.ndarray) -> FieldStats:
    """Compute the validation statistics of a 3-D scalar field."""
    field = np.asarray(field, dtype=np.float64)
    if field.ndim != 3:
        raise ValueError(f"field must be 3-D, got ndim={field.ndim}")
    peak = field.max()
    if peak <= 0:
        raise ValueError("field must contain positive values")
    norm = field / peak

    occupancy = float((norm > 0.1).mean())

    gx, gy, gz = np.gradient(norm)
    grad = np.sqrt(gx * gx + gy * gy + gz * gz)
    # Front region: where the field transitions (between 20% and 80%).
    front = (norm > 0.2) & (norm < 0.8)
    front_sharpness = float(grad[front].mean()) if front.any() else 0.0

    mean = norm.mean()
    std = norm.std()
    skewness = (
        float(((norm - mean) ** 3).mean() / std**3) if std > 0 else 0.0
    )

    return FieldStats(
        occupancy=occupancy,
        front_sharpness=front_sharpness,
        skewness=skewness,
        spectral_slope=spectral_slope(norm),
    )


def spectral_slope(field: np.ndarray) -> float:
    """Log-log slope of the isotropic power spectrum.

    Smooth, large-scale-dominated fields slope steeply negative; white
    noise is flat (~0). Cosmology-like fields sit in between,
    reflecting their power-law initial conditions.
    """
    field = np.asarray(field, dtype=np.float64)
    if field.ndim != 3:
        raise ValueError(f"field must be 3-D, got ndim={field.ndim}")
    f = field - field.mean()
    spectrum = np.abs(np.fft.rfftn(f)) ** 2
    kx = np.fft.fftfreq(field.shape[0])[:, None, None]
    ky = np.fft.fftfreq(field.shape[1])[None, :, None]
    kz = np.fft.rfftfreq(field.shape[2])[None, None, :]
    k = np.sqrt(kx**2 + ky**2 + kz**2)

    k_flat = k.ravel()
    p_flat = spectrum.ravel()
    mask = (k_flat > 0.02) & (k_flat < 0.4) & (p_flat > 0)
    if mask.sum() < 16:
        # Degenerate spectrum (constant field): flat by definition.
        return 0.0
    log_k = np.log10(k_flat[mask])
    log_p = np.log10(p_flat[mask])
    slope, _ = np.polyfit(log_k, log_p, 1)
    return float(slope)


def check_combustion_like(field: np.ndarray) -> FieldStats:
    """Validate a field as combustion-like; returns stats, raises on
    failure.

    Requirements: localized (not space-filling, not empty), with a
    discernible reaction front and positive skew (most of the domain
    is cold).
    """
    stats = field_stats(field)
    problems = []
    if not 0.005 <= stats.occupancy <= 0.7:
        problems.append(
            f"occupancy {stats.occupancy:.3f} outside [0.005, 0.7]"
        )
    if stats.front_sharpness < 0.01:
        problems.append(
            f"front too diffuse ({stats.front_sharpness:.4f})"
        )
    if stats.skewness < 0.2:
        problems.append(f"skewness {stats.skewness:.2f} < 0.2")
    if problems:
        raise ValueError("not combustion-like: " + "; ".join(problems))
    return stats


def check_cosmology_like(field: np.ndarray) -> FieldStats:
    """Validate a field as cosmology-like; returns stats, raises on
    failure.

    Requirements: strongly skewed density contrast (halos over voids)
    and a red (negative-sloped) power spectrum -- structure at all
    scales, dominated by the large ones.
    """
    stats = field_stats(field)
    problems = []
    if stats.skewness < 1.0:
        problems.append(
            f"contrast too symmetric (skew {stats.skewness:.2f})"
        )
    if not -6.0 <= stats.spectral_slope <= -1.0:
        problems.append(
            f"spectral slope {stats.spectral_slope:.2f} outside "
            "[-6, -1]"
        )
    if problems:
        raise ValueError("not cosmology-like: " + "; ".join(problems))
    return stats
