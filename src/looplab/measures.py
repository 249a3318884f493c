"""Product measures on root subgroup coordinates: samplers and densities.

Each coordinate is independent.  eta/zeta factors have radial densities
((p-1)/pi)(1+|w|^2)^{-p} on the complex plane, chi factors are complex
Gaussians with density (r/pi) exp(-r |w|^2), and chi0 carries normalized
Haar measure on the torus.  Sampling is exact (inverse CDF; no MCMC).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import (ConvergenceFailure, InvalidInput, InvalidLevel, check_count,
                     check_level)
from .rootsub import RootCoordsSU2

__all__ = [
    "MeasureSpec",
    "GeneralCoords",
    "sample_coords",
    "sample_radial_sq",
    "log_density",
    "hellinger_vs_gaussian",
]


@contextmanager
def _overflow_is_invalid_level(level):
    """Raise InvalidLevel, with no numpy warning, where a finite level is so
    large that the exponents or rates computed from it overflow a float."""
    try:
        with np.errstate(over="raise"):
            yield
    except (OverflowError, FloatingPointError):
        raise InvalidLevel(f"level {level} overflows the exponents and rates") from None


@dataclass(frozen=True)
class MeasureSpec:
    """Per-coordinate density exponents and Gaussian rates of the measure.

    eta_exponents[i] is p for eta_i (i = 0..truncation-1), zeta_exponents[k-1]
    and chi_rates[j-1] cover indices 1..truncation.
    """

    level: float
    truncation: int
    eta_exponents: np.ndarray
    chi_rates: np.ndarray
    zeta_exponents: np.ndarray
    source: str = "su2"

    def __post_init__(self):
        check_level(self.level)
        check_count("truncation", self.truncation, 1)
        if not (isinstance(self.source, str)
                and (self.source == "su2" or self.source.startswith("general:"))):
            raise InvalidInput(f"source must be 'su2' or 'general:<label>', "
                               f"got {self.source!r}")
        for name in ("eta_exponents", "chi_rates", "zeta_exponents"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (self.truncation,):
                raise InvalidInput(f"{name} must hold truncation = "
                                   f"{self.truncation} entries, got shape {arr.shape}")
            if not np.isfinite(arr).all():
                raise InvalidInput(f"{name} must be finite")
            object.__setattr__(self, name, arr)
        # comparisons that NaN fails
        if not (np.all(self.eta_exponents > 1) and np.all(self.zeta_exponents > 1)):
            raise InvalidInput("all radial exponents must exceed 1 "
                               "(integrability)")
        if not np.all(self.chi_rates > 0):
            raise InvalidInput("all chi rates must be positive")

    @classmethod
    def su2(cls, level: float, truncation: int) -> "MeasureSpec":
        check_level(level)
        check_count("truncation", truncation, 1)
        s = level + 2.0
        i = np.arange(truncation)
        j = np.arange(1, truncation + 1)
        with _overflow_is_invalid_level(level):
            eta, chi, zeta = 2.0 + s * i, 2.0 * j * s, s * j
        return cls(level=level, truncation=truncation, eta_exponents=eta,
                   chi_rates=chi, zeta_exponents=zeta, source="su2")

    @classmethod
    def from_exponent_table(cls, table, truncation: int) -> "MeasureSpec":
        """General-K spec from an affine exponent table (see affine module).

        Coordinates are ordered by the table's own root ordering; only used
        for generic sampling and the A1-consistency check.
        """
        check_count("truncation", truncation, 1)
        with _overflow_is_invalid_level(float(table.level)):
            eta = [float(e) for (_, _, e) in table.eta_rows[:truncation]]
            zeta = [float(e) for (_, _, e) in table.zeta_rows[:truncation]]
            chi = 2.0 * np.asarray([float(r) for (_, r) in table.chi_rates[:truncation]])
        return cls(level=float(table.level), truncation=truncation, eta_exponents=eta,
                   chi_rates=chi, zeta_exponents=zeta, source=f"general:{table.label}")


@dataclass(frozen=True)
class GeneralCoords:
    """Flat coordinate record for a general-source MeasureSpec."""

    eta: np.ndarray
    chi0: complex
    chi: np.ndarray
    zeta: np.ndarray


def sample_radial_sq(p, rng: np.random.Generator, size=None) -> np.ndarray:
    """Draw s = |w|^2 with density (p-1)(1+s)^{-p} by inverse CDF."""
    p = np.asarray(p)
    if not np.all(p > 1):       # NaN fails the test too
        raise InvalidInput(f"radial exponents must exceed 1, got {p}")
    u = rng.random(size)
    return (1.0 - u) ** (-1.0 / (p - 1.0)) - 1.0


def _radial_complex(p, rng, size):
    s = sample_radial_sq(p, rng, size)
    phase = np.exp(2j * np.pi * rng.random(size))
    return np.sqrt(s) * phase


def sample_coords(spec: MeasureSpec, rng: np.random.Generator):
    """One exact draw of all truncated coordinates.

    Returns RootCoordsSU2 for the su2 source, GeneralCoords otherwise.
    """
    T = spec.truncation
    eta = _radial_complex(spec.eta_exponents, rng, T)
    sig = np.sqrt(0.5 / spec.chi_rates)
    chi = sig * (rng.standard_normal(T) + 1j * rng.standard_normal(T))
    chi0 = 1j * 2 * np.pi * rng.random()
    zeta = _radial_complex(spec.zeta_exponents, rng, T)
    if spec.source == "su2":
        return RootCoordsSU2(spec.level, eta, chi0, chi, zeta)
    return GeneralCoords(eta, chi0, chi, zeta)


def log_density(spec: MeasureSpec, coords) -> float:
    """Log of the product density at the given coordinates.

    chi0 contributes nothing (its factor is normalized Haar measure).
    """
    if (len(coords.eta) > len(spec.eta_exponents)
            or len(coords.chi) > len(spec.chi_rates)
            or len(coords.zeta) > len(spec.zeta_exponents)):
        raise InvalidInput("coordinates are longer than the spec's truncation")
    pe = spec.eta_exponents[:len(coords.eta)]
    pz = spec.zeta_exponents[:len(coords.zeta)]
    r = spec.chi_rates[:len(coords.chi)]
    out = float(np.sum(np.log((pe - 1) / np.pi)
                       - pe * np.log1p(np.abs(coords.eta) ** 2)))
    out += float(np.sum(np.log((pz - 1) / np.pi)
                        - pz * np.log1p(np.abs(coords.zeta) ** 2)))
    out += float(np.sum(np.log(r / np.pi) - r * np.abs(coords.chi) ** 2))
    return out


def hellinger_vs_gaussian(spec: MeasureSpec, index: int, kind: str) -> float:
    """Squared Hellinger distance of one coordinate factor from its Gaussian
    counterpart in the background measure.

    kind 'chi' factors coincide with the background, so the distance is 0.
    For 'eta'/'zeta' the background rate equals the density exponent p and

        H^2 = 2 - 2 * sqrt((p-1) p) * int_0^inf (1+s)^{-p/2} e^{-p s/2} ds.
    """
    check_count(f"{kind} index", index, 0)
    if kind == "chi":
        if not 1 <= index <= spec.truncation:
            raise InvalidInput("chi index out of range")
        return 0.0
    if kind == "eta":
        if not 0 <= index < spec.truncation:
            raise InvalidInput("eta index out of range")
        p = float(spec.eta_exponents[index])
    elif kind == "zeta":
        if not 1 <= index <= spec.truncation:
            raise InvalidInput("zeta index out of range")
        p = float(spec.zeta_exponents[index - 1])
    else:
        raise InvalidInput(f"unknown coordinate kind {kind!r}")
    from scipy.integrate import quad     # loaded on first use, not at import
    bc, err = quad(lambda s: np.exp(-0.5 * p * np.log1p(s) - 0.5 * p * s),
                   0.0, np.inf, epsabs=1e-13, epsrel=1e-12, limit=400)
    if err > 1e-9:
        raise ConvergenceFailure(f"Hellinger quadrature error {err:.1e}")
    bc *= np.sqrt((p - 1.0) * p)
    return float(max(2.0 - 2.0 * bc, 0.0))
