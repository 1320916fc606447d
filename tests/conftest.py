from dataclasses import dataclass

import numpy as np
import pytest

from homspec.biphoton import LineAmplitude, from_frequency_values
from homspec.model import ExcitonSystem, Level, LiouvilleOperatorSet


@pytest.fixture
def two_level():
    return ExcitonSystem(
        levels=[Level("g0", "g", 0.0), Level("e0", "e", 1.0)],
        dipoles_ge=[[1.0]],
        dephasing_default=0.1,
    )


@pytest.fixture
def ladder():
    """Three-level ladder with unit lower and 0.8 upper dipole."""
    return ExcitonSystem(
        levels=[Level("g0", "g", 0.0), Level("e0", "e", 0.9),
                Level("f0", "f", 1.75)],
        dipoles_ge=[[1.0]],
        dipoles_ef=[[0.8]],
        dephasing_default=0.08,
    )


@pytest.fixture
def ladder_ops(ladder):
    return LiouvilleOperatorSet(ladder)


def gaussian_amplitude(center=1.0, sigma_sum=0.3, sigma_diff=0.5, n=192,
                       half_span=2.0, s=0.0, delay_arm="a"):
    """Correlated Gaussian two-photon amplitude (analytic, compact tails)."""
    w = np.linspace(center - half_span, center + half_span, n)
    wa, wb = w[:, None], w[None, :]
    vals = np.exp(-((wa + wb - 2 * center) / sigma_sum) ** 2
                  - ((wa - wb) / sigma_diff) ** 2)
    return from_frequency_values(w, w, vals, s=s, delay_arm=delay_arm)


def non_square_gaussian(s=0.0):
    """Gaussian pair amplitude on a 96 x 128 grid with unequal spans and
    centres: its t1 and t2 lattices and carriers differ."""
    wa = np.linspace(1.0 - 2.0, 1.0 + 2.0, 96)
    wb = np.linspace(0.9 - 1.5, 0.9 + 1.5, 128)
    vals = np.exp(-((wa[:, None] + wb[None, :] - 1.9) / 0.3) ** 2
                  - ((wa[:, None] - wb[None, :] - 0.1) / 0.5) ** 2)
    return from_frequency_values(wa, wb, vals, s=s)


@dataclass(frozen=True)
class GaussLine(LineAmplitude):
    """Normalized narrow ridge along t1 - t2 = s: a smooth stand-in for the
    discrete delta."""

    sigma: float

    def profile(self, u):
        u = np.asarray(u) - self.s
        return np.exp(-u ** 2 / (2 * self.sigma ** 2)) / (self.sigma * np.sqrt(2 * np.pi))


@pytest.fixture
def gauss_amp():
    return gaussian_amplitude()
