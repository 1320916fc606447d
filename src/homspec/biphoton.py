"""Entangled-pair joint spectral amplitude and its two-time counterpart.

Builds the exchange-phased two-photon amplitude produced by the preparation
interferometer on a uniform frequency lattice, Fourier-transforms it to the
(t1, t2) domain with the pair delay applied as a spectral phase, and provides
the narrow-amplitude (discrete delta) limit used by the short
entanglement-time signal formulas.

Fourier convention (unitary):
    Phi(t1, t2) = (2 pi)^-1 \\int dwa dwb Phi(wa, wb) exp(-i wa t1 - i wb t2)
so the L2 norm equals 1 in both domains.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Tuple

import numpy as np

__all__ = [
    "PumpSpec",
    "CrystalSpec",
    "GridAxis",
    "FrequencyGrid",
    "BiphotonAmplitude",
    "LineAmplitude",
    "DeltaAmplitude",
    "GridCoverageError",
    "build_jsa",
    "to_time_domain",
    "delta_limit_amplitude",
    "entanglement_time",
    "default_grid",
    "check_grid_size",
    "export_intensity",
]

COVERAGE_TOLERANCE = 1e-3
NORM_TOLERANCE = 1e-6

#: Bytes that one lattice of an amplitude's set-up may take (see
#: `check_grid_size`): 512 MiB, a 4096-sample grid with a real exchange factor.
LATTICE_BUDGET = 1 << 29

log = logging.getLogger(__name__)


class GridCoverageError(ValueError):
    """Raised when a frequency grid truncates too much amplitude mass."""


@dataclass(frozen=True)
class PumpSpec:
    """Gaussian pump envelope: center omega_p and bandwidth sigma_p (rad/fs)."""

    omega_p: float
    sigma_p: float

    def __post_init__(self) -> None:
        if self.omega_p <= 0:
            raise ValueError("pump center frequency must be positive")
        if self.sigma_p <= 0:
            raise ValueError("pump bandwidth must be positive")

    def envelope(self, omega) -> np.ndarray:
        # decaying Gaussian; the positive-exponent variant diverges
        # in place after the first difference: (-x) x = -(x x) bit for bit
        x = np.asarray(omega, dtype=float) - self.omega_p
        x /= self.sigma_p
        x *= x
        x *= -1.0
        return np.exp(x)


@dataclass(frozen=True)
class CrystalSpec:
    """Phase-matching data: beam centers (rad/fs) and group delays (fs)."""

    omega_a: float
    omega_b: float
    T_a: float
    T_b: float

    def __post_init__(self) -> None:
        if self.T_a == self.T_b and self.omega_a == self.omega_b:
            raise ValueError(
                "degenerate group delays and centers leave the amplitude "
                "exchange-symmetric and unnormalizable; make T_a != T_b or "
                "omega_a != omega_b"
            )

    def matching(self, omega_a, omega_b) -> np.ndarray:
        arg = (np.asarray(omega_a, dtype=float) - self.omega_a) * self.T_a \
            + (np.asarray(omega_b, dtype=float) - self.omega_b) * self.T_b
        arg /= np.pi
        return np.sinc(arg)  # sin(x)/x with value 1 at x = 0


def exchange_phase_factor(theta: float) -> complex:
    """exp(i theta), exact at the symmetry points 0 and +-pi."""
    if theta == 0.0:
        return 1.0 + 0.0j
    if abs(theta) == np.pi:
        return -1.0 + 0.0j
    return complex(np.cos(theta), np.sin(theta))


def pair_amplitude_point(pump: PumpSpec, crystal: CrystalSpec, theta: float,
                         omega_a, omega_b) -> np.ndarray:
    """Unnormalized exchange-phased amplitude at arbitrary frequency points.

    When the points are a square mesh (a column and a row of the same
    frequencies), the exchanged term is the direct one transposed, bit for
    bit, and is not evaluated again. A real exchange factor (theta = 0 or
    +-pi) gives a float64 result: the sum or difference of the two terms
    times 1 / sqrt(2), which is the complex formula's real part bit for bit
    (NumPy divides a complex array by a real number as a product with its
    reciprocal), its imaginary part being zero."""
    omega_a, omega_b = np.asarray(omega_a), np.asarray(omega_b)
    factor = exchange_phase_factor(theta)
    phi = pump.envelope(omega_a + omega_b)
    if (omega_a.ndim == omega_b.ndim == 2
            and omega_a.shape[1] == omega_b.shape[0] == 1
            and np.array_equal(omega_a[:, 0], omega_b[0])):
        phi *= crystal.matching(omega_a, omega_b)
        phi_ba = phi.T
    else:
        phi_ba = phi * crystal.matching(omega_b, omega_a)
        phi *= crystal.matching(omega_a, omega_b)
    if factor.imag != 0.0:
        return (phi + factor * phi_ba) / np.sqrt(2.0)
    out = phi + phi_ba if factor.real > 0.0 else phi - phi_ba
    out *= 1.0 / np.sqrt(2.0)
    return out


@dataclass(frozen=True)
class GridAxis:
    """Uniform lattice: n points spaced by `spacing`, centered on `center`."""

    center: float
    spacing: float
    n: int

    def __post_init__(self) -> None:
        if self.spacing <= 0 or self.n < 4:
            raise ValueError("grid axis needs positive spacing and n >= 4")

    def values(self) -> np.ndarray:
        return self.center + (np.arange(self.n) - self.n // 2) * self.spacing


@dataclass(frozen=True)
class FrequencyGrid:
    axis_a: GridAxis
    axis_b: GridAxis


def default_grid(pump: PumpSpec, crystal: CrystalSpec, n: int = 256,
                 theta: float = 0.0) -> FrequencyGrid:
    """Square grid (common center) sized by doubling the span until the
    coverage check passes.

    Besides frequency coverage, the spacing must leave the conjugate time
    lattice room for the amplitude's temporal extent (set by the group
    delays and the pump duration); if both cannot be met at this n, the
    error says how large a grid is needed.
    """
    center = 0.5 * (crystal.omega_a + crystal.omega_b)
    t_half = 1.5 * (max(abs(crystal.T_a), abs(crystal.T_b)) + 6.0 / pump.sigma_p)
    half = 6.0 * pump.sigma_p
    for doublings in range(8):
        spacing = 2 * half / n
        if spacing > np.pi / t_half:
            need = int(np.ceil(2 * half * t_half / np.pi))
            raise GridCoverageError(
                f"{n} samples cannot cover +-{half:.3g} rad/fs without "
                f"aliasing the +-{t_half:.3g} fs time window; increase the "
                f"grid to >= {need} samples per axis")
        axis = GridAxis(center, spacing, n)
        grid = FrequencyGrid(axis, axis)
        coverage = _coverage(pump, crystal, theta, grid)[0]
        if coverage >= 1.0 - COVERAGE_TOLERANCE:
            log.debug("default grid: n=%d spacing=%.6g rad/fs half-span=%.6g "
                      "rad/fs coverage=%.9f after %d span doublings", n,
                      spacing, half, coverage, doublings)
            return grid
        half *= 2.0
    raise GridCoverageError("could not find a covering grid within 8 doublings")


def _mass(vals: np.ndarray, axis_a: GridAxis, axis_b: GridAxis) -> float:
    return float(np.sum(np.abs(vals) ** 2) * axis_a.spacing * axis_b.spacing)


def _pad_factor(n: int) -> int:
    """The default zero-padding of an n-sample axis: ~1024 time samples."""
    return max(1, 1024 // n)


def check_grid_size(n: int, theta: float) -> None:
    """Refuse an n-sample grid whose set-up would allocate a lattice above
    `LATTICE_BUDGET`: the doubled coverage lattice, (2n)^2 float64 values
    for a real exchange factor (theta = 0 or +-pi), else complex128, or the
    two-time envelope, (pad n)^2 complex128."""
    item = 8 if exchange_phase_factor(theta).imag == 0.0 else 16
    planned = max(4 * n * n * item, (_pad_factor(n) * n) ** 2 * 16)
    if planned > LATTICE_BUDGET:
        raise ValueError(f"a {n}-sample grid plans a {planned / 2**30:.3g} GiB "
                         f"lattice, above the {LATTICE_BUDGET >> 20} MiB "
                         f"budget; lower grid.n")


@functools.lru_cache(maxsize=1)
def _coverage(pump, crystal, theta,
              grid: FrequencyGrid) -> Tuple[float, np.ndarray]:
    """Fraction of L2 mass the grid captures, vs a span-doubled reference,
    and the unnormalized amplitude on the grid: the reference's centre
    block, whose frequencies equal `GridAxis.values()` bit for bit.

    The last result is kept (all arguments are frozen specs or floats), so
    `build_jsa` on the grid `default_grid` just accepted reuses its doubled
    lattice instead of evaluating it again; the block is read-only because
    every caller shares it. A grid above `check_grid_size`'s budget is
    refused before anything is allocated."""
    a, b = grid.axis_a, grid.axis_b
    check_grid_size(max(a.n, b.n), theta)
    wa = GridAxis(a.center, a.spacing, 2 * a.n).values()
    wb = GridAxis(b.center, b.spacing, 2 * b.n).values()
    wide = pair_amplitude_point(pump, crystal, theta, wa[:, None], wb[None, :])
    # wide node m sits at offset m - n, grid node k at k - n // 2
    ka, kb = a.n - a.n // 2, b.n - b.n // 2
    # a copy, so the doubled lattice is freed on return
    vals = wide[ka:ka + a.n, kb:kb + b.n].copy()
    vals.flags.writeable = False
    total = _mass(wide, a, b)
    if total == 0.0:
        raise GridCoverageError("amplitude vanishes on the doubled grid")
    return _mass(vals, a, b) / total, vals


@dataclass
class BiphotonAmplitude:
    """Two-photon amplitude on a frequency lattice plus its two-time
    envelope.

    Immutable after construction. `values` is L2-normalized on the grid.
    The two-time amplitude Phi is the unitary transform of `values` with
    the pair delay `s` applied as a spectral phase on `delay_arm` before
    transforming; only its carrier-demodulated `envelope` E = Phi e^{i ca t1
    + i cb t2} is stored. |E| = |Phi|, so the time norm, the support box
    and the arrival-time centroid read E, through one blocked scan of it
    (`_scan`: the row and column maxima of |E| and sums of |E|^2), which
    `to_time_domain` makes when it builds the envelope and keeps on the
    amplitude; an amplitude built by hand scans on first use. `time_values`
    restores Phi on the whole lattice when a caller needs it.
    """

    theta: Optional[float]
    s: float
    delay_arm: str
    omega_a: np.ndarray
    omega_b: np.ndarray
    values: np.ndarray
    t1: np.ndarray = field(default=None, repr=False)
    t2: np.ndarray = field(default=None, repr=False)
    # carrier-demodulated envelope: the lattice undersamples the optical
    # carrier, so interpolation must happen on the envelope
    envelope: np.ndarray = field(default=None, repr=False)
    _carrier: Tuple[float, float] = field(default=(0.0, 0.0), repr=False)

    @property
    def d_omega_a(self) -> float:
        return float(self.omega_a[1] - self.omega_a[0])

    @property
    def d_omega_b(self) -> float:
        return float(self.omega_b[1] - self.omega_b[0])

    @property
    def dt1(self) -> float:
        return float(self.t1[1] - self.t1[0])

    @property
    def dt2(self) -> float:
        return float(self.t2[1] - self.t2[0])

    def frequency_norm(self) -> float:
        return float(np.sum(np.abs(self.values) ** 2) * self.d_omega_a * self.d_omega_b)

    @property
    def time_values(self) -> np.ndarray:
        """Phi on the (t1, t2) lattice: the envelope with its carrier phase
        restored, a new array on every call."""
        ca, cb = self._carrier
        return (self.envelope * np.exp(-1j * ca * self.t1)[:, None]
                * np.exp(-1j * cb * self.t2)[None, :])

    @functools.cached_property
    def _square(self) -> bool:
        """Whether t1 and t2 are one lattice with one carrier: then both
        axes give a coordinate the same stencil, and Phi(y, x) reads the
        transposed envelope with the stencils of Phi(x, y)."""
        return (self._carrier[0] == self._carrier[1]
                and np.array_equal(self.t1, self.t2))

    @functools.cached_property
    def _scan(self) -> "_EnvelopeScan":
        """One pass over the envelope in blocks of `_ROW_BLOCK` rows, so no
        lattice-sized |E| or |E|^2 is formed.

        The sums equal `w.sum(axis=1)` and `w.sum(axis=0)` of w = |E|^2 on
        the whole lattice bit for bit: a row sums within its block, and a
        column adds row after row, as NumPy reduces axis 0, because the
        column sums so far stand as the first row of the next block's
        reduction."""
        n, m = self.envelope.shape
        row_max, rows = np.empty(n), np.empty(n)
        col_max = np.zeros(m)
        # row 0: the column sums of the blocks before; then one block's |E|
        work = np.zeros((_ROW_BLOCK + 1, m))
        for i in range(0, n, _ROW_BLOCK):
            block = slice(i, i + _ROW_BLOCK)
            mag = np.abs(self.envelope[block],
                         out=work[1:1 + min(_ROW_BLOCK, n - i)])
            row_max[block] = mag.max(axis=1)
            np.maximum(col_max, mag.max(axis=0), out=col_max)
            mag *= mag
            rows[block] = mag.sum(axis=1)
            work[0] = work[:1 + mag.shape[0]].sum(axis=0)
        return _EnvelopeScan(row_max, col_max, rows, work[0].copy())

    def time_norm(self) -> float:
        return float(self._scan.rows.sum() * self.dt1 * self.dt2)

    def _stencil(self, axis: int, coord) -> Tuple[np.ndarray, np.ndarray,
                                                  np.ndarray]:
        """Interpolation stencil of coordinates on one lattice axis: the
        lower node of each coordinate's cell and the weights of the cell's
        two nodes, with the axis' carrier phase e^{-i c x} folded in. Both
        weights are zero off the lattice; the rule is per axis, so the
        two-time stencil is the product of two of these."""
        grid = self.t2 if axis else self.t1
        coord = np.asarray(coord, dtype=float)
        f = (coord - grid[0]) / (grid[1] - grid[0])
        cell = np.floor(f).astype(int)
        inside = (cell >= 0) & (cell < grid.size - 1)
        cell = np.where(inside, cell, 0)  # any node will do: its weights are 0
        w = f - cell
        phase = np.where(inside, np.exp(-1j * self._carrier[axis] * coord), 0.0)
        return cell, (1.0 - w) * phase, w * phase

    def time_value(self, x, y, *, stencils=None) -> np.ndarray:
        """Two-time amplitude at arbitrary points (zero off-lattice).

        Bilinear interpolation of the carrier-demodulated envelope, with the
        carrier phase restored at the query point; exact on lattice nodes.
        `stencils`, when given, are the `_stencil`s of x on axis 0 and of y
        on axis 1, made by the caller (the row quadrature keeps one per
        distinct coordinate array of a batch).
        """
        (ix, x0, x1), (iy, y0, y1) = stencils or (self._stencil(0, x),
                                                  self._stencil(1, y))
        v = self.envelope
        return ((v[ix, iy] * x0 + v[ix + 1, iy] * x1) * y0
                + (v[ix, iy + 1] * x0 + v[ix + 1, iy + 1] * x1) * y1)

    def time_support(self) -> Tuple[float, float, float, float]:
        """Bounding box (t1_lo, t1_hi, t2_lo, t2_hi) where the amplitude
        exceeds 1e-6 of its peak magnitude, from the row and column maxima
        of |E| in `_scan`."""
        scan = self._scan
        thresh = 1e-6 * scan.row_max.max()
        rows = np.flatnonzero(scan.row_max > thresh)
        cols = np.flatnonzero(scan.col_max > thresh)
        return (float(self.t1[rows[0]]), float(self.t1[rows[-1]]),
                float(self.t2[cols[0]]), float(self.t2[cols[-1]]))

    def content_hash(self) -> str:
        import hashlib

        h = hashlib.sha256()
        for arr in (self.omega_a, self.omega_b, self.values):
            h.update(np.ascontiguousarray(arr).tobytes())
        h.update(repr((self.theta, self.s, self.delay_arm)).encode())
        return h.hexdigest()[:16]


#: Rows per block of the envelope scan; bounds its temporaries.
_ROW_BLOCK = 64


class _EnvelopeScan(NamedTuple):
    """Per-row and per-column maxima of |E| and sums of |E|^2 (of |Phi|, as
    |E| = |Phi|) on the two-time lattice: `BiphotonAmplitude._scan`."""

    row_max: np.ndarray
    col_max: np.ndarray
    rows: np.ndarray
    cols: np.ndarray


def _axis_transform_phases(omega: np.ndarray, n_pad: int):
    """One axis of the padded transform: its centred time lattice t, the
    phase on the frequency samples that centres it, the axis' carrier c (the
    middle of its frequency span) and the phase that maps the transform's
    bins onto the envelope, e^{-i omega[0] t} e^{i c t}. It is formed as
    that product, so the carrier that `time_values` removes again,
    e^{-i c t}, cancels its factor to rounding whatever the size of c t."""
    c = n_pad // 2
    dt = 2.0 * np.pi / (n_pad * (omega[1] - omega[0]))
    t = (np.arange(n_pad) - c) * dt
    pre = np.exp(2j * np.pi * np.arange(omega.size) * c / n_pad)
    carrier = 0.5 * (omega[0] + omega[-1])
    return t, pre, carrier, np.exp(-1j * omega[0] * t) * np.exp(1j * carrier * t)


def to_time_domain(amp: BiphotonAmplitude, s: Optional[float] = None,
                   pad_factor: Optional[int] = None) -> BiphotonAmplitude:
    """Return a copy with the two-time envelope (re)computed.

    The delay multiplies the delayed arm's frequency axis by exp(i w s)
    before transforming, which translates the time-domain array along that
    arm's time axis (photon delayed by s). Zero-padding (`pad_factor`, by
    default chosen to reach ~1024 time samples per axis) densifies the time
    lattice so envelope interpolation between nodes stays accurate.

    The padded 2-D transform is done axis by axis on the data block alone:
    first along axis a over the block's nb columns, then along axis b over
    every row, so neither the zero-padded input nor the transform of its
    zero columns is formed (this agrees with `np.fft.fft2` of the padded
    array to rounding, not bit for bit). The envelope is the one lattice
    stored: the unitary scale and the axis-a phase go onto the narrower
    first transform, the axis-b phase onto the second in place. One blocked
    scan of |E| = |Phi| (kept as the copy's `_scan`) then gives the time
    norm, the boundary mass, the support box and the arrival-time marginals,
    without forming |Phi|^2 on the whole lattice; at `SIM_LOG=debug` one
    record reports the lattice, the pad factor, the support box, the time
    norm and the boundary mass.
    """
    if s is None:
        s = amp.s
    vals = amp.values
    if s != 0.0:
        if amp.delay_arm == "a":
            vals = vals * np.exp(1j * amp.omega_a * s)[:, None]
        elif amp.delay_arm == "b":
            vals = vals * np.exp(1j * amp.omega_b * s)[None, :]
        else:
            raise ValueError(f"delay_arm must be 'a' or 'b', got {amp.delay_arm!r}")
    na, nb = vals.shape
    if pad_factor is None:
        pad_factor = _pad_factor(max(na, nb))
    npa, npb = pad_factor * na, pad_factor * nb
    t1, pre_a, ca, post_a = _axis_transform_phases(amp.omega_a, npa)
    t2, pre_b, cb, post_b = _axis_transform_phases(amp.omega_b, npb)
    half = np.fft.fft(vals * pre_a[:, None] * pre_b[None, :], n=npa, axis=0)
    half *= (amp.d_omega_a * amp.d_omega_b / (2.0 * np.pi)) * post_a[:, None]
    envelope = np.fft.fft(half, n=npb, axis=1)
    del half
    envelope *= post_b[None, :]
    out = BiphotonAmplitude(
        theta=amp.theta, s=s, delay_arm=amp.delay_arm,
        omega_a=amp.omega_a, omega_b=amp.omega_b, values=amp.values,
        t1=t1, t2=t2, envelope=envelope, _carrier=(ca, cb),
    )
    fnorm = out.frequency_norm()
    tnorm = out.time_norm()
    if abs(fnorm - 1.0) > NORM_TOLERANCE or abs(tnorm - 1.0) > NORM_TOLERANCE:
        raise ValueError(
            f"normalization broken: |Phi|^2 integrates to {fnorm:.9f} "
            f"(frequency) / {tnorm:.9f} (time)"
        )
    # the two outer rows and columns, corners counted twice
    rows, cols = out._scan.rows, out._scan.cols
    edge = float(rows[:2].sum() + rows[-2:].sum() + cols[:2].sum()
                 + cols[-2:].sum()) * out.dt1 * out.dt2
    if edge > 1e-4:
        raise GridCoverageError(
            f"time-domain amplitude wraps the lattice (boundary mass "
            f"{edge:.2e}); refine the frequency spacing (more samples or a "
            f"tighter span)"
        )
    if log.isEnabledFor(logging.DEBUG):
        log.debug("two-time lattice: %dx%d, pad factor %d, support t1 "
                  "[%.6g, %.6g] t2 [%.6g, %.6g] fs, time norm %.12f, "
                  "boundary mass %.3e", npa, npb, pad_factor,
                  *out.time_support(), tnorm, edge)
    return out


def from_frequency_values(omega_a: np.ndarray, omega_b: np.ndarray,
                          values: np.ndarray, *, theta: Optional[float] = None,
                          s: float = 0.0, delay_arm: str = "a",
                          pad_factor: Optional[int] = None) -> BiphotonAmplitude:
    """Normalize explicit frequency-domain values and transform them to the
    two-time envelope (`pad_factor` as in `to_time_domain`)."""
    omega_a = np.asarray(omega_a, dtype=float)
    omega_b = np.asarray(omega_b, dtype=float)
    values = np.asarray(values, dtype=complex)
    da = omega_a[1] - omega_a[0]
    db = omega_b[1] - omega_b[0]
    norm = np.sqrt(np.sum(np.abs(values) ** 2) * da * db)
    if norm == 0.0:
        raise ValueError("amplitude is identically zero")
    amp = BiphotonAmplitude(theta=theta, s=s, delay_arm=delay_arm,
                            omega_a=omega_a, omega_b=omega_b,
                            values=values / norm)
    return to_time_domain(amp, pad_factor=pad_factor)


def build_jsa(pump: PumpSpec, crystal: CrystalSpec, theta: float,
              grid: FrequencyGrid, *, s: float = 0.0,
              delay_arm: str = "a") -> BiphotonAmplitude:
    """Exchange-phased, L2-normalized joint spectral amplitude on `grid`.

    Refuses grids that capture less than 1 - 1e-3 of the amplitude's L2 mass
    (checked against a span-doubled reference lattice at the same spacing).
    """
    coverage, raw = _coverage(pump, crystal, theta, grid)
    if coverage < 1.0 - COVERAGE_TOLERANCE:
        raise GridCoverageError(
            f"grid captures only {coverage:.6f} of the amplitude's L2 mass "
            f"(need >= {1.0 - COVERAGE_TOLERANCE}); widen the span or "
            f"increase n"
        )
    return from_frequency_values(grid.axis_a.values(), grid.axis_b.values(),
                                 raw, theta=theta, s=s, delay_arm=delay_arm)


def delta_limit_amplitude(t1, t2, s: float, grid_spacing: float,
                          convention: str = "area_one") -> np.ndarray:
    """Discrete stand-in for the narrow two-time amplitude.

    Nonzero on the band |t1 - t2 - s| < grid_spacing / 2; the `area_one`
    convention returns 1/grid_spacing there (unit Riemann mass along t1),
    `value_one` returns 1. Points within 1e-9 * grid_spacing of the band
    edge count at half height, so a lattice whose nodes fall on both edges
    keeps the band's Riemann mass, and rounding in how the arguments were
    summed cannot move a node in or out of the band.
    """
    if grid_spacing <= 0:
        raise ValueError("grid_spacing must be positive")
    if convention == "area_one":
        height = 1.0 / grid_spacing
    elif convention == "value_one":
        height = 1.0
    else:
        raise ValueError(f"unknown delta convention {convention!r}")
    u = np.abs(np.asarray(t1, dtype=float) - np.asarray(t2, dtype=float) - s)
    edge, tol = grid_spacing / 2.0, 1e-9 * grid_spacing
    return np.where(u < edge - tol, height,
                    np.where(u <= edge + tol, 0.5 * height, 0.0))


@dataclass(frozen=True)
class LineAmplitude:
    """A two-time amplitude of t1 - t2 alone, Phi(t1, t2) = profile(t1 - t2),
    of a pair delayed by s; a line, without a support box."""

    s: float

    def profile(self, u) -> np.ndarray:
        raise NotImplementedError

    def time_value(self, x, y) -> np.ndarray:
        """Phi(x, y)."""
        return self.profile(np.asarray(x, float) - np.asarray(y, float))

    def time_support(self):
        return None


@dataclass(frozen=True)
class DeltaAmplitude(LineAmplitude):
    """The area-one discrete delta of `delta_limit_amplitude`."""

    spacing: float

    def profile(self, u) -> np.ndarray:
        return delta_limit_amplitude(u, 0.0, self.s, self.spacing)


def entanglement_time(amp: BiphotonAmplitude) -> float:
    """RMS width of |Phi(t1, t2)|^2 along the t1 - t2 axis (fs), from the
    marginals of w = |Phi|^2 and a.w.b for centred t1 (a) and t2 (b)."""
    w = np.abs(amp.envelope)  # |E| = |Phi|
    w *= w
    rows, cols = w.sum(axis=1), w.sum(axis=0)
    total = rows.sum()
    if total == 0.0:
        raise ValueError("amplitude is identically zero")
    a = amp.t1 - amp.t1 @ rows / total
    b = amp.t2 - amp.t2 @ cols / total
    var = (a * a @ rows + b * b @ cols - 2.0 * a @ (w @ b)) / total
    return float(np.sqrt(var))


def export_intensity(amp: BiphotonAmplitude, path, domain: str = "frequency") -> None:
    """Write |Phi|^2 as a tab-separated matrix with '#' header metadata."""
    if domain == "frequency":
        x, y, vals = amp.omega_a, amp.omega_b, np.abs(amp.values) ** 2
        unit = "rad/fs"
    elif domain == "time":
        x, y, vals = amp.t1, amp.t2, np.abs(amp.time_values) ** 2
        unit = "fs"
    else:
        raise ValueError(f"domain must be 'frequency' or 'time', got {domain!r}")
    with open(path, "w") as fh:
        fh.write(f"# biphoton intensity, {domain} domain, row axis first\n")
        fh.write(f"# rows: axis a, {x[0]:.12g} .. {x[-1]:.12g} {unit}, n={x.size}\n")
        fh.write(f"# cols: axis b, {y[0]:.12g} .. {y[-1]:.12g} {unit}, n={y.size}\n")
        fh.write(f"# theta={amp.theta} s={amp.s} delay_arm={amp.delay_arm}\n")
        for row in vals:
            fh.write("\t".join(f"{v:.12g}" for v in row) + "\n")
