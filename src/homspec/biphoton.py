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
import itertools
import logging
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

__all__ = [
    "PumpSpec",
    "CrystalSpec",
    "GridAxis",
    "FrequencyGrid",
    "BiphotonAmplitude",
    "DeltaAmplitude",
    "GridCoverageError",
    "LatticeFactor",
    "build_jsa",
    "to_time_domain",
    "delta_limit_amplitude",
    "entanglement_time",
    "default_grid",
    "export_intensity",
]

COVERAGE_TOLERANCE = 1e-3
NORM_TOLERANCE = 1e-6

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
        x = (np.asarray(omega, dtype=float) - self.omega_p) / self.sigma_p
        return np.exp(-x * x)


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
        return np.sinc(arg / np.pi)  # sin(x)/x with value 1 at x = 0


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

    When the points are a mesh whose omega_b is omega_a transposed (a column
    and a row of the same frequencies, as on a square grid), the exchanged
    term is the direct one transposed, bit for bit, and is not evaluated
    again."""
    omega_a, omega_b = np.asarray(omega_a), np.asarray(omega_b)
    direct = pump.envelope(omega_a + omega_b)
    phi_ab = direct * crystal.matching(omega_a, omega_b)
    shape = phi_ab.shape
    if len(shape) == 2 and shape[0] == shape[1] and np.all(
            np.broadcast_to(omega_a, shape).T == omega_b):
        phi_ba = phi_ab.T
    else:
        phi_ba = direct * crystal.matching(omega_b, omega_a)
    return (phi_ab + exchange_phase_factor(theta) * phi_ba) / np.sqrt(2.0)


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


@functools.lru_cache(maxsize=1)
def _coverage(pump, crystal, theta,
              grid: FrequencyGrid) -> Tuple[float, np.ndarray]:
    """Fraction of L2 mass the grid captures, vs a span-doubled reference,
    and the unnormalized amplitude on the grid: the reference's centre
    block, whose frequencies equal `GridAxis.values()` bit for bit.

    The last result is kept (all arguments are frozen specs or floats), so
    `build_jsa` on the grid `default_grid` just accepted reuses its doubled
    lattice instead of evaluating it again; the block is read-only because
    every caller shares it."""
    a, b = grid.axis_a, grid.axis_b
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

    Immutable after construction, apart from the support box that
    `time_support` computes and stores on first use. `values` is
    L2-normalized on the grid. The two-time amplitude Phi is the unitary
    transform of `values` with the pair delay `s` applied as a spectral
    phase on `delay_arm` before transforming; only its carrier-demodulated
    `envelope` E = Phi e^{i ca t1 + i cb t2} is stored. |E| = |Phi|, so
    norms, the support box and the arrival-time centroid read E;
    `time_values` restores Phi on the whole lattice when a caller needs it.
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
    _support: Optional[Tuple[float, float, float, float]] = field(
        default=None, init=False, repr=False, compare=False)

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

    def time_norm(self) -> float:
        return float(np.vdot(self.envelope, self.envelope).real
                     * self.dt1 * self.dt2)

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

    def _cached_stencil(self, axis: int, coord, memo: Optional[dict]):
        """`_stencil`, kept in `memo` (when given) by the coordinates'
        bytes: a caller that holds one memo per batch of (tau, T) points
        interpolates each distinct coordinate array once per batch. On a
        square lattice both axes share an entry."""
        if memo is None:
            return self._stencil(axis, coord)
        coord = np.asarray(coord, dtype=float)
        key = self._stencil_key(axis, coord)
        stencil = memo.get(key)
        if stencil is None:
            stencil = memo[key] = self._stencil(axis, coord)
        return stencil

    def _stencil_key(self, axis: int, coord: np.ndarray):
        """A memo key of `coord` on `axis`: (axis, shape, bytes), the axis
        0 for both on a square lattice."""
        return (0 if self._square else axis, coord.shape, coord.tobytes())

    def _repeated_coordinate(self, axes, coord, counts, memo: dict,
                             into: dict) -> np.ndarray:
        """np.repeat(coord, counts), with its stencil on each of `axes` put
        in `into` as the stencil of `coord` repeated, and that of `coord`
        kept in `memo` (see `_cached_stencil`): a coordinate that many
        nodes share is interpolated once, and its repeated stencil lives
        only as long as `into`."""
        coord = np.asarray(coord, dtype=float)
        out = np.repeat(coord, counts)
        for axis in axes:
            into[self._stencil_key(axis, out)] = tuple(
                np.repeat(a, counts)
                for a in self._cached_stencil(axis, coord, memo))
        return out

    def time_value(self, x, y, memo: Optional[dict] = None) -> np.ndarray:
        """Two-time amplitude at arbitrary points (zero off-lattice).

        Bilinear interpolation of the carrier-demodulated envelope, with the
        carrier phase restored at the query point; exact on lattice nodes.
        `memo` keeps the stencils (see `_cached_stencil`).
        """
        ix, x0, x1 = self._cached_stencil(0, x, memo)
        iy, y0, y1 = self._cached_stencil(1, y, memo)
        v = self.envelope
        return ((v[ix, iy] * x0 + v[ix + 1, iy] * x1) * y0
                + (v[ix, iy + 1] * x0 + v[ix + 1, iy + 1] * x1) * y1)

    def lattice_factor(self, rows, cols, sheared: bool, swap: bool,
                       bracket: bool,
                       memo: Optional[dict] = None) -> "LatticeFactor":
        """Phi(rows[i], cols[k]) on the (i, j) mesh, with k = j, or k = i + j
        when `sheared` (`cols` then holds rows.size + n - 1 coordinates for
        n mesh columns, as when one argument moves with tau3 and the other
        with tau3 + tau4); Phi(cols[k], rows[i]) with `swap`, and the sum of
        both with `bracket`. One stencil per coordinate, no per-node
        exponential; the mesh is contracted, not formed (see
        `LatticeFactor`). On a square lattice a bracket is one contraction
        of E + E^T (both orientations share their stencils); elsewhere it
        takes one per orientation. `memo` keeps the stencils (see
        `_cached_stencil`)."""
        n = cols.size - rows.size + 1 if sheared else cols.size
        folded = bracket and self._square
        parts = []
        for flip in ((swap, not swap) if bracket and not folded else (swap,)):
            # the envelope axis of the row coordinates comes first
            parts.append((self.envelope.T if flip else self.envelope,
                          self._cached_stencil(int(flip), rows, memo),
                          self._cached_stencil(1 - int(flip), cols, memo)))
        return LatticeFactor((rows.size, n), sheared, tuple(parts), folded)

    def time_support(self) -> Tuple[float, float, float, float]:
        """Bounding box (t1_lo, t1_hi, t2_lo, t2_hi) where the amplitude
        exceeds 1e-6 of its peak magnitude; scanned once, on first use."""
        if self._support is None:
            mag = np.abs(self.envelope)
            thresh = 1e-6 * mag.max()
            rows = np.where(mag.max(axis=1) > thresh)[0]
            cols = np.where(mag.max(axis=0) > thresh)[0]
            self._support = (float(self.t1[rows[0]]), float(self.t1[rows[-1]]),
                             float(self.t2[cols[0]]), float(self.t2[cols[-1]]))
        return self._support

    def content_hash(self) -> str:
        import hashlib

        h = hashlib.sha256()
        for arr in (self.omega_a, self.omega_b, self.values):
            h.update(np.ascontiguousarray(arr).tobytes())
        h.update(repr((self.theta, self.s, self.delay_arm)).encode())
        return h.hexdigest()[:16]


#: Mesh rows contracted per block by `LatticeFactor`; bounds its temporaries.
_ROW_BLOCK = 64


def _scatter(stencil, X: np.ndarray) -> Tuple[np.ndarray, int]:
    """S X for the (lattice x nodes) interpolation matrix S of a stencil,
    restricted to the lattice nodes its live coordinates touch: returns
    those rows and the index of the first one."""
    cell, w0, w1 = stencil
    live = np.flatnonzero(w0)
    if not live.size:
        return np.zeros((0, X.shape[1]), complex), 0
    cell, X = cell[live], X[live]
    lo = cell.min()
    out = np.zeros((cell.max() - lo + 2, X.shape[1]), complex)
    np.add.at(out, cell - lo, w0[live, None] * X)
    np.add.at(out, cell + 1 - lo, w1[live, None] * X)
    return out, lo


def _band(v: np.ndarray, rows: slice, cols: slice,
          folded: bool) -> np.ndarray:
    """The block v[rows, cols], or (v + v^T)[rows, cols] when `folded`."""
    band = v[rows, cols]
    return band + v[cols, rows].T if folded else band


@dataclass(frozen=True)
class LatticeFactor:
    """A two-time amplitude factor on an (n3, n4) node mesh, held as 1-D
    interpolation stencils of the envelope lattice.

    Entry (i, j) is sum over `parts` of sum_ab r_a[i] c_b[k] v[ir[i] + a,
    ic[k] + b], with k = j, or k = i + j when `sheared`; each part is an
    envelope orientation v with its row stencil (ir, r0, r1) and column
    stencil (ic, c0, c1). When `folded`, each part reads v + v^T instead of
    v, a bracket contracted once; that sum is formed only on the blocks of
    nodes a contraction touches. `contract` never forms the mesh;
    `np.asarray` does, for comparison.
    """

    shape: Tuple[int, int]
    sheared: bool
    parts: tuple
    folded: bool = False
    ndim = 2

    def contract(self, A: np.ndarray, B: np.ndarray) -> complex:
        """sum_p A[:, p]^T H B[:, p] for this factor H, A (n3, P), B (n4, P)."""
        return complex(self.contract_terms(A, B).sum())

    def contract_terms(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """A[:, p]^T H B[:, p] for each p, as a (P,) array."""
        total = np.zeros(A.shape[1], complex)
        for v, rows, cols in self.parts:
            if self.sheared:
                total += _contract_sheared(v, rows, cols, A, B, self.folded)
            else:
                # S_r^T V S_c: scatter both sides onto the envelope, then one
                # product with the band of envelope nodes they touch
                U, lo = _scatter(rows, A)
                W, k0 = _scatter(cols, B)
                band = _band(v, slice(lo, lo + U.shape[0]),
                             slice(k0, k0 + W.shape[0]), self.folded)
                total += (U * (band @ W)).sum(axis=0)
        return total

    def block(self, rows: slice, cols: slice) -> "LatticeFactor":
        """One point's factor out of a batch: this factor built on the
        concatenated coordinates of several points, restricted to the
        stencils of one point's `rows` and `cols` (slices of them)."""
        n3, n = rows.stop - rows.start, cols.stop - cols.start
        return LatticeFactor(
            (n3, n - n3 + 1 if self.sheared else n), self.sheared,
            tuple((v, tuple(a[rows] for a in r), tuple(a[cols] for a in c))
                  for v, r, c in self.parts), self.folded)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        n3, n4 = self.shape
        k = np.arange(n4)[None, :] + (np.arange(n3)[:, None] if self.sheared
                                      else 0)
        out = np.zeros(self.shape, complex)
        for v, (ir, *r), (ic, *c) in self.parts:
            for a, b in itertools.product((0, 1), (0, 1)):
                node = ir[:, None] + a, ic[k] + b
                val = v[node] + v[node[::-1]] if self.folded else v[node]
                out += r[a][:, None] * c[b][k] * val
        return out if dtype is None else out.astype(dtype)


def _contract_sheared(v: np.ndarray, row_stencil, col_stencil, A: np.ndarray,
                      B: np.ndarray, folded: bool) -> np.ndarray:
    """sum_ij A[i, p] H[i, j] B[j, p] for each term p, as a (P,) array, for
    H[i, j] = sum_ab r_a[i] c_b[i + j] v[ir[i] + a, ic[i + j] + b], with
    v + v^T for v when `folded`.

    Rows go in blocks: each block interpolates the band of envelope nodes it
    touches at the column stencil, picks its two rows per mesh row,
    contracts them with B along the sheared window (a strided view) and
    weights them by A r0 and A r1, so no temporary has the mesh's size.
    The band is taken transposed, so that the interpolation gathers
    contiguous rows. Rows and columns whose stencil lies off the lattice
    (zero weights) are skipped: the band spans the live columns' nodes
    only, and only the window's live columns are interpolated, its dead
    ones left zero.
    """
    ir, r0, r1 = row_stencil
    ic, c0, c1 = col_stencil
    live_r = np.flatnonzero(r0)
    live_c = np.flatnonzero(c0)
    total = np.zeros(B.shape[1], complex)
    if not live_r.size or not live_c.size:
        return total
    n = B.shape[0]
    k_lo, k_hi = live_c[0], live_c[-1] + 1
    for a in range(live_r[0], live_r[-1] + 1, _ROW_BLOCK):
        b = min(a + _ROW_BLOCK, live_r[-1] + 1)
        j0, j1 = max(0, k_lo - (b - 1)), min(n, k_hi - a)
        if j1 <= j0:
            continue
        # the window's columns ks, of which [c_lo, c_hi) are live
        ks = a + j0
        c_lo, c_hi = max(ks, k_lo), min(b - 1 + j1, k_hi)
        live = ic[c_lo:c_hi]
        lo, k_min = ir[a:b].min(), live.min()
        band = _band(v.T, slice(k_min, live.max() + 2),
                     slice(lo, ir[a:b].max() + 2), folded)
        k = np.clip(live - k_min, 0, band.shape[0] - 2)
        C = np.zeros((band.shape[1], b - 1 + j1 - ks), complex)
        C[:, c_lo - ks:c_hi - ks] = (band[k] * c0[c_lo:c_hi, None]
                                     + band[k + 1] * c1[c_lo:c_hi, None]).T
        for r, pick in ((r0, ir[a:b] - lo), (r1, ir[a:b] + 1 - lo)):
            R = C[pick]
            # R[m, m + j] as a view: row m of the window starts one row and
            # one column after row m - 1's
            window = np.ndarray((b - a, j1 - j0), complex, R,
                                strides=(R.strides[0] + R.itemsize, R.itemsize))
            total += ((A[a:b] * r[a:b, None]) * (window @ B[j0:j1])).sum(axis=0)
    return total


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
    first transform, the axis-b phase onto the second in place, and the
    time norm and the boundary mass are summed from |E| = |Phi| without
    forming |Phi|^2 on the whole lattice.
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
        pad_factor = max(1, 1024 // max(na, nb))
    npa, npb = pad_factor * na, pad_factor * nb
    t1, pre_a, ca, post_a = _axis_transform_phases(amp.omega_a, npa)
    t2, pre_b, cb, post_b = _axis_transform_phases(amp.omega_b, npb)
    half = np.fft.fft(vals * pre_a[:, None] * pre_b[None, :], n=npa, axis=0)
    half *= (amp.d_omega_a * amp.d_omega_b / (2.0 * np.pi)) * post_a[:, None]
    envelope = np.fft.fft(half, n=npb, axis=1)
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
    edge = sum(float(np.sum(np.abs(strip) ** 2)) for strip in (
        envelope[:2, :], envelope[-2:, :], envelope[:, :2], envelope[:, -2:])
    ) * out.dt1 * out.dt2
    if edge > 1e-4:
        raise GridCoverageError(
            f"time-domain amplitude wraps the lattice (boundary mass "
            f"{edge:.2e}); refine the frequency spacing (more samples or a "
            f"tighter span)"
        )
    return out


def from_frequency_values(omega_a: np.ndarray, omega_b: np.ndarray,
                          values: np.ndarray, *, theta: Optional[float] = None,
                          s: float = 0.0, delay_arm: str = "a") -> BiphotonAmplitude:
    """Normalize explicit frequency-domain values and transform them to the
    two-time envelope."""
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
    return to_time_domain(amp)


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
class DeltaAmplitude:
    """Duck-typed narrow-limit amplitude usable wherever a two-time
    amplitude is read."""

    s: float
    spacing: float
    convention: str = "area_one"

    def time_value(self, x, y) -> np.ndarray:
        return delta_limit_amplitude(x, y, self.s, self.spacing, self.convention)

    def time_support(self):
        return None  # a line, not a box: callers fall back to their cutoffs


def entanglement_time(amp: BiphotonAmplitude) -> float:
    """RMS width of |Phi(t1, t2)|^2 along the t1 - t2 axis (fs)."""
    w = np.abs(amp.time_values) ** 2
    total = w.sum()
    if total == 0.0:
        raise ValueError("amplitude is identically zero")
    u = amp.t1[:, None] - amp.t2[None, :]
    mean = (w * u).sum() / total
    var = (w * (u - mean) ** 2).sum() / total
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
