"""Coincidence-signal assembly.

Evaluates each contribution row of the pathway ledger as a double quadrature
over the two free interaction intervals (`homspec.quadrature`), sums the
signed rows into the real coincidence value C(tau, T, s), provides the
closed-form narrow-amplitude limit, and scans lattices of (tau, T, s) one
call per s.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .biphoton import BiphotonAmplitude, LineAmplitude, to_time_domain
from .model import LiouvilleOperatorSet
from .pathways import (HomSpec, PathwayTerm, complete_term_table,
                       detection_pathways, term_table)
from .quadrature import QuadratureSpec, resolve_quadrature, row_values

__all__ = [
    "QuadratureSpec",
    "resolve_quadrature",
    "SignalGrid",
    "reference_time",
    "default_quadrature",
    "term_value",
    "coincidence",
    "coincidence_terms",
    "complete_coincidence",
    "complete_coincidence_terms",
    "coincidence_short_Te",
    "short_te_terms",
    "check_lattice",
    "check_splitter",
    "scan",
    "pathway_probabilities",
    "system_hash",
]

MODES = ("full", "short_Te")


def reference_time(amp: BiphotonAmplitude, offset: float = 0.0) -> float:
    """Centroid of the arrival-time distribution plus an optional offset.

    The mean of (t1 + t2) / 2 under w = |Phi|^2, taken from the two
    marginals of w: (sum_i t1_i sum_j w_ij + sum_j t2_j sum_i w_ij) / 2 sum w,
    which the amplitude's envelope scan already holds, so no lattice-sized
    array is formed."""
    rows, cols = amp._scan.rows, amp._scan.cols
    return float(0.5 * (amp.t1 @ rows + amp.t2 @ cols) / rows.sum()) + offset


def default_quadrature(ops: LiouvilleOperatorSet, amp=None, *,
                       step: Optional[float] = None,
                       cutoff: Optional[float] = None,
                       rule: str = "trapezoid",
                       t_ref: Optional[float] = None,
                       t_ref_offset: float = 0.0) -> QuadratureSpec:
    """`resolve_quadrature` for the system of `ops`, with the reference time
    `t_ref`, by default the amplitude's centroid plus `t_ref_offset`."""
    if t_ref is None:
        t_ref = (reference_time(amp, t_ref_offset)
                 if isinstance(amp, BiphotonAmplitude) else t_ref_offset)
    return resolve_quadrature(ops.system, step, cutoff, rule, t_ref,
                              ops.eta_floor)


def _point(tau: float, T: float) -> Tuple[np.ndarray, np.ndarray]:
    """One point as a batch of one."""
    return np.array([tau], float), np.array([T], float)


def term_value(term: PathwayTerm, tau: float, T: float, s: float,
               amp, ops: LiouvilleOperatorSet, q: QuadratureSpec) -> complex:
    """Unsigned value of one ledger row (sum of its sub-term integrals).

    Detection sign and beam-splitter channel weights are applied by
    :func:`coincidence`, not here. Like it, refuses non-finite delays and
    tau < 0 or T < 0.
    """
    _check_domain(tau, T, s)
    return complex(row_values([term], *_point(tau, T),
                              _resolve_amplitude(amp, s), ops, q)[0][0])


def _resolve_amplitude(amp, s: float):
    if isinstance(amp, BiphotonAmplitude):
        return amp if amp.s == s else to_time_domain(amp, s)
    if isinstance(amp, LineAmplitude):
        return amp if amp.s == s else dataclasses.replace(amp, s=s)
    raise TypeError(f"amplitude must be a BiphotonAmplitude or a "
                    f"LineAmplitude, got {type(amp).__name__}")


def _check_finite(**delays) -> None:
    """Refuse a delay (numbers or arrays, by name) that is NaN or infinite,
    naming the first one."""
    for name, values in delays.items():
        values = np.ravel(values)
        bad = values[~np.isfinite(values)]
        if bad.size:
            raise ValueError(f"delays must be finite; got {name}={bad[0]}")


def _check_domain(tau, T, s) -> None:
    """Refuse non-finite delays, and tau < 0 or T < 0 (numbers or arrays):
    the ledger holds the causal blocks of tau, T >= 0 only, and the
    mirrored ones it lacks are not zero there."""
    _check_finite(tau=tau, T=T, s=s)
    if np.size(tau) and np.size(T) and min(np.min(tau), np.min(T)) < 0:
        raise ValueError(f"the pathway ledger covers tau >= 0 and T >= 0 "
                         f"only; got tau={np.min(tau):g}, T={np.min(T):g}")


def _signed_rows(table: Sequence[PathwayTerm], tau: np.ndarray,
                 T: np.ndarray, s: float, amp, ops: LiouvilleOperatorSet,
                 q: QuadratureSpec, hom: Optional[HomSpec]
                 ) -> List[Tuple[PathwayTerm, np.ndarray]]:
    """Each row with its signed and channel-weighted value at every point
    (tau[k], T[k]) (see `quadrature.row_values`), skipping rows the
    splitter (default 50:50) weights to zero."""
    _check_domain(tau, T, s)
    hom = hom or HomSpec()
    amp = _resolve_amplitude(amp, s)
    rows = [(term, term.pattern.sign * term.pattern.weight(hom))
            for term in table]
    rows = [(term, weight) for term, weight in rows if weight]
    values = row_values([term for term, _ in rows], tau, T, amp, ops, q)
    return [(term, weight * out) for (term, weight), out in zip(rows, values)]


def coincidence_terms(tau: float, T: float, s: float, amp,
                      ops: LiouvilleOperatorSet, q: QuadratureSpec,
                      hom: Optional[HomSpec] = None
                      ) -> Dict[Tuple[str, int], complex]:
    """Signed, channel-weighted values of every contributing ledger row.

    ``hom`` supplies only the splitter amplitudes t and r (default 50:50);
    the delay T always comes from the argument. The unit-transmission
    splitter ``HomSpec(t_coeff=1.0, r_coeff=0.0)`` (no beam splitter) leaves
    only the O_I rows.
    """
    return {(term.detection, term.interaction): complex(out[0]) for term, out
            in _signed_rows(term_table(), *_point(tau, T), s, amp, ops, q,
                            hom)}


def coincidence(tau, T, s: float, amp, ops: LiouvilleOperatorSet,
                q: QuadratureSpec, hom: Optional[HomSpec] = None):
    """Real coincidence value: twice the real part of the signed row sum.

    This is the published ledger's signal; :func:`complete_coincidence` is
    the complete fourth-order counting probability. As in
    :func:`coincidence_terms`, ``hom`` supplies only t and r, and T comes
    from the argument.

    ``tau`` and ``T`` may be arrays, broadcast against each other: their
    points are evaluated in batches (see `quadrature.row_values`), and the
    values come back in the broadcast shape, each equal bit for bit to the
    float that its point alone gives.
    """
    return _twice_real_sum(term_table(), tau, T, s, amp, ops, q, hom)


def _twice_real_sum(table: Sequence[PathwayTerm], tau, T, s: float, amp,
                    ops: LiouvilleOperatorSet, q: QuadratureSpec,
                    hom: Optional[HomSpec], factor: Optional[complex] = None):
    """2 Re of the sum of the signed rows of `table` (each times `factor`,
    if given) at the broadcast points of tau and T: a float for scalar
    delays, else an array of their broadcast shape."""
    tau, T = np.broadcast_arrays(np.asarray(tau, float), np.asarray(T, float))
    rows = _signed_rows(table, tau.ravel(), T.ravel(), s, amp, ops, q, hom)
    values = 2.0 * np.real(sum((out if factor is None else factor * out
                                for _, out in rows),
                               np.zeros(tau.size, complex)))
    return float(values[0]) if tau.ndim == 0 else values.reshape(tau.shape)


#: Each correlator carries (-i)^3 from its three propagators, while the
#: counting probability's blocks carry none: (-i)^4 on a fourth-order ket,
#: (-i)^2 (+i)^2 on a (2,2) bra/ket pair. A row is therefore i times the
#: block it stands for, and the counting probability is 2 Re(-i sum).
BLOCK_FACTOR = -1j


def complete_coincidence_terms(tau: float, T: float, s: float, amp,
                               ops: LiouvilleOperatorSet, q: QuadratureSpec,
                               hom: Optional[HomSpec] = None
                               ) -> Dict[str, complex]:
    """Signed, channel-weighted half-blocks of the complete fourth-order
    signal, keyed by row label (see :func:`complete_term_table`).

    Each value is `BLOCK_FACTOR` times the signed, weighted row value; the
    counting probability is twice the real part of their sum. ``hom``
    supplies only t and r; T comes from the argument.
    """
    return {term.label: BLOCK_FACTOR * complex(out[0]) for term, out
            in _signed_rows(complete_term_table(), *_point(tau, T), s, amp,
                            ops, q, hom)}


def complete_coincidence(tau, T, s: float, amp, ops: LiouvilleOperatorSet,
                         q: QuadratureSpec, hom: Optional[HomSpec] = None):
    """Complete fourth-order two-detector counting probability: twice the
    real part of the sum of :func:`complete_coincidence_terms`.

    Unlike :func:`coincidence` (the published ledger, 2 Re of the row sum),
    this holds every (2,2) and (0,4) block of the wavefunction series, so it
    equals the brute force's fourth-order counting probability up to the
    mode-sum constant. ``tau`` and ``T`` may be arrays, as in
    :func:`coincidence`, each value equal bit for bit to its point's alone.
    """
    return _twice_real_sum(complete_term_table(), tau, T, s, amp, ops, q, hom,
                           BLOCK_FACTOR)


# ---------------------------------------------------------------------------
# narrow-amplitude closed form
# ---------------------------------------------------------------------------

#: Tolerance (fs) of the Kronecker deltas that gate the line integrals.
_DELTA_TOL = 1e-9


def _kron(x: float, y: float) -> float:
    return 1.0 if abs(x - y) <= _DELTA_TOL else 0.0


def _line_integral_F5(arg1: float, arg3: float, ops: LiouvilleOperatorSet,
                      q: QuadratureSpec) -> complex:
    """The integral of F5(arg1, tau3, arg3) over tau3 in [0, cutoff], exact:
    each term's exp(-z2 tau3) integrates to -expm1(-z2 L) / z2, or L where
    z2 = 0."""
    exp5, L = ops.expansion(5), q.cutoff
    A, B = exp5.factors([arg1], [0.0], [arg3])
    flat = exp5.z2 == 0
    z2 = np.where(flat, 1.0, exp5.z2)
    w = np.where(flat, L, -np.expm1(-z2 * L) / z2)
    return complex((A[0] * B[0] * w).sum())


def _closed_form_rule(tau: float, T: float, s: float) -> Optional[str]:
    """The closed form's first domain rule that (tau, T, s) breaks, or None."""
    return "s >= 0" if s < 0 else "tau >= -T" if tau < -T else None


def short_te_terms(tau: float, T: float, s: float, ops: LiouvilleOperatorSet,
                   q: QuadratureSpec,
                   hom: Optional[HomSpec] = None) -> Dict[str, complex]:
    """The individual closed-form contributions before the 2 Re projection.

    Valid for tau >= -T and s >= 0; s = 0 reduces to the single surviving
    exchange term F3(T, tau, T) (the other windows close because their
    arguments turn negative, and the delta-gated line integrals would need
    zero-length intervals).

    The published closed form drops the detection-channel amplitudes (they
    are uniform for a 50:50 splitter); pass `hom` to reinstate them, e.g.
    for comparison against the full quadrature. The two delta-gated F5
    windows integrate F5 over its middle interval in closed form up to the
    quadrature's cutoff, so a closed system (every pair rate at the
    dephasing floor) costs no more than a damped one.
    """
    if (rule := _closed_form_rule(tau, T, s)) is not None:
        raise ValueError(f"short entanglement-time form requires {rule}, got "
                         f"tau={tau}, T={T}, s={s}")
    if hom is None:
        w_exchange = w_direct = 1.0
    else:
        # the surviving direct-channel term stems from the both-reflected
        # detection pattern O_II
        _, reflected, exchange, _ = detection_pathways()
        w_exchange, w_direct = exchange.weight(hom), reflected.weight(hom)
    exp1, exp2, exp3 = (ops.expansion(i) for i in (1, 2, 3))
    if s == 0.0:
        return {
            "F1": 0.0j,
            "F2": 0.0j,
            "F3a": -w_exchange * complex(exp3.evaluate(T, tau, T)),
            "F3b": 0.0j,
            "F5_direct": 0.0j,
            "F5_exchange": 0.0j,
        }
    out: Dict[str, complex] = {
        "F1": -w_exchange * complex(exp1.evaluate(T, tau + T - s, 2 * s - T)),
        "F2": -w_exchange * complex(
            exp2.evaluate(2 * T + tau - s, s - T - tau, tau + s)),
        "F3a": -w_exchange * complex(exp3.evaluate(T, tau + s, T - 2 * s)),
        "F3b": -w_exchange * complex(
            exp3.evaluate(T + tau, s - 2 * T - tau, T + tau)),
        "F5_direct": 0.0j,
        "F5_exchange": 0.0j,
    }
    if _kron(tau, s):
        out["F5_direct"] = 2.0 * w_direct * _line_integral_F5(
            abs(tau), abs(tau), ops, q)
    if _kron(2 * T + tau, s):
        out["F5_exchange"] = -2.0 * w_exchange * _line_integral_F5(
            abs(tau), 2 * T + tau, ops, q)
    return out


def coincidence_short_Te(tau: float, T: float, s: float,
                         ops: LiouvilleOperatorSet, q: QuadratureSpec,
                         hom: Optional[HomSpec] = None) -> float:
    """Closed-form coincidence in the narrow-amplitude limit (value-one deltas)."""
    vals = short_te_terms(tau, T, s, ops, q, hom=hom)
    return float(2.0 * np.real(sum(vals.values())))


# ---------------------------------------------------------------------------
# scans
# ---------------------------------------------------------------------------

@dataclass
class SignalGrid:
    """Real coincidence values over a (tau, T, s) lattice with provenance."""

    tau_values: np.ndarray
    T_values: np.ndarray
    s_values: np.ndarray
    values: np.ndarray
    mode: str
    meta: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.tau_values = np.asarray(self.tau_values, dtype=float)
        self.T_values = np.asarray(self.T_values, dtype=float)
        self.s_values = np.asarray(self.s_values, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        shape = (self.tau_values.size, self.T_values.size, self.s_values.size)
        if self.values.shape != shape:
            raise ValueError(f"values shape {self.values.shape} != axes {shape}")
        if self.values.size and not np.all(np.isfinite(self.values)):
            raise ValueError("signal values must be finite")

    def serialize(self) -> str:
        lines = ["# homspec signal grid v1", f"# mode: {self.mode}"]
        for key in sorted(self.meta):
            lines.append(f"# {key}: {self.meta[key]}")
        for name, ax in (("tau_values", self.tau_values),
                         ("T_values", self.T_values),
                         ("s_values", self.s_values)):
            lines.append(f"# {name}: " + " ".join(f"{v:.17g}" for v in ax))
        lines.append("# columns: tau T s C")
        for i, tv in enumerate(self.tau_values):
            for j, Tv in enumerate(self.T_values):
                for k, sv in enumerate(self.s_values):
                    lines.append(f"{tv:.17g} {Tv:.17g} {sv:.17g} "
                                 f"{self.values[i, j, k]:.17g}")
        return "\n".join(lines) + "\n"

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.serialize())

    @classmethod
    def load(cls, path) -> "SignalGrid":
        meta: Dict[str, str] = {}
        required = ("mode", "tau_values", "T_values", "s_values")
        header: Dict[str, str] = {}
        rows = []
        with open(path) as fh:
            for line in fh:
                line = line.rstrip("\n")
                if line.startswith("#"):
                    body = line[1:].strip()
                    if ":" not in body:
                        continue
                    key, _, val = body.partition(":")
                    key, val = key.strip(), val.strip()
                    if key in required:
                        header[key] = val
                    elif key not in ("columns", "homspec signal grid v1"):
                        meta[key] = val
                elif line.strip():
                    try:
                        rows.append([float(x) for x in line.split()])
                    except ValueError:
                        raise ValueError(f"{path}: data row {len(rows)} is "
                                         f"{line!r}, not numbers") from None
        for key in required:
            if key not in header:
                raise ValueError(f"{path}: header line '# {key}:' is missing")
        axes = []
        for key in required[1:]:
            try:
                axes.append(np.array([float(x) for x in header[key].split()]))
            except ValueError:
                raise ValueError(f"{path}: header line '# {key}:' is "
                                 f"{header[key]!r}, not numbers") from None
            if rows and not axes[-1].size:
                raise ValueError(f"{path}: header line '# {key}:' is empty, "
                                 f"but the file has {len(rows)} data rows")
        tau, T, s = axes
        # serialize order: tau slowest, s fastest
        expected = [[tv, Tv, sv] for tv in tau for Tv in T for sv in s]
        for n, (row, want) in enumerate(itertools.zip_longest(rows, expected)):
            if row is None or row[:3] != want or len(row) != 4:
                raise ValueError(f"{path}: data row {n} is {row}, the header axes "
                                 f"give {want}")
        values = np.array([r[3] for r in rows]).reshape(tau.size, T.size, s.size)
        return cls(tau, T, s, values, header["mode"], meta)


def system_hash(ops: LiouvilleOperatorSet) -> str:
    h = hashlib.sha256()
    h.update(ops.omega.tobytes())
    h.update(ops.V.tobytes())
    h.update(ops.eta.tobytes())
    h.update(repr((ops.system.initial_index(), ops.eta_floor)).encode())
    return h.hexdigest()[:16]


def _check_axes(*axes: np.ndarray) -> None:
    for ax in axes:
        if ax.size > 1 and not (np.all(np.diff(ax) > 0) or np.all(np.diff(ax) < 0)):
            raise ValueError("scan axes must be strictly monotone")


#: Most (tau, T, s) points that one scan lattice, or one of its axes, may
#: hold (see `check_lattice`).
SCAN_BUDGET = 1 << 20


def check_lattice(tau_axis: Sequence[float], T_axis: Sequence[float],
                  s_axis: Sequence[float], mode: str) -> None:
    """Refuse a lattice of non-empty axes with more points than
    `SCAN_BUDGET`, or with a point outside the mode's domain: finite tau, T
    and s in every mode; in short_Te mode s > 0 and tau >= -T, naming the
    first offending point in lattice order (tau slowest, s fastest); else
    tau, T >= 0."""
    count = np.size(tau_axis) * np.size(T_axis) * np.size(s_axis)
    if count > SCAN_BUDGET:
        raise ValueError(f"the lattice holds {count} (tau, T, s) points, "
                         f"above the scan lattice budget of {SCAN_BUDGET}")
    if mode != "short_Te":
        _check_domain(tau_axis, T_axis, s_axis)
        return
    _check_finite(tau=tau_axis, T=T_axis, s=s_axis)
    for tv, Tv, sv in itertools.product(tau_axis, T_axis, s_axis):
        rule = "s > 0" if sv <= 0 else _closed_form_rule(tv, Tv, sv)
        if rule is not None:
            raise ValueError(f"short_Te mode requires {rule}; offending "
                             f"point (tau={tv}, T={Tv}, s={sv})")


def check_splitter(mode: str, hom: Optional[HomSpec]) -> None:
    """Refuse a splitter other than 50:50 in short_Te mode, which fixes it."""
    if (mode == "short_Te" and hom is not None
            and abs(hom.t_coeff ** 2 - hom.r_coeff ** 2) > 1e-12):
        raise ValueError(f"mode {mode} ignores t_coeff and r_coeff; only a "
                         f"50:50 splitter is allowed")


def scan(tau_axis: Sequence[float], T_axis: Sequence[float],
         s_axis: Sequence[float], mode: str, amp, ops: LiouvilleOperatorSet,
         q: QuadratureSpec, hom: Optional[HomSpec] = None,
         workers: Optional[int] = None) -> SignalGrid:
    """Evaluate the chosen signal over the lattice.

    Every (tau, T) point of one s is evaluated in one :func:`coincidence`
    call on the calling thread (in batches, see `quadrature.row_values`),
    with the amplitude transformed to that s alone, so one s value's
    two-time envelope is held at a time. A point's value equals its own
    :func:`coincidence` bit for bit. ``hom`` alone picks the splitter
    (default 50:50), and the grid's meta records its t and r. ``workers`` is
    accepted for compatibility and ignored, so the output is the same for
    any worker count. A lattice above `SCAN_BUDGET` or outside the mode's
    domain (`check_lattice`) or a ``hom`` the mode ignores
    (`check_splitter`) aborts before any point is evaluated.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    check_splitter(mode, hom)
    tau_axis, T_axis, s_axis = (np.asarray(axis, dtype=float)
                                for axis in (tau_axis, T_axis, s_axis))
    _check_axes(tau_axis, T_axis, s_axis)
    shape = (tau_axis.size, T_axis.size, s_axis.size)
    hom = hom or HomSpec()
    meta = {
        "system_hash": system_hash(ops),
        "quadrature": (f"cutoff={q.cutoff:.17g} step={q.step:.17g} "
                       f"rule={q.rule} t_ref={q.t_ref:.17g}"),
        "splitter": f"t_coeff={hom.t_coeff:.17g} r_coeff={hom.r_coeff:.17g}",
    }
    if hasattr(amp, "content_hash"):
        meta["amplitude_hash"] = amp.content_hash()
    if not all(shape):
        return SignalGrid(tau_axis, T_axis, s_axis, np.zeros(shape), mode, meta)

    check_lattice(tau_axis, T_axis, s_axis, mode)
    if mode == "short_Te":
        # lattice order: tau slowest, s fastest (the order SignalGrid writes)
        values = np.reshape([coincidence_short_Te(tv, Tv, sv, ops, q) for
                             tv, Tv, sv in itertools.product(tau_axis, T_axis,
                                                             s_axis)], shape)
    else:
        values = np.empty(shape)
        for k, sv in enumerate(s_axis):
            values[:, :, k] = coincidence(tau_axis[:, None], T_axis[None, :],
                                          float(sv), amp, ops, q, hom=hom)
    return SignalGrid(tau_axis, T_axis, s_axis, values, mode, meta)


def pathway_probabilities(tau: float, T: float, s: float, amp,
                          ops: LiouvilleOperatorSet, q: QuadratureSpec,
                          hom: Optional[HomSpec] = None) -> np.ndarray:
    """Probability vector over the five interaction pathways at one point:
    the magnitude of each pathway's detection-summed contribution,
    normalized to unit total.
    """
    vals = coincidence_terms(tau, T, s, amp, ops, q, hom=hom)
    sums = np.zeros(5, dtype=complex)
    for (_, i), v in vals.items():
        sums[i - 1] += v
    p = np.abs(sums)
    total = p.sum()
    if total == 0:
        raise ValueError("all pathway contributions vanish; probabilities undefined")
    return p / total
