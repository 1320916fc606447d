"""Coincidence-signal assembly.

Evaluates each contribution row of the pathway ledger as a double quadrature
over the two free interaction intervals, sums the signed rows into the real
coincidence value C(tau, T, s), provides the closed-form narrow-amplitude
limit, and scans lattices of (tau, T, s) point by point.

Every sub-term of a row is integrated over one box of nodes: the region
where the two-time amplitude factors can be nonzero (their arguments are
affine in the integration variables), cut by the one causal edge where the
correlator's first interval reaches zero. Huge nominal cutoffs therefore
cost nothing when the amplitude has compact support.

On a box the correlator separates, F = sum_p A_p(tau3) B_p(tau4), and the
amplitude factors of one variable fold into the weights, so a sub-term is
sum_p a_p^T H b_p with H the one amplitude factor that depends on both
variables. H is contracted without being formed, which keeps memory linear
in the box side. A factor whose arguments move with tau3 + tau4 (a Hankel
matrix of one 1-D array) contracts as that array dotted with the
convolution of a_p and b_p. On a lattice amplitude, a pathway-4 factor (one
argument in tau3, the other in tau4) scatters a_p and b_p onto the envelope
lattice and takes one product with the band of nodes they touch, and a
pathway-5 factor (tau3 and tau3 + tau4) contracts blocks of interpolated
envelope rows with b_p along a sheared window. The box's sliver rows and
columns are contracted from their own values.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .biphoton import BiphotonAmplitude, DeltaAmplitude, to_time_domain
from .model import LiouvilleOperatorSet
from .pathways import (Affine, HomSpec, PathwayTerm, SubTerm,
                       complete_term_table, detection_pathways, term_table)

__all__ = [
    "QuadratureSpec",
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
    "scan",
    "pathway_probabilities",
    "system_hash",
]

MODES = ("full", "short_Te", "bs_removed")


@dataclass(frozen=True)
class QuadratureSpec:
    """Double-integral settings: cutoff and step (fs), rule, reference time.

    The cutoff must let damped correlators decay below 1e-5 at the boundary
    (cutoff >= 10 / eta_min) and the step must resolve the fastest coherence
    (step <= 0.1 * 2pi / omega_max); both are enforced by `validate`.
    """

    cutoff: float
    step: float
    rule: str = "trapezoid"
    t_ref: float = 0.0

    def __post_init__(self) -> None:
        if self.cutoff <= 0 or self.step <= 0:
            raise ValueError("cutoff and step must be positive")
        if self.rule not in ("trapezoid", "simpson"):
            raise ValueError(f"rule must be 'trapezoid' or 'simpson', got {self.rule!r}")

    def validate(self, ops: LiouvilleOperatorSet) -> None:
        eta_min = float(ops.eta.min())
        if self.cutoff < 10.0 / eta_min:
            raise ValueError(
                f"cutoff {self.cutoff} fs too small: damped correlators need "
                f">= {10.0 / eta_min:.3g} fs to decay below 1e-5"
            )
        omega_max = float(ops.omega.max() - ops.omega.min())
        if omega_max > 0 and self.step > 0.1 * 2.0 * np.pi / omega_max:
            raise ValueError(
                f"step {self.step} fs too coarse for the fastest coherence "
                f"(need <= {0.1 * 2.0 * np.pi / omega_max:.4g} fs)"
            )

    @property
    def n_nodes(self) -> int:
        return int(round(self.cutoff / self.step))


def reference_time(amp: BiphotonAmplitude, offset: float = 0.0) -> float:
    """Centroid of the arrival-time distribution plus an optional offset.

    The mean of (t1 + t2) / 2 under w = |Phi|^2, taken from the two
    marginals of w: (sum_i t1_i sum_j w_ij + sum_j t2_j sum_i w_ij) / 2 sum w,
    so no lattice-sized array of midpoints is formed; w = |E|^2 for the
    stored envelope E."""
    w = np.abs(amp.envelope)
    w *= w
    rows, cols = w.sum(axis=1), w.sum(axis=0)
    return float(0.5 * (amp.t1 @ rows + amp.t2 @ cols) / rows.sum()) + offset


def default_quadrature(ops: LiouvilleOperatorSet, amp=None, *,
                       step: Optional[float] = None,
                       cutoff: Optional[float] = None,
                       rule: str = "trapezoid",
                       t_ref: Optional[float] = None,
                       t_ref_offset: float = 0.0) -> QuadratureSpec:
    """Spec with cutoff tied to the slowest damping and a resolving step."""
    eta_min = float(ops.eta.min())
    if cutoff is None:
        cutoff = 12.0 / eta_min
    omega_max = float(ops.omega.max() - ops.omega.min())
    if step is None:
        step = 0.1 * 2.0 * np.pi / omega_max if omega_max > 0 else 0.5
    if t_ref is None:
        t_ref = (reference_time(amp, t_ref_offset)
                 if isinstance(amp, BiphotonAmplitude) else t_ref_offset)
    q = QuadratureSpec(cutoff=cutoff, step=step, rule=rule, t_ref=t_ref)
    q.validate(ops)
    return q


# ---------------------------------------------------------------------------
# quadrature core
# ---------------------------------------------------------------------------

def _weights(nodes: np.ndarray, h: float, rule: str) -> np.ndarray:
    """Quadrature weights on sorted nodes whose cells have length h, except
    for shorter clipping slivers at the ends.

    Trapezoid on every cell; with ``rule="simpson"``, composite Simpson over
    the run of full-length cells (an odd last cell of the run stays
    trapezoid) and trapezoid on the slivers.
    """
    d = np.diff(nodes)
    w = np.zeros(nodes.size)
    if rule == "simpson":
        full = np.flatnonzero(np.abs(d - h) <= 1e-9 * h)
        d[full] = h
        k = full.size // 2 * 2  # cells of the run that Simpson covers
        if k:
            a = full[0]
            w[a:a + k + 1] = h / 3.0
            w[a + 1:a + k:2] = 4.0 * h / 3.0
            w[a + 2:a + k - 1:2] = 2.0 * h / 3.0
            d[a:a + k] = 0.0  # these cells take no trapezoid share
    w[:-1] += d / 2.0
    w[1:] += d / 2.0
    return w


def _tighten(I3: List[float], I4: List[float],
             constraints: Sequence[Tuple[float, int, int, float, float]]) -> bool:
    """Shrink node intervals so every affine constraint can still be met."""
    for _ in range(2):
        for shift, c3, c4, lo, hi in constraints:
            if c3 == 0 and c4 == 0:
                if shift < lo or shift > hi:
                    return False
                continue
            for (ci, cj, Ii, Ij) in ((c3, c4, I3, I4), (c4, c3, I4, I3)):
                if ci == 0:
                    continue
                m = min(cj * Ij[0], cj * Ij[1])
                M = max(cj * Ij[0], cj * Ij[1])
                lo_i = (lo - shift - M) / ci
                hi_i = (hi - shift - m) / ci
                if ci < 0:
                    lo_i, hi_i = hi_i, lo_i
                Ii[0] = max(Ii[0], lo_i)
                Ii[1] = min(Ii[1], hi_i)
                if Ii[0] > Ii[1]:
                    return False
    return True


def _segment_nodes(lo: float, hi: float, q: QuadratureSpec) -> Optional[np.ndarray]:
    """Step-multiple nodes inside [lo, hi] with the exact endpoints included."""
    if hi - lo < 1e-12:
        return None
    eps = 1e-9 * q.step
    j_lo = int(np.ceil((lo + eps) / q.step))
    j_hi = int(np.floor((hi - eps) / q.step))
    inner = np.arange(j_lo, j_hi + 1) * q.step
    return np.concatenate(([lo], inner, [hi]))


def _box(sub: SubTerm, tau: float, T: float, amp,
         q: QuadratureSpec) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """The (tau3, tau4) nodes of one sub-term, or None when its box is empty.

    The box is [0, cutoff]^2 tightened to the amplitude support and to the
    one causal constraint first_interval >= 0 (tau3, tau4 >= 0 hold on the
    box). That constraint comes last in each pass of `_tighten` and depends
    on at most one variable, so it ends as a box edge: the correlator's
    arguments are non-negative on every node.
    """
    t = q.t_ref
    support = amp.time_support()
    constraints: List[Tuple[float, int, int, float, float]] = []
    if support is not None:
        t1_lo, t1_hi, t2_lo, t2_hi = support
        if sub.symmetrize:
            u_lo, u_hi = min(t1_lo, t2_lo), max(t1_hi, t2_hi)
            boxes = [(t1_lo, t1_hi), (t2_lo, t2_hi), (u_lo, u_hi), (u_lo, u_hi)]
        else:
            boxes = [(t1_lo, t1_hi), (t2_lo, t2_hi), (t1_lo, t1_hi), (t2_lo, t2_hi)]
        for expr, (lo, hi) in zip(sub.conj_args + sub.args, boxes):
            constraints.append((expr.shift(t, tau, T), expr.t3, expr.t4, lo, hi))
    first = sub.first_interval
    constraints.append((first.shift(0.0, tau, T), first.t3, first.t4, 0.0, np.inf))
    I3, I4 = [0.0, q.cutoff], [0.0, q.cutoff]
    if not _tighten(I3, I4, constraints):
        return None
    tau3 = _segment_nodes(I3[0], I3[1], q)
    tau4 = _segment_nodes(I4[0], I4[1], q)
    if tau3 is None or tau4 is None:
        return None
    return tau3, tau4


@dataclass(frozen=True)
class _Bordered:
    """An (n3, n4) factor whose arguments move with tau3 + tau4, or with
    tau3 and tau3 + tau4, held without forming it.

    Interior nodes are step multiples j*h, so their sums are (j3 + j4)*h.
    `inner` holds the (n3 - 2, n4 - 2) interior: a 1-D array of the
    factor at the n3 + n4 - 5 distinct sums (entry (i, j) reads
    inner[i + j]), or a `LatticeFactor`; None when an axis has 2 nodes. The
    sliver rows and columns at the box ends are `edge` at nodes (i, j).
    """

    shape: Tuple[int, int]
    i: np.ndarray
    j: np.ndarray
    edge: np.ndarray
    inner: object
    ndim = 2

    def contract(self, A: np.ndarray, B: np.ndarray) -> complex:
        """sum_p A[:, p]^T H B[:, p] for this factor H."""
        total = self.edge @ (A[self.i] * B[self.j]).sum(axis=1)
        if isinstance(self.inner, np.ndarray):
            # sum_ij a_i inner[i + j] b_j = inner . (a convolved with b)
            total += sum(self.inner @ np.convolve(a, b)
                         for a, b in zip(A[1:-1].T, B[1:-1].T))
        elif self.inner is not None:
            total += self.inner.contract(A[1:-1], B[1:-1])
        return complex(total)

    def conj(self) -> "_Bordered":
        return dataclasses.replace(self, edge=self.edge.conj(), inner=(
            None if self.inner is None else self.inner.conj()))

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        out = np.empty(self.shape, complex)
        out[self.i, self.j] = self.edge
        if isinstance(self.inner, np.ndarray):
            out[1:-1, 1:-1] = sliding_window_view(self.inner, self.shape[1] - 2)
        elif self.inner is not None:
            out[1:-1, 1:-1] = self.inner
        return out if dtype is None else out.astype(dtype)


def _hankel(edge, interior, tau3: np.ndarray, tau4: np.ndarray,
            h: float) -> _Bordered:
    """The `_Bordered` factor with border values `edge(T3, T4)`, from one
    call on the border nodes' coordinates, and interior `interior(sums)`
    from the interior's distinct node sums."""
    n3, n4 = tau3.size, tau4.size
    i = np.r_[np.repeat([0, n3 - 1], n4), np.repeat(np.arange(1, n3 - 1), 2)]
    j = np.r_[np.tile(np.arange(n4), 2), np.tile([0, n4 - 1], n3 - 2)]
    inner = None
    if n3 > 2 and n4 > 2:
        j0 = round(tau3[1] / h) + round(tau4[1] / h)
        inner = interior(np.arange(j0, j0 + n3 + n4 - 5) * h)
    return _Bordered((n3, n4), i, j, edge(tau3[i], tau4[j]), inner)


def _amplitude_factor(amp, args: Tuple[Affine, Affine], bracket: bool,
                      tau: float, T: float, tau3: np.ndarray,
                      tau4: np.ndarray, q: QuadratureSpec,
                      stencils: Optional[dict] = None):
    """The amplitude at `args` on the box, plus its swapped-argument value
    when `bracket` is set, evaluated once per distinct argument.

    Arguments that miss tau4 (tau3) give an (n3, 1) ((1, n4)) array, or a
    scalar when they miss both; arguments that move only with tau3 + tau4
    give a `_Bordered` factor read from one 1-D array (a Hankel matrix). On
    a lattice amplitude, one argument in tau3 and the other in tau4 give a
    rectilinear `LatticeFactor` (pathway 4), and one in tau3 and the other
    in tau3 + tau4 a `_Bordered` factor with a sheared one inside
    (pathway 5), both from one stencil per distinct coordinate. These
    two-variable factors are contracted, never formed. Anything else, and
    every two-variable factor of an amplitude without a lattice, is
    evaluated on the full mesh. A lattice amplitude keeps its stencils in
    `stencils`, a memo for one point (see
    `BiphotonAmplitude._cached_stencil`).
    """
    x, y = args
    t = q.t_ref
    lattice = isinstance(amp, BiphotonAmplitude)

    def at(u, v):
        return amp.time_value(u, v, stencils) if lattice else amp.time_value(u, v)

    def value(u, v):
        out = at(u, v)
        return out + at(v, u) if bracket else out

    def mesh(T3, T4):
        return value(x(t, tau, T, T3, T4), y(t, tau, T, T3, T4))

    if x.t3 == x.t4 and y.t3 == y.t4 and (x.t3 or y.t3):
        # on the box x(tau3, tau4) = x(tau3 + tau4, 0), and likewise y
        def line(u):
            return value(x(t, tau, T, u, 0.0), y(t, tau, T, u, 0.0))

        return _hankel(lambda T3, T4: line(T3 + T4), line, tau3, tau4, q.step)
    if lattice:
        for swap, (row, col) in ((False, (x, y)), (True, (y, x))):
            if not (row.t3 and not row.t4 and col.t4):
                continue
            rows = row(t, tau, T, tau3, 0.0)
            if not col.t3:
                return amp.lattice_factor(rows, col(t, tau, T, 0.0, tau4),
                                          False, swap, bracket, stencils)
            if col.t3 == col.t4:
                return _hankel(
                    mesh, lambda sums: amp.lattice_factor(
                        rows[1:-1], col(t, tau, T, sums, 0.0), True, swap,
                        bracket, stencils),
                    tau3, tau4, q.step)
    return mesh(tau3[:, None], tau4[None, :])


def _sub_term_value(sub: SubTerm, interaction: int, tau: float, T: float,
                    amp, ops: LiouvilleOperatorSet, q: QuadratureSpec,
                    shared: Optional[dict] = None) -> complex:
    """Double integral of one sub-term over its box (see `_box`).

    The correlator separates on the box, F = sum_p A_p(tau3) B_p(tau4), and
    the amplitude factors that depend on one variable fold into that
    variable's weights, so the sub-term is sum_p (w3 A_p)^T H (w4 B_p) with H
    the one factor that depends on both variables (no sub-term has two;
    none at all makes it a product of sums). A `_Bordered` or
    `LatticeFactor` H contracts itself; only a full-mesh H is multiplied.
    A correlator without terms gives 0 before any box is built.

    A conjugate factor that depends on neither variable multiplies the
    integral of the direct factor, which sub-terms differing only in that
    constant share: `shared` memoizes it per (interaction, args, symmetrize,
    first_interval) for one (tau, T, s) point and one amplitude. A constant
    constraint in `_tighten` only passes or fails, so sharing sub-terms
    with non-empty boxes have equal boxes. Under the key "stencils",
    `shared` also holds the point's lattice stencils (see
    `_amplitude_factor`).
    """
    expansion = ops.expansion(interaction)
    if expansion.coeffs.size == 0:
        return 0.0 + 0.0j
    box = _box(sub, tau, T, amp, q)
    if box is None:
        return 0.0 + 0.0j
    tau3, tau4 = box
    shared = {} if shared is None else shared
    stencils = shared.setdefault("stencils", {})

    def factor(args, bracket):
        return _amplitude_factor(amp, args, bracket, tau, T, tau3, tau4, q,
                                 stencils)

    def integral(*factors):
        w3 = _weights(tau3, q.step, q.rule)
        w4 = _weights(tau4, q.step, q.rule)
        H = None
        for f in factors:
            if f.ndim < 2 or f.shape[1] == 1:
                w3 = w3 * np.ravel(f)
            elif f.shape[0] == 1:
                w4 = w4 * f[0]
            else:
                H = f
        first = np.broadcast_to(sub.first_interval(0.0, tau, T, tau3, 0.0),
                                tau3.shape)
        A, B = expansion.factors(first, tau3, tau4)
        A *= w3[:, None]
        B *= w4[:, None]
        if H is None:
            return complex(A.sum(axis=0) @ B.sum(axis=0))
        if isinstance(H, np.ndarray):
            return complex((A * (H @ B)).sum())
        return H.contract(A, B)

    conj = factor(sub.conj_args, False)
    conj = conj.conj() if isinstance(conj, _Bordered) else np.conj(conj)
    if any(a.t3 or a.t4 for a in sub.conj_args):
        return integral(conj, factor(sub.args, sub.symmetrize))
    key = (interaction, sub.args, sub.symmetrize, sub.first_interval)
    if key not in shared:
        shared[key] = integral(factor(sub.args, sub.symmetrize))
    return complex(conj * shared[key])


def _row_value(term: PathwayTerm, tau: float, T: float, amp,
               ops: LiouvilleOperatorSet, q: QuadratureSpec,
               shared: dict) -> complex:
    return sum((_sub_term_value(sub, term.interaction, tau, T, amp, ops, q,
                                shared) for sub in term.sub_terms),
               start=0.0 + 0.0j)


def term_value(term: PathwayTerm, tau: float, T: float, s: float,
               amp, ops: LiouvilleOperatorSet, q: QuadratureSpec) -> complex:
    """Unsigned value of one ledger row (sum of its sub-term integrals).

    Detection sign and beam-splitter channel weights are applied by
    :func:`coincidence`, not here. Like it, refuses tau < 0 or T < 0.
    """
    _check_domain(tau, T)
    return _row_value(term, tau, T, _resolve_amplitude(amp, s), ops, q, {})


def _resolve_amplitude(amp, s: float):
    if isinstance(amp, BiphotonAmplitude):
        return amp if amp.s == s else to_time_domain(amp, s)
    if isinstance(amp, DeltaAmplitude):
        return amp if amp.s == s else dataclasses.replace(amp, s=s)
    if getattr(amp, "s", s) != s:
        raise ValueError(f"amplitude carries s={amp.s}, requested s={s}")
    return amp


def _check_domain(tau: float, T: float) -> None:
    """Refuse tau < 0 or T < 0: the ledger holds the causal blocks of tau,
    T >= 0 only, and the mirrored ones it lacks are not zero there."""
    if tau < 0 or T < 0:
        raise ValueError(f"the pathway ledger covers tau >= 0 and T >= 0 "
                         f"only; got tau={tau:g}, T={T:g}")


def _signed_rows(table: Sequence[PathwayTerm], tau: float, T: float, s: float,
                 amp, ops: LiouvilleOperatorSet, q: QuadratureSpec,
                 hom: Optional[HomSpec]):
    """Yield (row, signed and channel-weighted value), skipping rows the
    splitter (default 50:50) weights to zero. Rows share the direct
    integrals of their constant-conjugate sub-terms (see `_sub_term_value`)
    through one dict that lives for this point only."""
    _check_domain(tau, T)
    hom = hom or HomSpec()
    amp = _resolve_amplitude(amp, s)
    shared: dict = {}
    for term in table:
        weight = term.pattern.sign * term.pattern.weight(hom)
        if weight:
            yield term, weight * _row_value(term, tau, T, amp, ops, q, shared)


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
    return {(term.detection, term.interaction): value for term, value
            in _signed_rows(term_table(), tau, T, s, amp, ops, q, hom)}


def coincidence(tau: float, T: float, s: float, amp,
                ops: LiouvilleOperatorSet, q: QuadratureSpec,
                hom: Optional[HomSpec] = None) -> float:
    """Real coincidence value: twice the real part of the signed row sum.

    This is the published ledger's signal; :func:`complete_coincidence` is
    the complete fourth-order counting probability. As in
    :func:`coincidence_terms`, ``hom`` supplies only t and r, and T comes
    from the argument.
    """
    vals = coincidence_terms(tau, T, s, amp, ops, q, hom=hom)
    return float(2.0 * np.real(sum(vals.values())))


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
    return {term.label: BLOCK_FACTOR * value for term, value
            in _signed_rows(complete_term_table(), tau, T, s, amp, ops, q,
                            hom)}


def complete_coincidence(tau: float, T: float, s: float, amp,
                         ops: LiouvilleOperatorSet, q: QuadratureSpec,
                         hom: Optional[HomSpec] = None) -> float:
    """Complete fourth-order two-detector counting probability.

    Unlike :func:`coincidence` (the published ledger, 2 Re of the row sum),
    this holds every (2,2) and (0,4) block of the wavefunction series, so it
    equals the brute force's fourth-order counting probability up to the
    mode-sum constant.
    """
    vals = complete_coincidence_terms(tau, T, s, amp, ops, q, hom=hom)
    return float(2.0 * np.real(sum(vals.values())))


# ---------------------------------------------------------------------------
# narrow-amplitude closed form
# ---------------------------------------------------------------------------

#: Tolerance (fs) of the Kronecker deltas that gate the line integrals.
_DELTA_TOL = 1e-9


def _kron(x: float, y: float) -> float:
    return 1.0 if abs(x - y) <= _DELTA_TOL else 0.0


def _line_integral_F5(arg1: float, arg3: float, ops: LiouvilleOperatorSet,
                      q: QuadratureSpec) -> complex:
    tau3 = np.arange(0, q.n_nodes + 1) * q.step
    vals = ops.expansion(5).evaluate(np.full_like(tau3, arg1), tau3,
                                     np.full_like(tau3, arg3))
    w = _weights(tau3, q.step, q.rule)
    return complex((w * vals).sum())


def _check_damped(ops: LiouvilleOperatorSet, q: QuadratureSpec) -> None:
    """Refuse a system whose slowest pair rate is the dephasing floor.

    Its validated cutoff (>= 10 / floor) gives the F5 line integral
    millions of nodes, a complex vector of gigabytes at optical steps.
    """
    if ops.system.closed(ops.eta_floor):
        raise ValueError(
            f"short_Te mode needs damped pairs: the slowest pair rate is the "
            f"{ops.eta_floor:g} /fs dephasing floor, so the F5 line integral "
            f"would take {q.n_nodes} nodes (cutoff {q.cutoff:g} fs, step "
            f"{q.step:g} fs); give every pair a nonzero dephasing rate")


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
    for comparison against the full quadrature. A closed system (slowest
    pair rate at the dephasing floor) is refused before any allocation.
    """
    if s < 0:
        raise ValueError(f"short entanglement-time form requires s >= 0, got s={s}")
    if tau < -T:
        raise ValueError(f"short entanglement-time form requires tau >= -T, "
                         f"got tau={tau}, T={T}")
    _check_damped(ops, q)
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
        tau, T, s = (np.array([float(x) for x in header[key].split()])
                     for key in required[1:])
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


def check_lattice(tau_axis: Sequence[float], T_axis: Sequence[float],
                  s_axis: Sequence[float], mode: str) -> None:
    """Refuse a lattice of non-empty axes with a point outside the mode's
    domain: in short_Te mode s > 0 and tau >= -T, naming the first offending
    point in lattice order (tau slowest, s fastest); else tau, T >= 0."""
    if mode == "short_Te":
        for tv, Tv, sv in itertools.product(tau_axis, T_axis, s_axis):
            rule = "s > 0" if sv <= 0 else "tau >= -T" if tv < -Tv else None
            if rule is not None:
                raise ValueError(f"short_Te mode requires {rule}; offending "
                                 f"point (tau={tv}, T={Tv}, s={sv})")
    else:
        _check_domain(min(tau_axis), min(T_axis))


def scan(tau_axis: Sequence[float], T_axis: Sequence[float],
         s_axis: Sequence[float], mode: str, amp, ops: LiouvilleOperatorSet,
         q: QuadratureSpec, hom: Optional[HomSpec] = None,
         workers: Optional[int] = None) -> SignalGrid:
    """Evaluate the chosen signal over the lattice.

    Points are evaluated in lattice order on the calling thread.
    ``workers`` is accepted for compatibility and ignored, so the output is
    the same for any worker count. A lattice outside the mode's domain (see
    `check_lattice`), or an undamped system in short_Te mode (see
    `short_te_terms`), aborts before any point is evaluated. The short_Te
    and bs_removed modes fix the splitter themselves, so they refuse a
    ``hom`` that is not 50:50 (see `HomSpec.balanced`).
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if mode != "full" and hom is not None and not hom.balanced:
        raise ValueError(f"mode {mode} ignores t_coeff and r_coeff; only a "
                         f"50:50 splitter is allowed")
    tau_axis = np.asarray(tau_axis, dtype=float)
    T_axis = np.asarray(T_axis, dtype=float)
    s_axis = np.asarray(s_axis, dtype=float)
    _check_axes(tau_axis, T_axis, s_axis)
    shape = (tau_axis.size, T_axis.size, s_axis.size)
    # lattice order: tau slowest, s fastest (the order SignalGrid writes)
    lattice = list(itertools.product(tau_axis, T_axis, s_axis))
    meta = {
        "system_hash": system_hash(ops),
        "quadrature": (f"cutoff={q.cutoff:.17g} step={q.step:.17g} "
                       f"rule={q.rule} t_ref={q.t_ref:.17g}"),
    }
    if hasattr(amp, "content_hash"):
        meta["amplitude_hash"] = amp.content_hash()
    if not lattice:
        return SignalGrid(tau_axis, T_axis, s_axis, np.zeros(shape), mode, meta)

    check_lattice(tau_axis, T_axis, s_axis, mode)
    if mode == "short_Te":
        _check_damped(ops, q)
        values = [coincidence_short_Te(tv, Tv, sv, ops, q) for tv, Tv, sv in lattice]
    else:
        if mode == "bs_removed":
            hom = HomSpec(t_coeff=1.0, r_coeff=0.0)
        amps = {float(sv): _resolve_amplitude(amp, float(sv)) for sv in s_axis}
        values = [coincidence(tv, Tv, float(sv), amps[float(sv)], ops, q, hom=hom)
                  for tv, Tv, sv in lattice]
    values = np.reshape(values, shape)
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
