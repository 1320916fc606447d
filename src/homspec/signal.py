"""Coincidence-signal assembly.

Evaluates each contribution row of the pathway ledger as a double quadrature
over the two free interaction intervals, sums the signed rows into the real
coincidence value C(tau, T, s), provides the closed-form narrow-amplitude
limit, and scans lattices of (tau, T, s) one batch of points per s.

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

The quadrature takes a batch of (tau, T) points at one s. For each
sub-term it tightens every point's box at once, and builds the nodes, the
weights, the amplitude factors (one `time_value` or stencil call per
distinct argument) and the correlator's A and B once, on the concatenation
of every point's nodes. The nodes are ragged, one offset per point and no
padding, so each elementwise value equals the one a batch of one computes,
bit for bit. Only the sums over one point's nodes (the contractions and
weight folds) run point by point, and each distinct integral runs once per
batch: a constant first interval is factored out of the correlator, so
the pathway-5 integrals of a tau scan do not move with tau. A scan is one
batch per s, or several when its boxes hold too many nodes; a single
point is a batch of one.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import hashlib
import itertools
import math
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

#: Nodes times correlator terms that one sub-term may hold on each
#: integration axis in one batch of points, counting the tightened box of
#: each distinct integral once (see `_batches`); bounds a batch's
#: temporaries and its stencil memo, whose entries on nodes live until the
#: last sub-term that can ask for them (see `_Memo.release`).
_BATCH_NODES = 1 << 12


def _offsets(counts: np.ndarray) -> np.ndarray:
    """Start of each run of a concatenation of runs of these lengths, then
    the end."""
    out = np.zeros(len(counts) + 1, int)
    np.cumsum(counts, out=out[1:])
    return out


def _ragged_arange(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """np.arange(a, a + n) for each (a, n) of `starts` and `counts`,
    concatenated."""
    ends = counts.cumsum()
    return (np.arange(ends[-1] if ends.size else 0)
            + (starts - ends + counts).repeat(counts))


def _weights(nodes: np.ndarray, h: float, rule: str,
             off: Optional[np.ndarray] = None) -> np.ndarray:
    """Quadrature weights on sorted nodes whose cells have length h, except
    for shorter clipping slivers at the ends.

    Trapezoid on every cell; with ``rule="simpson"``, composite Simpson over
    the run of full-length cells (an odd last cell of the run stays
    trapezoid) and trapezoid on the slivers. With `off` (see `_Boxes`),
    `nodes` is several points' runs of nodes and each run gets the weights
    it would get alone.
    """
    d = np.diff(nodes)
    if off is None:
        off = np.array([0, nodes.size])
    d[off[1:-1] - 1] = 0.0  # the cells between two runs
    w = np.zeros(nodes.size)
    if rule == "simpson":
        full = np.abs(d - h) <= 1e-9 * h
        d[full] = h
        # per run: its first full cell a and the k cells that Simpson covers
        a = np.minimum.reduceat(np.where(full, np.arange(d.size), d.size),
                                off[:-1])
        k = np.add.reduceat(full.astype(np.intp), off[:-1]) // 2 * 2
        n = np.diff(off)
        r, k = np.arange(nodes.size) - np.repeat(a, n), np.repeat(k, n)
        simpson = (r >= 0) & (r <= k) & (k > 0)
        w[simpson] = np.where((r == 0) | (r == k), h / 3.0, np.where(
            r % 2 == 1, 4.0 * h / 3.0, 2.0 * h / 3.0))[simpson]
        d[(simpson & (r < k))[:-1]] = 0.0  # these cells take no trapezoid share
    w[:-1] += d / 2.0
    w[1:] += d / 2.0
    return w


def _tighten(I3: List[np.ndarray], I4: List[np.ndarray], constraints
             ) -> np.ndarray:
    """Shrink node intervals so every affine constraint can still be met.

    Each interval is a [lo, hi] pair of (sub-term, point) arrays. Each
    constraint (shift, c3, c4, lo, hi) asks lo <= shift + c3 tau3 + c4 tau4
    <= hi, its shift an array like the intervals and its integer
    coefficients one per sub-term (a column); a constraint without tau3
    and tau4 only passes or fails. Returns the mask of non-empty intervals.
    Intervals only shrink, so an entry is judged once, at the end; until
    then an emptied interval shrinks on harmlessly.
    """
    ok = np.ones(np.shape(I3[0]), bool)
    bounds = []
    for shift, c3, c4, lo, hi in constraints:
        ok &= (c3 != 0) | (c4 != 0) | ((shift >= lo) & (shift <= hi))
        bounds.append((lo - shift, hi - shift, c3, c4))
    for _ in range(2):
        for lo, hi, c3, c4 in bounds:
            for (ci, cj, Ii, Ij) in ((c3, c4, I3, I4), (c4, c3, I4, I3)):
                if not ci.any():
                    continue
                # the least and greatest cj * Ij on the interval
                m = np.minimum(cj * Ij[0], cj * Ij[1])
                M = np.maximum(cj * Ij[0], cj * Ij[1])
                div = np.where(ci == 0, 1, ci)
                lo_i, hi_i = (lo - M) / div, (hi - m) / div
                flip = ci < 0
                lo_i, hi_i = np.where(flip, hi_i, lo_i), np.where(flip, lo_i, hi_i)
                Ii[0] = np.where(ci == 0, Ii[0], np.maximum(Ii[0], lo_i))
                Ii[1] = np.where(ci == 0, Ii[1], np.minimum(Ii[1], hi_i))
    return ok & (I3[0] <= I3[1]) & (I4[0] <= I4[1])


def _inner_nodes(lo: np.ndarray, hi: np.ndarray, q: QuadratureSpec
                 ) -> Tuple[np.ndarray, np.ndarray]:
    """The first step multiple j_lo * step strictly inside each [lo[k],
    hi[k]], and how many there are."""
    eps = 1e-9 * q.step
    j_lo = np.ceil((lo + eps) / q.step).astype(int)
    j_hi = np.floor((hi - eps) / q.step).astype(int)
    return j_lo, np.maximum(j_hi - j_lo + 1, 0)


def _segment_nodes(lo: np.ndarray, hi: np.ndarray, q: QuadratureSpec
                   ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Step-multiple nodes inside each [lo[k], hi[k]] with the exact
    endpoints included: one concatenation of runs, their offsets and their
    lengths."""
    j_lo, inner = _inner_nodes(lo, hi, q)
    off = _offsets(inner + 2)
    nodes = np.empty(off[-1])
    nodes[off[:-1]] = lo
    nodes[off[1:] - 1] = hi
    nodes[_ragged_arange(off[:-1] + 1, inner)] = (_ragged_arange(j_lo, inner)
                                                  * q.step)
    return nodes, off, inner + 2


@dataclass(frozen=True)
class _Boxes:
    """The boxes of one sub-term at the points of a batch where it is not
    empty: those points' places in the batch (`index`), their tau and T,
    and each axis' nodes as one concatenation of runs, point k's tau3 being
    tau3[o3[k]:o3[k + 1]], n3[k] nodes (likewise tau4). No run is padded,
    so whatever is computed node by node on the concatenation equals, bit
    for bit, its value on one point's box alone."""

    index: np.ndarray
    tau: np.ndarray
    T: np.ndarray
    tau3: np.ndarray
    o3: np.ndarray
    n3: np.ndarray
    tau4: np.ndarray
    o4: np.ndarray
    n4: np.ndarray

    def __len__(self) -> int:
        return self.index.size

    @functools.cached_property
    def node_arrays(self) -> Tuple[int, int]:
        """Hashes of the tau3 and tau4 nodes."""
        return hash(self.tau3.tobytes()), hash(self.tau4.tobytes())

    def runs(self, k: int) -> Tuple[slice, slice]:
        """Point k's slices of the tau3 and tau4 nodes."""
        return (slice(self.o3[k], self.o3[k + 1]),
                slice(self.o4[k], self.o4[k + 1]))

    def evaluate(self, expr: Affine, t: float, counts, tau3,
                 tau4) -> np.ndarray:
        """`expr` at (tau3, tau4), which hold `counts[k]` entries of point
        k in turn (or are scalars)."""
        return expr.with_shift(
            expr.shift(t, self.tau, self.T).repeat(counts), tau3, tau4)

    def select(self, keep: Sequence[int]) -> "_Boxes":
        """The boxes of the points `keep` (positions in this batch)."""
        n3, n4 = self.n3[keep], self.n4[keep]
        return _Boxes(self.index[keep], self.tau[keep], self.T[keep],
                      self.tau3[_ragged_arange(self.o3[keep], n3)],
                      _offsets(n3), n3,
                      self.tau4[_ragged_arange(self.o4[keep], n4)],
                      _offsets(n4), n4)


def _intervals(subs: Sequence[SubTerm], tau: np.ndarray, T: np.ndarray, amp,
               q: QuadratureSpec):
    """The box of each sub-term at points (tau[k], T[k]) as (sub-term,
    point) arrays: [lo, hi] of tau3, [lo, hi] of tau4 and the mask of
    non-empty boxes.

    A box is [0, cutoff]^2 tightened to the amplitude support and to the
    one causal constraint first_interval >= 0 (tau3, tau4 >= 0 hold on the
    box). That constraint comes last in each pass of `_tighten` and depends
    on at most one variable, so it ends as a box edge: the correlator's
    arguments are non-negative on every node. Every sub-term and point is
    tightened at once, as one (sub-term, point) array.
    """
    support = amp.time_support()
    sym = np.array([[sub.symmetrize] for sub in subs])
    # one (sub-term expressions, t, lo, hi) per constraint, in order
    slots = []
    if support is not None:
        t1_lo, t1_hi, t2_lo, t2_hi = support
        u_lo, u_hi = min(t1_lo, t2_lo), max(t1_hi, t2_hi)
        for n, (lo, hi) in enumerate(((t1_lo, t1_hi), (t2_lo, t2_hi)) * 2):
            if n >= 2:  # a bracket's two orientations share one box
                lo, hi = np.where(sym, u_lo, lo), np.where(sym, u_hi, hi)
            slots.append(([(sub.conj_args + sub.args)[n] for sub in subs],
                          q.t_ref, lo, hi))
    slots.append(([sub.first_interval for sub in subs], 0.0, 0.0, np.inf))
    constraints = []
    for exprs, t, lo, hi in slots:
        c = np.array([[e.t, e.tau, e.T, e.t3, e.t4] for e in exprs])
        # Affine.shift, one row per sub-term
        shift = c[:, :1] * t + c[:, 1:2] * tau + c[:, 2:3] * T
        constraints.append((shift, c[:, 3:4], c[:, 4:5], lo, hi))
    shape = (len(subs), tau.size)
    I3 = [np.zeros(shape), np.full(shape, q.cutoff)]
    I4 = [np.zeros(shape), np.full(shape, q.cutoff)]
    live = (_tighten(I3, I4, constraints) & (I3[1] - I3[0] >= 1e-12)
            & (I4[1] - I4[0] >= 1e-12))
    return I3, I4, live


def _boxes(subs: Sequence[SubTerm], tau: np.ndarray, T: np.ndarray, amp,
           q: QuadratureSpec) -> List[Optional[_Boxes]]:
    """The (tau3, tau4) nodes of each sub-term's box (see `_intervals`) at
    points (tau[k], T[k]), or None for a sub-term whose every box is
    empty."""
    if not subs:
        return []
    I3, I4, live = _intervals(subs, tau, T, amp, q)
    which, index = np.nonzero(live)
    nodes, off, n = _segment_nodes(np.concatenate((I3[0][live], I4[0][live])),
                                   np.concatenate((I3[1][live], I4[1][live])),
                                   q)
    # (sub-term, point) entries of sub-term s: [ends[s] - count[s], ends[s])
    ends = np.cumsum(np.bincount(which, minlength=len(subs)))
    out: List[Optional[_Boxes]] = []
    for a, b in zip(np.r_[0, ends[:-1]].tolist(), ends.tolist()):
        if a == b:
            out.append(None)
            continue
        o3, o4 = off[a:b + 1], off[which.size + a:which.size + b + 1]
        k = index[a:b]
        out.append(_Boxes(k, tau[k], T[k], nodes[o3[0]:o3[-1]], o3 - o3[0],
                          n[a:b], nodes[o4[0]:o4[-1]], o4 - o4[0],
                          n[which.size + a:which.size + b]))
    return out


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
        return complex(self.contract_terms(A, B).sum())

    def contract_terms(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """A[:, p]^T H B[:, p] for each term p, as a (P,) array."""
        total = self.edge @ (A[self.i] * B[self.j])
        if isinstance(self.inner, np.ndarray):
            # sum_ij a_i inner[i + j] b_j = inner . (a convolved with b)
            total += np.array([self.inner @ np.convolve(a, b)
                               for a, b in zip(A[1:-1].T, B[1:-1].T)])
        elif self.inner is not None:
            total += self.inner.contract_terms(A[1:-1], B[1:-1])
        return total

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        out = np.empty(self.shape, complex)
        out[self.i, self.j] = self.edge
        if isinstance(self.inner, np.ndarray):
            out[1:-1, 1:-1] = sliding_window_view(self.inner, self.shape[1] - 2)
        elif self.inner is not None:
            out[1:-1, 1:-1] = self.inner
        return out if dtype is None else out.astype(dtype)


def _border(n3: int, n4: int) -> Tuple[np.ndarray, np.ndarray]:
    """The nodes (i, j) of an (n3, n4) box's border in `_Bordered` order:
    rows 0 and n3 - 1, then columns 0 and n4 - 1 of each inner row."""
    i = np.empty(2 * (n4 + n3 - 2), int)
    j = np.empty_like(i)
    i[:n4], i[n4:2 * n4] = 0, n3 - 1
    i[2 * n4:] = np.arange(2, 2 * n3 - 2) // 2
    j[:n4] = j[n4:2 * n4] = np.arange(n4)
    j[2 * n4::2], j[2 * n4 + 1::2] = 0, n4 - 1
    return i, j


def _hankel(box: _Boxes, h: float, edge, interior):
    """The `_Bordered` factors of a batch, as a function of the point.

    The border values of every point come from one call
    `edge(counts, T3, T4)` on all border nodes, and the interiors from one
    call `interior(counts, sums)` on all distinct interior node sums, which
    returns their 1-D array or a batch `LatticeFactor` (see
    `LatticeFactor.block`) whose rows are the boxes' inner tau3 nodes.
    """
    n3, n4 = box.n3, box.n4
    border = [_border(a, b) for a, b in zip(n3.tolist(), n4.tolist())]
    eo = _offsets([i.size for i, _ in border])
    values = edge(np.diff(eo), box.tau3[np.concatenate(
        [i + o for (i, _), o in zip(border, box.o3.tolist())])],
                  box.tau4[np.concatenate(
        [j + o for (_, j), o in zip(border, box.o4.tolist())])])
    has = (n3 > 2) & (n4 > 2)
    m = np.where(has, n3 + n4 - 5, 0)
    so, ro = _offsets(m), _offsets(np.where(has, n3 - 2, 0))
    inner = None
    if so[-1]:
        j0 = (np.rint(box.tau3[box.o3[:-1] + 1] / h).astype(int)
              + np.rint(box.tau4[box.o4[:-1] + 1] / h).astype(int))
        inner = interior(m, _ragged_arange(j0, m) * h)

    def point(k: int) -> _Bordered:
        s = slice(so[k], so[k + 1])
        if not has[k]:
            block = None
        elif isinstance(inner, np.ndarray):
            block = inner[s]
        else:
            block = inner.block(slice(ro[k], ro[k + 1]), s)
        return _Bordered((n3[k], n4[k]), *border[k], values[eo[k]:eo[k + 1]],
                         block)

    return point


@dataclass(frozen=True)
class _Line:
    """An amplitude factor of one variable or none: its values on the
    batch's concatenated tau3 (`axis` 3) or tau4 (4) nodes, or one per
    point (None)."""

    axis: Optional[int]
    values: np.ndarray


def _amplitude_factor(amp, args: Tuple[Affine, Affine], bracket: bool,
                      box: _Boxes, q: QuadratureSpec,
                      stencils: Optional[dict] = None, conj: bool = False):
    """The amplitude at `args` on a batch's boxes, plus its swapped-argument
    value when `bracket` is set, conjugated when `conj` is set, evaluated
    once per distinct argument of the whole batch.

    Arguments that miss tau4 (tau3) give a `_Line` on the tau3 (tau4)
    nodes, or one value per point when they miss both. A two-variable
    factor comes as a function of the point k, so that it is contracted
    point by point: arguments that move only with tau3 + tau4 give a
    `_Bordered` factor read from one 1-D array (a Hankel matrix). On a
    lattice amplitude, one argument in tau3 and the other in tau4 give a
    rectilinear `LatticeFactor` (pathway 4), and one in tau3 and the other
    in tau3 + tau4 a `_Bordered` factor with a sheared one inside
    (pathway 5), both from one stencil per distinct coordinate. These
    two-variable factors are contracted, never formed. Anything else, and
    every two-variable factor of an amplitude without a lattice, is
    evaluated on one point's full mesh when that point asks for it.

    A lattice amplitude keeps its stencils in `stencils`, a memo for one
    batch (see `BiphotonAmplitude._cached_stencil`). An argument without
    tau3 and tau4 is one value per point: next to an argument on the nodes
    it is passed once when the whole batch shares it, and else
    interpolated once per point and repeated over that point's nodes for
    the one evaluation. Two such arguments are evaluated as one array per
    batch, so that NumPy's scalar arithmetic never serves a batch of one.
    """
    x, y = args
    t = q.t_ref
    lattice = isinstance(amp, BiphotonAmplitude)
    nodes = bool(x.t3 or x.t4 or y.t3 or y.t4)

    def at(u, v):
        return amp.time_value(u, v, stencils) if lattice else amp.time_value(u, v)

    def value(u, v):
        out = at(u, v)
        if bracket:
            out = out + at(v, u)
        return np.conj(out) if conj else out

    def coordinate(expr, axis, counts, tau3, tau4, repeated):
        if expr.t3 or expr.t4:
            return box.evaluate(expr, t, counts, tau3, tau4)
        values = box.evaluate(expr, t, 1, 0.0, 0.0)
        if (values == values[0]).all() and nodes:
            # one value broadcast against the other argument's nodes
            return np.asarray(values[0])
        if lattice and stencils is not None:
            return amp._repeated_coordinate(
                (axis, 1 - axis) if bracket else (axis,), values, counts,
                stencils, repeated)
        return np.repeat(values, counts)

    def on(counts, tau3, tau4):
        repeated: dict = {}
        u = coordinate(x, 0, counts, tau3, tau4, repeated)
        v = coordinate(y, 1, counts, tau3, tau4, repeated)
        # the repeated stencils join the memo for this evaluation only
        added = [key for key in repeated if key not in stencils]
        for key in added:
            stencils[key] = repeated[key]
        try:
            out = value(u, v)
        finally:
            for key in added:
                del stencils[key]
        n = counts.sum()
        return out if out.size == n else np.broadcast_to(out, (n,))

    if not (x.t4 or y.t4):
        if x.t3 or y.t3:
            return _Line(3, on(box.n3, box.tau3, 0.0))
        return _Line(None, on(np.ones(len(box), int), 0.0, 0.0))
    if x.t3 == x.t4 and y.t3 == y.t4:
        # on the box x(tau3, tau4) = x(tau3 + tau4, 0), and likewise y
        return _hankel(box, q.step, lambda n, T3, T4: on(n, T3 + T4, 0.0),
                       lambda n, sums: on(n, sums, 0.0))
    if not (x.t3 or y.t3):
        return _Line(4, on(box.n4, 0.0, box.tau4))
    if lattice and not conj:
        for swap, (row, col) in ((False, (x, y)), (True, (y, x))):
            if not (row.t3 and not row.t4 and col.t4):
                continue
            if not col.t3:
                factor = amp.lattice_factor(
                    box.evaluate(row, t, box.n3, box.tau3, 0.0),
                    box.evaluate(col, t, box.n4, 0.0, box.tau4), False, swap,
                    bracket, stencils)
                return lambda k: factor.block(*box.runs(k))
            if col.t3 == col.t4:
                def sheared(n, sums, row=row, col=col, swap=swap):
                    inner = np.where((box.n3 > 2) & (box.n4 > 2), box.n3 - 2, 0)
                    rows = box.tau3[_ragged_arange(box.o3[:-1] + 1, inner)]
                    return amp.lattice_factor(
                        box.evaluate(row, t, inner, rows, 0.0),
                        box.evaluate(col, t, n, sums, 0.0), True, swap, bracket,
                        stencils)

                return _hankel(box, q.step, on, sheared)

    def mesh(k: int) -> np.ndarray:
        s3, s4 = box.runs(k)
        T3, T4 = box.tau3[s3][:, None], box.tau4[s4][None, :]
        return value(x(t, box.tau[k], box.T[k], T3, T4),
                     y(t, box.tau[k], box.T[k], T3, T4))

    return mesh


def _integral_keys(sub: SubTerm, interaction: int, tau: np.ndarray,
                   T: np.ndarray) -> Tuple[tuple, List[tuple]]:
    """The memo keys of a sub-term's integral (see `_sub_term_values`) at
    points (tau[k], T[k]): one part for every point, and per point its tau
    and T where an expression that moves with tau3 or tau4 depends on them
    (the direct arguments, the conjugate ones when they move, the first
    interval when it moves). Points with equal keys have equal shifts of
    those expressions, and so equal boxes and integrals."""
    first = sub.first_interval
    conj = sub.conj_args if any(a.t3 or a.t4 for a in sub.conj_args) else ()
    moving = sub.args + conj + ((first,) if first.t3 or first.t4 else ())
    return ((interaction, sub.args, sub.symmetrize, first.t3, first.t4, conj),
            list(zip(*(x.tolist() if any(getattr(e, name) for e in moving)
                       else [None] * x.size
                       for name, x in (("tau", tau), ("T", T))))))


def _sub_term_values(sub: SubTerm, interaction: int, box: _Boxes, amp,
                     ops: LiouvilleOperatorSet, q: QuadratureSpec,
                     memo: Optional[_Memo] = None) -> np.ndarray:
    """Double integral of one sub-term over its box (see `_boxes`) at each
    point of a batch where the box is not empty, in the order of
    `box.index`.

    The correlator separates on the box, F = sum_p A_p(tau3) B_p(tau4), and
    the amplitude factors that depend on one variable fold into that
    variable's weights, so the sub-term is sum_p (w3 A_p)^T H (w4 B_p) with H
    the one factor that depends on both variables (no sub-term has two;
    none at all makes it a product of sums). Weights, amplitude factors
    and the correlator's A and B are computed once for the batch, on every
    point's nodes at once; only the sums over one point's nodes run point
    by point, one sum J_p per correlator term. A `_Bordered` or
    `LatticeFactor` H contracts itself; only a full-mesh H is multiplied.

    A first interval without tau3 and tau4 is a constant c >= 0 on the box
    (pathways 1, 3 and 5, the same-arm rows), and A_p holds it as the
    factor exp(-z1_p c): the integral is taken at c = 0, and each point
    gets sum_p exp(-z1_p c) J_p, no factor of which grows (Re z1 is at
    least the dephasing floor). A conjugate factor that depends on neither
    variable multiplies the integral of the direct factor. What is left
    depends on the point only through the keys of `_integral_keys`, so
    `memo` keeps J per key for one amplitude and batch: points with equal
    keys, and sub-terms differing only in a constant conjugate factor or a
    constant first interval, integrate once (on a tau scan, pathway 5
    integrates I-5/II-5/IV-5 once and III-5 once per T). A constant
    constraint in `_tighten` only passes or fails, and the rest works
    elementwise, so points with equal keys have equal boxes and equal
    integrals bit for bit. `memo` also holds the batch's lattice stencils
    (see `_amplitude_factor`).
    """
    expansion = ops.expansion(interaction)
    memo = _Memo() if memo is None else memo
    stencils = memo.stencils
    first = sub.first_interval
    first_moves = bool(first.t3 or first.t4)
    conj_moves = any(a.t3 or a.t4 for a in sub.conj_args)

    def factor(args, bracket, on, conj=False):
        return _amplitude_factor(amp, args, bracket, on, q, stencils, conj)

    def integral(on: _Boxes, *factors) -> np.ndarray:
        w3 = _weights(on.tau3, q.step, q.rule, on.o3)
        w4 = _weights(on.tau4, q.step, q.rule, on.o4)
        H = None
        for f in factors:
            if not isinstance(f, _Line):
                H = f
            elif f.axis == 4:
                w4 = w4 * f.values
            else:
                w3 = w3 * (f.values if f.axis == 3
                           else np.repeat(f.values, on.n3))
        tau1 = (on.evaluate(first, 0.0, on.n3, on.tau3, 0.0) if first_moves
                else np.zeros(on.tau3.size))
        A, B = expansion.factors(tau1, on.tau3, on.tau4)
        A *= w3[:, None]
        B *= w4[:, None]
        values = np.empty((len(on), A.shape[1]), complex)
        for k in range(len(on)):
            s3, s4 = on.runs(k)
            a, b = A[s3], B[s4]
            if H is None:
                values[k] = a.sum(axis=0) * b.sum(axis=0)
                continue
            h = H(k)
            values[k] = ((a * (h @ b)).sum(axis=0) if isinstance(h, np.ndarray)
                         else h.contract_terms(a, b))
        return values

    part, keys = _integral_keys(sub, interaction, box.tau, box.T)
    known = memo.integrals.setdefault(part, {})
    todo: Dict[tuple, int] = {}
    for k, key in enumerate(keys):
        if key not in known:
            todo.setdefault(key, k)
    if todo:
        on = box if len(todo) == len(box) else box.select(list(todo.values()))
        factors = ((factor(sub.conj_args, False, on, conj=True),)
                   if conj_moves else ())
        factors += (factor(sub.args, sub.symmetrize, on),)
        known.update(zip(todo, integral(on, *factors)))
    J = np.array([known[key] for key in keys])
    if not first_moves:
        # not in place: NumPy rounds an in-place complex product of one
        # element differently, and a batch of one must match the batch
        J = J * np.exp(-np.multiply.outer(first.shift(0.0, box.tau, box.T),
                                          expansion.z1))
    values = J.sum(axis=1)
    if not conj_moves:
        values = factor(sub.conj_args, False, box, conj=True).values * values
    memo.release(box)
    return values


@dataclass
class _Memo:
    """What the sub-terms of one batch of points share: their boxes (by
    sub-term object), their integrals by key (see `_integral_keys`) and
    the lattice stencils (see `_amplitude_factor`).

    With `pending`, the hashes of the node arrays of every sub-term box
    still to be integrated (see `_Boxes.node_arrays`), stencils on nodes are
    dropped after their last use (see `release`); without it (a single
    point or row, whose stencils are few) they live as long as the memo.
    """

    boxes: dict = field(default_factory=dict)
    integrals: dict = field(default_factory=dict)
    stencils: dict = field(default_factory=dict)
    pending: Optional[collections.Counter] = None
    points: int = 1
    tags: dict = field(default_factory=dict)

    def release(self, box: _Boxes) -> None:
        """End one sub-term's use of the stencils; `box` is its box.

        The entries it made are tagged with its box's node arrays. An entry
        on nodes (more coordinates than the batch has points) is then
        dropped once no sub-term still to come has a box with one of its
        tags' node arrays: a coordinate on nodes is an affine function of
        one box's node arrays, so only such a sub-term asks for it again.
        An entry of one value per point lives as long as the memo.
        """
        if self.pending is None:
            return
        mine = box.node_arrays
        for a in mine:
            self.pending[a] -= 1
        for key in self.stencils:
            if key not in self.tags:
                self.tags[key] = mine if math.prod(key[1]) > self.points else ()
        if all(self.pending[a] for a in mine):
            return  # no entry lost its last sub-term to come
        for key in [key for key, arrays in self.tags.items()
                    if arrays and not any(self.pending[a] for a in arrays)]:
            del self.stencils[key], self.tags[key]


def _row_values(term: PathwayTerm, tau: np.ndarray, T: np.ndarray, amp,
                ops: LiouvilleOperatorSet, q: QuadratureSpec,
                memo: _Memo) -> np.ndarray:
    """Sum of a row's sub-term integrals at each point (tau[k], T[k]). A
    correlator without terms gives 0 before any box is built, and so does
    an empty box. The batch's boxes are kept in `memo`, by sub-term
    object."""
    total = np.zeros(tau.size, complex)
    if ops.expansion(term.interaction).coeffs.size == 0:
        return total
    boxes = memo.boxes
    missing = [sub for sub in term.sub_terms if id(sub) not in boxes]
    if missing:
        boxes.update(zip(map(id, missing), _boxes(missing, tau, T, amp, q)))
    for sub in term.sub_terms:
        box = boxes[id(sub)]
        if box is not None:
            total[box.index] += _sub_term_values(sub, term.interaction, box,
                                                 amp, ops, q, memo)
    return total


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
    return complex(_row_values(term, *_point(tau, T),
                               _resolve_amplitude(amp, s), ops, q,
                               _Memo())[0])


def _resolve_amplitude(amp, s: float):
    if isinstance(amp, BiphotonAmplitude):
        return amp if amp.s == s else to_time_domain(amp, s)
    if isinstance(amp, DeltaAmplitude):
        return amp if amp.s == s else dataclasses.replace(amp, s=s)
    if getattr(amp, "s", s) != s:
        raise ValueError(f"amplitude carries s={amp.s}, requested s={s}")
    return amp


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


def _batches(subs: Sequence[Tuple[SubTerm, int]], tau: np.ndarray,
             T: np.ndarray, amp, ops: LiouvilleOperatorSet,
             q: QuadratureSpec) -> List[slice]:
    """Consecutive runs of the points (tau[k], T[k]) in which no sub-term
    (with its interaction) holds more than `_BATCH_NODES` nodes times
    correlator terms on either axis. Each distinct integral of a run (see
    `_integral_keys`) counts its tightened box once; a point over the bound
    alone is a batch of one."""
    if tau.size < 2 or not subs:
        return [slice(0, tau.size)] if tau.size else []
    I3, I4, live = _intervals([sub for sub, _ in subs], tau, T, amp, q)
    terms = np.array([[ops.expansion(i).coeffs.size] for _, i in subs])
    cost = np.where(live, [(_inner_nodes(*I, q)[1] + 2) * terms
                           for I in (I3, I4)], 0)
    keys = [_integral_keys(sub, i, tau, T)[1] for sub, i in subs]
    out, start = [], 0
    held: List[set] = [set() for _ in subs]
    load = np.zeros((2, len(subs)), int)
    for k in range(tau.size):
        new = [n for n, sub_keys in enumerate(keys)
               if live[n, k] and sub_keys[k] not in held[n]]
        if k > start and (load[:, new] + cost[:, new, k]
                          > _BATCH_NODES).any():
            out.append(slice(start, k))
            start, held = k, [set() for _ in subs]
            load[:] = 0
            new = np.flatnonzero(live[:, k]).tolist()
        load[:, new] += cost[:, new, k]
        for n in new:
            held[n].add(keys[n][k])
    out.append(slice(start, tau.size))
    return out


def _signed_rows(table: Sequence[PathwayTerm], tau: np.ndarray,
                 T: np.ndarray, s: float, amp, ops: LiouvilleOperatorSet,
                 q: QuadratureSpec, hom: Optional[HomSpec]
                 ) -> List[Tuple[PathwayTerm, np.ndarray]]:
    """Each row with its signed and channel-weighted value at every point
    (tau[k], T[k]), skipping rows the splitter (default 50:50) weights to
    zero.

    The points go in the batches of `_batches`, sized by their tightened
    boxes. Within a batch, rows and points share the integrals of equal
    keys and the lattice stencils (see `_sub_term_values`) through one
    `_Memo`."""
    _check_domain(tau, T, s)
    hom = hom or HomSpec()
    amp = _resolve_amplitude(amp, s)
    rows = [(term, term.pattern.sign * term.pattern.weight(hom))
            for term in table]
    rows = [(term, weight) for term, weight in rows if weight]
    values = [np.empty(tau.size, complex) for _ in rows]
    subs = list({id(sub): (sub, term.interaction) for term, _ in rows
                 if ops.expansion(term.interaction).coeffs.size
                 for sub in term.sub_terms}.values())
    for batch in _batches(subs, tau, T, amp, ops, q):
        boxes = dict(zip((id(sub) for sub, _ in subs), _boxes(
            [sub for sub, _ in subs], tau[batch], T[batch], amp, q)))
        memo = _Memo(boxes, points=tau[batch].size)
        if memo.points > 1:  # a batch of one keeps its few stencils
            memo.pending = collections.Counter(
                a for term, _ in rows for sub in term.sub_terms
                if boxes.get(id(sub)) is not None
                for a in boxes[id(sub)].node_arrays)
        for (term, weight), out in zip(rows, values):
            out[batch] = weight * _row_values(term, tau[batch], T[batch], amp,
                                              ops, q, memo)
    return [(term, out) for (term, _), out in zip(rows, values)]


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
    points are evaluated in batches (see `_batches`), and the
    values come back in the broadcast shape, each equal bit for bit to the
    float that its point alone gives.
    """
    tau, T = np.broadcast_arrays(np.asarray(tau, float), np.asarray(T, float))
    rows = _signed_rows(term_table(), tau.ravel(), T.ravel(), s, amp, ops, q,
                        hom)
    values = 2.0 * np.real(sum((out for _, out in rows),
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


def check_lattice(tau_axis: Sequence[float], T_axis: Sequence[float],
                  s_axis: Sequence[float], mode: str) -> None:
    """Refuse a lattice of non-empty axes with a point outside the mode's
    domain: finite tau, T and s in every mode; in short_Te mode s > 0 and
    tau >= -T, naming the first offending point in lattice order (tau
    slowest, s fastest); else tau, T >= 0."""
    if mode != "short_Te":
        _check_domain(tau_axis, T_axis, s_axis)
        return
    _check_finite(tau=tau_axis, T=T_axis, s=s_axis)
    for tv, Tv, sv in itertools.product(tau_axis, T_axis, s_axis):
        rule = "s > 0" if sv <= 0 else "tau >= -T" if tv < -Tv else None
        if rule is not None:
            raise ValueError(f"short_Te mode requires {rule}; offending "
                             f"point (tau={tv}, T={Tv}, s={sv})")


def scan(tau_axis: Sequence[float], T_axis: Sequence[float],
         s_axis: Sequence[float], mode: str, amp, ops: LiouvilleOperatorSet,
         q: QuadratureSpec, hom: Optional[HomSpec] = None,
         workers: Optional[int] = None) -> SignalGrid:
    """Evaluate the chosen signal over the lattice.

    Every (tau, T) point of one s is evaluated in one :func:`coincidence`
    call on the calling thread (in batches, see `_batches`), with the
    amplitude transformed to that s alone, so one s value's two-time
    envelope is held at a time. A point's value equals its own
    :func:`coincidence` bit for bit. ``workers`` is accepted for
    compatibility and ignored, so the output is the same for any worker
    count. A lattice outside the mode's domain (see
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
    meta = {
        "system_hash": system_hash(ops),
        "quadrature": (f"cutoff={q.cutoff:.17g} step={q.step:.17g} "
                       f"rule={q.rule} t_ref={q.t_ref:.17g}"),
    }
    if hasattr(amp, "content_hash"):
        meta["amplitude_hash"] = amp.content_hash()
    if not all(shape):
        return SignalGrid(tau_axis, T_axis, s_axis, np.zeros(shape), mode, meta)

    check_lattice(tau_axis, T_axis, s_axis, mode)
    if mode == "short_Te":
        _check_damped(ops, q)
        # lattice order: tau slowest, s fastest (the order SignalGrid writes)
        values = np.reshape([coincidence_short_Te(tv, Tv, sv, ops, q) for
                             tv, Tv, sv in itertools.product(tau_axis, T_axis,
                                                             s_axis)], shape)
    else:
        if mode == "bs_removed":
            hom = HomSpec(t_coeff=1.0, r_coeff=0.0)
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
