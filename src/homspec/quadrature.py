"""The row quadrature: each ledger row's double integral over the two free
interaction intervals, at a batch of (tau, T) points, behind one entry
point, `row_values`.

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
the pathway-5 integrals of a tau scan do not move with tau. A call's
points go in one batch, or several when their boxes hold too many nodes;
a single point is a batch of one. Each batch's `_plan` decides what each
(row, sub-term) use integrates and when its stencils can go, before
`_sub_term_values` integrates it.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .biphoton import BiphotonAmplitude, LineAmplitude
from .model import ETA_FLOOR, ExcitonSystem, LiouvilleOperatorSet
from .pathways import Affine, PathwayTerm, SubTerm

__all__ = ["LatticeFactor", "QuadratureSpec", "check_nodes",
           "resolve_quadrature", "row_values"]

log = logging.getLogger(__name__)

#: Nodes times correlator terms that one sub-term may hold on each
#: integration axis in one batch of points (see `_batches`); bounds a
#: batch's temporaries and its stencil memo (see `_batch_stencils`).
_BATCH_NODES = 1 << 12

#: Rows per block of the sheared contraction; bounds its temporaries.
_ROW_BLOCK = 64

#: Most nodes that one batch of boxes may hold (see `check_nodes`): 32 MiB
#: of float64, before the complex values on them. The boxes are the only
#: quadrature nodes; the closed form's F5 windows are integrated exactly.
NODE_BUDGET = 1 << 22


@dataclass(frozen=True)
class QuadratureSpec:
    """Double-integral settings: cutoff and step (fs), rule, reference time;
    `resolve_quadrature` gives a system's defaults and bounds."""

    cutoff: float
    step: float
    rule: str = "trapezoid"
    t_ref: float = 0.0

    def __post_init__(self) -> None:
        for name in ("cutoff", "step", "t_ref"):
            if not math.isfinite(value := getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.cutoff <= 0 or self.step <= 0:
            raise ValueError("cutoff and step must be positive")
        if self.rule not in ("trapezoid", "simpson"):
            raise ValueError(f"rule must be 'trapezoid' or 'simpson', got {self.rule!r}")

    def validate(self, ops: LiouvilleOperatorSet) -> None:
        """Refuse a cutoff or step outside `resolve_quadrature`'s bounds."""
        resolve_quadrature(ops.system, self.step, self.cutoff, self.rule,
                           eta_floor=ops.eta_floor)


def resolve_quadrature(system: ExcitonSystem, step: Optional[float] = None,
                       cutoff: Optional[float] = None, rule: str = "trapezoid",
                       t_ref: Optional[float] = None,
                       eta_floor: float = ETA_FLOOR) -> QuadratureSpec:
    """The spec of `system` (rates floored at `eta_floor`): the cutoff is by
    default 12 / eta_min and at least 10 / eta_min, so that correlators
    decay below 1e-5; the step resolves the fastest coherence.

    With a reference time `t_ref` the spec is final, and one debug record
    gives its cutoff and step, each with the formula that chose it (or
    "given"), its rule and t_ref. Without one, cutoff and step are only
    resolved and checked: the spec's t_ref is 0 and nothing is logged."""
    eta_min = max(float(system.dephasing_matrix().min()), eta_floor)
    omega_max = float(np.ptp(system.energies()))
    finest = 0.1 * 2.0 * np.pi / omega_max if omega_max > 0 else None
    q = QuadratureSpec(12.0 / eta_min if cutoff is None else cutoff,
                       (finest or 0.5) if step is None else step, rule,
                       0.0 if t_ref is None else t_ref)
    if q.cutoff < (least := 10.0 / eta_min):
        raise ValueError(f"cutoff {q.cutoff} fs too small: damped correlators "
                         f"need >= {least:.3g} fs to decay below 1e-5")
    if finest is not None and q.step > finest:
        raise ValueError(f"step {q.step} fs too coarse for the fastest "
                         f"coherence (need <= {finest:.4g} fs)")
    if t_ref is not None:
        chose_cutoff = ("given" if cutoff is not None
                        else f"12/eta_min, eta_min {eta_min:.6g} /fs")
        chose_step = ("given" if step is not None
                      else "single level" if finest is None
                      else f"0.1*2pi/omega_max, omega_max {omega_max:.6g} "
                           f"rad/fs")
        log.debug("quadrature: cutoff %.6g fs (%s), step %.6g fs (%s), "
                  "rule %s, t_ref %.6g fs", q.cutoff, chose_cutoff, q.step,
                  chose_step, q.rule, q.t_ref)
    return q


def check_nodes(count: int, q: QuadratureSpec) -> None:
    """Refuse to allocate `count` nodes for a batch of boxes
    (`_segment_nodes`) above `NODE_BUDGET`."""
    if count > NODE_BUDGET:
        raise ValueError(f"step {q.step:g} fs takes {count} quadrature nodes, "
                         f"above the budget of {NODE_BUDGET}; use a coarser "
                         f"quadrature step")


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
    lengths. Refuses more nodes than `check_nodes` allows."""
    j_lo, inner = _inner_nodes(lo, hi, q)
    off = _offsets(inner + 2)
    check_nodes(int(off[-1]), q)
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
    tightened at once, as one (sub-term, point) array, each entry alone.
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


def _boxes(subs: Sequence[SubTerm], tau: np.ndarray, T: np.ndarray,
           q: QuadratureSpec, intervals) -> List[Optional[_Boxes]]:
    """The (tau3, tau4) nodes of each sub-term's box at points (tau[k],
    T[k]), given those boxes' `_intervals`, or None for a sub-term whose
    every box is empty."""
    I3, I4, live = intervals
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


def _batches(subs: Sequence[Tuple[SubTerm, int]], keys: List[List[tuple]],
             intervals, ops: LiouvilleOperatorSet,
             q: QuadratureSpec) -> List[slice]:
    """Consecutive runs of a call's points in which no sub-term (with its
    interaction) holds more than `_BATCH_NODES` nodes times correlator
    terms on either axis. Each distinct integral of a run (`keys`, each
    sub-term's point keys from `_integral_keys`) counts its tightened box
    once; a point over the bound alone is a batch of one. `intervals` are
    the sub-terms' `_intervals` at the points."""
    I3, I4, live = intervals
    terms = np.array([[ops.expansion(i).coeffs.size] for _, i in subs])
    cost = np.zeros((2,) + live.shape, int)  # an empty box's ends may overflow
    cost[:, live] = [_inner_nodes(lo[live], hi[live], q)[1] + 2
                     for lo, hi in (I3, I4)]
    cost *= terms
    out, start = [], 0
    held: List[set] = [set() for _ in subs]
    load = np.zeros((2, len(subs)), int)
    for k in range(live.shape[1]):
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
    out.append(slice(start, live.shape[1]))
    return out


@dataclass(frozen=True)
class _HankelFactor:
    """The matrix H[i, j] = values[i + j] of `shape` (n3, n4), from its
    n3 + n4 - 1 values: a factor whose arguments move with tau3 + tau4 on
    the step lattice, where node sums are (j3 + j4) h."""

    shape: Tuple[int, int]
    values: np.ndarray

    def contract_terms(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """A[:, p]^T H B[:, p] for each term p, as a (P,) array."""
        # sum_ij a_i values[i + j] b_j = values . (a convolved with b)
        return np.array([self.values @ np.convolve(a, b)
                         for a, b in zip(A.T, B.T)])

    def block(self, rows: slice, sums: slice) -> "_HankelFactor":
        """One point's factor, of `rows` rows, out of a batch's one row of
        every point's sums."""
        n3, n = rows.stop - rows.start, sums.stop - sums.start
        return _HankelFactor((n3, n - n3 + 1), self.values[sums])

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        out = sliding_window_view(self.values, self.shape[1])
        return out if dtype is None else out.astype(dtype)


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
    nodes a contraction touches. `contract_terms` never forms the mesh;
    `np.asarray` does, for comparison.
    """

    shape: Tuple[int, int]
    sheared: bool
    parts: tuple
    folded: bool = False

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
        """One point's factor out of a batch's, built on every point's
        coordinates: the stencils of its `rows` and `cols` (slices)."""
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


def _batch_stencils(amp: BiphotonAmplitude, memo: dict, last: int):
    """The stencil maker of one use of a batch (see `_plan`):
    `stencil(axis, coord, nodes=True)` makes `BiphotonAmplitude._stencil`
    once per key (the axis, 0 for both on a square lattice; the shape; the
    coordinate bytes) and keeps it in the batch's `memo` with the last use
    that may ask for it, after which `row_values` drops it: the use's
    `last` for coordinates on nodes, the batch's end for one value per
    point or one value that the whole batch shares."""

    def stencil(axis: int, coord, nodes: bool = True):
        coord = np.asarray(coord, dtype=float)
        key = (0 if amp._square else axis, coord.shape, coord.tobytes())
        if key not in memo:
            memo[key] = (amp._stencil(axis, coord),
                         last if nodes else math.inf)
        return memo[key][0]

    return stencil


def _lattice_factor(amp: BiphotonAmplitude, rows, cols, sheared: bool,
                    swap: bool, bracket: bool, stencil) -> LatticeFactor:
    """Phi(rows[i], cols[k]) on the (i, j) mesh, with k = j, or k = i + j
    when `sheared` (`cols` then holds rows.size + n - 1 coordinates for n
    mesh columns); Phi(cols[k], rows[i]) with `swap`, and the sum of both
    with `bracket`: one `stencil(axis, coord)` per coordinate array (see
    `_batch_stencils`). On a square lattice a bracket is one contraction of
    E + E^T, elsewhere one per orientation."""
    n = cols.size - rows.size + 1 if sheared else cols.size
    folded = bracket and amp._square
    parts = []
    for flip in ((swap, not swap) if bracket and not folded else (swap,)):
        # the envelope axis of the row coordinates comes first
        parts.append((amp.envelope.T if flip else amp.envelope,
                      stencil(int(flip), rows), stencil(1 - int(flip), cols)))
    return LatticeFactor((rows.size, n), sheared, tuple(parts), folded)


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


@dataclass(frozen=True)
class _Bordered:
    """An (n3, n4) factor whose arguments move with tau3 + tau4, or with
    tau3 and tau3 + tau4, held without forming it.

    Interior nodes are step multiples j*h, so their sums are (j3 + j4)*h.
    `inner` is the (n3 - 2, n4 - 2) interior: a `_HankelFactor` or a
    sheared `LatticeFactor`, or None when an axis has 2 nodes. The sliver
    rows and columns at the box ends are `edge` at nodes (i, j).
    """

    shape: Tuple[int, int]
    i: np.ndarray
    j: np.ndarray
    edge: np.ndarray
    inner: object

    def contract_terms(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """A[:, p]^T H B[:, p] for each term p, as a (P,) array."""
        total = self.edge @ (A[self.i] * B[self.j])
        if self.inner is not None:
            total += self.inner.contract_terms(A[1:-1], B[1:-1])
        return total

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        out = np.empty(self.shape, complex)
        out[self.i, self.j] = self.edge
        if self.inner is not None:
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
    call `interior(counts, sums)` on all distinct interior node sums: a
    batch factor whose `block` gives each point's interior.
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
        block = (inner.block(slice(ro[k], ro[k + 1]), slice(so[k], so[k + 1]))
                 if has[k] else None)
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
                      box: _Boxes, q: QuadratureSpec, stencil,
                      conj: bool = False):
    """The amplitude at `args` on a batch's boxes, plus its swapped-argument
    value when `bracket` is set, conjugated when `conj` is set, evaluated
    once per distinct argument of the whole batch.

    Arguments that miss tau4 (tau3) give a `_Line` on the tau3 (tau4)
    nodes, or one value per point when they miss both. A two-variable
    factor comes as a function of the point k, so that it is contracted
    point by point: arguments that move only with tau3 + tau4 give a
    `_Bordered` factor with a `_HankelFactor` inside. On a lattice
    amplitude, one argument in tau3 and the other in tau4 give a
    rectilinear `LatticeFactor` (pathway 4), and one in tau3 and the other
    in tau3 + tau4 a `_Bordered` factor with a sheared one inside
    (pathway 5), both from one stencil per distinct coordinate. A
    `LineAmplitude`'s arguments become (x - y, 0), in every ledger a line
    or a Hankel factor. These are contracted, never formed; others raise.

    A lattice amplitude takes its stencils from `stencil` (see
    `_batch_stencils`) and hands them to `time_value`. An argument without
    tau3 and tau4 is one value per point: next to an argument on the nodes
    it is passed once when the whole batch shares it, and else
    interpolated once per point, its stencil repeated over that point's
    nodes. Two such arguments are evaluated as one array per batch, so
    that NumPy's scalar arithmetic never serves a batch of one.
    """
    x, y = args
    if isinstance(amp, LineAmplitude):
        x, y = x - y, Affine(t=0)
    t = q.t_ref
    lattice = isinstance(amp, BiphotonAmplitude)
    nodes = bool(x.t3 or x.t4 or y.t3 or y.t4)

    def coordinate(expr, counts, tau3, tau4):
        # the argument's coordinates, and their stencil on an axis
        if expr.t3 or expr.t4:
            out = box.evaluate(expr, t, counts, tau3, tau4)
            return out, lambda a: stencil(a, out)
        values = box.evaluate(expr, t, 1, 0.0, 0.0)
        if (values == values[0]).all() and nodes:
            # one value broadcast against the other argument's nodes
            out = np.asarray(values[0])
            return out, lambda a: stencil(a, out, False)
        return np.repeat(values, counts), lambda a: tuple(
            np.repeat(w, counts) for w in stencil(a, values, False))

    def phi(u, v):
        if not lattice:
            return amp.time_value(u[0], v[0])
        return amp.time_value(u[0], v[0], stencils=(u[1](0), v[1](1)))

    def on(counts, tau3, tau4):
        u = coordinate(x, counts, tau3, tau4)
        v = coordinate(y, counts, tau3, tau4)
        out = phi(u, v) + phi(v, u) if bracket else phi(u, v)
        if conj:
            out = np.conj(out)
        n = counts.sum()
        return out if out.size == n else np.broadcast_to(out, (n,))

    if not (x.t4 or y.t4):
        if x.t3 or y.t3:
            return _Line(3, on(box.n3, box.tau3, 0.0))
        return _Line(None, on(np.ones(len(box), int), 0.0, 0.0))
    if x.t3 == x.t4 and y.t3 == y.t4:
        # on the box x(tau3, tau4) = x(tau3 + tau4, 0), and likewise y
        return _hankel(box, q.step, lambda n, T3, T4: on(n, T3 + T4, 0.0),
                       lambda n, sums: _HankelFactor((1, sums.size),
                                                     on(n, sums, 0.0)))
    if not (x.t3 or y.t3):
        return _Line(4, on(box.n4, 0.0, box.tau4))
    if lattice and not conj:
        for swap, (row, col) in ((False, (x, y)), (True, (y, x))):
            if not (row.t3 and not row.t4 and col.t4):
                continue
            if not col.t3:
                factor = _lattice_factor(
                    amp, box.evaluate(row, t, box.n3, box.tau3, 0.0),
                    box.evaluate(col, t, box.n4, 0.0, box.tau4), False, swap,
                    bracket, stencil)
                return lambda k: factor.block(*box.runs(k))
            if col.t3 == col.t4:
                def sheared(n, sums, row=row, col=col, swap=swap):
                    inner = np.where((box.n3 > 2) & (box.n4 > 2), box.n3 - 2, 0)
                    rows = box.tau3[_ragged_arange(box.o3[:-1] + 1, inner)]
                    return _lattice_factor(
                        amp, box.evaluate(row, t, inner, rows, 0.0),
                        box.evaluate(col, t, n, sums, 0.0), True, swap, bracket,
                        stencil)

                return _hankel(box, q.step, on, sheared)
    raise NotImplementedError(f"no contraction for the {type(amp).__name__} "
                              f"factor at ({x}, {y})")


def _integral_keys(sub: SubTerm, interaction: int, tau: np.ndarray,
                   T: np.ndarray) -> Tuple[tuple, List[tuple]]:
    """The keys of a sub-term's integral (see `_sub_term_values`) at points
    (tau[k], T[k]): one part for every point, and per point its tau and T
    where an expression that moves with tau3 or tau4 depends on them (the
    direct arguments, the conjugate ones and the first interval, each when
    it moves). The part holds the moving expressions whole, so points with
    equal keys have equal shifts of equal expressions, and so equal boxes
    and integrals."""
    first = sub.first_interval
    first = (first,) if first.t3 or first.t4 else ()
    conj = sub.conj_args if any(a.t3 or a.t4 for a in sub.conj_args) else ()
    moving = sub.args + conj + first
    return ((interaction, sub.args, sub.symmetrize, first, conj),
            list(zip(*(x.tolist() if any(getattr(e, name) for e in moving)
                       else [None] * x.size
                       for name, x in (("tau", tau), ("T", T))))))


@dataclass(frozen=True)
class _Use:
    """One row's use of a sub-term in a batch (see `_plan`): its boxes, their
    points' keys, the positions `at` of the points it integrates and the
    last use of the batch that can ask for a stencil it makes."""

    row: int
    sub: SubTerm
    interaction: int
    box: _Boxes
    part: tuple
    keys: List[tuple]
    at: List[int]
    last: int


def _plan(uses: Sequence[Tuple[int, SubTerm, int]], boxes: dict, keys: dict,
          batch: slice) -> List[_Use]:
    """The uses of one batch, in order: each (row, sub-term, interaction) of
    `uses` whose boxes (`boxes`, by sub-term id) are not all empty, with
    its keys at their points out of the call's (`keys`, by sub-term id).

    A use integrates the first point of each key that no earlier use knows.
    If there is one, it asks for a stencil of one coordinate family per
    argument that moves with tau3 or tau4: the node arrays it moves with,
    the points integrated on them and its coefficients, the whole of what
    its coordinates are computed from (see `_Boxes.evaluate`), whichever
    axis they lie on. Its last use is the last that asks for one of its
    families."""
    planned, families, last, seen = [], [], {}, {}
    for row, sub, interaction in uses:
        box = boxes[id(sub)]
        if box is None:
            continue
        part, call_keys = keys[id(sub)]
        batch_keys = call_keys[batch]
        box_keys = [batch_keys[k] for k in box.index.tolist()]
        known, at = seen.setdefault(part, set()), []
        for k, key in enumerate(box_keys):
            if key not in known:
                known.add(key)
                at.append(k)
        points = box.index[at].tobytes()
        a3, a4 = ((hash(x.tobytes()), points) for x in (box.tau3, box.tau4))
        families.append({
            ((a3, e.t3) if e.t3 else ()) + ((a4, e.t4) if e.t4 else ())
            + (e.t, e.tau, e.T)
            for e in sub.conj_args + sub.args if at and (e.t3 or e.t4)})
        last.update(dict.fromkeys(families[-1], len(planned)))
        planned.append((row, sub, interaction, box, part, box_keys, at))
    return [_Use(*use, max((last[f] for f in fs), default=u))
            for u, (use, fs) in enumerate(zip(planned, families))]


def _sub_term_values(use: _Use, amp, ops: LiouvilleOperatorSet,
                     q: QuadratureSpec, integrals: dict,
                     stencils: dict) -> np.ndarray:
    """Double integral of a use's sub-term over its box (see `_boxes`) at
    each point of a batch where the box is not empty, in the order of
    `use.box.index`: sum_p (w3 A_p)^T H (w4 B_p), one sum J_p per
    correlator term, with H the one factor in both variables (a `_Bordered`
    or `LatticeFactor`, which contracts itself; none makes it a product of
    sums).

    A first interval without tau3 and tau4 is a constant c >= 0 on the box
    (pathways 1, 3 and 5, the same-arm rows): the integral is taken at
    c = 0, and each point gets sum_p exp(-z1_p c) J_p, no factor of which
    grows (Re z1 is at least the dephasing floor). A conjugate factor that
    depends on neither variable multiplies the integral. What is left
    depends on the point only through the keys of `_integral_keys`, so
    `integrals` keeps J per key for the batch: the use integrates the
    points `use.at` that its plan gives it (see `_plan`) and reads the
    rest, so points with equal keys, and sub-terms differing only in a
    constant conjugate factor or first interval, integrate once (on a tau
    scan, I-5/II-5/IV-5 once and III-5 once per T). A constant constraint
    in `_tighten` only passes or fails, and the rest works elementwise, so
    equal keys give equal boxes and integrals bit for bit. `stencils` is
    the batch's stencil memo (see `_batch_stencils`).
    """
    sub, box = use.sub, use.box
    stencil = _batch_stencils(amp, stencils, use.last)
    expansion = ops.expansion(use.interaction)
    first = sub.first_interval
    first_moves = bool(first.t3 or first.t4)
    conj_moves = any(a.t3 or a.t4 for a in sub.conj_args)

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
            values[k] = (a.sum(axis=0) * b.sum(axis=0) if H is None
                         else H(k).contract_terms(a, b))
        return values

    known = integrals.setdefault(use.part, {})
    if use.at:
        on = box if len(use.at) == len(box) else box.select(use.at)
        factors = ([_amplitude_factor(amp, sub.conj_args, False, on, q,
                                      stencil, True)] if conj_moves else [])
        factors.append(_amplitude_factor(amp, sub.args, sub.symmetrize, on, q,
                                         stencil))
        known.update(zip([use.keys[k] for k in use.at],
                         integral(on, *factors)))
    J = np.array([known[key] for key in use.keys])
    if not first_moves:
        # not in place: NumPy rounds an in-place complex product of one
        # element differently, and a batch of one must match the batch
        J = J * np.exp(-np.multiply.outer(first.shift(0.0, box.tau, box.T),
                                          expansion.z1))
    values = J.sum(axis=1)
    if not conj_moves:
        values = _amplitude_factor(amp, sub.conj_args, False, box, q,
                                   stencil, True).values * values
    return values


def row_values(rows: Sequence[PathwayTerm], tau: np.ndarray, T: np.ndarray,
               amp, ops: LiouvilleOperatorSet,
               q: QuadratureSpec) -> List[np.ndarray]:
    """Each row's unsigned value, the sum of its sub-term integrals, at
    every point (tau[k], T[k]) of one s (the amplitude's).

    A row whose correlator has no terms is 0 and builds no box. Every
    distinct sub-term is keyed (`_integral_keys`) and its boxes tightened
    (`_intervals`) once for all points, and the points go in the `_batches`
    those boxes size. Each batch's `_plan` decides what each (row,
    sub-term) use integrates; the uses share the batch's integrals and
    stencil memo, and each stencil is dropped after the last use that can
    ask for it (see `_batch_stencils`). Each value equals, bit for bit, its
    row's value at its point alone."""
    values = [np.zeros(tau.size, complex) for _ in rows]
    uses = [(r, sub, term.interaction) for r, term in enumerate(rows)
            if ops.expansion(term.interaction).coeffs.size
            for sub in term.sub_terms]
    subs = list({id(sub): (sub, i) for _, sub, i in uses}.values())
    if not subs:
        return values
    sub_terms = [sub for sub, _ in subs]
    keys = {id(sub): _integral_keys(sub, i, tau, T) for sub, i in subs}
    I3, I4, nonempty = intervals = _intervals(sub_terms, tau, T, amp, q)
    for batch in _batches(subs, [keys[id(sub)][1] for sub in sub_terms],
                          intervals, ops, q):
        columns = ([I[:, batch] for I in I3], [I[:, batch] for I in I4],
                   nonempty[:, batch])
        boxes = dict(zip(map(id, sub_terms), _boxes(
            sub_terms, tau[batch], T[batch], q, columns)))
        plan = _plan(uses, boxes, keys, batch)
        integrals, stencils = {}, {}
        for u, use in enumerate(plan):
            values[use.row][batch][use.box.index] += _sub_term_values(
                use, amp, ops, q, integrals, stencils)
            for key in [key for key, (_, end) in stencils.items() if end <= u]:
                del stencils[key]
    return values
