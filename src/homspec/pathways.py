"""Detection transformation, pathway enumeration and the contribution ledger.

Three layers of bookkeeping live here:

* the beam-splitter rotation applied at the detection stage and the four
  surviving detection patterns (one photon per input mode at each detector),
* the combinatorial enumeration of light-matter interaction pathways and the
  filter chain that reduces 256 candidates to the five surviving four-point
  correlators,
* the full table of detection x interaction contribution recipes: for each
  combination, the amplitude argument maps and the correlator's first
  interval that the signal quadrature integrates.

Entropy diagnostics over pathway probability vectors round the module out.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .model import CORRELATOR_SEQUENCES, sequence_tokens

__all__ = [
    "HomSpec",
    "hom_matrix",
    "detection_combinations",
    "detection_pathways",
    "DetectionPathway",
    "InteractionPathway",
    "enumerate_interaction_pathways",
    "DEFAULT_FILTERS",
    "Affine",
    "SubTerm",
    "PathwayTerm",
    "term_table",
    "complete_term_table",
    "format_term_table",
    "pathway_entropy",
    "kl_divergence",
    "bare_pair_coincidence",
]


@dataclass(frozen=True)
class HomSpec:
    """Beam-splitter mixing with relative delay T (fs).

    Real transmission/reflection amplitudes; t^2 + r^2 must equal 1.
    """

    T: float = 0.0
    t_coeff: float = 1.0 / np.sqrt(2.0)
    r_coeff: float = 1.0 / np.sqrt(2.0)

    def __post_init__(self) -> None:
        if abs(self.t_coeff ** 2 + self.r_coeff ** 2 - 1.0) > 1e-12:
            raise ValueError("t_coeff^2 + r_coeff^2 must equal 1 (within 1e-12)")

    @property
    def balanced(self) -> bool:
        """A 50:50 splitter: t^2 = r^2 within 1e-12."""
        return abs(self.t_coeff ** 2 - self.r_coeff ** 2) <= 1e-12


def hom_matrix(omega: float, hom: HomSpec) -> np.ndarray:
    """Frequency-domain rotation [[t, i r e^{i w T}], [i r e^{-i w T}, t]]."""
    t, r, T = hom.t_coeff, hom.r_coeff, hom.T
    return np.array(
        [[t, 1j * r * np.exp(1j * omega * T)],
         [1j * r * np.exp(-1j * omega * T), t]],
        dtype=complex,
    )


@dataclass(frozen=True)
class Affine:
    """Affine time expression c0 + t + tau*`tau` + T*`T` + t3*`tau3` + t4*`tau4`.

    The detection reference time t enters with coefficient 0 or 1; all
    integration-variable coefficients are small integers. Evaluation
    broadcasts over tau3/tau4 meshes and skips a variable whose coefficient
    is zero, so an expression in tau3 alone keeps the shape of tau3.
    """

    c0: float = 0.0
    t: int = 1
    tau: int = 0
    T: int = 0
    t3: int = 0
    t4: int = 0

    def __call__(self, t: float, tau: float, T: float, tau3, tau4):
        out = np.asarray(self.shift(t, tau, T))
        if self.t3:
            out = out + self.t3 * np.asarray(tau3)
        if self.t4:
            out = out + self.t4 * np.asarray(tau4)
        return out

    def shift(self, t: float, tau: float, T: float) -> float:
        """The scalar part once tau3 = tau4 = 0."""
        return self.c0 + self.t * t + self.tau * tau + self.T * T

    def __str__(self) -> str:
        parts: List[str] = []
        for coef, name in ((self.t, "t"), (self.tau, "τ"), (self.T, "T"),
                           (self.t3, "τ3"), (self.t4, "τ4")):
            if coef == 0:
                continue
            sign = "-" if coef < 0 else ("+" if parts else "")
            mag = abs(coef)
            parts.append(f"{sign}{'' if mag == 1 else mag}{name}")
        if self.c0:
            parts.append(f"{'+' if self.c0 > 0 else '-'}{abs(self.c0)}")
        return "".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# detection stage
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DetectionPathway:
    """One surviving detection pattern O_I..O_IV.

    ``ket_times``/``bra_times`` give the (mode, time expression) pairs of the
    annihilation/creation field pairs; expressions are affine in the
    detection reference time t, the detector difference tau and the
    beam-splitter delay T.
    """

    name: str
    sign: int
    channel: str                      # "direct" or "exchange"
    t_power: int                      # transmission amplitude exponent
    r_power: int
    ket_times: Tuple[Tuple[str, Affine], ...]
    bra_times: Tuple[Tuple[str, Affine], ...]

    def weight(self, hom: HomSpec) -> float:
        return (hom.t_coeff ** self.t_power) * (hom.r_coeff ** self.r_power)


#: The four detection patterns by name: the one source of each pattern's
#: sign, channel and (t, r) powers, for the ledger rows too.
_PATTERNS: Dict[str, DetectionPathway] = {p.name: p for p in (
    DetectionPathway("I", +1, "direct", 4, 0,
                     ket_times=(("a", Affine()), ("b", Affine(tau=1))),
                     bra_times=(("a", Affine()), ("b", Affine(tau=1)))),
    DetectionPathway("II", +1, "direct", 0, 4,
                     ket_times=(("a", Affine(tau=1)), ("b", Affine())),
                     bra_times=(("a", Affine(tau=1)), ("b", Affine()))),
    DetectionPathway("III", -1, "exchange", 2, 2,
                     ket_times=(("a", Affine(tau=1, T=1)), ("b", Affine(T=-1))),
                     bra_times=(("a", Affine()), ("b", Affine(tau=1)))),
    DetectionPathway("IV", -1, "exchange", 2, 2,
                     ket_times=(("a", Affine()), ("b", Affine(tau=1))),
                     bra_times=(("a", Affine(tau=1, T=1)), ("b", Affine(T=-1)))),
)}


def detection_combinations() -> List[dict]:
    """All 16 branch choices of the four detection field factors.

    Each of the four rotated field operators (two annihilations on the ket
    side, two creations on the bra side) contributes either its transmitted
    branch or its cross branch. Only choices placing one photon of each input
    mode on each side survive; those four map onto O_I..O_IV.
    """
    combos = []
    for branches in itertools.product(("through", "cross"), repeat=4):
        lk1, lk2, rb1, rb2 = branches
        # detector a sees mode a when transmitted, mode b when crossed;
        # detector b vice versa
        ket_modes = ("a" if lk1 == "through" else "b",
                     "b" if lk2 == "through" else "a")
        bra_modes = ("a" if rb1 == "through" else "b",
                     "b" if rb2 == "through" else "a")
        kept = set(ket_modes) == {"a", "b"} and set(bra_modes) == {"a", "b"}
        combos.append({"branches": branches, "ket_modes": ket_modes,
                       "bra_modes": bra_modes, "kept": kept})
    return combos


def detection_pathways() -> List[DetectionPathway]:
    """The four detection patterns O_I..O_IV."""
    return list(_PATTERNS.values())


# ---------------------------------------------------------------------------
# interaction pathway enumeration
# ---------------------------------------------------------------------------

DEFAULT_FILTERS: Tuple[str, ...] = (
    "rwa",
    "ground_state_start",
    "photon_number",
    "no_single_side",
    "left_termination",
)


@dataclass(frozen=True)
class InteractionPathway:
    """A surviving interaction pathway, chronological (earliest first).

    Each op is (side, dagger): dagger=True raises the matter state on that
    branch (and annihilates a photon under the near-resonant pairing). The
    complex conjugate of every pathway is implied; the signal's 2 Re sum
    supplies it.
    """

    ops: Tuple[Tuple[str, bool], ...]
    index: Optional[int] = None       # 1..5 when matching a canonical correlator

    @property
    def tokens(self) -> Tuple[str, ...]:
        return sequence_tokens(tuple(reversed(self.ops)))


def _passes(ops: Tuple[Tuple[str, bool], ...], rule: str) -> bool:
    sides = [s for s, _ in ops]
    raises = sum(1 for _, d in ops if d)
    if rule == "rwa":
        # the candidate set is already expressed in paired (side, sense)
        # form; the rule records the pairing and eliminates nothing
        return True
    if rule == "ground_state_start":
        # both branches start in the ground level, so the first action on
        # each branch must excite it: raising from the left, lowering from
        # the right (right multiplication by V raises the bra index)
        for side, dagger in ops:
            if side == "L":
                if not dagger:
                    return False
                break
        for side, dagger in ops:
            if side == "R":
                if dagger:
                    return False
                break
        return True
    if rule == "photon_number":
        return raises == len(ops) - raises
    if rule == "no_single_side":
        return sides.count("L") != 1 and sides.count("R") != 1
    if rule == "left_termination":
        return ops[-1] == ("L", False)
    raise ValueError(f"unknown filter rule {rule!r}")


def enumerate_interaction_pathways(
    filters: Sequence[str] = DEFAULT_FILTERS,
) -> List[InteractionPathway]:
    """Filter the 256 (side, sense)^4 candidates down to the survivors.

    With the default rule chain exactly five pathways survive; they are
    returned in the canonical correlator order with their indices set.
    Deterministic and order-stable for any rule subset.
    """
    for rule in filters:
        if rule not in DEFAULT_FILTERS:
            raise ValueError(f"unknown filter rule {rule!r}")
    candidates = itertools.product(
        itertools.product(("L", "R"), (True, False)), repeat=4)
    canonical = {
        tuple(reversed(seq)): idx for idx, seq in CORRELATOR_SEQUENCES.items()
    }
    survivors = []
    for ops in candidates:
        if all(_passes(ops, rule) for rule in filters):
            survivors.append(InteractionPathway(ops, index=canonical.get(ops)))
    survivors.sort(key=lambda p: (p.index is None, p.index, p.ops))
    return survivors


# ---------------------------------------------------------------------------
# the contribution ledger
# ---------------------------------------------------------------------------

# F-argument expressions never carry the reference time
def _farg(**kw) -> Affine:
    return Affine(t=0, **kw)


@dataclass(frozen=True)
class SubTerm:
    """One integrand of a contribution row.

    conj_args feed the conjugated amplitude, args the direct one; when
    ``symmetrize`` is set the direct amplitude is the bracket
    value(args) + value(swapped args). The correlator is evaluated at
    (first_interval, tau3, tau4): in every row its two earliest intervals
    are the integration variables, so only its first argument is stored.
    """

    conj_args: Tuple[Affine, Affine]
    args: Tuple[Affine, Affine]
    first_interval: Affine
    symmetrize: bool = False


@dataclass(frozen=True)
class PathwayTerm:
    """One detection x interaction combination of the contribution table.

    ``extension`` is empty for the rows of the published ledger and names
    the block a row of :func:`complete_term_table` adds to it.
    """

    detection: str                    # "I".."IV"
    interaction: int                  # 1..5
    sub_terms: Tuple[SubTerm, ...]
    extension: str = ""

    @property
    def pattern(self) -> DetectionPathway:
        """The row's detection pattern: its sign, channel and weight."""
        return _PATTERNS[self.detection]

    @property
    def label(self) -> str:
        base = f"{self.detection}-{self.interaction}"
        return f"{base} {self.extension}" if self.extension else base


def _term(det: str, i: int, subs: Sequence[SubTerm],
          extension: str = "") -> PathwayTerm:
    return PathwayTerm(det, i, tuple(subs), extension)


def term_table() -> List[PathwayTerm]:
    """All 20 contribution rows of the coincidence signal.

    Argument conventions: tau is the detector time difference, T the
    beam-splitter delay, tau3/tau4 the two integration variables; t is the
    detection reference time. Rows with the exchange channel and interaction
    index 1..3 contain two sub-terms each. This is the published ledger;
    :func:`complete_term_table` extends it to the complete fourth-order
    counting signal.
    """
    A = Affine
    rows: List[PathwayTerm] = []

    # interaction pathway 1
    rows.append(_term("I", 1, [SubTerm(
        conj_args=(A(t3=-1, t4=-1), A(tau=1)),
        args=(A(), A(t3=-1)),
        first_interval=_farg(tau=1))]))
    rows.append(_term("II", 1, [SubTerm(
        conj_args=(A(tau=1), A(t3=-1, t4=-1)),
        args=(A(t3=-1), A()),
        first_interval=_farg(tau=1))]))
    rows.append(_term("III", 1, [
        SubTerm(conj_args=(A(), A(tau=1, t3=-1, t4=-1)),
                args=(A(tau=1, t3=-1), A(T=-1)),
                first_interval=_farg(T=1)),
        SubTerm(conj_args=(A(t3=-1, t4=-1), A(tau=1)),
                args=(A(t3=-1), A(T=-1)),
                first_interval=_farg(T=1, tau=1)),
    ]))
    rows.append(_term("IV", 1, [
        SubTerm(conj_args=(A(T=1, tau=1), A(T=-1, t3=-1, t4=-1)),
                args=(A(T=-1, t3=-1), A(tau=1)),
                first_interval=_farg(T=1)),
        SubTerm(conj_args=(A(T=1, tau=1), A(T=-1, t3=-1, t4=-1)),
                args=(A(), A(T=-1, t3=-1)),
                first_interval=_farg(tau=1, T=1)),
    ]))

    # interaction pathway 2
    rows.append(_term("I", 2, [SubTerm(
        conj_args=(A(t4=-1), A(tau=1)),
        args=(A(), A(t3=1)),
        first_interval=_farg(tau=1, t3=-1))]))
    rows.append(_term("II", 2, [SubTerm(
        conj_args=(A(tau=1), A(t4=-1)),
        args=(A(t3=1), A()),
        first_interval=_farg(tau=1, t3=-1))]))
    rows.append(_term("III", 2, [
        SubTerm(conj_args=(A(), A(tau=1, t4=-1)),
                args=(A(tau=1, t3=1), A(T=-1)),
                first_interval=_farg(T=1, t3=-1)),
        SubTerm(conj_args=(A(t4=-1), A(tau=1)),
                args=(A(t3=1), A(T=-1)),
                first_interval=_farg(tau=1, T=1, t3=-1)),
    ]))
    rows.append(_term("IV", 2, [
        SubTerm(conj_args=(A(T=1, tau=1), A(T=-1, t4=-1)),
                args=(A(T=-1, t3=1), A(tau=1)),
                first_interval=_farg(T=1, t3=-1)),
        SubTerm(conj_args=(A(T=1, tau=1), A(T=-1, t4=-1)),
                args=(A(), A(T=-1, t3=1)),
                first_interval=_farg(tau=1, T=1, t3=-1)),
    ]))

    # interaction pathway 3
    rows.append(_term("I", 3, [SubTerm(
        conj_args=(A(t3=-1), A(tau=1)),
        args=(A(), A(t3=-1, t4=-1)),
        first_interval=_farg(tau=1))]))
    rows.append(_term("II", 3, [SubTerm(
        conj_args=(A(tau=1), A(t3=-1)),
        args=(A(t3=-1, t4=-1), A()),
        first_interval=_farg(tau=1))]))
    rows.append(_term("III", 3, [
        SubTerm(conj_args=(A(), A(tau=1, t3=-1)),
                args=(A(tau=1, t3=-1, t4=-1), A(T=-1)),
                first_interval=_farg(T=1)),
        SubTerm(conj_args=(A(t3=-1), A(tau=1)),
                args=(A(t3=-1, t4=-1), A(T=-1)),
                first_interval=_farg(tau=1, T=1)),
    ]))
    rows.append(_term("IV", 3, [
        SubTerm(conj_args=(A(T=1, tau=1), A(T=-1, t3=-1)),
                args=(A(T=-1, t3=-1, t4=-1), A(tau=1)),
                first_interval=_farg(T=1)),
        SubTerm(conj_args=(A(T=1, tau=1), A(T=-1, t3=-1)),
                args=(A(), A(T=-1, t3=-1, t4=-1)),
                first_interval=_farg(T=1, tau=1)),
    ]))

    # interaction pathway 4, one absorption order per row as the source
    # table prints them. The counting probability's (0,4) blocks hold both
    # orders (the brute force finds the other order comparable in size),
    # and II-4's amplitude arguments contradict its correlator arguments,
    # which put the absorptions at t - tau4 and t + tau3; see
    # complete_term_table.
    rows.append(_term("I", 4, [SubTerm(
        conj_args=(A(), A(tau=1)),
        args=(A(t4=-1), A(t3=1)),
        first_interval=_farg(tau=1, t3=-1))]))
    rows.append(_term("II", 4, [SubTerm(
        conj_args=(A(tau=1), A()),
        args=(A(tau=1, t3=1), A(tau=1, t4=-1)),
        first_interval=_farg(tau=1, t3=-1))]))
    rows.append(_term("III", 4, [SubTerm(
        conj_args=(A(), A(tau=1)),
        args=(A(T=-1, t3=1), A(T=-1, t4=-1)),
        first_interval=_farg(T=2, tau=1, t3=-1))]))
    rows.append(_term("IV", 4, [SubTerm(
        conj_args=(A(T=1, tau=1), A(T=-1)),
        args=(A(t4=-1), A(t3=1)),
        first_interval=_farg(tau=1, t3=-1))]))

    # interaction pathway 5 (naturally symmetrized bracket)
    rows.append(_term("I", 5, [SubTerm(
        conj_args=(A(), A(tau=1)),
        args=(A(t3=-1), A(t3=-1, t4=-1)),
        first_interval=_farg(tau=1),
        symmetrize=True)]))
    rows.append(_term("II", 5, [SubTerm(
        conj_args=(A(tau=1), A()),
        args=(A(t3=-1), A(t3=-1, t4=-1)),
        first_interval=_farg(tau=1),
        symmetrize=True)]))
    rows.append(_term("III", 5, [SubTerm(
        conj_args=(A(), A(tau=1)),
        args=(A(T=-1, t3=-1, t4=-1), A(T=-1, t3=-1)),
        first_interval=_farg(tau=1, T=2),
        symmetrize=True)]))
    rows.append(_term("IV", 5, [SubTerm(
        conj_args=(A(T=1, tau=1), A(T=-1)),
        args=(A(t3=-1), A(t3=-1, t4=-1)),
        first_interval=_farg(tau=1),
        symmetrize=True)]))

    return rows


def complete_term_table() -> List[PathwayTerm]:
    """The ledger extended to the complete fourth-order counting signal.

    Against the wavefunction brute force, the published ledger covers the
    cross-arm (2,2) blocks of O_I/O_II (bra and ket absorbed different
    photons), all four arm combinations of O_III/O_IV, and the (0,4) blocks
    only in part. This table:

    * gives every pathway-4 row both absorption orders (the bracket
      value(args) + value(swapped args), as on pathway 5);
    * takes II-4's absorptions at t - tau4 and t + tau3, where its own
      correlator arguments put them;
    * adds the same-arm (2,2) rows of O_I/O_II, extension "same-arm": bra and
      ket absorbed the same photon and emitted it at the same detection time,
      so the last correlator interval is 0. Bra-first ordering (F1) only:
      the ket-first half (F3) is its complex conjugate, which the signal's
      2 Re supplies.

    Assemble it with :func:`homspec.signal.complete_coincidence`.
    """
    A = Affine
    rows: List[PathwayTerm] = []
    for term in term_table():
        if term.interaction == 4:
            subs = tuple(dataclasses.replace(sub, symmetrize=True)
                         for sub in term.sub_terms)
            if term.detection == "II":
                subs = (dataclasses.replace(subs[0], args=(A(t4=-1), A(t3=1))),)
            term = dataclasses.replace(term, sub_terms=subs)
        rows.append(term)
    # bra and ket absorb the same photon (first sub-term a, second b) and
    # emit it at that photon's detection time; the other photon reaches its
    # detector unabsorbed
    same = _farg()
    rows.append(_term("I", 1, [
        SubTerm(conj_args=(A(t3=-1, t4=-1), A(tau=1)),
                args=(A(t3=-1), A(tau=1)), first_interval=same),
        SubTerm(conj_args=(A(), A(tau=1, t3=-1, t4=-1)),
                args=(A(), A(tau=1, t3=-1)), first_interval=same),
    ], extension="same-arm"))
    rows.append(_term("II", 1, [
        SubTerm(conj_args=(A(tau=1, t3=-1, t4=-1), A()),
                args=(A(tau=1, t3=-1), A()), first_interval=same),
        SubTerm(conj_args=(A(tau=1), A(t3=-1, t4=-1)),
                args=(A(tau=1), A(t3=-1)), first_interval=same),
    ], extension="same-arm"))
    return rows


def format_term_table() -> str:
    """Human-readable dump of the 20 contribution rows for audit."""
    lines = ["det  i  sign  channel   integrand"]
    for term in term_table():
        for k, sub in enumerate(term.sub_terms):
            bracket = (f"[Φ({sub.args[0]}, {sub.args[1]}) + Φ({sub.args[1]}, "
                       f"{sub.args[0]})]" if sub.symmetrize
                       else f"Φ({sub.args[0]}, {sub.args[1]})")
            head = (f"{term.detection:>3} {term.interaction:>2} "
                    f"{'+' if term.pattern.sign > 0 else '-':>4}  "
                    f"{term.pattern.channel:<8}"
                    if k == 0 else " " * 21)
            lines.append(
                f"{head}  Φ*({sub.conj_args[0]}, {sub.conj_args[1]}) · {bracket}"
                f" · F{term.interaction}({sub.first_interval}, τ3, τ4)"
            )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# entropy diagnostics
# ---------------------------------------------------------------------------

def pathway_entropy(P: Sequence[float]) -> float:
    """Shannon entropy (natural log) of a pathway probability vector."""
    p = np.asarray(P, dtype=float)
    if np.any(p < 0):
        raise ValueError("probabilities must be non-negative")
    if abs(p.sum() - 1.0) > 1e-9:
        raise ValueError(f"probabilities must sum to 1, got {p.sum():.12f}")
    nz = p[p > 0]
    return float(-(nz * np.log(nz)).sum())


def kl_divergence(P: Sequence[float], Q: Sequence[float]) -> float:
    """Kullback-Leibler divergence sum p log(p/q); requires q > 0 where p > 0."""
    p = np.asarray(P, dtype=float)
    q = np.asarray(Q, dtype=float)
    if p.shape != q.shape:
        raise ValueError("P and Q must have the same length")
    if np.any(p < 0) or np.any(q < 0):
        raise ValueError("probabilities must be non-negative")
    if abs(p.sum() - 1.0) > 1e-9 or abs(q.sum() - 1.0) > 1e-9:
        raise ValueError("P and Q must each sum to 1")
    mask = p > 0
    if np.any(q[mask] == 0):
        raise ValueError("Q must be positive wherever P is (absolute continuity)")
    return float((p[mask] * np.log(p[mask] / q[mask])).sum())


# ---------------------------------------------------------------------------
# zeroth-order sanity observable
# ---------------------------------------------------------------------------

def bare_pair_coincidence(amp, hom: HomSpec) -> float:
    """Detection-stage coincidence rate of the unperturbed pair.

    Integrates the zeroth-order coincidence density over both detection
    times on the amplitude's time lattice:

        R(T) = t^4 + r^4
               - 2 t^2 r^2 Re \\int dx dy Phi*(x, y) Phi(y + T, x - T)

    where the first two (transmitted/reflected) terms integrate to the
    squared norms. Vanishes at T = 0 for an exchange-symmetric amplitude.
    """
    I, II, III, IV = detection_pathways()
    x = amp.t1[:, None]
    y = amp.t2[None, :]
    cross = amp.time_value(y + hom.T, x - hom.T)
    overlap = np.sum(np.conj(amp.time_values) * cross) * amp.dt1 * amp.dt2
    return float(I.weight(hom) + II.weight(hom)
                 - (III.weight(hom) + IV.weight(hom)) * np.real(overlap))
