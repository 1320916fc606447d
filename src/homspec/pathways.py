"""Detection transformation, pathway enumeration and the contribution ledger.

Three layers of bookkeeping live here:

* the beam-splitter rotation and the four surviving detection patterns (one
  photon per input mode at each detector), each with its detection times,
* the enumeration of light-matter interaction pathways: a filter chain
  reduces 256 candidates to the five four-point correlator sequences,
* the contribution ledger, generated once from the two: every pattern x
  sequence block places its emissions at the pattern's detection times and
  its absorptions before them, giving the amplitude arguments and the
  correlator's first interval that the signal quadrature integrates.
  :func:`complete_term_table` holds every kept block; :func:`term_table`,
  the published ledger, is a projection of it.

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
        # products, not powers: a huge float gives inf, not OverflowError
        t, r = self.t_coeff, self.r_coeff
        if abs(t * t + r * r - 1.0) > 1e-12:
            raise ValueError("t_coeff^2 + r_coeff^2 must equal 1 (within 1e-12)")


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
    """Affine time expression t + tau*`tau` + T*`T` + t3*`tau3` + t4*`tau4`.

    The detection reference time t enters with coefficient 0 or 1; all
    integration-variable coefficients are small integers. Evaluation
    broadcasts over tau3/tau4 meshes and skips a variable whose coefficient
    is zero, so an expression in tau3 alone keeps the shape of tau3.
    """

    t: int = 1
    tau: int = 0
    T: int = 0
    t3: int = 0
    t4: int = 0

    def __call__(self, t: float, tau: float, T: float, tau3, tau4):
        return self.with_shift(self.shift(t, tau, T), tau3, tau4)

    def with_shift(self, shift, tau3, tau4):
        """The expression at (tau3, tau4) given its scalar part `shift`
        (see `shift`), which may hold one value per node."""
        out = np.asarray(shift)
        if self.t3:
            out = out + self.t3 * np.asarray(tau3)
        if self.t4:
            out = out + self.t4 * np.asarray(tau4)
        return out

    def shift(self, t: float, tau: float, T: float) -> float:
        """The scalar part once tau3 = tau4 = 0."""
        return self.t * t + self.tau * tau + self.T * T

    def __sub__(self, other: "Affine") -> "Affine":
        return Affine(self.t - other.t, self.tau - other.tau, self.T - other.T,
                      self.t3 - other.t3, self.t4 - other.t4)

    def __str__(self) -> str:
        text = "".join(
            f"{'-' if c < 0 else '+'}{'' if abs(c) == 1 else abs(c)}{name}"
            for c, name in ((self.t, "t"), (self.tau, "τ"), (self.T, "T"),
                            (self.t3, "τ3"), (self.t4, "τ4")) if c)
        return text.lstrip("+") or "0"


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


def _absorbs(side: str, dagger: bool) -> bool:
    """Whether an op absorbs a photon: it raises the ket from the left or
    the bra from the right (right multiplication by V raises the bra index)."""
    return (side == "L") == dagger


def _passes(ops: Tuple[Tuple[str, bool], ...], rule: str) -> bool:
    sides = [s for s, _ in ops]
    raises = sum(1 for _, d in ops if d)
    if rule == "rwa":
        # the candidate set is already expressed in paired (side, sense)
        # form; the rule records the pairing and eliminates nothing
        return True
    if rule == "ground_state_start":
        # both branches start in the ground level, so the first action on
        # each branch must excite it by absorbing a photon
        first = dict(reversed(ops))              # side -> its first op's sense
        return all(_absorbs(side, dagger) for side, dagger in first.items())
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


# event k's offset from event 0 as a coefficient vector (t, tau, T, t3, t4):
# tau4 separates events 0 and 1, tau3 events 1 and 2
_OFFSETS = (np.zeros(5, int), np.array([0, 0, 0, 0, 1]), np.array([0, 0, 0, 1, 1]))


def _blocks(seq, pattern: DetectionPathway):
    """Every photon assignment of one correlator sequence under one pattern.

    Yields (emission gap, SubTerm), the blocks whose emissions carry
    different photons first. Each emission sits at its side's detection
    slot for the photon it emits, and that photon is the one the side
    absorbed last before it. The earlier emission anchors the events; the
    gap is the later emission's time minus the earlier one's.
    """
    events = tuple(reversed(seq))                    # chronological
    absorbs = [_absorbs(side, dagger) for side, dagger in events]
    first, last = [k for k in range(4) if not absorbs[k]]
    slots = {"L": dict(pattern.ket_times), "R": dict(pattern.bra_times)}
    bracket = all(side == "L" for side, _ in seq)    # a (0,4) block
    for modes in ("ab", "ba", "aa", "bb"):
        if bracket and modes[0] == modes[1]:
            continue                                 # one photon absorbed twice
        emit = dict(zip((first, last), modes))
        start, end = (np.array(dataclasses.astuple(slots[events[k][0]][emit[k]]))
                      for k in (first, last))
        at = [start + _OFFSETS[k] - _OFFSETS[first] for k in range(3)]
        # the amplitudes hold each absorbed photon at its absorption time
        times = {side: dict(slots[side]) for side in "LR"}
        pending: Dict[str, List[int]] = {"L": [], "R": []}
        for k, (side, _) in enumerate(events):
            if absorbs[k]:
                pending[side].append(k)
            else:
                times[side][emit[k]] = Affine(*map(int, at[pending[side].pop()]))
        args = times["L"]["a"], times["L"]["b"]
        if bracket and pattern.name == "II":
            # the source lists O_II's brackets in O_I's argument order; the
            # bracket's value does not depend on it
            args = args[::-1]
        yield end - start, SubTerm(
            (times["R"]["a"], times["R"]["b"]), args,
            Affine(*map(int, end - at[2])), bracket)


def _generate() -> Tuple[PathwayTerm, ...]:
    """The complete ledger: the kept blocks of every sequence x pattern.

    A block is kept when its emission gap has non-negative tau and T
    coefficients, the causal half for tau, T >= 0. Within a row the cross
    blocks (bra and ket emit different photons) come first. A zero gap, bra
    and ket emitting the same photon at one detection time, goes to the
    row's "same-arm" extension and keeps F1 only: F3 is its complex
    conjugate, which the signal's 2 Re supplies, and F2 has zero measure.
    """
    rows, extensions = [], []
    for i, seq in CORRELATOR_SEQUENCES.items():
        for name, pattern in _PATTERNS.items():
            main, same = [], []
            for gap, sub in _blocks(seq, pattern):
                if gap[1] >= 0 and gap[2] >= 0:      # tau and T coefficients
                    (main if gap.any() else same).append(sub)
            rows.append(PathwayTerm(name, i, tuple(main)))
            if same and i == 1:
                extensions.append(PathwayTerm(name, i, tuple(same), "same-arm"))
    return tuple(rows + extensions)


def _published(term: PathwayTerm) -> PathwayTerm:
    # the source table prints one absorption order per pathway-4 row, and
    # II-4's absorptions at t+tau+tau3 and t+tau-tau4, which contradict its
    # own correlator arguments (those put them at t-tau4 and t+tau3)
    if term.interaction != 4:
        return term
    sub = dataclasses.replace(term.sub_terms[0], symmetrize=False)
    if term.detection == "II":
        sub = dataclasses.replace(sub, args=(Affine(tau=1, t3=1),
                                             Affine(tau=1, t4=-1)))
    return dataclasses.replace(term, sub_terms=(sub,))


_COMPLETE = _generate()
_PUBLISHED = tuple(_published(t) for t in _COMPLETE if not t.extension)


def term_table() -> List[PathwayTerm]:
    """The published ledger: the 20 contribution rows of `coincidence`.

    tau is the detector time difference, T the beam-splitter delay,
    tau3/tau4 the integration variables and t the detection reference time.
    It is :func:`complete_term_table` without the same-arm rows, with one
    absorption order per pathway-4 row and with II-4's printed arguments.
    """
    return list(_PUBLISHED)


def complete_term_table() -> List[PathwayTerm]:
    """The 22 rows of the complete fourth-order counting signal, tau, T >= 0.

    Beyond the published ledger it holds both absorption orders of every
    pathway-4 row (the bracket, as on pathway 5), II-4's absorptions where
    its correlator arguments put them (t - tau4, t + tau3), and the
    same-arm (2,2) rows of O_I/O_II. Assemble it with
    :func:`homspec.signal.complete_coincidence`.
    """
    return list(_COMPLETE)


def format_term_table() -> str:
    """Human-readable dump of the published ledger's rows for audit."""
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
