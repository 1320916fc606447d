"""Named benchmarks comparing the Liouville pipeline against the brute force.

Both routes run on one shared configuration: a closed three-level ladder
driven by a Gaussian two-photon amplitude.

`run_benchmark` performs the faithful comparison: the pipeline signal
against the brute-force fourth-order counting probability, both normalized
at the first scan point.

* "three-level" holds the published ledger (`coincidence`) against a coarse
  brute force (32 modes, 64 steps, hard window end at 40 fs) at points
  inside the Hong-Ou-Mandel cancellation with detector separations below
  the detection kernel. Neither side is the counting probability there: the
  brute force moves by 0.2-0.8 in the criterion metric when refined, and the
  ledger lacks the O_I/O_II same-arm blocks and one pathway-4 absorption
  order. It reports a deviation of 2.35 and is kept as that record.
* "three-level-converged" holds the complete fourth-order signal
  (`complete_coincidence`) against a brute force that converges at its
  points (see :func:`converged_benchmark`).

The module also exposes finer probes: evolutions restricted to chosen
pathways (`RESTRICTIONS`) and :func:`row_group_blocks`, which sets every row
group of the complete signal beside the brute-force block it stands for.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .biphoton import BiphotonAmplitude, from_frequency_values
from .model import ExcitonSystem, Level, LiouvilleOperatorSet
from .oracle import (DiscretizedField, PerturbativeKet, detection_amplitudes,
                     evolve_perturbative, fourth_order_coincidence)
from .pathways import HomSpec, PathwayTerm, complete_term_table
from .signal import (BLOCK_FACTOR, QuadratureSpec, coincidence,
                     complete_coincidence, resolve_quadrature, term_value)

__all__ = [
    "Benchmark",
    "three_level_benchmark",
    "converged_benchmark",
    "run_benchmark",
    "brute_force_curve",
    "normalized_deviation",
    "BENCHMARKS",
    "RESTRICTIONS",
    "evolve_benchmark_kets",
    "evolve_block_kets",
    "row_group_blocks",
]


@dataclass
class Benchmark:
    name: str
    system: ExcitonSystem
    pad_factor: Optional[int]           # of the pipeline amplitude's transform
    field: DiscretizedField
    quadrature: QuadratureSpec
    points: List[Tuple[float, float]]   # (tau, T); s fixed below
    s: float
    n_modes: int
    n_steps: int
    t_end: float
    t_start: float
    signal: Callable[..., np.ndarray]   # pipeline side, called like coincidence
    switch_off: float = 0.0
    mode_coupling: Optional[np.ndarray] = None

    @functools.cached_property
    def amplitude(self) -> BiphotonAmplitude:
        """The pipeline's pair amplitude, built on first use and transformed
        once, at `pad_factor`; its wide grid puts the truncation edge far
        below the quadrature's support cut."""
        fine = np.linspace(CENTER - 0.66, CENTER + 0.66, 256)
        return from_frequency_values(fine, fine, _gaussian_pair_values(
            fine, fine, 2 * CENTER, 0.16, 0.0, 0.22), s=self.s, delay_arm="a",
            pad_factor=self.pad_factor)

    def evolve(self, order_max: int = 4,
               keep: Optional[Callable[[str, str], bool]] = None
               ) -> PerturbativeKet:
        """The brute-force state at the end of the benchmark window."""
        return evolve_perturbative(
            self.system, self.field, self.t_end, order_max, t_start=self.t_start,
            n_steps=self.n_steps, keep=keep, switch_off=self.switch_off,
            mode_coupling=self.mode_coupling)


def _gaussian_pair_values(freqs_a, freqs_b, center_sum, sigma_sum, center_diff,
                          sigma_diff):
    wa = np.asarray(freqs_a)[:, None]
    wb = np.asarray(freqs_b)[None, :]
    return np.exp(-((wa + wb - center_sum) / sigma_sum) ** 2
                  - ((wa - wb - center_diff) / sigma_diff) ** 2)


#: transition frequencies (g-e, e-f) of the benchmark ladder, rad/fs
LADDER = (0.85, 0.90)
#: carrier of the Gaussian pair amplitude: the middle of the ladder
CENTER = 0.5 * (LADDER[0] + LADDER[1])


def _ladder() -> ExcitonSystem:
    return ExcitonSystem(
        levels=[Level("g0", "g", 0.0), Level("e0", "e", LADDER[0]),
                Level("f0", "f", LADDER[0] + LADDER[1])],
        dipoles_ge=[[1.0]],
        dipoles_ef=[[0.8]],
        dephasing_default=0.0,
    )


def _pair_field(s: float, n_modes: int, half_band: float) -> DiscretizedField:
    freqs = np.linspace(CENTER - half_band, CENTER + half_band, n_modes)
    vals = _gaussian_pair_values(freqs, freqs, 2 * CENTER, 0.16, 0.0, 0.22)
    return DiscretizedField.from_values(
        freqs, vals * np.exp(1j * freqs * s)[:, None])


def _quadrature(system: ExcitonSystem) -> QuadratureSpec:
    """The default spec of the system with its step halved, detection at 0."""
    step = resolve_quadrature(system).step
    return resolve_quadrature(system, 0.5 * step, t_ref=0.0)


def three_level_benchmark(n_modes: int = 32, n_steps: int = 64) -> Benchmark:
    """Three-level ladder, published ledger against a coarse brute force.

    The points sit inside the Hong-Ou-Mandel cancellation (totals of
    -0.02..0.02 left after blocks of 0.2..0.9 cancel), the detector
    separations of 1-4 fs lie below the ~4.5 fs detection kernel of the
    +-0.7 rad/fs mode band, and the closed system's emission leaks through
    the kernel's sidelobes from the hard window end at 40 fs. The brute-force
    curve is therefore not converged: against itself, 128 steps move the
    criterion metric by 0.23, and 96 modes with 256 steps by 0.79.
    """
    system = _ladder()
    s = 3.0
    # mode lattice: span wide enough that the band-limited emission kernel is
    # sharp, spacing fine enough that the periodized window stays clean
    field = _pair_field(s, n_modes, 0.7)
    points = [(1.0, 2.0), (2.5, 2.0), (4.0, 2.0), (1.5, 3.5), (3.0, 1.0)]
    return Benchmark(name="three-level", system=system,
                     pad_factor=None, field=field,
                     quadrature=_quadrature(system), points=points, s=s,
                     n_modes=n_modes, n_steps=n_steps, t_end=40.0,
                     t_start=-40.0, signal=coincidence)


def band_taper(freqs: np.ndarray, flat: float) -> np.ndarray:
    """Mode coupling 1 within `flat` of the lattice center, cos^2 down to 0
    at the lattice edges."""
    center = 0.5 * (freqs[0] + freqs[-1])
    half = 0.5 * (freqs[-1] - freqs[0])
    x = np.clip((np.abs(freqs - center) - flat) / (half - flat), 0.0, 1.0)
    return np.cos(0.5 * np.pi * x) ** 2


#: brute-force settings of "three-level-converged": mode band half-width
#: and the flat part of its coupling (rad/fs), mode spacing (rad/fs), steps,
#: window (fs) and the length of the interaction's switch-off (fs)
CONVERGED_HALF_BAND = 1.4
CONVERGED_FLAT = 0.9
CONVERGED_MODE_SPACING = 2 * np.pi / 220
CONVERGED_STEPS = 320
CONVERGED_WINDOW = (-40.0, 120.0)
CONVERGED_SWITCH_OFF = 60.0


def converged_benchmark(band_scale: float = 1.0, mode_density: float = 1.0
                        ) -> Benchmark:
    """Complete fourth-order signal against a converged brute force.

    Same ladder, pair amplitude and delay s = 3 fs as "three-level". The
    points follow a stated rule, not the outcome:

    * detector separations tau = 10-14 fs. The detection kernel smears both
      emissions of a (0,4) block towards each other, so half the separation
      must clear its width (about 2.7 fs for this band, 4.5 fs for a hard
      +-0.7 rad/fs one); at tau = 6-8 fs the pathway-4 and -5 blocks still
      move by 0.5% when the band is widened;
    * splitter delays T = 5-12 fs: 2-9 fs from the Hong-Ou-Mandel dip at
      T = s, inside the ~10 fs pair coherence, so the exchange rows
      contribute without cancelling the direct ones;
    * detection at t = 0, the middle of the pair, so every row group
      contributes at every point (the pathway-5 absorptions before t, the
      second pathway-4 absorption between the detections).

    Brute-force settings (the ``CONVERGED_*`` constants): the coupling to the
    modes rolls off smoothly (`band_taper`) instead of ending at a hard band
    edge; the interaction is switched off smoothly over the last
    `CONVERGED_SWITCH_OFF` fs of the window; the mode spacing keeps the
    kernel period 2 pi / d_omega longer than the window. `band_scale` widens
    the band and its flat part, `mode_density` divides the mode spacing;
    both exist for the convergence check in the tests. Refining any one of
    modes, steps, window start or end, switch-off length or band moves the
    criterion metric by at most 1.3e-3.
    """
    system = _ladder()
    s = 3.0
    half_band = CONVERGED_HALF_BAND * band_scale
    spacing = CONVERGED_MODE_SPACING / mode_density
    n_modes = int(round(2 * half_band / spacing)) + 1
    field = _pair_field(s, n_modes, half_band)
    points = [(10.0, 8.0), (12.0, 8.0), (14.0, 8.0), (10.0, 12.0), (12.0, 5.0)]
    t_start, t_end = CONVERGED_WINDOW
    return Benchmark(name="three-level-converged", system=system,
                     pad_factor=8, field=field,
                     quadrature=_quadrature(system), points=points, s=s,
                     n_modes=n_modes, n_steps=CONVERGED_STEPS, t_end=t_end,
                     t_start=t_start, signal=complete_coincidence,
                     switch_off=CONVERGED_SWITCH_OFF,
                     mode_coupling=band_taper(field.frequencies,
                                              CONVERGED_FLAT * band_scale))


BENCHMARKS = {"three-level": three_level_benchmark,
              "three-level-converged": converged_benchmark}
DEFAULT_BENCHMARK = "three-level-converged"


def _absorbs_first(arm: str) -> Callable[[str, str], bool]:
    # e_a holds the unabsorbed a photon: g_ab -> e_a absorbs the b photon
    return lambda out_key, in_key: not (in_key == "g_ab" and out_key == f"e_{arm}")


def _no_f(out_key: str, in_key: str) -> bool:
    return "f_vac" not in (out_key, in_key)


#: evolution restrictions (see `evolve_perturbative`'s `keep`) isolating the
#: brute-force blocks: which photon is absorbed first, and whether the two
#: absorptions pass through the ground level (pathway 4) or the f level
#: (pathway 5)
RESTRICTIONS: Dict[str, Callable[[str, str], bool]] = {
    "a": _absorbs_first("a"),
    "b": _absorbs_first("b"),
    "p4-a": lambda o, i: _no_f(o, i) and _absorbs_first("a")(o, i),
    "p4-b": lambda o, i: _no_f(o, i) and _absorbs_first("b")(o, i),
    "p5": lambda o, i: not (i in ("e_a", "e_b") and o.startswith("g_")),
}


def evolve_benchmark_kets(bench: Benchmark):
    """(full, arm-a-only, arm-b-only) perturbative states for the benchmark.

    The restricted states isolate which photon of the pair interacted; inner
    products between opposite restrictions select the exchange-interference
    content that the pathway decomposition resolves.
    """
    kets = evolve_block_kets(bench, ("a", "b"))
    return kets["full"], kets["a"], kets["b"]


def evolve_block_kets(bench: Benchmark, names: Sequence[str] = tuple(RESTRICTIONS)
                      ) -> Dict[str, PerturbativeKet]:
    """The full state plus one state per named entry of `RESTRICTIONS`.

    The arm restrictions "a" and "b" stop at second order, the pathway
    restrictions run to fourth.
    """
    kets = {"full": bench.evolve()}
    for name in names:
        kets[name] = bench.evolve(order_max=2 if name in ("a", "b") else 4,
                                  keep=RESTRICTIONS[name])
    return kets


def brute_force_curve(bench: Benchmark,
                      ket: Optional[PerturbativeKet] = None) -> np.ndarray:
    """Brute-force fourth-order counting probability at the benchmark points,
    from `ket` (the full state, evolved here when not given)."""
    ket = bench.evolve() if ket is None else ket
    t_ref = bench.quadrature.t_ref
    return np.array([fourth_order_coincidence(ket, HomSpec(T=T), t_ref,
                                              t_ref + tau)
                     for tau, T in bench.points])


def normalized_deviation(curve: np.ndarray, reference: np.ndarray) -> float:
    """The criterion-5 metric: both curves normalized by their first point,
    the largest difference relative to the largest normalized reference."""
    curve_n = curve / curve[0]
    ref_n = reference / reference[0]
    return float(np.max(np.abs(curve_n - ref_n)) / np.max(np.abs(ref_n)))


def run_benchmark(name: str = DEFAULT_BENCHMARK) -> Dict[str, np.ndarray]:
    """Faithful comparison at the benchmark points.

    Evaluates the benchmark's pipeline signal (the published ledger's
    `coincidence` or the `complete_coincidence`) and the brute-force
    fourth-order counting probability, normalizes each curve by its first
    point, and reports the maximum relative deviation between them. The
    pipeline evaluates every point in one call, each value equal bit for
    bit to its point's alone.
    """
    if name not in BENCHMARKS:
        raise KeyError(f"unknown benchmark {name!r}; have {sorted(BENCHMARKS)}")
    bench = BENCHMARKS[name]()
    ops = LiouvilleOperatorSet(bench.system)
    ket = bench.evolve()
    tau, T = np.array(bench.points).T
    pipeline = bench.signal(tau, T, bench.s, bench.amplitude, ops,
                            bench.quadrature)
    brute = brute_force_curve(bench, ket)
    return {
        "points": np.array(bench.points),
        "s": bench.s,
        "pipeline": pipeline,
        "brute_force": brute,
        "pipeline_normalized": pipeline / pipeline[0],
        "brute_force_normalized": brute / brute[0],
        "max_rel_dev": normalized_deviation(pipeline, brute),
    }


def row_group_blocks(bench: Benchmark, tau: float, T: float,
                     kets: Dict[str, PerturbativeKet],
                     ops: Optional[LiouvilleOperatorSet] = None
                     ) -> Dict[str, Tuple[complex, complex]]:
    """Each row group of the complete signal beside its brute-force block.

    Returns {group: (brute force / (2 pi / d_omega)^4, ledger)}, both as
    unsigned, unweighted half-blocks: the (bra, ket) inner product of the
    detection amplitudes on the brute-force side, `BLOCK_FACTOR` times the
    row (or sub-term) sum on the ledger side. A, B and C are the through,
    reflected and cross patterns. In the (2,2) groups, cross and same say
    whether bra and ket absorbed different photons or the same one; the
    O_I/O_II same-arm groups are real totals (both orderings, 2 Re on the
    ledger side). In the pathway-4 groups, a/b names the photon absorbed
    first. `kets` comes from :func:`evolve_block_kets`.
    """
    ops = LiouvilleOperatorSet(bench.system) if ops is None else ops
    q = bench.quadrature
    scale = (2 * np.pi / bench.field.spacing) ** 4
    amps = {name: detection_amplitudes(ket, HomSpec(T=T), q.t_ref, q.t_ref + tau)
            for name, ket in kets.items()}
    rows = {term.label: term for term in complete_term_table()}

    def ledger(term: PathwayTerm) -> complex:
        return BLOCK_FACTOR * term_value(term, tau, T, bench.s, bench.amplitude,
                                         ops, q)

    def part(label: str, k: int, **change) -> complex:
        # one sub-term of a row, optionally altered (one absorption order)
        sub = dataclasses.replace(rows[label].sub_terms[k], **change)
        return ledger(dataclasses.replace(rows[label], sub_terms=(sub,)))

    def vdot(x, y):
        return complex(np.vdot(x, y)) / scale

    A = lambda name, order: amps[name]["through"][order]
    B = lambda name, order: amps[name]["reflected"][order]
    C = lambda name, order: amps[name]["cross"][order]

    def rows_1_3(det: str, k: Optional[int] = None) -> complex:
        return sum(ledger(rows[f"{det}-{i}"]) if k is None
                   else part(f"{det}-{i}", k) for i in (1, 2, 3))

    out = {
        "I cross": (vdot(A("a", 2), A("b", 2)), rows_1_3("I")),
        "II cross": (vdot(B("b", 2), B("a", 2)), rows_1_3("II")),
        "I same-arm": (vdot(A("a", 2), A("a", 2)) + vdot(A("b", 2), A("b", 2)),
                       2 * ledger(rows["I-1 same-arm"]).real),
        "II same-arm": (vdot(B("a", 2), B("a", 2)) + vdot(B("b", 2), B("b", 2)),
                        2 * ledger(rows["II-1 same-arm"]).real),
        "III cross": (vdot(A("b", 2), C("a", 2)), rows_1_3("III", 0)),
        "III same": (vdot(A("a", 2), C("a", 2)), rows_1_3("III", 1)),
        "IV cross": (vdot(C("b", 2), A("a", 2)), rows_1_3("IV", 0)),
        "IV same": (vdot(C("b", 2), A("b", 2)), rows_1_3("IV", 1)),
    }
    for det, bra, ket in (("I", A, A), ("II", B, B), ("III", A, C), ("IV", C, A)):
        args = rows[f"{det}-4"].sub_terms[0].args
        # the argument carrying -tau4 is the earlier absorption
        first, second = ("a", "b") if args[0].t4 == -1 else ("b", "a")
        for arm, order in ((first, args), (second, args[::-1])):
            out[f"{det}-4 {arm} first"] = (
                vdot(bra("full", 0), ket(f"p4-{arm}", 4)),
                part(f"{det}-4", 0, args=order, symmetrize=False))
        out[f"{det}-5"] = (vdot(bra("full", 0), ket("p5", 4)),
                           ledger(rows[f"{det}-5"]))
    return out
