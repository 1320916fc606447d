"""Independent Hilbert-space brute force for closed (bath-free) systems.

Evolves the joint light-matter wavefunction perturbatively to fourth order
on a discretized mode lattice and evaluates the two-detector counting
probability with beam-splitter-transformed detection fields. This route
never touches the Liouville machinery; it exists to validate the signal
pipeline on closed systems, at deliberately tiny scale.

Two structural choices keep the bookkeeping small and aligned with the
response-function factorization of the signal pipeline:

* The three-band ladder bounds the reachable sectors: starting from one
  photon per arm and the ground level, the photon number never exceeds two,
  so each perturbative order is a small dict of dense blocks.
* Incident and emitted photons live in separate registers at the same mode
  frequencies. Absorption acts on the incident register only; emission
  creates in the emitted register; detection annihilates both coherently.
  Radiative back-action (re-absorbing a just-emitted photon) is thereby
  excluded, exactly as it is in any description that traces the field
  against the incident two-photon amplitude.

Time integration uses exact per-step integrals of the interaction phases
against linearly interpolated state values, keeping coarse grids accurate
for near-resonant parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .biphoton import BiphotonAmplitude
from .model import ExcitonSystem
from .pathways import HomSpec

__all__ = [
    "DiscretizedField",
    "PerturbativeKet",
    "evolve_perturbative",
    "coincidence_probability",
    "detection_amplitudes",
    "fourth_order_coincidence",
]

#: state blocks: (matter band, incident photons, emitted photons)
#: g_ab      (g, a+b, -)        [n_g, M, M]   incident pair (a slot first)
#: e_a, e_b  (e, a or b, -)     [n_e, M]
#: f_vac     (f, -, -)          [n_f]
#: g_a_ea, g_a_eb, g_b_ea, g_b_eb
#:           (g, one incident, one emitted)  [n_g, M, M],
#:           laid out [level, incident mode, emitted mode]
#: e_ea, e_eb (e, -, a' or b')  [n_e, M]
#: g_eaa     (g, -, a'a')       [n_g, M, M]   symmetric tensor
#: g_ebb     (g, -, b'b')       [n_g, M, M]   symmetric tensor
#: g_eab     (g, -, a'+b')      [n_g, M, M]   slots: emitted a, emitted b
BLOCK_SHAPES = {
    "g_ab": ("g", 2), "g_a_ea": ("g", 2), "g_a_eb": ("g", 2),
    "g_b_ea": ("g", 2), "g_b_eb": ("g", 2), "g_eaa": ("g", 2),
    "g_ebb": ("g", 2), "g_eab": ("g", 2),
    "e_a": ("e", 1), "e_b": ("e", 1), "e_ea": ("e", 1), "e_eb": ("e", 1),
    "f_vac": ("f", 0),
}
_SYMMETRIC = ("g_eaa", "g_ebb")


@dataclass(frozen=True)
class DiscretizedField:
    """Two-photon field on a shared uniform mode lattice.

    `coefficients[j, k]` is the amplitude for one photon in a-arm mode j and
    one in b-arm mode k; the plain coefficient L2 norm is 1.
    """

    frequencies: np.ndarray
    coefficients: np.ndarray

    def __post_init__(self) -> None:
        f = np.asarray(self.frequencies, dtype=float)
        c = np.asarray(self.coefficients, dtype=complex)
        object.__setattr__(self, "frequencies", f)
        object.__setattr__(self, "coefficients", c)
        if c.shape != (f.size, f.size):
            raise ValueError("coefficients must be (n_modes, n_modes)")
        if f.size >= 2:
            d = np.diff(f)
            if not np.allclose(d, d[0], rtol=1e-9, atol=1e-12):
                raise ValueError("mode lattice must be uniform")
        norm = float(np.sum(np.abs(c) ** 2))
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(f"coefficient L2 norm must be 1, got {norm:.12f}")

    @property
    def spacing(self) -> float:
        return float(self.frequencies[1] - self.frequencies[0])

    @classmethod
    def from_values(cls, frequencies: np.ndarray,
                    values: np.ndarray) -> "DiscretizedField":
        values = np.asarray(values, dtype=complex)
        norm = np.sqrt(np.sum(np.abs(values) ** 2))
        if norm == 0:
            raise ValueError("field coefficients are identically zero")
        return cls(np.asarray(frequencies, dtype=float), values / norm)

    @classmethod
    def from_amplitude(cls, amp: BiphotonAmplitude, n_modes: int) -> "DiscretizedField":
        """Sample a biphoton amplitude (with its delay phase) on n_modes."""
        lo = min(amp.omega_a[0], amp.omega_b[0])
        hi = max(amp.omega_a[-1], amp.omega_b[-1])
        freqs = np.linspace(lo, hi, n_modes)
        near_a = np.argmin(np.abs(amp.omega_a[:, None] - freqs[None, :]), axis=0)
        near_b = np.argmin(np.abs(amp.omega_b[:, None] - freqs[None, :]), axis=0)
        vals = amp.values[np.ix_(near_a, near_b)].astype(complex)
        if amp.s != 0.0:
            if amp.delay_arm == "a":
                vals = vals * np.exp(1j * freqs * amp.s)[:, None]
            else:
                vals = vals * np.exp(1j * freqs * amp.s)[None, :]
        return cls.from_values(freqs, vals)


@dataclass
class PerturbativeKet:
    """Order-resolved joint state at the end of the evolution window."""

    orders: List[Dict[str, np.ndarray]]
    frequencies: np.ndarray
    g_energies: np.ndarray

    def order_norms(self) -> np.ndarray:
        out = []
        for blocks in self.orders:
            n = 0.0
            for key, arr in blocks.items():
                w = 2.0 if key in _SYMMETRIC else 1.0
                n += w * float(np.sum(np.abs(arr) ** 2))
            out.append(n)
        return np.array(out)


def _filon_coeffs(z: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Exact integrals of e^{i z th}(1-th) and e^{i z th} th over th in [0,1],
    for real or complex z (a real z is taken as float): the closed form for
    |z| >= 0.1, below it their 12-term Taylor series, E = sum (iz)^k / (k+1)!
    and F = sum (iz)^k / (k! (k+2)) for the integrals of e^{i z th} and
    e^{i z th} th, whose first dropped term is below 1e-20."""
    z = np.asarray(z, dtype=np.result_type(z, float))
    iz = 1j * z
    small = np.abs(z) < 0.1
    izs = 1j * np.where(small, 1.0, z)
    E = np.expm1(izs) / izs
    F = np.exp(izs) / izs - E / izs
    E_series = F_series = 0.0
    for k in range(11, -1, -1):  # Horner
        E_series = E_series * iz + 1.0 / math.factorial(k + 1)
        F_series = F_series * iz + 1.0 / (math.factorial(k) * (k + 2))
    return np.where(small, E_series - F_series, E - F), np.where(small, F_series, F)


class _Coupling:
    """One block-to-block transition of the interaction Hamiltonian."""

    def __init__(self, out_key: str, in_key: str, subscript: str,
                 coeff: np.ndarray, delta: np.ndarray, t0: float, h: float):
        self.out_key = out_key
        self.in_key = in_key
        self.subscript = subscript
        c0, c1 = _filon_coeffs(delta * h)
        phase0 = np.exp(1j * delta * t0)
        self.K0 = coeff * c0 * phase0
        self.K1 = coeff * c1 * phase0
        self.step_phase = np.exp(1j * delta * h)
        self.h = h

    def apply(self, out_blocks, in_old, in_new, scale: float = 1.0) -> None:
        contribution = (np.einsum(self.subscript, self.K0, in_old[self.in_key])
                        + np.einsum(self.subscript, self.K1, in_new[self.in_key]))
        if self.out_key in _SYMMETRIC:
            contribution = 0.5 * (contribution + contribution.transpose(0, 2, 1))
        out_blocks[self.out_key] += -1j * self.h * scale * contribution

    def advance(self) -> None:
        self.K0 = self.K0 * self.step_phase
        self.K1 = self.K1 * self.step_phase


def _band_energies(system: ExcitonSystem, manifold: str) -> np.ndarray:
    return np.array([system.levels[k].energy for k in system.indices(manifold)])


def _zero_blocks(n_g: int, n_e: int, n_f: int, M: int) -> Dict[str, np.ndarray]:
    out: Dict[str, np.ndarray] = {}
    for key, (band, n_ph) in BLOCK_SHAPES.items():
        n = {"g": n_g, "e": n_e, "f": n_f}[band]
        shape = (n,) + (M,) * n_ph
        out[key] = np.zeros(shape, dtype=complex)
    return out


def _build_couplings(system: ExcitonSystem, field: DiscretizedField,
                     t0: float, h: float,
                     mode_coupling: Optional[np.ndarray] = None) -> List[_Coupling]:
    wg = _band_energies(system, "g")
    we = _band_energies(system, "e")
    wf = _band_energies(system, "f")
    wm = field.frequencies
    dge = system.dipoles_ge          # (n_e, n_g)
    def_ = system.dipoles_ef         # (n_f, n_e)
    cs: List[_Coupling] = []

    ones3 = (np.ones((1, 1, wm.size)) if mode_coupling is None
             else np.asarray(mode_coupling, dtype=float)[None, None, :])
    # g <-> e transition deltas; the photon mode rides along
    d_abs_ge = we[:, None, None] - wg[None, :, None] - wm[None, None, :]
    d_em_ge = -d_abs_ge
    k_abs_ge = np.conj(dge)[:, :, None] * ones3
    k_em_ge = dge[:, :, None] * ones3

    # absorptions act on the incident register only; contraction index j is
    # always the absorbed incident mode
    cs.append(_Coupling("e_b", "g_ab", "mlj,ljk->mk", k_abs_ge, d_abs_ge, t0, h))
    cs.append(_Coupling("e_a", "g_ab", "mlk,ljk->mj", k_abs_ge, d_abs_ge, t0, h))
    for em in ("ea", "eb"):
        # mixed blocks are [level, incident, emitted]; absorb the incident
        cs.append(_Coupling(f"e_{em}", f"g_a_{em}", "mlj,ljk->mk",
                            k_abs_ge, d_abs_ge, t0, h))
        cs.append(_Coupling(f"e_{em}", f"g_b_{em}", "mlj,ljk->mk",
                            k_abs_ge, d_abs_ge, t0, h))
    if wf.size:
        d_abs_ef = wf[:, None, None] - we[None, :, None] - wm[None, None, :]
        k_abs_ef = np.conj(def_)[:, :, None] * ones3
        cs.append(_Coupling("f_vac", "e_a", "pmj,mj->p", k_abs_ef, d_abs_ef, t0, h))
        cs.append(_Coupling("f_vac", "e_b", "pmj,mj->p", k_abs_ef, d_abs_ef, t0, h))

    # emissions create in the emitted register; mixed blocks are laid out
    # [level, incident mode, emitted mode], emitted pairs [level, a', b']
    cs.append(_Coupling("g_b_ea", "e_b", "mlj,mk->lkj", k_em_ge, d_em_ge, t0, h))
    cs.append(_Coupling("g_b_eb", "e_b", "mlj,mk->lkj", k_em_ge, d_em_ge, t0, h))
    cs.append(_Coupling("g_a_ea", "e_a", "mlk,mj->ljk", k_em_ge, d_em_ge, t0, h))
    cs.append(_Coupling("g_a_eb", "e_a", "mlk,mj->ljk", k_em_ge, d_em_ge, t0, h))
    cs.append(_Coupling("g_eaa", "e_ea", "mlj,mk->ljk", k_em_ge, d_em_ge, t0, h))
    cs.append(_Coupling("g_eab", "e_ea", "mlj,mk->lkj", k_em_ge, d_em_ge, t0, h))
    cs.append(_Coupling("g_eab", "e_eb", "mlj,mk->ljk", k_em_ge, d_em_ge, t0, h))
    cs.append(_Coupling("g_ebb", "e_eb", "mlj,mk->ljk", k_em_ge, d_em_ge, t0, h))
    if wf.size:
        d_em_ef = we[None, :, None] + wm[None, None, :] - wf[:, None, None]
        k_em_ef = def_[:, :, None] * ones3
        cs.append(_Coupling("e_ea", "f_vac", "pmj,p->mj", k_em_ef, d_em_ef, t0, h))
        cs.append(_Coupling("e_eb", "f_vac", "pmj,p->mj", k_em_ef, d_em_ef, t0, h))
    return cs


def _reachable(couplings: Sequence[_Coupling], order_max: int
               ) -> List[List[_Coupling]]:
    """The couplings to apply at each order 1..order_max, in their given
    order: those whose input block can be nonzero at the order below. Only
    `g_ab` is at order 0; a block is reachable at order k when some
    coupling applied at order k writes it. Every other (coupling, order)
    application would add an exact zero."""
    reach, out = {"g_ab"}, []
    for _ in range(order_max):
        out.append([c for c in couplings if c.in_key in reach])
        reach = {c.out_key for c in out[-1]}
    return out


def _check_count(name: str, value, least: int) -> None:
    """Refuse, by name, a count that is not an integer of at least `least`."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")


def evolve_perturbative(system: ExcitonSystem, field: DiscretizedField,
                        t: float, order_max: int = 4, *,
                        t_start: Optional[float] = None,
                        n_steps: int = 64,
                        keep: Optional[Callable[[str, str], bool]] = None,
                        switch_off: float = 0.0,
                        mode_coupling: Optional[np.ndarray] = None
                        ) -> PerturbativeKet:
    """Iterated interaction-picture integrals on a uniform time grid.

    The system must be closed (all dephasing rates zero); the window
    [t_start, t] must cover the field's arrival at the sample. `keep`, if
    given, is called with the (out_key, in_key) block names of every
    transition (see `BLOCK_SHAPES`) and drops those it rejects; it restricts
    the evolution to chosen pathways, e.g. absorption from one arm only.

    `switch_off` > 0 turns the interaction off smoothly (cos^2) over the
    last `switch_off` fs of the window instead of at its end. A closed
    system keeps emitting after the pulse has passed; a hard cut at `t`
    leaks that emission into every detection time through the sidelobes of
    the band-limited detection kernel, while a smooth one does not.

    `mode_coupling` scales the coupling to each lattice mode (default 1).
    A smooth roll-off towards the lattice edges replaces the sinc-shaped
    detection kernel of a hard band edge, whose slowly decaying sidelobes
    smear the ordering of emissions a few fs apart, by a compact one.

    Each step applies, at each order, only the couplings whose input block
    is reachable at the order below (see `_reachable`), and copies only
    those input blocks as the step's start values.
    """
    if system.dephasing_default != 0.0 or any(system.dephasing_pairs.values()):
        raise ValueError("the brute-force route is bath-free: dephasing must be zero")
    _check_count("n_steps", n_steps, 1)
    _check_count("order_max", order_max, 0)
    if not np.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    if t_start is None:
        t_start = -t
    if not np.isfinite(t_start):
        raise ValueError(f"t_start must be finite, got {t_start}")
    if t <= t_start:
        raise ValueError("need t > t_start")
    if not 0.0 <= switch_off <= t - t_start:
        raise ValueError("switch_off must lie in [0, t - t_start]")
    n_g, n_e, n_f = system.n_g, system.n_e, system.n_f
    M = field.frequencies.size
    if mode_coupling is not None and np.shape(mode_coupling) != (M,):
        raise ValueError(f"mode_coupling must have one entry per mode ({M})")
    h = (t - t_start) / n_steps

    orders = [_zero_blocks(n_g, n_e, n_f, M) for _ in range(order_max + 1)]
    g_index = system.indices("g").index(system.initial_index())
    orders[0]["g_ab"][g_index] = field.coefficients

    couplings = _build_couplings(system, field, t_start, h, mode_coupling)
    if keep is not None:
        couplings = [c for c in couplings if keep(c.out_key, c.in_key)]
    plan = _reachable(couplings, order_max)
    # order k's couplings read order k - 1 at the step's start ("old"); no
    # coupling writes order 0, so its blocks serve as their own old values
    read = [{c.in_key for c in used} for used in plan]
    live = [c for c in couplings if any(c in used for used in plan)]
    mid = t_start + h * (np.arange(n_steps) + 0.5)
    ramp = np.clip((mid - (t - switch_off)) / max(switch_off, h), 0.0, 1.0)
    scales = np.cos(0.5 * np.pi * ramp) ** 2
    for n in range(n_steps):
        olds = [{key: orders[k][key].copy() for key in keys} if k else orders[0]
                for k, keys in enumerate(read)]
        for k, used in enumerate(plan, start=1):
            for c in used:
                c.apply(orders[k], olds[k - 1], orders[k - 1], scales[n])
        for c in live:
            c.advance()
    return PerturbativeKet(orders, field.frequencies.copy(),
                           _band_energies(system, "g"))


# ---------------------------------------------------------------------------
# detection
# ---------------------------------------------------------------------------

#: blocks holding one a-arm and one b-arm photon, with (a-slot, b-slot) axis
#: order; incident and emitted photons at the same frequency are detected
#: coherently
_DETECTED = {
    "g_ab": (1, 2),
    "g_b_ea": (2, 1),   # emitted a' in slot 2, incident b in slot 1
    "g_a_eb": (1, 2),
    "g_eab": (1, 2),
}


def detection_amplitudes(ket: PerturbativeKet, hom: HomSpec, t_a: float,
                         t_b: float, orders: Optional[Sequence[int]] = None
                         ) -> Dict[str, Dict[int, np.ndarray]]:
    """Order-resolved two-photon detection amplitudes for the BS patterns.

    Returns vectors over ground levels for the transmitted pattern
    (a at t_a, b at t_b), the reflected pattern (a at t_b, b at t_a) and the
    cross pattern carrying the delay (a at t_b + T, b at t_a - T), at the
    ket's `orders` (default all). Only sectors with one photon per arm
    couple.
    """
    w = ket.frequencies
    orders = range(len(ket.orders)) if orders is None else sorted(set(orders))

    def chi(x: float, y: float) -> Dict[int, np.ndarray]:
        pa = np.exp(-1j * w * x)
        pb = np.exp(-1j * w * y)
        out = {}
        for k in orders:
            blocks = ket.orders[k]
            total = None
            for key, (a_ax, b_ax) in _DETECTED.items():
                arr = blocks[key]
                sub = "ljk,j,k->l" if (a_ax, b_ax) == (1, 2) else "lkj,j,k->l"
                v = np.einsum(sub, arr, pa, pb)
                total = v if total is None else total + v
            out[k] = total
        return out

    return {
        "through": chi(t_a, t_b),
        "reflected": chi(t_b, t_a),
        "cross": chi(t_b + hom.T, t_a - hom.T),
    }


def exchange_pair_product(amps_bra, amps_ket, hom: HomSpec,
                          orders: Tuple[int, int] = (2, 2)) -> complex:
    """Pattern-weighted product <bra|ket> of two sets of detection amplitudes
    (from :func:`detection_amplitudes`) at the (bra, ket) orders: t^4 on the
    transmitted pattern, r^4 on the reflected one, -t^2 r^2 on each
    transmitted/cross interference."""
    t2, r2 = hom.t_coeff ** 2, hom.r_coeff ** 2
    bra = {name: amps[orders[0]] for name, amps in amps_bra.items()}
    ket = {name: amps[orders[1]] for name, amps in amps_ket.items()}
    total = t2 ** 2 * np.vdot(bra["through"], ket["through"])
    total += r2 ** 2 * np.vdot(bra["reflected"], ket["reflected"])
    total -= t2 * r2 * (np.vdot(bra["through"], ket["cross"])
                        + np.vdot(bra["cross"], ket["through"]))
    return complex(total)


def _pair_products(amps: Dict[str, Dict[int, np.ndarray]], hom: HomSpec,
                   pairs: Sequence[Tuple[int, int]]) -> float:
    # (k, l) pairs the ket order k with the bra order l
    return float(sum(exchange_pair_product(amps, amps, hom, (l, k)).real
                     for k, l in pairs))


def coincidence_probability(ket: PerturbativeKet, hom: HomSpec, t_a: float,
                            t_b: float,
                            order_pairs: Optional[Sequence[Tuple[int, int]]] = None
                            ) -> float:
    """Two-detector counting probability with the ordered scheme t_a > t_b.

    Sums bra/ket order pairs (all computed orders by default; restrict with
    `order_pairs`, e.g. the strict fourth-order set). Cross terms with odd
    combined order vanish because odd orders hold no two-photon sector.
    """
    if not t_a > t_b:
        raise ValueError(f"ordered detection requires t_a > t_b, got "
                         f"t_a={t_a}, t_b={t_b}")
    n = len(ket.orders)
    if order_pairs is None:
        order_pairs = [(k, l) for k in range(n) for l in range(n)]
    amps = detection_amplitudes(ket, hom, t_a, t_b,
                                [k for pair in order_pairs for k in pair])
    return _pair_products(amps, hom, order_pairs)


def fourth_order_coincidence(ket: PerturbativeKet, hom: HomSpec, t_a: float,
                             t_b: float) -> float:
    """The strict fourth-order piece: order pairs (0,4), (2,2), (4,0).

    Takes the detection times in the signal pipeline's order, t_a = t_ref
    and t_b = t_ref + tau, and so does not apply
    :func:`coincidence_probability`'s t_a > t_b check.
    """
    amps = detection_amplitudes(ket, hom, t_a, t_b, (0, 2, 4))
    return _pair_products(amps, hom, [(0, 4), (2, 2), (4, 0)])
