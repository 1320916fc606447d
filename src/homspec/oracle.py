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
for near-resonant parameters. Per step and coupling these are two Filon
kernels, K0 for the input block's value at the step's start and K1 for its
value at the step's end. Stacked as [K0, K1] and set against the stacked
[start, end] values, they give the coupling's contribution as one matrix
product. Couplings that read one input block through the same kernel share
that product: an e level emits into the a' and b' registers alike. All
kernels sit in one buffer. Per step, one multiply gives its copy scaled by
the step's factor -i h and one more advances it by the step's phases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

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
        if not np.isfinite(c).all():
            raise ValueError("coefficients must be finite")
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
        if not np.isfinite(values).all():
            raise ValueError("field values must be finite")
        norm = np.sqrt(np.sum(np.abs(values) ** 2))
        if norm == 0:
            raise ValueError("field coefficients are identically zero")
        return cls(np.asarray(frequencies, dtype=float), values / norm)


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


def _emission(kernel: np.ndarray, pair: np.ndarray,
              emitted_first: bool) -> np.ndarray:
    # an emission into a [lower level, mode, mode] block: the kernel's
    # (emitted) mode in the first or second mode slot, the input block's
    # photon in the other; either way the product comes out in the block's
    # mode order, so that adding it reads no transposed array
    upper, lower, M = kernel.shape[1:]
    k = kernel.reshape(2 * upper, lower * M)
    p = pair.reshape(2 * upper, -1)
    if emitted_first:
        return (k.T @ p).reshape(lower, M, -1)
    return (p.T @ k).reshape(-1, lower, M).transpose(1, 0, 2)


#: each coupling's contraction of its stacked kernel `kernel` ([K0, K1] on a
#: slot axis) with its input block's `pair` ([step-start value, step-end
#: value] on a leading slot axis), as one matrix product on reshaped views,
#: keyed by the subscript of the contraction it stands for ("mlj,ljk->mk"
#: reads: kernel [m, l, j], input [l, j, k], output [m, k]). The slot axis
#: sits just before the kernel's input-level axis, so that it flattens
#: together with the input's (slot, level) axes. Absorbing the b-slot photon
#: of g_ab, which does not follow them, is one product per (slot, level),
#: summed.
_PRODUCTS: Dict[str, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
    "mlj,ljk->mk": lambda kernel, pair: (
        kernel.reshape(kernel.shape[0], -1) @ pair.reshape(-1, pair.shape[-1])),
    "mlk,ljk->mj": lambda kernel, pair: np.matmul(
        pair.reshape(-1, *pair.shape[-2:]),
        kernel.reshape(kernel.shape[0], -1, kernel.shape[-1]).transpose(1, 2, 0)
    ).sum(axis=0).T,
    "pmj,mj->p": lambda kernel, pair: (
        kernel.reshape(kernel.shape[0], -1) @ pair.reshape(-1)),
    "pmj,p->mj": lambda kernel, pair: (
        pair.reshape(-1) @ kernel.reshape(pair.size, -1)).reshape(kernel.shape[2:]),
    "mlj,mk->ljk": lambda kernel, pair: _emission(kernel, pair, True),
    "mlj,mk->lkj": lambda kernel, pair: _emission(kernel, pair, False),
    "mlk,mj->ljk": lambda kernel, pair: _emission(kernel, pair, False),
}


class _Coupling:
    """The transitions of the interaction Hamiltonian that read one input
    block through one contraction (`_PRODUCTS[subscript]`) and add its
    result to each block of `outputs`. `kernel` is one of `_Kernels.views`:
    it holds the step's kernels times the step's factor."""

    def __init__(self, in_key: str, subscript: str, kernel: np.ndarray,
                 outputs: Tuple[str, ...]):
        self.in_key = in_key
        self.subscript = subscript
        self.kernel = kernel
        self.outputs = outputs

    def apply(self, out_blocks: Dict[str, np.ndarray], pair: np.ndarray
              ) -> None:
        """Add the contraction with the input's `pair` to every output
        block, symmetrized in the symmetric ones."""
        x = _PRODUCTS[self.subscript](self.kernel, pair)
        for key in self.outputs:
            out_blocks[key] += (0.5 * (x + x.transpose(0, 2, 1))
                                if key in _SYMMETRIC else x)


def _band_energies(system: ExcitonSystem, manifold: str) -> np.ndarray:
    return np.array([system.levels[k].energy for k in system.indices(manifold)])


def _zero_blocks(n_g: int, n_e: int, n_f: int, M: int) -> Dict[str, np.ndarray]:
    out: Dict[str, np.ndarray] = {}
    for key, (band, n_ph) in BLOCK_SHAPES.items():
        n = {"g": n_g, "e": n_e, "f": n_f}[band]
        shape = (n,) + (M,) * n_ph
        out[key] = np.zeros(shape, dtype=complex)
    return out


class _Kernels:
    """The Filon kernels of every coupling, one step of length `h` at a
    time from `t0`.

    Each (coefficient, delta, slot axis) of `terms` gives the kernels
    [K0, K1] of a step, stacked on the slot axis. `views` holds one view
    per term into a single buffer, which `step(factor)` fills with the next
    step's kernels times `factor` before it advances all kernels by one
    step with one multiply by their phases.
    """

    def __init__(self, terms, t0: float, h: float):
        kernels, phases = [], []
        for coeff, delta, axis in terms:
            c0, c1 = _filon_coeffs(delta * h)
            phase0 = np.exp(1j * delta * t0)
            kernels.append(np.stack([coeff * c0 * phase0, coeff * c1 * phase0],
                                    axis))
            step_phase = np.exp(1j * delta * h)
            phases.append(np.stack([step_phase, step_phase], axis))
        self._kernels = np.concatenate([k.ravel() for k in kernels])
        self._phases = np.concatenate([p.ravel() for p in phases])
        self._scaled = np.empty_like(self._kernels)
        ends = np.cumsum([k.size for k in kernels])
        self.views = [self._scaled[end - k.size:end].reshape(k.shape)
                      for k, end in zip(kernels, ends)]

    def step(self, factor: complex) -> None:
        np.multiply(self._kernels, factor, out=self._scaled)
        self._kernels *= self._phases


def _build_couplings(system: ExcitonSystem, field: DiscretizedField,
                     t0: float, h: float,
                     mode_coupling: Optional[np.ndarray] = None,
                     keep: Optional[Callable[[str, str], bool]] = None
                     ) -> Tuple[List[_Coupling], _Kernels]:
    """The couplings of the interaction Hamiltonian, each with only the
    outputs that `keep` (see `evolve_perturbative`) accepts, and the
    kernels they read, at the window start `t0`."""
    wg = _band_energies(system, "g")
    we = _band_energies(system, "e")
    wf = _band_energies(system, "f")
    wm = field.frequencies
    dge = system.dipoles_ge          # (n_e, n_g)
    def_ = system.dipoles_ef         # (n_f, n_e)

    ones3 = (np.ones((1, 1, wm.size)) if mode_coupling is None
             else np.asarray(mode_coupling, dtype=float)[None, None, :])
    # coefficients and deltas are [upper level, lower level, photon mode];
    # the slot axis goes just before the input level's axis: axis 1 on
    # absorption (from the lower level), axis 0 on emission
    d_abs_ge = we[:, None, None] - wg[None, :, None] - wm[None, None, :]
    terms = [(np.conj(dge)[:, :, None] * ones3, d_abs_ge, 1),
             (dge[:, :, None] * ones3, -d_abs_ge, 0)]
    if wf.size:
        d_abs_ef = wf[:, None, None] - we[None, :, None] - wm[None, None, :]
        terms += [(np.conj(def_)[:, :, None] * ones3, d_abs_ef, 1),
                  (def_[:, :, None] * ones3,
                   we[None, :, None] + wm[None, None, :] - wf[:, None, None], 0)]
    kernels = _Kernels(terms, t0, h)
    abs_ge, em_ge, *ef = kernels.views
    cs: List[_Coupling] = []

    def add(in_key: str, subscript: str, kernel: np.ndarray,
            *outputs: str) -> None:
        kept = tuple(key for key in outputs
                     if keep is None or keep(key, in_key))
        if kept:
            cs.append(_Coupling(in_key, subscript, kernel, kept))

    # absorptions act on the incident register only; contraction index j is
    # always the absorbed incident mode
    add("g_ab", "mlj,ljk->mk", abs_ge, "e_b")
    add("g_ab", "mlk,ljk->mj", abs_ge, "e_a")
    for em in ("ea", "eb"):
        # mixed blocks are [level, incident, emitted]; absorb the incident
        add(f"g_a_{em}", "mlj,ljk->mk", abs_ge, f"e_{em}")
        add(f"g_b_{em}", "mlj,ljk->mk", abs_ge, f"e_{em}")
    if wf.size:
        add("e_a", "pmj,mj->p", ef[0], "f_vac")
        add("e_b", "pmj,mj->p", ef[0], "f_vac")

    # emissions create in the emitted register; mixed blocks are laid out
    # [level, incident mode, emitted mode], emitted pairs [level, a', b'].
    # An e level emits into a' and b' alike, so each e block feeds two
    # blocks from one contraction; g_eaa and g_ebb take it symmetrized, in
    # either orientation
    add("e_b", "mlj,mk->lkj", em_ge, "g_b_ea", "g_b_eb")
    add("e_a", "mlk,mj->ljk", em_ge, "g_a_ea", "g_a_eb")
    add("e_ea", "mlj,mk->lkj", em_ge, "g_eaa", "g_eab")
    add("e_eb", "mlj,mk->ljk", em_ge, "g_eab", "g_ebb")
    if wf.size:
        add("f_vac", "pmj,p->mj", ef[1], "e_ea")
        add("f_vac", "pmj,p->mj", ef[1], "e_eb")
    return cs, kernels


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
        reach = {key for c in out[-1] for key in c.outputs}
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

    `mode_coupling` scales the coupling to each lattice mode (real, default 1).
    A smooth roll-off towards the lattice edges replaces the sinc-shaped
    detection kernel of a hard band edge, whose slowly decaying sidelobes
    smear the ordering of emissions a few fs apart, by a compact one.

    Each step sets every kernel to the step's [K0, K1] times -i h (and the
    switch-off weight), then copies each input block that some order reads
    into its preallocated step-start slot. Order by order, it applies only
    the couplings whose input block is reachable at the order below (see
    `_reachable`): one matrix product of the stacked kernels against the
    input's [start, end] pair, added to each of the coupling's output
    blocks. A full three-level step makes 14 products, a step restricted to
    one arm's first absorption 3.
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
    if mode_coupling is not None:
        if np.shape(mode_coupling) != (M,):
            raise ValueError(f"mode_coupling must have one entry per mode ({M})")
        if (np.iscomplexobj(mode_coupling)
                or not np.isfinite(mode_coupling).all()):
            raise ValueError("mode_coupling must be real and finite")
    h = (t - t_start) / n_steps

    orders = [_zero_blocks(n_g, n_e, n_f, M) for _ in range(order_max + 1)]
    g_index = system.indices("g").index(system.initial_index())
    orders[0]["g_ab"][g_index] = field.coefficients

    couplings, kernels = _build_couplings(system, field, t_start, h,
                                          mode_coupling, keep)
    plan = _reachable(couplings, order_max)
    # order k's couplings read order k - 1 as a pair [step start, step end]
    # whose slot 1 is the block itself; no coupling writes order 0, so both
    # of its slots keep the field
    pairs = [{c.in_key: np.stack([orders[k][c.in_key]] * 2) for c in used}
             for k, used in enumerate(plan)]
    for blocks, read in zip(orders, pairs):
        blocks.update((key, pair[1]) for key, pair in read.items())
    starts = [pair for written in pairs[1:] for pair in written.values()]
    mid = t_start + h * (np.arange(n_steps) + 0.5)
    ramp = np.clip((mid - (t - switch_off)) / max(switch_off, h), 0.0, 1.0)
    factors = -1j * h * np.cos(0.5 * np.pi * ramp) ** 2
    for factor in factors:
        kernels.step(factor)
        for pair in starts:
            pair[0] = pair[1]
        for k, used in enumerate(plan, start=1):
            for c in used:
                c.apply(orders[k], pairs[k - 1][c.in_key])
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
    top = len(ket.orders) - 1
    orders = range(top + 1) if orders is None else sorted(set(orders))
    for k in orders:
        if not 0 <= k <= top:
            raise ValueError(f"order {k} asked for, but the ket's highest "
                             f"order is {top}")

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
