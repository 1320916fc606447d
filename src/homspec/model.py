"""Multi-level exciton model and Liouville-space propagation.

The matter side of the simulator: a g/e/f band ladder with complex dipole
matrices between adjacent bands, pair-resolved damping rates, and the
superoperator machinery (left/right dipole action, damped free propagation)
needed to evaluate four-point correlation functions.

The rates are not pure dephasing: every |i><j| decays at eta_ij, the
populations and the initial |g0><g0| included (`propagate` keeps e^{-0.5},
about 0.61, of the trace over 10 fs at eta = 0.05).

Units: hbar = 1, times in fs, angular frequencies in rad/fs, dephasing rates
in 1/fs. Dipole magnitudes are in arbitrary units; field prefactors are
absorbed into them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

MANIFOLD_ORDER = {"g": 0, "e": 1, "f": 2}

#: Superoperator sequences of the five surviving four-point correlators,
#: written latest-interaction first.  Each entry is (side, dagger): side "L"
#: multiplies the density operator from the left, "R" from the right;
#: dagger=True applies the raising operator.
CORRELATOR_SEQUENCES: Dict[int, Tuple[Tuple[str, bool], ...]] = {
    1: (("L", False), ("R", True), ("L", True), ("R", False)),
    2: (("L", False), ("L", True), ("R", True), ("R", False)),
    3: (("L", False), ("R", True), ("R", False), ("L", True)),
    4: (("L", False), ("L", True), ("L", False), ("L", True)),
    5: (("L", False), ("L", False), ("L", True), ("L", True)),
}


#: Default floor (1/fs) on every pair dephasing rate.
ETA_FLOOR = 1e-6


def sequence_tokens(seq: Sequence[Tuple[str, bool]]) -> Tuple[str, ...]:
    """Render an operator sequence as tokens like ('V_L', 'G', 'V_R†', ...)."""
    toks: List[str] = []
    for k, (side, dagger) in enumerate(seq):
        if k > 0:
            toks.append("G")
        toks.append(f"V_{side}" + ("†" if dagger else ""))
    return tuple(toks)


@dataclass
class Level:
    label: str
    manifold: str  # "g", "e" or "f"
    energy: float  # rad/fs


@dataclass
class ExcitonSystem:
    """Level structure, dipoles and dephasing of the material system.

    Parameters
    ----------
    levels:
        Ordered list of levels. Band membership is explicit; energies must be
        ordered g <= e <= f between bands (within a band any order).
    dipoles_ge:
        Complex array of shape (n_e, n_g); element [k, l] couples e_k <-> g_l.
    dipoles_ef:
        Complex array of shape (n_f, n_e); element [m, k] couples f_m <-> e_k.
        May be empty for a two-band system.
    dephasing_default:
        Scalar rate applied to every |i><j| pair not listed in
        ``dephasing_pairs``.
    dephasing_pairs:
        Optional per-pair overrides, keyed by (label_i, label_j). Symmetric:
        specifying one order fixes both.
    initial_label:
        Label of the initial (pure) matter state; defaults to the lowest
        g level.
    """

    levels: List[Level]
    dipoles_ge: np.ndarray
    dipoles_ef: Optional[np.ndarray] = None
    dephasing_default: float = 0.0
    dephasing_pairs: Mapping[Tuple[str, str], float] = field(default_factory=dict)
    initial_label: Optional[str] = None

    def __post_init__(self) -> None:
        self.dipoles_ge = np.atleast_2d(np.asarray(self.dipoles_ge, dtype=complex))
        if self.dipoles_ef is None or np.size(self.dipoles_ef) == 0:
            self.dipoles_ef = np.zeros((0, self.n_e), dtype=complex)
        else:
            self.dipoles_ef = np.atleast_2d(np.asarray(self.dipoles_ef, dtype=complex))
        self.validate()

    # -- band bookkeeping ---------------------------------------------------

    def indices(self, manifold: str) -> List[int]:
        return [k for k, lv in enumerate(self.levels) if lv.manifold == manifold]

    @property
    def n_levels(self) -> int:
        return len(self.levels)

    @property
    def n_g(self) -> int:
        return len(self.indices("g"))

    @property
    def n_e(self) -> int:
        return len(self.indices("e"))

    @property
    def n_f(self) -> int:
        return len(self.indices("f"))

    def index_of(self, label: str) -> int:
        for k, lv in enumerate(self.levels):
            if lv.label == label:
                return k
        raise KeyError(f"no level labeled {label!r}")

    def validate(self) -> None:
        if self.n_g < 1 or self.n_e < 1:
            raise ValueError("need at least one g level and one e level")
        labels = [lv.label for lv in self.levels]
        if len(set(labels)) != len(labels):
            raise ValueError("level labels must be unique")
        for lv in self.levels:
            if lv.manifold not in MANIFOLD_ORDER:
                raise ValueError(f"unknown manifold {lv.manifold!r} for {lv.label}")
            if not np.isfinite(lv.energy):
                raise ValueError(f"non-finite energy for level {lv.label}")
        e_g = [self.levels[k].energy for k in self.indices("g")]
        e_e = [self.levels[k].energy for k in self.indices("e")]
        e_f = [self.levels[k].energy for k in self.indices("f")]
        if max(e_g) > min(e_e):
            raise ValueError("every e energy must be >= every g energy")
        if e_f and max(e_e) > min(e_f):
            raise ValueError("every f energy must be >= every e energy")
        if self.dipoles_ge.shape != (self.n_e, self.n_g):
            raise ValueError(
                f"dipoles_ge must have shape (n_e, n_g) = {(self.n_e, self.n_g)}, "
                f"got {self.dipoles_ge.shape}"
            )
        if self.dipoles_ef.shape != (self.n_f, self.n_e):
            raise ValueError(
                f"dipoles_ef must have shape (n_f, n_e) = {(self.n_f, self.n_e)}, "
                f"got {self.dipoles_ef.shape}"
            )
        if self.dephasing_default < 0:
            raise ValueError("dephasing_default must be >= 0")
        for (a, b), rate in self.dephasing_pairs.items():
            self.index_of(a), self.index_of(b)
            if rate < 0:
                raise ValueError(f"dephasing rate for ({a}, {b}) must be >= 0")
            rev = self.dephasing_pairs.get((b, a))
            if rev is not None and rev != rate:
                raise ValueError(f"asymmetric dephasing rates given for ({a}, {b})")
        self.initial_index()  # the initial label names a g level

    # -- derived operators ----------------------------------------------------

    def energies(self) -> np.ndarray:
        return np.array([lv.energy for lv in self.levels], dtype=float)

    def lowering_operator(self) -> np.ndarray:
        """Full lowering operator V = sum_{i<j} mu_ij |i><j| (maps e->g, f->e)."""
        n = self.n_levels
        V = np.zeros((n, n), dtype=complex)
        gs, es, fs = self.indices("g"), self.indices("e"), self.indices("f")
        for k, ei in enumerate(es):
            for l, gi in enumerate(gs):
                V[gi, ei] = self.dipoles_ge[k, l]
        for m, fi in enumerate(fs):
            for k, ei in enumerate(es):
                V[ei, fi] = self.dipoles_ef[m, k]
        return V

    def dephasing_matrix(self) -> np.ndarray:
        """Pair rates eta_ij as an (n, n) array (zero floor not yet applied);
        `dephasing_default` fills the diagonal too, so populations decay."""
        n = self.n_levels
        eta = np.full((n, n), float(self.dephasing_default))
        for (a, b), rate in self.dephasing_pairs.items():
            i, j = self.index_of(a), self.index_of(b)
            eta[i, j] = rate
            eta[j, i] = rate
        return eta

    def initial_index(self) -> int:
        if self.initial_label is not None:
            idx = self.index_of(self.initial_label)
            if self.levels[idx].manifold != "g":
                raise ValueError("initial state must be a g level")
            return idx
        gs = self.indices("g")
        return min(gs, key=lambda k: self.levels[k].energy)


@dataclass
class LiouvilleState:
    """Coefficients over the |i><j| outer-product basis (not necessarily Hermitian)."""

    coefficients: np.ndarray

    def __post_init__(self) -> None:
        self.coefficients = np.asarray(self.coefficients, dtype=complex)
        if self.coefficients.ndim != 2 or self.coefficients.shape[0] != self.coefficients.shape[1]:
            raise ValueError("coefficients must be a square matrix")

    @property
    def dim(self) -> int:
        return self.coefficients.shape[0]

    def trace(self) -> complex:
        return complex(np.trace(self.coefficients))


class LiouvilleOperatorSet:
    """Precomputed propagation phases and dipole superoperators for one system.

    Immutable after construction.
    The damping of the free propagator uses the system's pair rates with a
    global floor ``eta_floor`` so long-time integrals stay convergent even
    when a user sets all rates to zero.
    """

    def __init__(self, system: ExcitonSystem, eta_floor: float = ETA_FLOOR):
        self.system = system
        self.eta_floor = float(eta_floor)
        self.omega = system.energies()
        self.V = system.lowering_operator()
        self.Vdag = self.V.conj().T
        self.eta = np.maximum(system.dephasing_matrix(), self.eta_floor)
        # coherence frequencies omega_i - omega_j for the |i><j| basis
        self.delta_omega = self.omega[:, None] - self.omega[None, :]
        self._expansions = {i: CorrelatorExpansion.build(self, seq)
                            for i, seq in CORRELATOR_SEQUENCES.items()}

    @property
    def dim(self) -> int:
        return self.system.n_levels

    def initial_state(self) -> LiouvilleState:
        rho = np.zeros((self.dim, self.dim), dtype=complex)
        k = self.system.initial_index()
        rho[k, k] = 1.0
        return LiouvilleState(rho)

    def expansion(self, i: int) -> "CorrelatorExpansion":
        return self._expansions[i]


def propagate(state: LiouvilleState, tau: float, ops: LiouvilleOperatorSet) -> LiouvilleState:
    """Apply the damped free propagator over a time interval.

    For tau < 0 the result is the zero state (causality); for tau >= 0 every
    coefficient (i, j) is multiplied by -i * exp(-i(omega_i - omega_j) tau
    - eta_ij tau). The step convention at zero is theta(0) = 1.
    """
    if not np.isfinite(tau):
        raise ValueError("tau must be finite")
    if state.dim != ops.dim:
        raise ValueError("state dimension does not match the system")
    if tau < 0:
        return LiouvilleState(np.zeros_like(state.coefficients))
    phase = -1j * np.exp(-(1j * ops.delta_omega + ops.eta) * tau)
    return LiouvilleState(state.coefficients * phase)


def apply_dipole(state: LiouvilleState, side: str, sense: str,
                 ops: LiouvilleOperatorSet) -> LiouvilleState:
    """Apply V (sense='lower') or V† (sense='raise') from the left or right."""
    if state.dim != ops.dim:
        raise ValueError("state dimension does not match the system")
    if sense == "lower":
        op = ops.V
    elif sense == "raise":
        op = ops.Vdag
    else:
        raise ValueError(f"sense must be 'lower' or 'raise', got {sense!r}")
    if side == "L":
        return LiouvilleState(op @ state.coefficients)
    if side == "R":
        return LiouvilleState(state.coefficients @ op)
    raise ValueError(f"side must be 'L' or 'R', got {side!r}")


def apply_sequence(ops: LiouvilleOperatorSet, seq: Sequence[Tuple[str, bool]],
                   intervals: Sequence[float],
                   rho0: Optional[LiouvilleState] = None) -> complex:
    """Evaluate tr{ op_1 G(t_1) op_2 G(t_2) ... op_n rho0 }.

    ``seq`` is written latest-operator first (as the correlators read);
    ``intervals`` holds the n-1 propagation times in the same order, so the
    last sequence entry acts first and is followed by G(intervals[-1]).
    """
    if len(intervals) != len(seq) - 1:
        raise ValueError("need exactly len(seq) - 1 intervals")
    if any(t < 0 for t in intervals):
        return 0.0 + 0.0j
    state = ops.initial_state() if rho0 is None else rho0
    side, dagger = seq[-1]
    state = apply_dipole(state, side, "raise" if dagger else "lower", ops)
    for k in range(len(seq) - 2, -1, -1):
        state = propagate(state, intervals[k], ops)
        side, dagger = seq[k]
        state = apply_dipole(state, side, "raise" if dagger else "lower", ops)
    return state.trace()


def conjugate_partner(seq: Sequence[Tuple[str, bool]]) -> Tuple[Tuple[str, bool], ...]:
    """Sequence whose trace is (-1)^{#G} times the complex conjugate.

    Taking the adjoint of the evolved density operator maps X_L -> (X†)_R and
    X_R -> (X†)_L while each propagator contributes a sign flip, so pairing a
    sequence with this partner (times (-1)^{#G}) restores a real trace on
    Hermitian initial states.
    """
    flip = {"L": "R", "R": "L"}
    return tuple((flip[side], not dagger) for side, dagger in seq)


def correlator(i: int, tau1: float, tau2: float, tau3: float,
               ops: LiouvilleOperatorSet) -> complex:
    """Four-point superoperator correlator for surviving pathway i in 1..5.

    Returns tr{ V_L G(tau1) X G(tau2) X G(tau3) X rho0 } with the (side,
    sense) pattern of pathway i, starting from the configured pure ground
    level. Exactly zero whenever any interval is negative.
    """
    if i not in CORRELATOR_SEQUENCES:
        raise ValueError(f"pathway index must be in 1..5, got {i}")
    return apply_sequence(ops, CORRELATOR_SEQUENCES[i], (tau1, tau2, tau3))


def correlator_coherent(tau1: float, tau2: float, tau3: float,
                        ops: LiouvilleOperatorSet) -> complex:
    """Reference third-order response <Vhat_+ G Vhat_- G Vhat_- G Vhat_->.

    Vhat = V + V†; the +/- superoperators are the left/right sum and
    difference. Used only as a comparison observable, not as part of the
    coincidence signal.
    """
    if tau1 < 0 or tau2 < 0 or tau3 < 0:
        return 0.0 + 0.0j
    vhat = ops.V + ops.Vdag
    rho = ops.initial_state().coefficients
    for tau in (tau3, tau2, tau1):  # chronologically: Vhat_-, then G(tau)
        rho = vhat @ rho - rho @ vhat
        rho = propagate(LiouvilleState(rho), tau, ops).coefficients
    return complex(np.trace(vhat @ rho + rho @ vhat))


class CorrelatorExpansion:
    """Closed-form sum-over-states form of one four-point correlator.

    The propagator is diagonal in the |i><j| basis and the dipole
    superoperators map basis coherences to basis coherences, so each
    correlator is a finite sum c_p * exp(-z1_p t1 - z2_p t2 - z3_p t3) over
    Liouville paths (z = i*delta_omega + eta). This form evaluates in one
    vectorized pass over large time meshes; it must agree with
    :func:`correlator` and is cross-checked against it in the tests.
    """

    def __init__(self, coeffs: np.ndarray, z1: np.ndarray, z2: np.ndarray, z3: np.ndarray):
        self.coeffs = coeffs
        self.z1 = z1
        self.z2 = z2
        self.z3 = z3

    @classmethod
    def build(cls, ops: LiouvilleOperatorSet,
              seq: Sequence[Tuple[str, bool]]) -> "CorrelatorExpansion":
        """Contract <tr| S1 G S2 G S3 G S4 |rho0> over the reachable coherences.

        On the row-major vec(rho), V_L = V (x) 1 and V_R = 1 (x) V^T (V† for a
        raising entry); each nonzero of the coefficient tensor is one term.
        Only the columns of S2..S4 that rho0 reaches are formed, by indexing
        V per side.
        """
        if len(seq) != 4:
            raise ValueError("expansion is defined for four-operator sequences")
        n = ops.dim

        def columns(side: str, dagger: bool, cols: np.ndarray) -> np.ndarray:
            """S[:, cols] for S = V_L or V_R: column |k><l| maps to
            V|k><l| (left) or |k><l|V (right)."""
            op = ops.Vdag if dagger else ops.V
            k, l = np.divmod(cols, n)
            out = np.zeros((n, n, cols.size), dtype=complex)
            m = np.arange(cols.size)
            if side == "L":
                out[:, l, m] = op[:, k]
            else:
                out[k, :, m] = op[l, :]
            return out.reshape(n * n, cols.size)

        (_, dag1), s2, s3, s4 = seq
        # <tr| V_L |k><l|> = <tr| |k><l| V_R> = V[l, k]
        trace = (ops.Vdag if dag1 else ops.V).T.ravel()
        start = columns(*s4, np.array([ops.system.initial_index() * (n + 1)]))[:, 0]
        c = np.flatnonzero(start)
        S3 = columns(*s3, c)
        b = np.flatnonzero(S3.any(axis=1))
        S2 = columns(*s2, b)
        a = np.flatnonzero(S2.any(axis=1) & (trace != 0))
        # C[c, b, a] = (S4 rho0)_c (S3)_bc (S2)_ab <tr|S1|a>, multiplied in
        # chronological order
        C = ((start[c][:, None, None] * S3[b].T[:, :, None])
             * S2[a].T[None, :, :]) * trace[a][None, None, :]
        ic, ib, ia = np.nonzero(C)
        z = (1j * ops.delta_omega + ops.eta).ravel()
        return cls(C[ic, ib, ia], z[a[ia]], z[b[ib]], z[c[ic]])

    def evaluate(self, tau1, tau2, tau3) -> np.ndarray:
        """Vectorized F(tau1, tau2, tau3): the term sum of the :meth:`factors`
        product, zero where any interval is < 0 (evaluated there at 0, so
        that no exponential overflows)."""
        t = np.broadcast_arrays(*map(np.asarray, (tau1, tau2, tau3)))
        live = (t[0] >= 0) & (t[1] >= 0) & (t[2] >= 0)
        A, B = self.factors(*(np.where(live, x, 0.0).ravel() for x in t))
        return np.where(live, (A * B).sum(axis=-1).reshape(live.shape), 0.0)

    def factors(self, tau1, tau2, tau3) -> Tuple[np.ndarray, np.ndarray]:
        """Separable form of F(tau1, tau2, tau3) with tau1 a function of tau2.

        Returns A of shape (n2, terms) and B of shape (n3, terms) with
        F(tau1[i], tau2[i], tau3[j]) = sum_p A[i, p] B[j, p] for 1-D arrays
        tau1, tau2 (same length) and tau3; rows where an interval is < 0
        are zero, as in :meth:`evaluate`. The first two intervals share one
        exponential, so no factor grows with the intervals.
        """
        t1 = np.asarray(tau1, dtype=float)
        t2 = np.asarray(tau2, dtype=float)
        t3 = np.asarray(tau3, dtype=float)
        A = np.multiply.outer(t1, -self.z1)
        A -= np.multiply.outer(t2, self.z2)
        np.exp(A, out=A)
        A *= (-1j) ** 3 * self.coeffs
        A[(t1 < 0) | (t2 < 0)] = 0.0
        B = np.exp(np.multiply.outer(t3, -self.z3))
        B[t3 < 0] = 0.0
        return A, B
