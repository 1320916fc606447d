import cmath

import numpy as np
import pytest

from homspec.model import (CORRELATOR_SEQUENCES, ExcitonSystem, Level,
                           LiouvilleOperatorSet, LiouvilleState, apply_dipole,
                           apply_sequence, conjugate_partner, correlator,
                           propagate, sequence_tokens)


def coherence(n, i, j, dim=None):
    m = np.zeros((n, n), dtype=complex)
    m[i, j] = 1.0
    return LiouvilleState(m)


def two_three_two(rng):
    """Two g, three e and two f levels with random complex dipoles and a
    pair-rate override, starting in the upper g level."""
    ge = rng.uniform(0.3, 1.0, (3, 2)) * np.exp(2j * np.pi * rng.random((3, 2)))
    ef = rng.uniform(0.3, 1.0, (2, 3)) * np.exp(2j * np.pi * rng.random((2, 3)))
    return LiouvilleOperatorSet(ExcitonSystem(
        levels=[Level("g0", "g", 0.0), Level("g1", "g", 0.05),
                Level("e0", "e", 0.9), Level("e1", "e", 1.0),
                Level("e2", "e", 1.2), Level("f0", "f", 1.8),
                Level("f1", "f", 2.1)],
        dipoles_ge=ge, dipoles_ef=ef, dephasing_default=0.08,
        dephasing_pairs={("e1", "g1"): 0.2}, initial_label="g1"))


def kronecker_expansion(ops, seq):
    """Terms (coeffs, z1, z2, z3) contracted over the dense n^2 x n^2
    superoperators V_L = V (x) 1 and V_R = 1 (x) V^T."""
    n = ops.dim
    eye = np.eye(n)

    def superoperator(side, dagger):
        op = ops.Vdag if dagger else ops.V
        return np.kron(op, eye) if side == "L" else np.kron(eye, op.T)

    S1, S2, S3, S4 = (superoperator(*entry) for entry in seq)
    trace = S1[np.arange(n) * (n + 1)].sum(axis=0)
    start = S4[:, ops.system.initial_index() * (n + 1)]
    c = np.flatnonzero(start)
    b = np.flatnonzero(S3[:, c].any(axis=1))
    a = np.flatnonzero(S2[:, b].any(axis=1) & (trace != 0))
    C = ((start[c][:, None, None] * S3[np.ix_(b, c)].T[:, :, None])
         * S2[np.ix_(a, b)].T[None, :, :]) * trace[a][None, None, :]
    ic, ib, ia = np.nonzero(C)
    z = (1j * ops.delta_omega + ops.eta).ravel()
    return C[ic, ib, ia], z[a[ia]], z[b[ib]], z[c[ic]]


class TestSystemValidation:
    def test_band_ordering_enforced(self):
        with pytest.raises(ValueError, match="e energy"):
            ExcitonSystem(levels=[Level("g", "g", 1.0), Level("e", "e", 0.5)],
                          dipoles_ge=[[1.0]])

    def test_requires_g_and_e(self):
        with pytest.raises(ValueError, match="at least one g"):
            ExcitonSystem(levels=[Level("g", "g", 0.0)], dipoles_ge=[[1.0]])

    def test_negative_dephasing_rejected(self):
        with pytest.raises(ValueError):
            ExcitonSystem(levels=[Level("g", "g", 0.0), Level("e", "e", 1.0)],
                          dipoles_ge=[[1.0]], dephasing_default=-0.1)

    def test_asymmetric_pair_rates_rejected(self):
        with pytest.raises(ValueError, match="asymmetric"):
            ExcitonSystem(levels=[Level("g", "g", 0.0), Level("e", "e", 1.0)],
                          dipoles_ge=[[1.0]],
                          dephasing_pairs={("g", "e"): 0.1, ("e", "g"): 0.2})

    def test_dipole_shape_checked(self):
        with pytest.raises(ValueError, match="dipoles_ge"):
            ExcitonSystem(levels=[Level("g", "g", 0.0), Level("e", "e", 1.0)],
                          dipoles_ge=[[1.0, 2.0]])


class TestPropagate:
    def test_negative_time_gives_zero_state(self, two_level):
        ops = LiouvilleOperatorSet(two_level)
        out = propagate(coherence(2, 1, 0), -1.0, ops)
        assert np.all(out.coefficients == 0)

    def test_zero_time_scales_by_minus_i(self, two_level):
        ops = LiouvilleOperatorSet(two_level)
        state = coherence(2, 1, 0)
        out = propagate(state, 0.0, ops)
        assert np.allclose(out.coefficients, -1j * state.coefficients)

    def test_single_coherence_phase_and_damping(self, two_level):
        # independent scalar evaluation of the damped phase factor
        ops = LiouvilleOperatorSet(two_level)
        out = propagate(coherence(2, 1, 0), 2.0, ops)
        expected = -1j * cmath.exp(-2j * 1.0 - 0.2)
        assert abs(out.coefficients[1, 0] - expected) < 1e-14

    def test_damping_monotone(self, ladder_ops):
        state = LiouvilleState(np.ones((3, 3), dtype=complex))
        mags = [np.abs(propagate(state, t, ladder_ops).coefficients)
                for t in (0.5, 1.0, 2.0, 4.0)]
        for a, b in zip(mags, mags[1:]):
            assert np.all(b <= a + 1e-15)

    def test_composition_adds_one_prefactor(self, ladder_ops):
        rng = np.random.default_rng(3)
        state = LiouvilleState(rng.normal(size=(3, 3))
                               + 1j * rng.normal(size=(3, 3)))
        twice = propagate(propagate(state, 1.2, ladder_ops), 0.7, ladder_ops)
        once = propagate(state, 1.9, ladder_ops)
        assert np.allclose(twice.coefficients, -1j * once.coefficients,
                           atol=1e-14)


class TestApplyDipole:
    def test_ground_raise(self, two_level):
        ops = LiouvilleOperatorSet(two_level)
        out = apply_dipole(coherence(2, 0, 0), "L", "raise", ops)
        assert out.coefficients[1, 0] == 1.0
        assert np.count_nonzero(out.coefficients) == 1

    def test_ground_lower_vanishes(self, two_level):
        ops = LiouvilleOperatorSet(two_level)
        out = apply_dipole(coherence(2, 0, 0), "L", "lower", ops)
        assert np.all(out.coefficients == 0)

    def test_upper_transition_element(self):
        system = ExcitonSystem(
            levels=[Level("g", "g", 0.0), Level("e", "e", 1.0),
                    Level("f", "f", 2.0)],
            dipoles_ge=[[1.0]], dipoles_ef=[[2.0]])
        ops = LiouvilleOperatorSet(system)
        out = apply_dipole(coherence(3, 1, 0), "L", "raise", ops)
        assert out.coefficients[2, 0] == pytest.approx(2.0)

    def test_left_right_commute(self, ladder_ops):
        rng = np.random.default_rng(11)
        state = LiouvilleState(rng.normal(size=(3, 3))
                               + 1j * rng.normal(size=(3, 3)))
        for s1 in ("raise", "lower"):
            for s2 in ("raise", "lower"):
                lr = apply_dipole(apply_dipole(state, "L", s1, ladder_ops),
                                  "R", s2, ladder_ops)
                rl = apply_dipole(apply_dipole(state, "R", s2, ladder_ops),
                                  "L", s1, ladder_ops)
                assert np.allclose(lr.coefficients, rl.coefficients)


class TestCorrelator:
    def test_negative_interval_vanishes(self, ladder_ops):
        for i in range(1, 6):
            assert correlator(i, 1.0, -0.5, 1.0, ladder_ops) == 0

    def test_two_band_system_kills_double_raise(self, two_level):
        ops = LiouvilleOperatorSet(two_level)
        assert correlator(5, 1.0, 2.0, 3.0, ops) == pytest.approx(0.0)

    def test_bad_index(self, ladder_ops):
        with pytest.raises(ValueError):
            correlator(6, 1.0, 1.0, 1.0, ladder_ops)

    def test_ladder_closed_form(self):
        # sum-over-states closed form: single path for the first pathway on
        # a g-e-f ladder with unit dipoles, evaluated from plain scalars
        system = ExcitonSystem(
            levels=[Level("g", "g", 0.0), Level("e", "e", 1.0),
                    Level("f", "f", 1.9)],
            dipoles_ge=[[1.0]], dipoles_ef=[[1.0]], dephasing_default=0.0)
        ops = LiouvilleOperatorSet(system, eta_floor=0.0)
        t1, t2, t3 = 0.7, 1.3, 2.1
        # chronologically: right-lower (g,e), left-raise (e,e),
        # right-raise (e,g), left-lower, trace
        expected = (-1j) ** 3 * cmath.exp(-1j * 1.0 * t1 + 1j * 1.0 * t3)
        assert abs(correlator(1, t1, t2, t3, ops) - expected) < 1e-12

    def test_expansion_matches_dense(self, ladder_ops):
        # one level per band gives one path per correlator; the 2/3/2 system
        # (complex dipoles, a pair-rate override, starting in the upper g
        # level) sums 18 paths in each
        rng = np.random.default_rng(0)
        multi = two_three_two(rng)
        for ops, n_terms in ((ladder_ops, 1), (multi, 18)):
            for i in range(1, 6):
                exp = ops.expansion(i)
                assert exp.coeffs.size == n_terms
                for _ in range(4):
                    t1, t2, t3 = rng.uniform(0.0, 6.0, 3)
                    dense = correlator(i, t1, t2, t3, ops)
                    fast = complex(exp.evaluate(t1, t2, t3))
                    assert abs(dense - fast) < 1e-12

    def test_build_matches_kronecker_contraction(self, ladder_ops):
        # indexing V per side gives the terms, order and values of the
        # contraction over dense Kronecker superoperators
        for ops in (ladder_ops, two_three_two(np.random.default_rng(0))):
            for i, seq in CORRELATOR_SEQUENCES.items():
                exp = ops.expansion(i)
                coeffs, z1, z2, z3 = kronecker_expansion(ops, seq)
                for got, want in ((exp.z1, z1), (exp.z2, z2), (exp.z3, z3)):
                    assert np.array_equal(got, want)
                assert np.all(np.abs(exp.coeffs - coeffs)
                              <= 1e-15 * np.abs(coeffs))

    def test_factors_separate_the_correlator(self, ladder_ops):
        rng = np.random.default_rng(2)
        multi = two_three_two(rng)
        tau2 = np.array([0.0, 0.7, 2.5, 4.0])
        tau3 = np.array([0.0, 1.1, 3.3])
        for ops in (ladder_ops, multi):
            for i in range(1, 6):
                exp = ops.expansion(i)
                tau1 = 3.0 - tau2  # the last interval is negative
                A, B = exp.factors(tau1, tau2, tau3)
                # against the dense propagation, not `evaluate`, which is
                # built from `factors`
                want = [[correlator(i, t1, t2, t3, ops) for t3 in tau3]
                        for t1, t2 in zip(tau1, tau2)]
                assert np.allclose(A @ B.T, want, rtol=1e-13, atol=1e-15)
                assert np.all(A[-1] == 0)

    def test_expansion_vectorized_causality(self, ladder_ops):
        exp = ladder_ops.expansion(2)
        t = np.array([-1.0, 0.5, 2.0])
        vals = exp.evaluate(t, 1.0, 1.0)
        assert vals[0] == 0
        assert vals[1] != 0

    @pytest.mark.filterwarnings("error")
    def test_expansion_long_negative_interval_is_zero(self, ladder_ops):
        # a dead entry must reach no exponential that overflows
        for i in range(1, 6):
            exp = ladder_ops.expansion(i)
            for dead in range(3):
                args = [1.0, 1.0, 1.0]
                args[dead] = np.array([-1e4, 1.0])
                vals = exp.evaluate(*args)
                assert vals[0] == 0
                assert vals[1] != 0

    def test_operator_set_unchanged_by_evaluation(self, ladder, gauss_amp):
        from homspec.signal import coincidence, default_quadrature

        ops = LiouvilleOperatorSet(ladder)
        before = {k: dict(v) if hasattr(v, "items") else v
                  for k, v in vars(ops).items()}
        q = default_quadrature(ops, gauss_amp)
        coincidence(1.0, 2.0, 0.0, gauss_amp, ops, q)
        assert vars(ops).keys() == before.keys()
        for key, value in vars(ops).items():
            if hasattr(value, "items"):
                assert dict(value) == before[key], key
            else:
                assert value is before[key], key

    def test_hermiticity_restoration(self, ladder_ops):
        # pairing a sequence with its side-swapped, sense-swapped partner
        # (times (-1)^{#G}) restores a real trace on Hermitian input
        rng = np.random.default_rng(5)
        taus = (1.1, 0.4, 2.3)
        for i, seq in CORRELATOR_SEQUENCES.items():
            z = apply_sequence(ladder_ops, seq, taus)
            w = apply_sequence(ladder_ops, conjugate_partner(seq), taus)
            total = z + (-1.0) ** 3 * w
            assert abs(total.imag) < 1e-12 * abs(total.real) + 1e-15


def test_sequence_tokens_render():
    assert sequence_tokens(CORRELATOR_SEQUENCES[1]) == (
        "V_L", "G", "V_R†", "G", "V_L†", "G", "V_R")
