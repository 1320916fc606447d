import collections
import dataclasses
import itertools
import logging
import threading
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import GaussLine, gaussian_amplitude, non_square_gaussian
from homspec.biphoton import (BiphotonAmplitude, CrystalSpec, DeltaAmplitude,
                              PumpSpec, build_jsa, default_grid)
from homspec.model import (CORRELATOR_SEQUENCES, ExcitonSystem, Level,
                           LiouvilleOperatorSet, LiouvilleState,
                           apply_dipole, propagate)
from homspec import quadrature, signal
from homspec.pathways import (Affine, HomSpec, complete_term_table,
                              term_table)
from homspec.quadrature import (LatticeFactor, _amplitude_factor,
                                _batch_stencils, _boxes, _integral_keys,
                                _intervals, _plan, _segment_nodes,
                                _sub_term_values, _weights, row_values)
from homspec.quadrature import resolve_quadrature
from homspec.signal import (BLOCK_FACTOR, QuadratureSpec, SignalGrid,
                            coincidence, coincidence_short_Te,
                            coincidence_terms,
                            complete_coincidence, complete_coincidence_terms,
                            default_quadrature, pathway_probabilities,
                            reference_time, scan, short_te_terms, system_hash,
                            term_value)


@pytest.fixture(scope="module")
def slow_ladder():
    system = ExcitonSystem(
        levels=[Level("g0", "g", 0.0), Level("e0", "e", 0.9),
                Level("f0", "f", 1.75)],
        dipoles_ge=[[1.0]], dipoles_ef=[[0.8]], dephasing_default=0.08)
    return LiouvilleOperatorSet(system)


@pytest.fixture(scope="module")
def quad(slow_ladder):
    q = QuadratureSpec(cutoff=130.0, step=0.1, rule="trapezoid", t_ref=0.0)
    q.validate(slow_ladder)
    return q


TABLE = {(t.detection, t.interaction): t for t in term_table()}

# the unit splitter: the beam splitter removed, only the O_I rows survive
UNIT = HomSpec(t_coeff=1.0, r_coeff=0.0)


def point_box(sub, tau, T, amp, q):
    """One point's box of a sub-term: a batch of one, or None if empty."""
    return sub_boxes(sub, np.array([tau]), np.array([T]), amp, q)


def sub_boxes(sub, tau, T, amp, q):
    """A sub-term's boxes at the points (tau[k], T[k]), or None if all are
    empty."""
    return _boxes([sub], tau, T, q, _intervals([sub], tau, T, amp, q))[0]


def box_at(sub, tau, T, amp, q):
    """One point's box of a sub-term as (tau3, tau4), or None if empty."""
    box = point_box(sub, tau, T, amp, q)
    return None if box is None else (box.tau3, box.tau4)


def planned_use(sub, interaction, tau, T, amp, q):
    """A sub-term's use in one batch of the points (tau[k], T[k]), as the
    quadrature's plan makes it, or None if all its boxes are empty."""
    boxes = {id(sub): sub_boxes(sub, tau, T, amp, q)}
    keys = {id(sub): _integral_keys(sub, interaction, tau, T)}
    plan = _plan([(0, sub, interaction)], boxes, keys, slice(None))
    return plan[0] if plan else None


def sub_term_value(sub, interaction, tau, T, amp, ops, q):
    """One point's integral of a sub-term: the quadrature's batch of one."""
    use = planned_use(sub, interaction, np.array([tau]), np.array([T]), amp, q)
    return 0j if use is None else complex(
        _sub_term_values(use, amp, ops, q, {}, {})[0])


class TestQuadratureSpec:
    def test_rejects_bad_rule(self):
        with pytest.raises(ValueError):
            QuadratureSpec(cutoff=10.0, step=0.1, rule="midpoint")

    def test_validate_cutoff(self, slow_ladder):
        q = QuadratureSpec(cutoff=5.0, step=0.1)
        with pytest.raises(ValueError, match="cutoff"):
            q.validate(slow_ladder)

    def test_validate_step(self, slow_ladder):
        q = QuadratureSpec(cutoff=200.0, step=1.0)
        with pytest.raises(ValueError, match="step"):
            q.validate(slow_ladder)

    @pytest.mark.parametrize("name, value", [
        ("cutoff", np.nan), ("cutoff", np.inf), ("step", np.nan),
        ("t_ref", np.nan), ("t_ref", np.inf)])
    def test_refuses_non_finite_settings_by_name(self, name, value):
        settings = {"cutoff": 200.0, "step": 0.1, "t_ref": 0.0, name: value}
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            QuadratureSpec(**settings)

    def test_default_quadrature(self, slow_ladder):
        amp = gaussian_amplitude()
        q = default_quadrature(slow_ladder, amp)
        assert q.cutoff >= 10.0 / slow_ladder.eta.min()
        assert q.step <= 0.1 * 2 * np.pi / 1.75


class TestResolveQuadrature:
    def test_logs_the_final_spec_with_the_rule_of_each_setting(
            self, slow_ladder, caplog):
        caplog.set_level(logging.DEBUG, logger="homspec.quadrature")
        q = default_quadrature(slow_ladder, t_ref=2.5)
        assert [r.getMessage() for r in caplog.records] == [
            f"quadrature: cutoff 150 fs (12/eta_min, eta_min 0.08 /fs), "
            f"step {q.step:.6g} fs (0.1*2pi/omega_max, omega_max 1.75 "
            f"rad/fs), rule trapezoid, t_ref 2.5 fs"]
        caplog.clear()
        default_quadrature(slow_ladder, step=0.2, cutoff=200.0, rule="simpson")
        assert [r.getMessage() for r in caplog.records] == [
            "quadrature: cutoff 200 fs (given), step 0.2 fs (given), rule "
            "simpson, t_ref 0 fs"]

    def test_checking_a_spec_logs_nothing(self, slow_ladder, quad, caplog):
        caplog.set_level(logging.DEBUG, logger="homspec.quadrature")
        quad.validate(slow_ladder)
        q = resolve_quadrature(slow_ladder.system)
        assert not caplog.records
        assert q == default_quadrature(slow_ladder, t_ref=0.0)


class TestNodeBudget:
    def test_box_nodes_refused_before_allocation(self):
        q = QuadratureSpec(cutoff=200.0, step=1e-6)
        with pytest.raises(ValueError, match=r"^step 1e-06 fs takes 100000002 "
                                             r"quadrature nodes, above the "
                                             r"budget of 4194304"):
            _segment_nodes(np.array([0.0]), np.array([100.0]), q)

    def test_line_integral_takes_no_nodes(self, slow_ladder):
        # the F5 windows are exact, so a step that would give a trapezoid
        # 15000001 nodes gives the same values as a coarse one
        fine = QuadratureSpec(cutoff=150.0, step=1e-5)
        coarse = QuadratureSpec(cutoff=150.0, step=0.1)
        for tau, T, s in [(3.0, 5.0, 3.0), (1.0, 2.0, 5.0)]:  # both F5 windows
            assert (short_te_terms(tau, T, s, slow_ladder, fine)
                    == short_te_terms(tau, T, s, slow_ladder, coarse))


class TestWeights:
    """One weight builder serves the row blocks (nodes from `_segment_nodes`)
    and the closed form's line integral (nodes on the full step lattice)."""

    H = 0.1

    def nodes(self, caller, lo, hi):
        if caller == "segment":
            return _segment_nodes(np.array([lo]), np.array([hi]),
                                  QuadratureSpec(cutoff=hi, step=self.H))[0]
        return np.arange(round(lo / self.H), round(hi / self.H) + 1) * self.H

    @pytest.mark.parametrize("caller", ["segment", "line"])
    def test_simpson_exact_for_cubics_on_full_cells(self, caller):
        nodes = self.nodes(caller, 0.0, 3.2)  # 32 full-length cells
        w = _weights(nodes, self.H, "simpson")
        assert abs(w @ nodes ** 3 - 3.2 ** 4 / 4) < 1e-12

    def test_sliver_end_cells_stay_trapezoid(self):
        lo, hi = 0.37, 3.06  # slivers [0.37, 0.4] and [3.0, 3.06]
        nodes = self.nodes("segment", lo, hi)
        assert (nodes[1], nodes[-2]) == pytest.approx((0.4, 3.0))
        w = _weights(nodes, self.H, "simpson")
        # Simpson is exact for cubics on the 26 full cells in between
        expected = ((3.0 ** 4 - 0.4 ** 4) / 4
                    + (0.4 - lo) / 2 * (lo ** 3 + 0.4 ** 3)
                    + (hi - 3.0) / 2 * (3.0 ** 3 + hi ** 3))
        assert abs(w @ nodes ** 3 - expected) < 1e-12
        assert w.sum() == pytest.approx(hi - lo, abs=1e-14)

    def test_trapezoid_on_every_cell(self):
        nodes = self.nodes("segment", 0.37, 3.06)
        w = _weights(nodes, self.H, "trapezoid")
        d = np.diff(nodes)
        assert np.array_equal(w, np.r_[d, 0] / 2 + np.r_[0, d] / 2)


class TestTermValue:
    def test_refuses_points_outside_the_ledger_domain(self, slow_ladder, quad):
        # one row alone is no safer than the sum of rows: below tau = 0 or
        # T = 0 the ledger's causal half is not the row's value
        amp = GaussLine(s=3.0, sigma=0.3)
        for tau, T in [(-5.0, 2.0), (1.0, -2.0)]:
            with pytest.raises(ValueError, match="tau >= 0 and T >= 0"):
                term_value(TABLE[("I", 1)], tau, T, 3.0, amp, slow_ladder,
                           quad)

    def test_narrow_ridge_reproduces_closed_form_windows(self, slow_ladder, quad):
        # each exchange row collapses onto its closed-form value inside its
        # own (tau, T, s) window and vanishes in the others
        cases = [
            (("III", 1), (0.0, 8.0, 6.0),
             lambda e: complex(e[1].evaluate(8.0, 2.0, 4.0))),
            (("III", 2), (0.0, 3.0, 4.0),
             lambda e: complex(e[2].evaluate(2.0, 1.0, 4.0))),
            (("III", 3), (0.0, 14.0, 5.0),
             lambda e: complex(e[3].evaluate(14.0, 5.0, 4.0))),
            (("IV", 3), (2.0, 3.0, 10.0),
             lambda e: complex(e[3].evaluate(5.0, 2.0, 5.0))),
        ]
        exps = {i: slow_ladder.expansion(i) for i in (1, 2, 3)}
        for key, (tau, T, s), expected_fn in cases:
            amp = GaussLine(s=s, sigma=0.1)
            got = term_value(TABLE[key], tau, T, s, amp, slow_ladder, quad)
            want = expected_fn(exps)
            assert abs(got - want) < 0.02 * abs(want), (key, got, want)
        # off-window rows vanish identically
        amp = GaussLine(s=6.0, sigma=0.1)
        for key in (("III", 2), ("III", 3), ("IV", 3)):
            assert abs(term_value(TABLE[key], 0.0, 8.0, 6.0, amp, slow_ladder,
                                  quad)) < 1e-10

    def test_direct_bracket_row_fires_only_on_ridge(self, slow_ladder, quad):
        # the reflected-channel pathway-5 row carries the surviving direct
        # delta term: it needs tau = s on the lattice
        damp = DeltaAmplitude(s=4.0, spacing=0.4)
        on = term_value(TABLE[("II", 5)], 4.0, 3.0, 4.0, damp, slow_ladder, quad)
        off = term_value(TABLE[("II", 5)], 2.5, 3.0, 4.0, damp, slow_ladder, quad)
        assert abs(on) > 1e-6
        assert off == 0

    def test_simpson_close_to_trapezoid(self, slow_ladder, quad):
        amp = GaussLine(s=4.0, sigma=0.2)
        qs = dataclasses.replace(quad, rule="simpson")
        a = term_value(TABLE[("III", 1)], 1.0, 5.0, 4.0, amp, slow_ladder, quad)
        b = term_value(TABLE[("III", 1)], 1.0, 5.0, 4.0, amp, slow_ladder, qs)
        assert abs(a - b) < 5e-3 * abs(a)


def random_ladder(rng, n_e, n_f, dephasing):
    """One g level under n_e e and n_f f levels, random complex dipoles."""
    def dipoles(shape):
        return rng.uniform(0.3, 1.0, shape) * np.exp(2j * np.pi * rng.random(shape))

    levels = ([Level("g0", "g", 0.0)]
              + [Level(f"e{k}", "e", 1.4 + 0.03 * k) for k in range(n_e)]
              + [Level(f"f{m}", "f", 2.8 + 0.03 * m) for m in range(n_f)])
    return LiouvilleOperatorSet(ExcitonSystem(
        levels=levels, dipoles_ge=dipoles((n_e, 1)),
        dipoles_ef=dipoles((n_f, n_e)), dephasing_default=dephasing))


def full_mesh_value(sub, interaction, tau, T, amp, ops, q):
    """A sub-term the direct way: every amplitude factor and the correlator
    on the whole node mesh of its box. Returns the integral and the sum of
    the weighted integrand's magnitudes."""
    box = box_at(sub, tau, T, amp, q)
    if box is None:
        return 0j, 0.0
    tau3, tau4 = box
    shape = (tau3.size, tau4.size)
    T3, T4 = tau3[:, None], tau4[None, :]

    def mesh(expr, t=q.t_ref):
        return np.broadcast_to(expr(t, tau, T, T3, T4), shape)

    x1, y1 = (mesh(a) for a in sub.conj_args)
    x2, y2 = (mesh(a) for a in sub.args)
    phi = amp.time_value(x2, y2)
    if sub.symmetrize:
        phi = phi + amp.time_value(y2, x2)
    F = ops.expansion(interaction).evaluate(
        mesh(sub.first_interval, 0.0), np.broadcast_to(T3, shape),
        np.broadcast_to(T4, shape))
    w = _weights(tau3, q.step, q.rule)[:, None] * _weights(tau4, q.step, q.rule)
    integrand = w * np.conj(amp.time_value(x1, y1)) * phi * F
    return complex(integrand.sum()), float(np.abs(integrand).sum())


class TestSeparableQuadrature:
    """The row quadrature evaluates each amplitude factor once per distinct
    argument and contracts the correlator as 1-D factors; it must equal the
    full-mesh integral of every sub-term."""

    @pytest.fixture(scope="class")
    def ops(self):
        return random_ladder(np.random.default_rng(3), 2, 2, 0.25)

    @pytest.mark.parametrize("kind", ["biphoton", "gauss-line", "delta"])
    @pytest.mark.parametrize("rule", ["trapezoid", "simpson"])
    def test_matches_full_mesh_on_every_sub_term(self, ops, kind, rule):
        # tau = 0.25 < step puts the causal edge tau - tau3 >= 0 inside the
        # first cell, so those boxes have a 2-node tau3 axis; tau and s sit
        # off the step lattice, away from the delta's band edges, where
        # rounding alone decides the value
        tau, T, s = 0.25, 2.1, 3.05
        if kind == "biphoton":
            amp = gaussian_amplitude(center=0.4, sigma_sum=0.3, sigma_diff=0.5,
                                     n=128, half_span=1.6, s=s)
            t_ref = reference_time(amp)
        else:
            amp = (GaussLine(s=s, sigma=0.6) if kind == "gauss-line"
                   else DeltaAmplitude(s=s, spacing=0.4))
            t_ref = 0.0
        q = QuadratureSpec(cutoff=48.0, step=0.4, rule=rule, t_ref=t_ref)
        two_node, evaluated = self.match_every_sub_term(tau, T, amp, ops, q)
        assert two_node > 0 and evaluated >= 4

    def test_delta_band_edge_on_the_half_step_lattice(self, ops):
        # tau, T and s on the half-step lattice put the delta's band edges
        # on node sums, which the mesh and the separable quadrature round
        # differently; the tolerance-aware edge makes them agree
        amp = DeltaAmplitude(s=4.0, spacing=0.4)
        q = QuadratureSpec(cutoff=48.0, step=0.1, rule="trapezoid", t_ref=0.0)
        _, evaluated = self.match_every_sub_term(4.0, 3.0, amp, ops, q)
        assert evaluated >= 4

    @staticmethod
    def match_every_sub_term(tau, T, amp, ops, q):
        """Assert that every sub-term of both tables equals its full-mesh
        value; return the number of boxes with a 2-node axis and of
        sub-terms with a nonzero integrand."""
        two_node = evaluated = 0
        for term in term_table() + complete_term_table():
            for sub in term.sub_terms:
                box = box_at(sub, tau, T, amp, q)
                two_node += box is not None and min(b.size for b in box) == 2
                want, scale = full_mesh_value(sub, term.interaction, tau, T,
                                              amp, ops, q)
                got = sub_term_value(sub, term.interaction, tau, T, amp, ops, q)
                assert abs(got - want) <= 1e-12 * scale, (term.label, got, want)
                evaluated += scale > 0
        return two_node, evaluated

    def test_many_level_sample_stays_small(self):
        # 1 g, 6 e and 12 f levels: F5 sums 432 terms. Evaluated on the full
        # node mesh, the correlator alone needs (nodes x terms) complex
        # temporaries of hundreds of MB at this cutoff.
        ops = random_ladder(np.random.default_rng(11), 6, 12, 0.05)
        assert ops.expansion(5).coeffs.size == 432
        pump = PumpSpec(omega_p=2.9, sigma_p=0.5)
        crystal = CrystalSpec(omega_a=1.5, omega_b=1.4, T_a=10.0, T_b=-14.0)
        amp = build_jsa(pump, crystal, 0.0, default_grid(pump, crystal, n=256),
                        s=15.0)
        q = QuadratureSpec(cutoff=240.0, step=0.4, rule="trapezoid",
                           t_ref=reference_time(amp))
        amp.time_support()  # the lazily scanned box is part of the amplitude
        tracemalloc.start()
        try:
            value = coincidence(20.0, 10.0, 15.0, amp, ops, q,
                                hom=HomSpec(T=10.0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.isfinite(value) and value != 0
        assert peak < 32e6, f"peak {peak / 1e6:.0f} MB"


@pytest.fixture(scope="module")
def golden_point():
    """The criterion-9 point: ladder, sinc pair amplitude, step 0.1 fs."""
    system = ExcitonSystem(
        levels=[Level("g0", "g", 0.0), Level("e0", "e", 1.5),
                Level("f0", "f", 2.9)],
        dipoles_ge=[[1.0]], dipoles_ef=[[0.8]], dephasing_default=0.05)
    ops = LiouvilleOperatorSet(system)
    pump = PumpSpec(omega_p=2.9, sigma_p=0.5)
    crystal = CrystalSpec(omega_a=1.5, omega_b=1.4, T_a=10.0, T_b=-14.0)
    amp = build_jsa(pump, crystal, 0.0, default_grid(pump, crystal, n=256),
                    s=15.0)
    q = QuadratureSpec(cutoff=240.0, step=0.1, rule="trapezoid",
                       t_ref=reference_time(amp))
    amp.time_support()  # the lazily scanned box is part of the amplitude
    return (20.0, 10.0, 15.0), amp, ops, q


def _moves_with_sum(expr):
    return expr.t3 != 0 and expr.t3 == expr.t4


class TestLatticeFactors:
    """Pathway-4 (one argument in tau3, the other in tau4) and pathway-5
    (one in tau3, the other in tau3 + tau4) factors of a lattice amplitude
    come from 1-D stencils; they must equal `time_value` on the mesh, and
    contract as the matrix they stand for."""

    def test_match_time_value_on_the_full_mesh(self, golden_point):
        seen, slivers = self.match_every_factor(golden_point)
        # both argument orders of each class, brackets, and sliver ends
        assert seen >= {("rectilinear", True, False),
                        ("rectilinear", False, False),
                        ("rectilinear", True, True),
                        ("rectilinear", False, True),
                        ("sheared", True, True), ("sheared", False, True)}
        assert slivers > 0

    def test_unequal_axes_keep_both_orientations(self):
        # 96 x 128 samples at unequal spacings: t1 and t2 differ, so a
        # bracket is contracted as two orientations of the envelope
        amp = non_square_gaussian(s=2.0)
        q = QuadratureSpec(cutoff=48.0, step=0.4, rule="trapezoid",
                           t_ref=reference_time(amp))
        seen, slivers = self.match_every_factor(((1.0, 3.0, 2.0), amp, None,
                                                 q))
        assert {(kind, bracket) for kind, _, bracket in seen} >= {
            ("rectilinear", True), ("sheared", True)}
        assert slivers > 0

    @staticmethod
    def match_every_factor(point):
        """Assert that every pathway-4 and pathway-5 factor at `point`
        equals `time_value` on the full mesh, contracts as its formed
        matrix, and is one folded part exactly when it is a bracket on a
        square lattice; return the (class, argument order, bracket) triples
        seen and the number of boxes with sliver ends."""
        (tau, T, _), amp, _, q = point
        square = np.array_equal(amp.t1, amp.t2)
        rng = np.random.default_rng(5)
        seen, slivers = set(), 0
        for term in term_table() + complete_term_table():
            if term.interaction not in (4, 5):
                continue
            for sub in term.sub_terms:
                box = point_box(sub, tau, T, amp, q)
                tau3, tau4 = box.tau3, box.tau4
                got = _amplitude_factor(amp, sub.args, sub.symmetrize, box,
                                        q, _batch_stencils(amp, {}, 0))(0)
                x, y = np.broadcast_arrays(
                    *(a(q.t_ref, tau, T, tau3[:, None], tau4[None, :])
                      for a in sub.args))
                want = amp.time_value(x, y)
                if sub.symmetrize:
                    want = want + amp.time_value(y, x)
                assert got.shape == want.shape
                err = np.max(np.abs(got - want))
                assert err <= 1e-13 * np.max(np.abs(want)), (term.label, err)
                A = rng.normal(size=(tau3.size, 2))
                B = rng.normal(size=(tau4.size, 2))
                dense = np.asarray(got)
                scale = (np.abs(A) * (np.abs(dense) @ np.abs(B))).sum()
                assert abs(got.contract_terms(A, B).sum()
                           - (A * (dense @ B)).sum()) <= 1e-13 * scale, \
                    term.label
                lattice = got if isinstance(got, LatticeFactor) else got.inner
                assert lattice.folded == (sub.symmetrize and square)
                first = sub.args[0]
                seen.add(("sheared" if any(map(_moves_with_sum, sub.args))
                          else "rectilinear", bool(first.t3 and not first.t4),
                          sub.symmetrize))
                slivers += (tau4[-1] - tau4[-2] < q.step
                            and tau3[-1] - tau3[-2] < q.step)
        return seen, slivers

    def test_one_stencil_per_distinct_coordinate_array(self, golden_point,
                                                       monkeypatch):
        # the point's memo hands out each stencil again; on the square
        # golden lattice both axes share it
        (tau, T, s), amp, ops, q = golden_point
        made, asked = [], []
        stencil, batch_stencils = (BiphotonAmplitude._stencil,
                                   quadrature._batch_stencils)

        def making(self, axis, coord):
            coord = np.asarray(coord, dtype=float)
            made.append((coord.shape, coord.tobytes()))
            return stencil(self, axis, coord)

        def counting(*memo):
            cached = batch_stencils(*memo)

            def asking(*args):
                asked.append(args)
                return cached(*args)

            return asking

        monkeypatch.setattr(BiphotonAmplitude, "_stencil", making)
        monkeypatch.setattr(quadrature, "_batch_stencils", counting)
        coincidence(tau, T, s, amp, ops, q, hom=HomSpec(T=T))
        assert len(made) == len(set(made)) > 0
        assert len(asked) > 3 * len(made)

    def test_golden_point_memory(self, golden_point):
        (tau, T, s), amp, ops, q = golden_point
        tracemalloc.start()
        try:
            value = coincidence(tau, T, s, amp, ops, q, hom=HomSpec(T=T))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.isfinite(value) and value != 0
        # half of the 15.0 MB a formed 947 x 947 amplitude matrix peaked at
        assert peak < 7.5e6, f"peak {peak / 1e6:.1f} MB"


class TestContractions:
    """The two-variable amplitude factors (Hankel, pathway 4, pathway 5)
    contract without being formed; each must equal the same sub-term with
    its factor formed as a matrix."""

    def test_each_class_matches_its_formed_matrix(self, golden_point,
                                                  monkeypatch):
        (tau, T, _), amp, ops, q = golden_point
        kinds = {}
        for term in term_table() + complete_term_table():
            for sub in term.sub_terms:
                both = [a for a in (sub.conj_args, sub.args)
                        if any(x.t3 for x in a) and any(x.t4 for x in a)]
                assert len(both) <= 1, term.label  # at most one matrix
                if both:
                    first = both[0][0]
                    kind = ("hankel" if all(x.t3 == x.t4 for x in both[0])
                            else "sheared" if any(map(_moves_with_sum,
                                                      both[0]))
                            else "rectilinear")
                    kinds.setdefault((kind, both[0] is sub.conj_args,
                                      bool(first.t3 and not first.t4),
                                      sub.symmetrize),
                                     (sub, term.interaction))
        assert {k[0] for k in kinds} == {"hankel", "rectilinear", "sheared"}
        assert len(kinds) >= 8

        def dense(*args):
            # the factor formed as a matrix, contracted by multiplying it
            f = _amplitude_factor(*args)
            if not callable(f):
                return f

            def formed(k):
                h = np.asarray(f(k))
                return SimpleNamespace(
                    contract_terms=lambda A, B: (A * (h @ B)).sum(axis=0))

            return formed

        for sub, interaction in kinds.values():
            got = sub_term_value(sub, interaction, tau, T, amp, ops, q)
            with monkeypatch.context() as m:
                m.setattr(quadrature, "_amplitude_factor", dense)
                want = sub_term_value(sub, interaction, tau, T, amp, ops, q)
            _, scale = full_mesh_value(sub, interaction, tau, T, amp, ops, q)
            assert abs(got - want) <= 1e-12 * scale, (sub, got, want)


@pytest.fixture(scope="module", params=["golden", "separable"])
def shared_point(request, golden_point):
    if request.param == "golden":
        return golden_point
    # the biphoton point of TestSeparableQuadrature
    tau, T, s = 0.25, 2.1, 3.05
    amp = gaussian_amplitude(center=0.4, sigma_sum=0.3, sigma_diff=0.5,
                             n=128, half_span=1.6, s=s)
    q = QuadratureSpec(cutoff=48.0, step=0.4, rule="trapezoid",
                       t_ref=reference_time(amp))
    return ((tau, T, s), amp,
            random_ladder(np.random.default_rng(3), 2, 2, 0.25), q)


class TestSharedIntegrals:
    """Rows share the direct integral of sub-terms whose conjugate factor
    is a constant (I-5, II-5, IV-5; I-4, IV-4 and, in the complete table,
    II-4)."""

    @staticmethod
    def key(sub, interaction):
        return (interaction, sub.args, sub.symmetrize, sub.first_interval)

    def test_rows_equal_unshared_sub_terms(self, shared_point):
        (tau, T, s), amp, ops, q = shared_point
        for table, signal_terms, factor, label in (
                (term_table(), coincidence_terms, 1.0,
                 lambda t: (t.detection, t.interaction)),
                (complete_term_table(), complete_coincidence_terms,
                 BLOCK_FACTOR, lambda t: t.label)):
            got = signal_terms(tau, T, s, amp, ops, q)
            for term in table:
                want = factor * term.pattern.sign * term.pattern.weight(
                    HomSpec()) * sum(
                    sub_term_value(sub, term.interaction, tau, T, amp, ops, q)
                    for sub in term.sub_terms)
                value = got[label(term)]
                assert abs(value - want) <= 1e-14 * abs(want), (term.label,
                                                                value, want)

    def test_term_value_equals_its_row_in_the_signal(self, shared_point):
        # one row alone and every row together build their boxes, batches
        # and integrals through the one entry point, bit for bit alike
        (tau, T, s), amp, ops, q = shared_point
        for table, signal_terms, factor, label in (
                (term_table(), coincidence_terms, 1.0,
                 lambda t: (t.detection, t.interaction)),
                (complete_term_table(), complete_coincidence_terms,
                 BLOCK_FACTOR, lambda t: t.label)):
            got = signal_terms(tau, T, s, amp, ops, q)
            for term in table:
                want = term.pattern.sign * term.pattern.weight(
                    HomSpec()) * term_value(term, tau, T, s, amp, ops, q)
                assert got[label(term)] / factor == want, term.label

    def test_sharing_sub_terms_have_equal_boxes(self, shared_point):
        (tau, T, _), amp, _, q = shared_point
        for table in (term_table(), complete_term_table()):
            boxes = {}
            for term in table:
                for sub in term.sub_terms:
                    box = box_at(sub, tau, T, amp, q)
                    if box is None or any(a.t3 or a.t4 for a in sub.conj_args):
                        continue
                    boxes.setdefault(self.key(sub, term.interaction), []).append(box)
            for group in boxes.values():
                for b3, b4 in group[1:]:
                    assert np.array_equal(b3, group[0][0])
                    assert np.array_equal(b4, group[0][1])
            assert max(map(len, boxes.values())) >= 3

    def test_sheared_factor_evaluated_once_per_key(self, golden_point,
                                                   monkeypatch):
        (tau, T, s), amp, ops, q = golden_point
        sheared = []

        def counting(amp, args, *rest):
            if any(map(_moves_with_sum, args)) and any(a.t3 and not a.t4
                                                       for a in args):
                sheared.append(args)
            return _amplitude_factor(amp, args, *rest)

        monkeypatch.setattr(quadrature, "_amplitude_factor", counting)
        coincidence(tau, T, s, amp, ops, q, hom=HomSpec(T=T))
        # I-5, II-5 and IV-5 share one direct factor; III-5 has its own
        assert len(sheared) == 2 and len(set(sheared)) == 2

    def test_moving_first_intervals_are_keyed_whole(self, shared_point):
        # sub-terms that differ only in a moving first interval's tau
        # coefficient differ in their box, so they share no integral
        (tau, T, _), amp, ops, q = shared_point
        row = TABLE[("I", 2)]
        a = row.sub_terms[0]
        assert a.first_interval.t3 or a.first_interval.t4
        b = dataclasses.replace(a, first_interval=dataclasses.replace(
            a.first_interval, tau=a.first_interval.tau + 1))
        tau, T = np.array([tau]), np.array([T])
        assert (_integral_keys(a, row.interaction, tau, T)
                != _integral_keys(b, row.interaction, tau, T))
        alone = [row_values([dataclasses.replace(row, sub_terms=(sub,))],
                            tau, T, amp, ops, q)[0] for sub in (a, b)]
        both = row_values([dataclasses.replace(row, sub_terms=(a, b))], tau,
                          T, amp, ops, q)[0]
        assert alone[0] != alone[1]
        assert both == alone[0] + alone[1]


@pytest.fixture(scope="module")
def readme_quadrature(golden_point):
    """The golden amplitude and system under the README config's quadrature:
    step 0.2 fs, the default cutoff (240 fs)."""
    _, amp, ops, q = golden_point
    return amp, ops, dataclasses.replace(q, step=0.2)


def count_sheared(monkeypatch) -> list:
    """Record each pathway-5 contraction (`quadrature._contract_sheared`)."""
    calls = []
    inner = quadrature._contract_sheared

    def counting(*args):
        calls.append(args[3].shape)
        return inner(*args)

    monkeypatch.setattr(quadrature, "_contract_sheared", counting)
    return calls


class TestFactoredIntegrals:
    """A constant first interval is factored out of the correlator, and a
    batch memoizes integrals by value, so each distinct box is integrated
    once per batch: on a tau scan the pathway-5 integrals do not move with
    tau, and III-5's moves with T alone."""

    def test_readme_tau_scan_contracts_pathway_5_twice(self, readme_quadrature,
                                                       monkeypatch):
        amp, ops, q = readme_quadrature
        calls = count_sheared(monkeypatch)
        tau_axis = np.linspace(0.0, 28.0, 8)
        grid = scan(tau_axis, [10.0], [15.0], "full", amp, ops, q)
        # one batch: I-5, II-5 and IV-5 once, III-5 once
        assert len(calls) == 2
        # one-term correlators: each point's factor exp(-z1 c) is one element
        for i, tv in enumerate(tau_axis):
            assert grid.values[i, 0, 0] == coincidence(tv, 10.0, 15.0, amp,
                                                       ops, q), tv

    def test_lattice_contracts_pathway_5_once_and_once_per_T(
            self, readme_quadrature, monkeypatch):
        amp, ops, q = readme_quadrature
        # a bound that holds the whole 4 x 4 lattice in one batch
        monkeypatch.setattr(quadrature, "_BATCH_NODES", 1 << 16)
        calls = count_sheared(monkeypatch)
        scan([4.0, 12.0, 20.0, 28.0], [2.0, 6.0, 10.0, 14.0], [15.0], "full",
             amp, ops, q)
        assert len(calls) == 1 + 4

    @staticmethod
    def count_stencils(monkeypatch) -> list:
        """Record each stencil made, as its memo key: (axis, 0 for both on
        a square lattice; shape; coordinate bytes)."""
        made = []
        stencil = BiphotonAmplitude._stencil

        def making(self, axis, coord):
            coord = np.asarray(coord, dtype=float)
            made.append((axis if not self._square else 0, coord.shape,
                         coord.tobytes()))
            return stencil(self, axis, coord)

        monkeypatch.setattr(BiphotonAmplitude, "_stencil", making)
        return made

    def test_batch_makes_each_stencil_once(self, readme_quadrature,
                                           monkeypatch):
        # a stencil on nodes is dropped after the last sub-term that can ask
        # for it, so none is made twice in the batch, of eight points or one
        amp, ops, q = readme_quadrature
        made = self.count_stencils(monkeypatch)
        for tau in (np.linspace(0.0, 28.0, 8), 20.0):
            made.clear()
            coincidence(tau, 10.0, 15.0, amp, ops, q)
            assert len(made) == len(set(made)) > 0, tau

    def test_non_square_batch_makes_each_stencil_once(self, ladder_ops,
                                                      monkeypatch):
        # t1 and t2 differ, so each axis keys its own stencils: a bracket's
        # two orientations stencil one coordinate array on both axes
        amp = non_square_gaussian(s=2.0)
        assert not amp._square
        q = QuadratureSpec(cutoff=48.0, step=0.4, rule="trapezoid",
                           t_ref=reference_time(amp))
        made = self.count_stencils(monkeypatch)
        for signal_of in (coincidence, complete_coincidence):
            made.clear()
            signal_of(np.linspace(0.0, 11.0, 6), 3.0, 2.0, amp, ladder_ops, q)
            assert len(made) == len(set(made)) > 0, signal_of
            axes = {}
            for axis, *coord in made:
                axes.setdefault(tuple(coord), set()).add(axis)
            assert {0, 1} in axes.values(), signal_of

    def test_batch_memory(self, readme_quadrature):
        # stencils on nodes are dropped after the last sub-term that can ask
        # for them; when those of pathways 1 and 3 lived through pathway 5
        # this batch peaked at 6.94 MB (6.14 MB without)
        amp, ops, q = readme_quadrature
        tracemalloc.start()
        try:
            values = coincidence(np.linspace(0.0, 28.0, 8), 10.0, 15.0, amp,
                                 ops, q)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(values)) and values.any()
        assert peak < 6.5e6, f"peak {peak / 1e6:.2f} MB"

    def test_scan_equals_coincidence_with_many_term_correlators(
            self, monkeypatch):
        ops = random_ladder(np.random.default_rng(3), 2, 2, 0.25)
        assert min(ops.expansion(i).coeffs.size for i in (1, 3, 5)) > 1
        amp = gaussian_amplitude(center=0.4, sigma_sum=0.3, sigma_diff=0.5,
                                 n=128, half_span=1.6, s=3.0)
        q = QuadratureSpec(cutoff=48.0, step=0.4, rule="trapezoid",
                           t_ref=reference_time(amp))
        tau_axis, T_axis = [0.0, 1.3, 2.0, 7.5], [0.5, 6.0]
        calls = count_sheared(monkeypatch)
        grid = scan(tau_axis, T_axis, [3.0], "full", amp, ops, q)
        # one batch: pathway 5 integrates once, and III-5 once per T
        assert len(calls) == 1 + len(T_axis)
        for i, tv in enumerate(tau_axis):
            for j, Tv in enumerate(T_axis):
                assert grid.values[i, j, 0] == coincidence(
                    tv, Tv, 3.0, amp, ops, q), (tv, Tv)

    def test_factored_sub_terms_match_the_full_mesh_in_a_batch(self):
        # each point of a batch that shares one integral gets its own
        # exp(-z1 c) factor per correlator term
        ops = random_ladder(np.random.default_rng(3), 2, 2, 0.25)
        amp = gaussian_amplitude(center=0.4, sigma_sum=0.3, sigma_diff=0.5,
                                 n=128, half_span=1.6, s=3.05)
        q = QuadratureSpec(cutoff=48.0, step=0.4, rule="trapezoid",
                           t_ref=reference_time(amp))
        tau, T = np.array([0.25, 1.3, 2.0, 0.25]), np.array([2.1, 2.1, 0.7, 0.7])
        checked = 0
        for term in term_table() + complete_term_table():
            for sub in term.sub_terms:
                first = sub.first_interval
                use = planned_use(sub, term.interaction, tau, T, amp, q)
                if first.t3 or first.t4 or use is None:
                    continue
                got = _sub_term_values(use, amp, ops, q, {}, {})
                for k, i in enumerate(use.box.index):
                    want, scale = full_mesh_value(sub, term.interaction,
                                                  tau[i], T[i], amp, ops, q)
                    assert abs(got[k] - want) <= 1e-12 * scale, (term.label,
                                                                 i)
                    checked += scale > 0
        assert checked >= 40


class TestCoincidence:
    def test_zero_dipoles(self, quad):
        system = ExcitonSystem(
            levels=[Level("g0", "g", 0.0), Level("e0", "e", 0.9)],
            dipoles_ge=[[0.0]], dephasing_default=0.08)
        ops = LiouvilleOperatorSet(system)
        amp = GaussLine(s=3.0, sigma=0.3)
        assert coincidence(1.0, 2.0, 3.0, amp, ops, quad) == 0

    def test_bs_removed_delta_vanishes_off_ridge(self, slow_ladder, quad):
        damp = DeltaAmplitude(s=4.0, spacing=0.4)
        assert coincidence(2.0, 3.0, 4.0, damp, slow_ladder, quad,
                           hom=HomSpec(t_coeff=1.0, r_coeff=0.0)) == 0

    def test_full_matches_closed_form_in_narrow_limit(self, slow_ladder, quad):
        hom = HomSpec(T=8.0)
        for tau, T, s in [(0.0, 8.0, 6.0), (2.0, 5.0, 4.0), (1.0, 9.0, 7.0)]:
            full = coincidence(tau, T, s, GaussLine(s=s, sigma=0.1),
                               slow_ladder, quad, hom=HomSpec(T=T))
            short = coincidence_short_Te(tau, T, s, slow_ladder, quad,
                                         hom=HomSpec(T=T))
            assert abs(full - short) < 0.02 * abs(short)

    @pytest.mark.parametrize("signal_fn", [coincidence, complete_coincidence])
    @pytest.mark.parametrize("tau, T", [(-1.0, 5.0), (1.0, -5.0)])
    def test_refuses_points_outside_the_ledger_domain(self, slow_ladder, quad,
                                                       signal_fn, tau, T):
        # the ledger keeps the causal blocks of tau, T >= 0; below either,
        # the mirrored blocks it lacks are not zero
        with pytest.raises(ValueError, match="tau >= 0 and T >= 0"):
            signal_fn(tau, T, 4.0, GaussLine(s=4.0, sigma=0.2), slow_ladder,
                      quad)

    @pytest.mark.parametrize("signal_fn", [coincidence, complete_coincidence])
    @pytest.mark.parametrize("tau, T, name", [(np.nan, 1.0, "tau=nan"),
                                              (1.0, np.inf, "T=inf"),
                                              (-np.inf, 1.0, "tau=-inf")])
    def test_refuses_delays_that_are_not_finite(self, slow_ladder, quad,
                                                signal_fn, tau, T, name):
        # NaN compares False with 0, so a sign test alone lets it through
        # to a silent zero
        with pytest.raises(ValueError, match=f"delays must be finite; got "
                                             f"{name}"):
            signal_fn(tau, T, 4.0, GaussLine(s=4.0, sigma=0.2), slow_ladder,
                      quad)
        with pytest.raises(ValueError, match=f"got {name}"):
            term_value(TABLE[("I", 1)], tau, T, 4.0,
                       GaussLine(s=4.0, sigma=0.2), slow_ladder, quad)

    def test_refuses_an_array_with_one_delay_that_is_not_finite(
            self, slow_ladder, quad):
        with pytest.raises(ValueError, match="got tau=inf"):
            coincidence(np.array([1.0, np.inf]), 2.0, 4.0,
                        GaussLine(s=4.0, sigma=0.2), slow_ladder, quad)

    def test_output_is_real_float(self, slow_ladder, quad):
        val = coincidence(1.0, 5.0, 4.0, GaussLine(s=4.0, sigma=0.2),
                          slow_ladder, quad)
        assert isinstance(val, float)

    def test_terms_keyed_by_detection_and_pathway(self, slow_ladder, quad):
        vals = coincidence_terms(1.0, 5.0, 4.0, GaussLine(s=4.0, sigma=0.2),
                                 slow_ladder, quad)
        assert set(vals) == {(nu, i) for nu in ("I", "II", "III", "IV")
                             for i in range(1, 6)}

    def test_complete_signal_shares_the_ledger_rows(self, slow_ladder, quad):
        amp = GaussLine(s=4.0, sigma=0.6)
        quad = dataclasses.replace(quad, step=0.3)
        ledger = coincidence_terms(6.0, 5.0, 4.0, amp, slow_ladder, quad)
        complete = complete_coincidence_terms(6.0, 5.0, 4.0, amp, slow_ladder,
                                              quad)
        assert set(complete) == ({f"{nu}-{i}" for nu, i in ledger}
                                 | {"I-1 same-arm", "II-1 same-arm"})
        for (nu, i), val in ledger.items():
            if i != 4:  # pathway 4 gains its second absorption order
                assert complete[f"{nu}-{i}"] == BLOCK_FACTOR * val
        assert complete["I-1 same-arm"] != 0
        total = complete_coincidence(6.0, 5.0, 4.0, amp, slow_ladder, quad)
        assert total == pytest.approx(2 * sum(complete.values()).real,
                                      rel=1e-12)


class TestAmplitudeTypes:
    """The quadrature reads a lattice amplitude or a line amplitude (a
    function of t1 - t2); any other type is refused by name before it is
    read, and a factor that no contraction covers is named."""

    @pytest.mark.parametrize("call", ["coincidence", "complete_coincidence",
                                      "term_value", "scan"])
    def test_refuses_an_amplitude_of_another_type(self, slow_ladder, quad,
                                                  call):
        reads = []
        amp = SimpleNamespace(
            time_value=lambda x, y: reads.append("time_value")
            or np.zeros(np.broadcast(x, y).shape),
            time_support=lambda: reads.append("time_support"))
        args = (4.0, amp, slow_ladder, quad)
        calls = {
            "coincidence": lambda: coincidence(1.0, 5.0, *args),
            "complete_coincidence": lambda: complete_coincidence(1.0, 5.0,
                                                                 *args),
            "term_value": lambda: term_value(TABLE[("III", 1)], 1.0, 5.0,
                                             *args),
            "scan": lambda: scan([1.0], [5.0], [4.0], "full", amp,
                                 slow_ladder, quad),
        }
        with pytest.raises(TypeError, match="got SimpleNamespace"):
            calls[call]()
        assert not reads

    @pytest.mark.parametrize("kind", ["biphoton", "line"])
    def test_a_factor_without_a_contraction_is_named(self, golden_point,
                                                     kind):
        # x = tau3 - tau4 against a constant: neither a line, a Hankel
        # factor nor a lattice stencil pair, and in no ledger
        (tau, T, s), amp, _, q = golden_point
        if kind == "line":
            amp = GaussLine(s=s, sigma=0.5)
        box = point_box(TABLE[("I", 4)].sub_terms[0], tau, T, amp, q)
        with pytest.raises(NotImplementedError, match="no contraction"):
            _amplitude_factor(amp, (Affine(t3=1, t4=-1), Affine()), False,
                              box, q, {})


def integrated_F5(a, b, ops, L):
    """F5(a, tau3, b) integrated over tau3 in [0, L] on the dense route:
    `model.apply_sequence` with its middle propagator -i exp(-z tau3)
    replaced by its integral."""
    seq = CORRELATOR_SEQUENCES[5]
    z = 1j * ops.delta_omega + ops.eta
    integral = -1j * np.where(z == 0, L, -np.expm1(-z * L)
                              / np.where(z == 0, 1.0, z))

    def dipole(state, k):
        side, dagger = seq[k]
        return apply_dipole(state, side, "raise" if dagger else "lower", ops)

    state = propagate(dipole(ops.initial_state(), 3), b, ops)
    state = LiouvilleState(integral * dipole(state, 2).coefficients)
    return dipole(propagate(dipole(state, 1), a, ops), 0).trace()


def ledger_delta_limit(term, tau, T, s, ops):
    """A ledger row under the value-one delta Phi(x, y) = delta(x - y - s):
    each sub-term's two deltas fix (tau3, tau4), their integral giving
    1 / |det|, and where both are >= 0 the sub-term takes F(first
    interval, tau3, tau4); signed by the row's detection pattern."""
    total = 0j
    for sub in term.sub_terms:
        # x - y of each amplitude's arguments: c3 tau3 + c4 tau4 + shift
        (a3, a4, ra), (b3, b4, rb) = (
            (d.t3, d.t4, s - d.shift(0.0, tau, T))
            for d in (sub.conj_args[0] - sub.conj_args[1],
                      sub.args[0] - sub.args[1]))
        det = a3 * b4 - a4 * b3
        assert det != 0 and not sub.symmetrize, term.label
        tau3, tau4 = (ra * b4 - a4 * rb) / det, (a3 * rb - ra * b3) / det
        if tau3 >= 0 and tau4 >= 0:
            first = sub.first_interval.shift(0.0, tau, T) \
                + sub.first_interval.t3 * tau3 + sub.first_interval.t4 * tau4
            total += complex(ops.expansion(term.interaction).evaluate(
                first, tau3, tau4)) / abs(det)
    return term.pattern.sign * total


class TestShortTe:
    #: the closed-form term that each ledger row of pathways 1-3 becomes in
    #: the delta limit; every other such row vanishes
    DELTA_LIMIT = {"III-1": "F1", "III-2": "F2", "III-3": "F3a",
                   "IV-3": "F3b"}

    @pytest.mark.parametrize("system", ["ladder", "random"])
    def test_pathways_1_to_3_are_the_ledger_delta_limit(self, slow_ladder,
                                                        quad, system):
        # half-step delays keep every sum exact; tau = s (where II-2 keeps
        # a term) and tau = T = 0 (where IV-1 does) are left out
        ops = (slow_ladder if system == "ladder"
               else random_ladder(np.random.default_rng(11), 2, 2, 0.15))
        rows = [t for t in term_table() if t.interaction <= 3]
        nonzero = collections.Counter()
        for tau, T, s in itertools.product(np.arange(0.0, 15.6, 1.5),
                                           [0.0, 2.0, 4.5, 7.0, 9.5],
                                           [0.5, 4.0, 7.5, 11.0, 15.5]):
            if tau == s or tau == T == 0.0:
                continue
            closed = short_te_terms(tau, T, s, ops, quad)
            for term in rows:
                name = self.DELTA_LIMIT.get(term.label)
                got = ledger_delta_limit(term, tau, T, s, ops)
                want = closed[name] if name else 0.0
                assert abs(got - want) <= 1e-13 * abs(want), (term.label, tau,
                                                             T, s)
                nonzero[name] += want != 0
        assert min(nonzero[n] for n in self.DELTA_LIMIT.values()) >= 10, nonzero

    def test_domain_errors(self, slow_ladder, quad):
        with pytest.raises(ValueError, match="s >= 0"):
            coincidence_short_Te(1.0, 2.0, -1.0, slow_ladder, quad)
        with pytest.raises(ValueError, match="tau >= -T"):
            coincidence_short_Te(-5.0, 2.0, 1.0, slow_ladder, quad)

    def test_window_selectivity_at_zero_detector_difference(self, slow_ladder, quad):
        # three (s, T) windows: in each, exactly one term survives
        windows = {
            "F1": (0.0, 8.0, 6.0),    # s < T < 2s
            "F2": (0.0, 3.0, 4.0),    # s/2 < T < s
            "F3a": (0.0, 14.0, 5.0),  # 2s < T
        }
        for survivor, (tau, T, s) in windows.items():
            vals = short_te_terms(tau, T, s, slow_ladder, quad)
            assert vals[survivor] != 0
            for name, v in vals.items():
                if name != survivor:
                    assert v == 0, (survivor, name, v)

    def test_s_zero_isolates_single_term(self, slow_ladder, quad):
        for tau, T in [(0.5, 4.0), (2.0, 6.0), (-1.0, 3.0)]:
            vals = short_te_terms(tau, T, 0.0, slow_ladder, quad)
            expected = -complex(slow_ladder.expansion(3).evaluate(T, tau, T))
            assert vals["F3a"] == expected
            assert all(v == 0 for name, v in vals.items() if name != "F3a")

    def test_closed_system_gets_the_exact_line_integral(self):
        # no dephasing: every pair rate sits at the 1e-6 /fs floor and the
        # validated cutoff is 1.2e7 fs; the F5 windows match the dense
        # correlator with its middle propagator integrated over [0, cutoff]
        ops = LiouvilleOperatorSet(ExcitonSystem(
            levels=[Level("g0", "g", 0.0), Level("e0", "e", 0.03),
                    Level("f0", "f", 0.05)],
            dipoles_ge=[[1.0]], dipoles_ef=[[0.8]], dephasing_default=0.0))
        q = default_quadrature(ops)
        assert q.cutoff == pytest.approx(1.2e7)
        vals = short_te_terms(3.0, 5.0, 3.0, ops, q)  # tau = s
        want = 2.0 * integrated_F5(3.0, 3.0, ops, q.cutoff)
        assert abs(vals["F5_direct"] - want) < 1e-12 * abs(want)
        vals = short_te_terms(1.0, 2.0, 5.0, ops, q)  # 2T + tau = s
        want = -2.0 * integrated_F5(1.0, 5.0, ops, q.cutoff)
        assert abs(vals["F5_exchange"] - want) < 1e-12 * abs(want)
        grid = scan([3.0], [5.0], [3.0], "short_Te", None, ops, q, workers=1)
        assert grid.values[0, 0, 0] == coincidence_short_Te(3.0, 5.0, 3.0,
                                                             ops, q)

    def test_line_integrals_are_the_limit_of_the_trapezoid(self, slow_ladder):
        # a trapezoid over F5's middle interval on [0, cutoff] converges to
        # the exact windows, its error falling as the square of the step
        F5 = slow_ladder.expansion(5)
        cases = [((3.0, 5.0, 3.0), "F5_direct", 2.0, (3.0, 3.0)),
                 ((1.0, 2.0, 5.0), "F5_exchange", -2.0, (1.0, 5.0))]
        for (tau, T, s), name, sign, (a, b) in cases:
            q = QuadratureSpec(cutoff=130.0, step=0.1)
            exact = short_te_terms(tau, T, s, slow_ladder, q)[name]
            errors = []
            for step in (0.1, 0.05, 0.025):
                tau3 = np.arange(round(q.cutoff / step) + 1) * step
                vals = F5.evaluate(np.full_like(tau3, a), tau3,
                                   np.full_like(tau3, b))
                trapezoid = sign * step * (vals.sum() - 0.5 * (vals[0]
                                                               + vals[-1]))
                errors.append(abs(trapezoid - exact) / abs(exact))
            assert errors[0] < 3e-3, (name, errors)
            assert all(e0 >= 3.5 * e1 for e0, e1 in zip(errors, errors[1:])), \
                (name, errors)

    def test_delta_gated_line_terms(self, slow_ladder, quad):
        vals = short_te_terms(3.0, 5.0, 3.0, slow_ladder, quad)
        assert vals["F5_direct"] != 0
        vals2 = short_te_terms(1.0, 2.0, 5.0, slow_ladder, quad)  # 2T+tau = s
        assert vals2["F5_exchange"] != 0
        vals3 = short_te_terms(1.0, 5.0, 3.0, slow_ladder, quad)
        assert vals3["F5_direct"] == 0 and vals3["F5_exchange"] == 0


@pytest.fixture(scope="module")
def small_setup():
    system = ExcitonSystem(
        levels=[Level("g0", "g", 0.0), Level("e0", "e", 0.8)],
        dipoles_ge=[[1.0]], dephasing_default=0.25)
    ops = LiouvilleOperatorSet(system)
    amp = gaussian_amplitude(center=0.4, sigma_sum=0.3, sigma_diff=0.5,
                             n=128, half_span=1.6)
    q = QuadratureSpec(cutoff=48.0, step=0.4, rule="trapezoid",
                       t_ref=reference_time(amp))
    q.validate(ops)
    return ops, amp, q


class TestScan:

    def test_single_point_matches_pointwise(self, small_setup):
        ops, amp, q = small_setup
        grid = scan([1.0], [2.0], [3.0], "full", amp, ops, q)
        direct = coincidence(1.0, 2.0, 3.0, amp, ops, q, hom=HomSpec(T=2.0))
        assert grid.values[0, 0, 0] == direct

    def test_empty_axis(self, small_setup):
        ops, amp, q = small_setup
        grid = scan([], [1.0], [2.0], "full", amp, ops, q)
        assert grid.values.size == 0

    def test_monotonicity_enforced(self, small_setup):
        ops, amp, q = small_setup
        with pytest.raises(ValueError, match="monotone"):
            scan([1.0, 0.5, 2.0], [1.0], [2.0], "full", amp, ops, q)

    def test_deterministic_across_worker_counts(self, small_setup):
        ops, amp, q = small_setup
        grids = [scan([0.0, 1.0, 2.0], [1.0, 3.0], [2.0], "full", amp, ops, q,
                      workers=w) for w in (1, 3)]
        assert grids[0].serialize() == grids[1].serialize()

    def test_points_run_on_the_calling_thread(self, small_setup, monkeypatch):
        # every point of one s goes in one batch, on the calling thread
        ops, amp, q = small_setup
        batches = []
        inner = signal.coincidence

        def recording(tau, T, *args, **kwargs):
            batches.append((threading.get_ident(), np.broadcast(tau, T).size))
            return inner(tau, T, *args, **kwargs)

        monkeypatch.setattr(signal, "coincidence", recording)
        scan([0.0, 1.0, 2.0], [1.0, 3.0], [2.0, 2.5], "full", amp, ops, q,
             workers=2)
        assert batches == [(threading.get_ident(), 6)] * 2

    def test_short_te_domain_violation_names_point(self, small_setup):
        ops, amp, q = small_setup
        with pytest.raises(ValueError, match=r"s > 0.*s=0\.0"):
            scan([1.0], [2.0], [0.0], "short_Te", amp, ops, q)
        # several offending points: the first in lattice order (tau slowest,
        # s fastest) is named; a walk with s slowest would reach tau=-3 first
        with pytest.raises(ValueError, match=r"s > 0; offending point "
                                             r"\(tau=1\.0, T=1\.0, s=0\.0\)"):
            scan([1.0, -3.0], [1.0], [2.0, 0.0], "short_Te", amp, ops, q)
        with pytest.raises(ValueError, match=r"tau >= -T; offending point "
                                             r"\(tau=-1\.5, T=1\.0, s=1\.0\)"):
            scan([1.0, -1.5], [2.0, 1.0], [1.0], "short_Te", amp, ops, q)
        # a point that breaks both rules reports the s rule
        with pytest.raises(ValueError, match=r"s > 0; offending point "
                                             r"\(tau=-3\.0, T=1\.0, s=0\.0\)"):
            scan([-3.0, 1.0], [1.0], [0.0, 1.0], "short_Te", amp, ops, q)

    @pytest.mark.parametrize("hom", [None, UNIT], ids=["full", "bs_removed"])
    def test_ledger_modes_refuse_negative_delays(self, small_setup, hom):
        ops, amp, q = small_setup
        for tau_axis, T_axis in (([-1.0, 1.0], [2.0]), ([1.0], [2.0, -2.0])):
            with pytest.raises(ValueError, match="tau >= 0 and T >= 0"):
                scan(tau_axis, T_axis, [3.0], "full", amp, ops, q, hom=hom,
                     workers=1)

    @pytest.mark.parametrize("mode, hom", [
        ("full", None), ("full", UNIT), ("short_Te", None)],
        ids=["full", "bs_removed", "short_Te"])
    @pytest.mark.parametrize("tau_axis, T_axis, name", [
        ([np.nan], [2.0], "tau=nan"), ([np.inf], [2.0], "tau=inf"),
        ([0.0, np.inf], [2.0], "tau=inf"), ([1.0], [np.nan], "T=nan")])
    def test_refuses_delays_that_are_not_finite(self, small_setup, mode, hom,
                                                tau_axis, T_axis, name):
        ops, amp, q = small_setup
        with pytest.raises(ValueError, match=f"delays must be finite; got "
                                             f"{name}"):
            scan(tau_axis, T_axis, [3.0], mode, amp, ops, q, hom=hom)

    @pytest.mark.parametrize("mode", ["full", "short_Te"])
    def test_lattice_above_the_scan_budget_refused(self, small_setup, mode):
        ops, amp, q = small_setup
        with pytest.raises(ValueError, match=r"^the lattice holds 1049600 "
                                             r"\(tau, T, s\) points, above "
                                             r"the scan lattice budget"):
            scan(np.arange(1024.0), np.arange(1025.0), [3.0], mode, amp, ops,
                 q)

    def test_bs_removed_mode_drops_exchange_terms(self, small_setup):
        ops, amp, q = small_setup
        vals = coincidence_terms(1.0, 2.0, 3.0, amp, ops, q,
                                 hom=HomSpec(t_coeff=1.0, r_coeff=0.0))
        assert all(nu == "I" for nu, _ in vals)

    @pytest.mark.parametrize("hom", [HomSpec(t_coeff=0.8, r_coeff=0.6),
                                     UNIT], ids=["short_Te", "bs_removed"])
    def test_modes_refuse_a_splitter_they_ignore(self, small_setup, hom):
        # only short_Te fixes the splitter (50:50)
        ops, amp, q = small_setup
        with pytest.raises(ValueError, match="mode short_Te ignores"):
            scan([1.0], [2.0], [3.0], "short_Te", amp, ops, q, hom=hom,
                 workers=1)
        # the 50:50 splitter a config resolves to is accepted
        grid = scan([1.0], [2.0], [3.0], "short_Te", amp, ops, q,
                    hom=HomSpec(T=2.0), workers=1)
        assert grid.values[0, 0, 0] != 0
        # the full signal weighs the splitter's channels, and says which
        grid = scan([1.0], [2.0], [3.0], "full", amp, ops, q, hom=hom)
        assert grid.values[0, 0, 0] == coincidence(1.0, 2.0, 3.0, amp, ops, q,
                                                   hom=hom)
        assert grid.meta["splitter"] == (f"t_coeff={hom.t_coeff:.17g} "
                                         f"r_coeff={hom.r_coeff:.17g}")


class TestEmptyCorrelator:
    def test_builds_no_box_for_a_correlator_without_terms(self, small_setup,
                                                          monkeypatch):
        # a 2-level system has no f level, so F5 has no terms
        ops, amp, q = small_setup
        assert ops.expansion(5).coeffs.size == 0
        boxes = []

        def counting(subs, *rest):
            boxes.extend(subs)
            return _boxes(subs, *rest)

        monkeypatch.setattr(quadrature, "_boxes", counting)
        value = coincidence(1.0, 2.0, 3.0, amp, ops, q, hom=HomSpec(T=2.0))
        f5 = {sub for term in term_table() if term.interaction == 5
              for sub in term.sub_terms}
        assert np.isfinite(value) and boxes
        assert not f5 & set(boxes)


class TestSignalGrid:
    def test_roundtrip_bit_exact(self, tmp_path, small_grid=None):
        rng = np.random.default_rng(1)
        grid = SignalGrid(
            tau_values=np.array([0.0, 1.0, 2.5]),
            T_values=np.array([1.0, 2.0]),
            s_values=np.array([3.0]),
            values=rng.normal(size=(3, 2, 1)),
            mode="full",
            meta={"system_hash": "abc123", "quadrature": "cutoff=1 step=0.1"},
        )
        path = tmp_path / "grid.dat"
        grid.save(path)
        loaded = SignalGrid.load(path)
        assert loaded.serialize() == grid.serialize()
        assert path.read_text() == loaded.serialize()
        assert loaded.mode == "full"
        assert loaded.meta["system_hash"] == "abc123"

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            SignalGrid(np.array([0.0]), np.array([0.0]), np.array([0.0]),
                       np.array([[[np.nan]]]), "full")

    @pytest.mark.parametrize("edit, bad_row", [
        (lambda rows: [rows[0], rows[2], rows[1]] + rows[3:], "data row 1"),
        (lambda rows: rows[:-1], "data row 5 is None"),
    ], ids=["swapped", "missing"])
    def test_load_checks_rows_against_axes(self, tmp_path, edit, bad_row):
        grid = SignalGrid(np.array([0.0, 1.0, 2.5]), np.array([1.0, 2.0]),
                          np.array([3.0]), np.arange(6.0).reshape(3, 2, 1), "full")
        lines = grid.serialize().splitlines()
        header = [ln for ln in lines if ln.startswith("#")]
        rows = [ln for ln in lines if not ln.startswith("#")]
        path = tmp_path / "grid.dat"
        path.write_text("\n".join(header + edit(rows)) + "\n")
        with pytest.raises(ValueError, match=bad_row):
            SignalGrid.load(path)

    def test_load_names_a_missing_axis_header(self, tmp_path):
        grid = SignalGrid(np.array([0.0, 1.0]), np.array([1.0]), np.array([3.0]),
                          np.zeros((2, 1, 1)), "full")
        lines = grid.serialize().splitlines()
        path = tmp_path / "grid.dat"
        path.write_text("\n".join(ln for ln in lines
                                  if not ln.startswith("# tau_values:")) + "\n")
        with pytest.raises(ValueError, match=r"grid\.dat: header line "
                                             r"'# tau_values:' is missing"):
            SignalGrid.load(path)

    def test_load_names_a_missing_mode_header(self, tmp_path):
        grid = SignalGrid(np.array([0.0, 1.0]), np.array([1.0]), np.array([3.0]),
                          np.zeros((2, 1, 1)), "full")
        path = tmp_path / "grid.dat"
        path.write_text("".join(ln for ln in grid.serialize().splitlines(True)
                                if not ln.startswith("# mode:")))
        with pytest.raises(ValueError, match=r"grid\.dat: header line "
                                             r"'# mode:' is missing"):
            SignalGrid.load(path)

    def test_load_names_an_axis_header_that_is_not_numbers(self, tmp_path):
        grid = SignalGrid(np.array([0.0, 1.0]), np.array([1.0]), np.array([3.0]),
                          np.zeros((2, 1, 1)), "full")
        path = tmp_path / "grid.dat"
        path.write_text(grid.serialize().replace("# tau_values: 0 1\n",
                                                 "# tau_values: 0 x\n"))
        with pytest.raises(ValueError, match=r"grid\.dat: header line "
                                             r"'# tau_values:' is '0 x', "
                                             r"not numbers"):
            SignalGrid.load(path)

    def test_load_names_an_empty_axis_header(self, tmp_path):
        grid = SignalGrid(np.array([0.0, 1.0]), np.array([1.0]), np.array([3.0]),
                          np.zeros((2, 1, 1)), "full")
        path = tmp_path / "grid.dat"
        path.write_text(grid.serialize().replace("# s_values: 3\n",
                                                 "# s_values: \n"))
        with pytest.raises(ValueError, match=r"grid\.dat: header line "
                                             r"'# s_values:' is empty, but "
                                             r"the file has 2 data rows"):
            SignalGrid.load(path)
        # a grid with an empty axis has no rows, and loads
        empty = SignalGrid(np.array([0.0, 1.0]), np.array([1.0]), np.array([]),
                           np.zeros((2, 1, 0)), "full")
        path.write_text(empty.serialize())
        assert SignalGrid.load(path).serialize() == empty.serialize()

    def test_load_names_a_row_that_is_not_numbers(self, tmp_path):
        grid = SignalGrid(np.array([0.0, 1.0]), np.array([1.0]), np.array([3.0]),
                          np.zeros((2, 1, 1)), "full")
        path = tmp_path / "grid.dat"
        path.write_text(grid.serialize().replace("1 1 3 0\n", "1 1 3 x\n"))
        with pytest.raises(ValueError, match=r"grid\.dat: data row 1 is "
                                             r"'1 1 3 x', not numbers"):
            SignalGrid.load(path)


class TestBatch:
    """A scan evaluates all points of one s value in one batch; each value
    must equal its point's own `coincidence`, a batch of one, bit for bit."""

    @pytest.fixture(scope="class")
    def ladder(self):
        return random_ladder(np.random.default_rng(3), 2, 2, 0.25)

    @pytest.mark.parametrize("hom", [None, UNIT], ids=["full", "bs_removed"])
    @pytest.mark.parametrize("rule", ["trapezoid", "simpson"])
    @pytest.mark.parametrize("kind", ["biphoton", "delta"])
    def test_scan_equals_coincidence_bit_for_bit(self, ladder, kind, rule,
                                                 hom):
        s = 3.0
        if kind == "biphoton":
            amp = gaussian_amplitude(center=0.4, sigma_sum=0.3,
                                     sigma_diff=0.5, n=128, half_span=1.6,
                                     s=s)
            t_ref = reference_time(amp)
        else:
            amp, t_ref = DeltaAmplitude(s=s, spacing=0.4), 0.0
        q = QuadratureSpec(cutoff=48.0, step=0.4, rule=rule, t_ref=t_ref)
        tau_axis, T_axis = [0.0, 0.3, 2.0, 7.5], [0.0, 1.3, 6.0]
        # some sub-term's box is empty at some points and not at others
        points = [(tv, Tv) for tv in tau_axis for Tv in T_axis]
        live = [sum(point_box(sub, tv, Tv, amp, q) is not None
                    for tv, Tv in points)
                for term in term_table() for sub in term.sub_terms]
        assert any(0 < n < len(points) for n in live)
        grid = scan(tau_axis, T_axis, [s], "full", amp, ladder, q, hom=hom)
        for i, tv in enumerate(tau_axis):
            for j, Tv in enumerate(T_axis):
                assert grid.values[i, j, 0] == coincidence(
                    tv, Tv, s, amp, ladder, q, hom=hom), (tv, Tv)

    def test_batches_of_any_size_agree(self, small_setup, monkeypatch):
        ops, amp, q = small_setup
        lattice = ([0.0, 1.0, 2.5, 4.0], [0.5, 3.0], [3.0])
        whole = scan(*lattice, "full", amp, ops, q).serialize()
        # several batches of two or three points
        monkeypatch.setattr(quadrature, "_BATCH_NODES", 2 * (round(q.cutoff / q.step) + 2))
        assert scan(*lattice, "full", amp, ops, q).serialize() == whole

    def test_boxes_are_tightened_once_per_call(self, small_setup,
                                               monkeypatch):
        # the batch plan's intervals serve the boxes of every batch
        ops, amp, q = small_setup
        tau, T = np.meshgrid([0.0, 1.0, 2.5, 4.0], [0.5, 3.0])
        whole = coincidence(tau, T, 3.0, amp, ops, q)
        calls = dict.fromkeys(("_intervals", "_boxes"), 0)
        for name in calls:
            def counting(*args, inner=getattr(quadrature, name), name=name):
                calls[name] += 1
                return inner(*args)

            monkeypatch.setattr(quadrature, name, counting)
        monkeypatch.setattr(quadrature, "_BATCH_NODES", 2 * (round(q.cutoff / q.step) + 2))
        assert np.array_equal(coincidence(tau, T, 3.0, amp, ops, q), whole)
        assert calls["_intervals"] == 1 and calls["_boxes"] > 1, calls
        calls.update(_intervals=0, _boxes=0)
        assert coincidence(1.0, 0.5, 3.0, amp, ops, q) == whole[0, 1]
        assert calls == {"_intervals": 1, "_boxes": 1}

    def test_sub_terms_are_keyed_once_per_call(self, small_setup,
                                               monkeypatch):
        # one key list per distinct sub-term serves the batches and every
        # batch's plan and integrals
        ops, amp, q = small_setup
        tau, T = np.meshgrid([0.0, 1.0, 2.5, 4.0], [0.5, 3.0])
        whole = coincidence(tau, T, 3.0, amp, ops, q)
        keyed, batches = [], []
        keys, plan = quadrature._integral_keys, quadrature._batches

        def keying(sub, *args):
            keyed.append(id(sub))
            return keys(sub, *args)

        def planning(*args):
            batches.extend(plan(*args))
            return batches

        monkeypatch.setattr(quadrature, "_integral_keys", keying)
        monkeypatch.setattr(quadrature, "_batches", planning)
        monkeypatch.setattr(quadrature, "_BATCH_NODES", 2 * (round(q.cutoff / q.step) + 2))
        assert np.array_equal(coincidence(tau, T, 3.0, amp, ops, q), whole)
        distinct = {id(sub) for term in term_table()
                    if ops.expansion(term.interaction).coeffs.size
                    for sub in term.sub_terms}
        assert len(batches) > 1
        assert sorted(keyed) == sorted(distinct)

    def test_scan_makes_no_more_time_value_calls_than_one_point(
            self, monkeypatch):
        # the criterion-10 amplitude and lattice, 4 x 4 of its points
        ops = LiouvilleOperatorSet(ExcitonSystem(
            levels=[Level("g0", "g", 0.0), Level("e0", "e", 0.8)],
            dipoles_ge=[[1.0]], dephasing_default=0.25))
        amp = gaussian_amplitude(center=0.4, sigma_sum=0.3, sigma_diff=0.5,
                                 n=128, half_span=1.6, s=3.0)
        q = QuadratureSpec(cutoff=48.0, step=0.4, rule="trapezoid",
                           t_ref=reference_time(amp))
        axis = np.linspace(0.0, 9.5, 20)[[2, 7, 12, 17]]
        calls = []
        inner = BiphotonAmplitude.time_value

        def counting(self, *args, **kwargs):
            calls.append(args[0].size)
            return inner(self, *args, **kwargs)

        monkeypatch.setattr(BiphotonAmplitude, "time_value", counting)
        scan(axis, axis, [3.0], "full", amp, ops, q)
        batch = len(calls)
        single = []
        for tv in axis:
            for Tv in axis:
                calls.clear()
                coincidence(tv, Tv, 3.0, amp, ops, q, hom=HomSpec(T=Tv))
                single.append(len(calls))
        assert 0 < batch <= max(single), (batch, single)

    def test_scan_holds_one_s_amplitude_at_a_time(self, small_setup):
        # each s value transforms the pair amplitude to its own 1024^2
        # envelope; the scan releases one before building the next
        ops, amp, q = small_setup

        def peak(s_axis):
            tracemalloc.start()
            try:
                scan([1.0], [2.0], s_axis, "full", amp, ops, q)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one, four = peak([2.0]), peak([2.0, 2.5, 3.5, 4.0])
        assert four < 2 * one, (one, four)


class TestPathwayProbabilities:
    def test_valid_distribution(self, slow_ladder, quad):
        p = pathway_probabilities(1.0, 5.0, 4.0, GaussLine(s=4.0, sigma=0.2),
                                  slow_ladder, quad)
        assert p.shape == (5,)
        assert np.all(p >= 0)
        assert p.sum() == pytest.approx(1.0)


def test_system_hash_stable(slow_ladder):
    assert system_hash(slow_ladder) == system_hash(slow_ladder)
