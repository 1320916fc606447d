import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import gaussian_amplitude
from homspec.cli import main
from homspec.model import CORRELATOR_SEQUENCES, sequence_tokens
from homspec.pathways import (DEFAULT_FILTERS, Affine, HomSpec,
                              bare_pair_coincidence, complete_term_table,
                              detection_combinations, detection_pathways,
                              enumerate_interaction_pathways, format_term_table,
                              hom_matrix, kl_divergence, pathway_entropy,
                              term_table)


class TestHomMatrix:
    def test_zero_delay_5050(self):
        m = hom_matrix(0.0, HomSpec(T=0.0))
        r = 1.0 / np.sqrt(2.0)
        assert np.allclose(m, [[r, 1j * r], [1j * r, r]])

    def test_off_diagonal_phase(self):
        hom = HomSpec(T=3.0)
        m = hom_matrix(2.0, hom)
        assert m[0, 1] == pytest.approx(1j * hom.r_coeff * np.exp(6j))

    @given(st.floats(-20, 20), st.floats(-50, 50),
           st.floats(0.05, 0.95))
    @settings(max_examples=200, deadline=None)
    def test_unitary(self, omega, T, t2):
        hom = HomSpec(T=T, t_coeff=np.sqrt(t2), r_coeff=np.sqrt(1 - t2))
        m = hom_matrix(omega, hom)
        assert np.max(np.abs(m.conj().T @ m - np.eye(2))) < 1e-12

    def test_coefficient_normalization_enforced(self):
        with pytest.raises(ValueError):
            HomSpec(T=0.0, t_coeff=0.9, r_coeff=0.9)


class TestEnumeration:
    def test_candidate_count(self):
        assert len(enumerate_interaction_pathways(filters=())) == 256

    def test_ground_state_start_count(self):
        # exhaustive independent enumeration: the first action on each
        # branch must excite it
        count = 0
        for ops in itertools.product(
                itertools.product(("L", "R"), (True, False)), repeat=4):
            ok = True
            for side, dagger in ops:
                if side == "L":
                    ok &= dagger
                    break
            for side, dagger in ops:
                if side == "R":
                    ok &= not dagger
                    break
            count += ok
        survivors = enumerate_interaction_pathways(
            filters=("rwa", "ground_state_start"))
        assert count == 72
        assert len(survivors) == count

    def test_five_survivors_token_exact(self):
        survivors = enumerate_interaction_pathways()
        assert len(survivors) == 5
        for expected_index, p in zip(range(1, 6), survivors):
            assert p.index == expected_index
            assert p.tokens == sequence_tokens(CORRELATOR_SEQUENCES[p.index])

    def test_deterministic_and_order_stable(self):
        a = enumerate_interaction_pathways()
        b = enumerate_interaction_pathways()
        assert [p.ops for p in a] == [p.ops for p in b]
        partial1 = enumerate_interaction_pathways(filters=DEFAULT_FILTERS[:3])
        partial2 = enumerate_interaction_pathways(filters=DEFAULT_FILTERS[:3])
        assert [p.ops for p in partial1] == [p.ops for p in partial2]

    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError):
            enumerate_interaction_pathways(filters=("magic",))


class TestDetection:
    def test_sixteen_combinations_four_kept(self):
        combos = detection_combinations()
        assert len(combos) == 16
        assert sum(c["kept"] for c in combos) == 4

    def test_full_hom_signs(self):
        paths = detection_pathways()
        assert [p.name for p in paths] == ["I", "II", "III", "IV"]
        assert [p.sign for p in paths] == [1, 1, -1, -1]
        assert [p.channel for p in paths] == ["direct", "direct",
                                              "exchange", "exchange"]

    def test_bs_removed_keeps_only_direct_first(self):
        unit = HomSpec(T=1.0, t_coeff=1.0, r_coeff=0.0)
        paths = [p for p in detection_pathways() if p.weight(unit)]
        assert len(paths) == 1 and paths[0].name == "I"

    def test_zero_delay_times_match_direct_patterns(self):
        paths = {p.name: p for p in detection_pathways()}
        t, tau, T = 5.0, 2.0, 0.0
        times_I = [expr(t, tau, T, 0, 0) for _, expr in paths["I"].ket_times]
        times_III = [expr(t, tau, T, 0, 0) for _, expr in paths["III"].ket_times]
        assert sorted(times_I) == sorted(times_III)


def _dump_rows(rows) -> str:
    """Each row's label, then one line per sub-term in the dump's layout."""
    lines = []
    for term in rows:
        lines.append(term.label)
        for sub in term.sub_terms:
            (a, b), (c, d) = sub.args, sub.conj_args
            bracket = (f"[Φ({a}, {b}) + Φ({b}, {a})]" if sub.symmetrize
                       else f"Φ({a}, {b})")
            lines.append(f"    Φ*({c}, {d}) · {bracket} · "
                         f"F{term.interaction}({sub.first_interval}, τ3, τ4)")
    return "\n".join(lines) + "\n"


class TestTermTable:
    def test_record_and_subterm_counts(self):
        table = term_table()
        assert len(table) == 20
        for term in table:
            expected = 2 if (term.detection in ("III", "IV")
                             and term.interaction in (1, 2, 3)) else 1
            assert len(term.sub_terms) == expected

    def test_first_row_correlator_args(self):
        row = [t for t in term_table()
               if t.detection == "I" and t.interaction == 1][0]
        first = row.sub_terms[0].first_interval
        assert (first.tau, first.t3, first.t4) == (1, 0, 0)

    def test_channel_tags_and_signs(self):
        for term in term_table():
            if term.detection in ("I", "II"):
                assert term.pattern.channel == "direct" and term.pattern.sign == 1
            else:
                assert term.pattern.channel == "exchange" and term.pattern.sign == -1

    def test_bracket_only_on_last_pathway(self):
        for term in term_table():
            for sub in term.sub_terms:
                assert sub.symmetrize == (term.interaction == 5)

    def test_weights_at_5050_uniform(self):
        hom = HomSpec(T=0.0)
        weights = {term.pattern.weight(hom) for term in term_table()}
        assert all(abs(w - 0.25) < 1e-12 for w in weights)

    def test_complete_table_extends_the_ledger(self):
        ledger = {t.label: t for t in term_table()}
        complete = {t.label: t for t in complete_term_table()}
        assert len(complete) == len(complete_term_table()) == 22
        assert set(complete) - set(ledger) == {"I-1 same-arm", "II-1 same-arm"}
        for label, term in ledger.items():
            if term.interaction != 4:
                assert complete[label] == term
        for det in ("I", "II", "III", "IV"):
            (sub,) = complete[f"{det}-4"].sub_terms
            assert sub.symmetrize
            assert sub.first_interval == ledger[f"{det}-4"].sub_terms[0].first_interval
        # II-4 absorbs where its correlator arguments say: t - tau4, t + tau3
        assert complete["II-4"].sub_terms[0].args == (Affine(t4=-1), Affine(t3=1))

    def test_same_arm_rows_emit_together(self):
        for det in ("I", "II"):
            term = [t for t in complete_term_table()
                    if t.label == f"{det}-1 same-arm"][0]
            assert (term.pattern.sign, term.pattern.channel) == (1, "direct")
            assert len(term.sub_terms) == 2
            for sub in term.sub_terms:
                # bra and ket emit at the same detection time
                assert sub.first_interval == Affine(t=0)
                # one photon passes unabsorbed to the same detector time
                assert sub.conj_args[0] == sub.args[0] or \
                    sub.conj_args[1] == sub.args[1]

    @pytest.mark.parametrize("table", [term_table, complete_term_table])
    def test_first_interval_has_one_causal_edge(self, table):
        # the row quadrature integrates each sub-term over one box: the
        # causal constraint first_interval >= 0 must be a box edge, which
        # needs no reference time and at most one integration variable
        for term in table():
            for sub in term.sub_terms:
                first = sub.first_interval
                assert first.t == 0
                assert first.t4 == 0  # so it depends on tau3 at most

    @pytest.mark.parametrize("table, rows", [(term_table, 20),
                                             (complete_term_table, 22)])
    def test_tables_are_fresh_lists(self, table, rows):
        table().clear()
        assert len(table()) == rows

    def test_dump_is_complete(self):
        text = format_term_table()
        assert len(text.splitlines()) == 1 + 26  # header + one line per sub-term
        assert "F5" in text and "Φ*" in text

    def test_dump_matches_pinned_copy(self, capsys):
        # tests/data/pathways_dump.txt holds the committed dump; a change to
        # the ledger or to its rendering must update it deliberately
        assert main(["pathways", "dump"]) == 0
        pinned = (Path(__file__).parent / "data" / "pathways_dump.txt").read_bytes()
        assert capsys.readouterr().out.encode("utf-8") == pinned

    def test_complete_table_matches_pinned_copy(self):
        # tests/data/complete_pathways_dump.txt pins every row of the complete
        # table, the same-arm rows and both pathway-4 orders included
        pinned = (Path(__file__).parent / "data"
                  / "complete_pathways_dump.txt").read_bytes()
        assert _dump_rows(complete_term_table()).encode("utf-8") == pinned


class TestEntropy:
    def test_uniform_is_log5(self):
        assert pathway_entropy(np.full(5, 0.2)) == pytest.approx(np.log(5))

    def test_deterministic_is_zero(self):
        assert pathway_entropy([1, 0, 0, 0, 0]) == 0.0

    def test_two_equal_branches(self):
        assert pathway_entropy([0.5, 0.5, 0, 0, 0]) == pytest.approx(np.log(2))

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            pathway_entropy([0.5, 0.2, 0, 0, 0])

    def test_kl_identical_zero(self):
        p = np.array([0.1, 0.2, 0.3, 0.25, 0.15])
        assert kl_divergence(p, p) == pytest.approx(0.0, abs=1e-15)

    def test_kl_closed_form(self):
        assert kl_divergence([1.0, 0.0], [0.5, 0.5]) == pytest.approx(np.log(2))

    def test_kl_requires_absolute_continuity(self):
        with pytest.raises(ValueError, match="continuity"):
            kl_divergence([0.5, 0.5], [1.0, 0.0])

    @given(st.lists(st.floats(0.01, 1.0), min_size=5, max_size=5),
           st.lists(st.floats(0.01, 1.0), min_size=5, max_size=5))
    @settings(max_examples=100, deadline=None)
    def test_kl_nonnegative(self, p, q):
        p = np.array(p) / np.sum(p)
        q = np.array(q) / np.sum(q)
        assert kl_divergence(p, q) >= -1e-12


class TestBarePairSanity:
    def test_dip_at_zero_delay_and_frequency_oracle(self):
        amp = gaussian_amplitude()
        hom0 = HomSpec(T=0.0)
        dip = bare_pair_coincidence(amp, hom0)
        plateau = bare_pair_coincidence(amp, HomSpec(T=80.0))
        assert abs(dip) < 1e-3 * plateau
        # independent frequency-domain evaluation of the same functional
        dw = amp.d_omega_a
        for T in (0.0, 3.0, 11.0):
            c = amp.values * dw  # discrete pair amplitude coefficients
            phase = np.exp(1j * (amp.omega_b[None, :] - amp.omega_a[:, None]) * T)
            direct = 0.5 * c
            swapped = 0.5 * phase * c.T
            oracle = np.sum(np.abs(direct - swapped) ** 2)
            got = bare_pair_coincidence(amp, HomSpec(T=T))
            assert got == pytest.approx(oracle, rel=2e-3, abs=1e-12)
