"""Acceptance criteria, one test per criterion, exercised at desk scale.

Each test prints a single PASS/FAIL line (run with -s to see them inline).
Criterion 5 compares the complete fourth-order signal (the pathway ledger
with its same-arm rows and both pathway-4 absorption orders) against the
brute-force fourth-order counting probability on the "three-level-converged"
benchmark, whose brute force converges at its points. The published ledger
alone cannot meet it: it lacks the O_I/O_II same-arm blocks, and the
"three-level" benchmark's brute force is not converged inside the
Hong-Ou-Mandel cancellation it samples (see homspec.crosscheck). Each row
group is checked against its brute-force block in test_oracle.
"""

import time

import numpy as np
import pytest

from conftest import GaussLine, gaussian_amplitude
from homspec.biphoton import (CrystalSpec, PumpSpec, build_jsa, default_grid,
                              to_time_domain)
from homspec.crosscheck import run_benchmark
from homspec.model import (CORRELATOR_SEQUENCES, ExcitonSystem, Level,
                           LiouvilleOperatorSet, sequence_tokens)
from homspec.pathways import (HomSpec, bare_pair_coincidence,
                              detection_combinations,
                              enumerate_interaction_pathways, hom_matrix,
                              kl_divergence, pathway_entropy)
from homspec.signal import (QuadratureSpec, coincidence, coincidence_short_Te,
                            pathway_probabilities, reference_time, scan,
                            short_te_terms)


def report(n, ok, detail):
    print(f"criterion {n:2d}: {'PASS' if ok else 'FAIL'} — {detail}")
    return ok


def test_criterion_1_pathway_counting():
    start = time.time()
    unfiltered = enumerate_interaction_pathways(filters=())
    combos = detection_combinations()
    survivors = enumerate_interaction_pathways()
    token_exact = all(
        p.index == k + 1
        and p.tokens == sequence_tokens(CORRELATOR_SEQUENCES[k + 1])
        for k, p in enumerate(survivors))
    ok = (len(unfiltered) == 256 and len(combos) == 16
          and sum(c["kept"] for c in combos) == 4
          and len(survivors) == 5 and token_exact)
    assert report(1, ok, f"256 -> 5 interaction, 16 -> 4 detection, "
                         f"token-exact ({time.time() - start:.2f} s)")


def test_criterion_2_jsa_invariants():
    start = time.time()
    pump = PumpSpec(omega_p=2.9, sigma_p=0.5)
    crystal = CrystalSpec(omega_a=1.5, omega_b=1.4, T_a=25.0, T_b=-35.0)
    grid = default_grid(pump, crystal, n=256)
    amp0 = build_jsa(pump, crystal, 0.0, grid)
    amp_pi = build_jsa(pump, crystal, np.pi, grid)
    norm_ok = (abs(amp0.frequency_norm() - 1) < 1e-6
               and abs(amp0.time_norm() - 1) < 1e-6)
    sym_ok = np.array_equal(amp0.values, amp0.values.T)
    diag_ok = np.all(np.diag(amp_pi.values) == 0)
    k = 16
    shifted = to_time_domain(amp0, s=k * amp0.dt1)
    shift_err = np.max(np.abs(shifted.time_values[k:] - amp0.time_values[:-k]))
    ok = norm_ok and sym_ok and diag_ok and shift_err < 1e-9
    elapsed = time.time() - start
    assert report(2, ok and elapsed < 5.0,
                  f"norms, exact symmetry, shift err {shift_err:.1e} "
                  f"({elapsed:.2f} s)")


def test_criterion_3_hom_unitarity():
    start = time.time()
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(10_000):
        t2 = rng.uniform(0.01, 0.99)
        hom = HomSpec(T=rng.uniform(-50, 50), t_coeff=np.sqrt(t2),
                      r_coeff=np.sqrt(1 - t2))
        m = hom_matrix(rng.uniform(-10, 10), hom)
        worst = max(worst, np.max(np.abs(m.conj().T @ m - np.eye(2))))
    elapsed = time.time() - start
    assert report(3, worst < 1e-12 and elapsed < 1.0,
                  f"max deviation {worst:.1e} over 1e4 draws ({elapsed:.2f} s)")


def test_criterion_4_bare_hom_dip():
    start = time.time()
    pump = PumpSpec(omega_p=2.9, sigma_p=0.5)
    crystal = CrystalSpec(omega_a=1.5, omega_b=1.4, T_a=10.0, T_b=-14.0)
    amp = build_jsa(pump, crystal, 0.0, default_grid(pump, crystal, n=256))
    dip = bare_pair_coincidence(amp, HomSpec(T=0.0))
    plateau = bare_pair_coincidence(amp, HomSpec(T=80.0))
    sweep = np.linspace(0.5, 25.0, 9)
    evenness = max(abs(bare_pair_coincidence(amp, HomSpec(T=T))
                       - bare_pair_coincidence(amp, HomSpec(T=-T)))
                   for T in sweep) / plateau
    elapsed = time.time() - start
    ok = abs(dip) < 1e-3 * plateau and evenness < 1e-6 and elapsed < 10.0
    assert report(4, ok, f"dip/plateau {abs(dip) / plateau:.1e}, evenness "
                         f"{evenness:.1e} ({elapsed:.2f} s)")


def test_criterion_5_oracle_equivalence():
    start = time.time()
    result = run_benchmark("three-level-converged")
    dev = result["max_rel_dev"]
    elapsed = time.time() - start
    ok = dev < 1e-2
    report(5, ok, f"complete 4th-order signal vs converged brute force, max "
                  f"rel dev {dev:.1e} ({elapsed:.0f} s); the published ledger "
                  f"lacks the same-arm blocks and a pathway-4 absorption "
                  f"order, and the three-level brute force is unconverged "
                  f"inside the HOM cancellation")
    assert ok


def test_criterion_6_short_te_convergence():
    start = time.time()
    omega_eg, omega_fe, eta = 0.30, 0.26, 0.08
    system = ExcitonSystem(
        levels=[Level("g0", "g", 0.0), Level("e0", "e", omega_eg),
                Level("f0", "f", omega_eg + omega_fe)],
        dipoles_ge=[[1.0]], dipoles_ef=[[0.8]], dephasing_default=eta)
    ops = LiouvilleOperatorSet(system)
    tau_r = 1.0 / eta
    points = [(0.0, 8.0, 6.0), (2.0, 5.0, 4.0), (0.0, 3.0, 4.0),
              (0.0, 10.0, 4.5), (1.0, 9.0, 6.0), (0.5, 6.0, 5.0),
              (2.5, 7.0, 5.5), (0.0, 9.0, 4.0), (1.5, 4.0, 3.0),
              (2.0, 8.0, 6.0)]
    devs = []
    ratios = []
    for k in range(4):
        te = (tau_r / 5.0) / 2 ** k
        q = QuadratureSpec(cutoff=12.0 / eta, step=min(0.3, te / 4),
                           rule="trapezoid", t_ref=0.0)
        worst = 0.0
        for tau, T, s in points:
            hom = HomSpec(T=T)
            full = coincidence(tau, T, s, GaussLine(s=s, sigma=te), ops, q,
                               hom=hom)
            short = coincidence_short_Te(tau, T, s, ops, q, hom=hom)
            worst = max(worst, abs(full - short) / max(abs(short), 1e-14))
        devs.append(worst)
        ratios.append(tau_r / te)
    monotone = all(a > b for a, b in zip(devs, devs[1:]))
    ok = monotone and devs[-1] < 0.05
    elapsed = time.time() - start
    assert report(6, ok, "ratios " + ", ".join(f"{r:.0f}" for r in ratios)
                  + " -> deviations " + ", ".join(f"{d:.3f}" for d in devs)
                  + f" ({elapsed:.0f} s)")


def test_criterion_7_window_selectivity():
    start = time.time()
    system = ExcitonSystem(
        levels=[Level("g0", "g", 0.0), Level("e0", "e", 0.9),
                Level("f0", "f", 1.75)],
        dipoles_ge=[[1.0]], dipoles_ef=[[0.8]], dephasing_default=0.08)
    ops = LiouvilleOperatorSet(system)
    q = QuadratureSpec(cutoff=130.0, step=0.1, rule="trapezoid", t_ref=0.0)
    windows = {"F1": (0.0, 8.0, 6.0), "F2": (0.0, 3.0, 4.0),
               "F3a": (0.0, 14.0, 5.0)}
    ok = True
    for survivor, (tau, T, s) in windows.items():
        vals = short_te_terms(tau, T, s, ops, q)
        ok &= vals[survivor] != 0
        ok &= all(v == 0 for name, v in vals.items() if name != survivor)
    assert report(7, ok, f"three windows, term-exact zeros "
                         f"({time.time() - start:.2f} s)")


def test_criterion_8_s_zero_isolation():
    start = time.time()
    system = ExcitonSystem(
        levels=[Level("g0", "g", 0.0), Level("e0", "e", 0.9),
                Level("f0", "f", 1.75)],
        dipoles_ge=[[1.0]], dipoles_ef=[[0.8]], dephasing_default=0.08)
    ops = LiouvilleOperatorSet(system)
    q = QuadratureSpec(cutoff=130.0, step=0.1, rule="trapezoid", t_ref=0.0)
    ok = True
    for tau, T in [(0.5, 4.0), (2.0, 6.0), (5.0, 2.0), (-2.0, 2.0)]:
        vals = short_te_terms(tau, T, 0.0, ops, q)
        theta = 1.0 if tau + T >= 0 else 0.0
        expected = -theta * complex(ops.expansion(3).evaluate(T, tau, T))
        ok &= vals["F3a"] == expected
        ok &= all(v == 0 for name, v in vals.items() if name != "F3a")
        ok &= coincidence_short_Te(tau, T, 0.0, ops, q) == 2 * expected.real
    assert report(8, ok, f"only the splitter-window term survives at s = 0 "
                         f"({time.time() - start:.2f} s)")


GOLDEN_BENCHMARK = 7.1094154645e-03


def test_criterion_9_quadrature_convergence():
    start = time.time()
    system = ExcitonSystem(
        levels=[Level("g0", "g", 0.0), Level("e0", "e", 1.5),
                Level("f0", "f", 2.9)],
        dipoles_ge=[[1.0]], dipoles_ef=[[0.8]], dephasing_default=0.05)
    ops = LiouvilleOperatorSet(system)
    pump = PumpSpec(omega_p=2.9, sigma_p=0.5)
    crystal = CrystalSpec(omega_a=1.5, omega_b=1.4, T_a=10.0, T_b=-14.0)
    amp = build_jsa(pump, crystal, 0.0, default_grid(pump, crystal, n=256),
                    s=15.0)
    t_ref = reference_time(amp)
    vals = {}
    for step in (0.2, 0.1):
        q = QuadratureSpec(cutoff=240.0, step=step, rule="trapezoid",
                           t_ref=t_ref)
        q.validate(ops)
        vals[step] = coincidence(20.0, 10.0, 15.0, amp, ops, q,
                                 hom=HomSpec(T=10.0))
    change = abs(vals[0.1] - vals[0.2]) / abs(vals[0.1])
    golden_ok = abs(vals[0.1] - GOLDEN_BENCHMARK) < 1e-6 * abs(GOLDEN_BENCHMARK)
    elapsed = time.time() - start
    ok = change < 1e-3 and golden_ok and elapsed < 300.0
    assert report(9, ok, f"halving changes C by {change:.2e}; golden "
                         f"{vals[0.1]:.6e} ({elapsed:.0f} s)")


def test_criterion_10_scan_determinism():
    start = time.time()
    system = ExcitonSystem(
        levels=[Level("g0", "g", 0.0), Level("e0", "e", 0.8)],
        dipoles_ge=[[1.0]], dephasing_default=0.25)
    ops = LiouvilleOperatorSet(system)
    amp = gaussian_amplitude(center=0.4, sigma_sum=0.3, sigma_diff=0.5,
                             n=128, half_span=1.6, s=3.0)
    q = QuadratureSpec(cutoff=48.0, step=0.4, rule="trapezoid",
                       t_ref=reference_time(amp))
    q.validate(ops)
    tau_axis = np.linspace(0.0, 9.5, 20)
    T_axis = np.linspace(0.0, 9.5, 20)
    outputs = []
    for workers in (1, 4, None):
        grid = scan(tau_axis, T_axis, [3.0], "full", amp, ops, q,
                    workers=workers)
        outputs.append(grid.serialize())
    identical = outputs[0] == outputs[1] == outputs[2]
    finite = np.all(np.isfinite(grid.values))
    elapsed = time.time() - start
    ok = identical and finite and elapsed < 1800.0
    assert report(10, ok, f"20x20x1 scans byte-identical across worker "
                          f"counts ({elapsed:.0f} s)")


def test_criterion_11_entropy_diagnostics():
    start = time.time()
    system = ExcitonSystem(
        levels=[Level("g0", "g", 0.0), Level("e0", "e", 0.9),
                Level("f0", "f", 1.75)],
        dipoles_ge=[[1.0]], dipoles_ef=[[0.8]], dephasing_default=0.08)
    ops = LiouvilleOperatorSet(system)
    q = QuadratureSpec(cutoff=130.0, step=0.15, rule="trapezoid", t_ref=0.0)
    entropies = []
    dists = []
    # wide pair amplitude: several interaction pathways genuinely compete
    for tau, T, s in [(0.0, 8.0, 6.0), (2.0, 5.0, 4.0), (1.0, 3.0, 2.0)]:
        p = pathway_probabilities(tau, T, s, GaussLine(s=s, sigma=2.0), ops, q)
        entropies.append(pathway_entropy(p))
        dists.append(p)
    in_range = all(0.0 <= s0 <= np.log(5) + 1e-12 for s0 in entropies)
    kl_self = kl_divergence(dists[0], dists[0])
    kl_cross = kl_divergence(dists[0], dists[1])
    ok = in_range and kl_self < 1e-12 and kl_cross > 1e-12
    assert report(11, ok, f"entropies {['%.3f' % s for s in entropies]}, "
                          f"KL self {kl_self:.1e}, cross {kl_cross:.2e} "
                          f"({time.time() - start:.1f} s)")
