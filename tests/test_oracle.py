import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest

import homspec.biphoton
import homspec.crosscheck
import homspec.oracle
from homspec.crosscheck import (CONVERGED_STEPS, CONVERGED_WINDOW, RESTRICTIONS,
                                _gaussian_pair_values, band_taper,
                                brute_force_curve, converged_benchmark,
                                evolve_benchmark_kets, evolve_block_kets,
                                normalized_deviation, row_group_blocks,
                                run_benchmark, three_level_benchmark)
from homspec.model import ExcitonSystem, Level, LiouvilleOperatorSet
from homspec.oracle import (DiscretizedField, _build_couplings, _zero_blocks,
                            coincidence_probability, detection_amplitudes,
                            evolve_perturbative, exchange_pair_product,
                            fourth_order_coincidence)
from homspec.pathways import HomSpec, term_table
from homspec.signal import (coincidence, complete_coincidence,
                            complete_coincidence_terms, term_value)


@pytest.fixture(scope="module")
def bench():
    return three_level_benchmark()


@pytest.fixture(scope="module")
def bench_kets(bench):
    return evolve_benchmark_kets(bench)


@pytest.fixture(scope="module")
def converged():
    return converged_benchmark()


@pytest.fixture(scope="module")
def converged_kets(converged):
    return evolve_block_kets(converged)


TABLE = {(t.detection, t.interaction): t for t in term_table()}


class TestDiscretizedField:
    def test_norm_enforced(self):
        freqs = np.linspace(0.5, 1.5, 8)
        with pytest.raises(ValueError, match="norm"):
            DiscretizedField(freqs, np.ones((8, 8)))

    def test_uniform_lattice_required(self):
        freqs = np.array([0.0, 0.1, 0.3])
        vals = np.ones((3, 3)) / 3.0
        with pytest.raises(ValueError, match="uniform"):
            DiscretizedField(freqs, vals)


class TestFilonCoefficients:
    """`_filon_coeffs(z)` are the integrals of e^{izth}(1 - th) and
    e^{izth} th over [0, 1]; a complex z keeps its imaginary part."""

    @staticmethod
    def exact(z):
        # 40-node Gauss-Legendre on [0, 1]: exact to rounding for |z| <= 8
        x, w = np.polynomial.legendre.leggauss(40)
        th, w = (x + 1.0) / 2.0, w / 2.0
        e = np.exp(1j * np.multiply.outer(z, th))
        return e @ (w * (1.0 - th)), e @ (w * th)

    @pytest.mark.parametrize("z", [
        # the series branch (|z| < 1e-2)
        np.array([0.004 + 0.003j, -0.006 + 0.002j, 1e-4j]),
        # the closed branch
        np.array([0.5 + 0.2j, 3.0 - 1.0j, -7.5 + 0.4j])])
    def test_complex_z_against_quadrature(self, z):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no ComplexWarning
            got = homspec.oracle._filon_coeffs(z)
        # the series' first dropped term is z^4 / 144 at most
        bound = np.where(np.abs(z) < 1e-2, np.abs(z) ** 4 / 100.0 + 1e-15,
                         1e-14)
        for c, want in zip(got, self.exact(z)):
            assert (np.abs(c - want) <= bound).all()

    def test_accurate_across_the_branch_threshold(self):
        # |z| from 1e-4 to 8 at five phases of the closed upper half plane,
        # where |e^{izth}| <= 1, so that an absolute bound means something
        r = np.geomspace(1e-4, 8.0, 400)
        z = np.concatenate([r * np.exp(1j * phase)
                            for phase in np.linspace(0.0, np.pi, 5)])
        for c, want in zip(homspec.oracle._filon_coeffs(z), self.exact(z)):
            assert np.abs(c - want).max() < 1e-12


class TestEvolution:
    def test_rejects_open_system(self, bench):
        noisy = ExcitonSystem(
            levels=bench.system.levels, dipoles_ge=bench.system.dipoles_ge,
            dipoles_ef=bench.system.dipoles_ef, dephasing_default=0.1)
        with pytest.raises(ValueError, match="bath-free"):
            evolve_perturbative(noisy, bench.field, 10.0, n_steps=8)

    def test_zero_dipoles_freeze_higher_orders(self, bench):
        system = ExcitonSystem(
            levels=bench.system.levels, dipoles_ge=[[0.0]], dipoles_ef=[[0.0]],
            dephasing_default=0.0)
        ket = evolve_perturbative(system, bench.field, 10.0, n_steps=16)
        norms = ket.order_norms()
        assert norms[0] == pytest.approx(1.0)
        assert np.all(norms[1:] == 0)

    def test_first_order_matches_direct_quadrature(self, bench):
        ket = evolve_perturbative(bench.system, bench.field, bench.t_end,
                                  t_start=bench.t_start, n_steps=64,
                                  order_max=1)
        # independent evaluation: converged trapezoid of the absorption
        # integral for a few target modes
        w = bench.field.frequencies
        we = 0.85
        u = np.linspace(bench.t_start, bench.t_end, 40001)
        for k in (10, 16, 22):
            integrand = (bench.field.coefficients[:, k][None, :]
                         * np.exp(1j * (we - w)[None, :] * u[:, None]))
            ref = -1j * np.trapezoid(integrand.sum(axis=1), u)
            got = ket.orders[1]["e_b"][0, k]
            assert abs(got - ref) < 1e-4 * max(abs(ref), 1e-6)

    def test_benchmark_kets_keep_their_order_norms(self, bench_kets):
        # (full, arm a, arm b) order norms with Filon coefficients exact to
        # rounding: the norms from 40-node Gauss-Legendre coefficients
        # agree with these to 7e-16
        expected = [1.0, 9583.335442623555, 103897667.1069414,
                    140397267889.20602, 746998400247722.5,
                    1.0, 4791.3089553025775, 44304006.10024792,
                    1.0, 4792.026487320977, 51387561.280758]
        norms = np.concatenate([k.order_norms() for k in bench_kets])
        assert np.allclose(norms, expected, rtol=1e-12, atol=0)

    def test_restrictions_partition_the_state(self, bench, bench_kets):
        ket, ket_a, ket_b = bench_kets
        for key in ("g_a_eb", "g_b_ea"):
            assert np.array_equal(ket.orders[2][key],
                                  ket_a.orders[2][key] + ket_b.orders[2][key])
        parts = [bench.evolve(keep=RESTRICTIONS[name])
                 for name in ("p4-a", "p4-b", "p5")]
        total = sum(p.orders[4]["g_eab"] for p in parts)
        assert np.allclose(total, ket.orders[4]["g_eab"], rtol=1e-12,
                           atol=1e-12 * np.abs(total).max())
        assert all(np.abs(p.orders[4]["g_eab"]).max() > 0 for p in parts)

    def test_defaults_of_switch_off_and_mode_coupling(self, bench):
        args = (bench.system, bench.field, bench.t_end)
        kw = dict(t_start=bench.t_start, n_steps=16)
        plain = evolve_perturbative(*args, **kw)
        same = evolve_perturbative(*args, switch_off=0.0,
                                   mode_coupling=np.ones(bench.n_modes), **kw)
        for k in range(5):
            for key, arr in plain.orders[k].items():
                assert np.array_equal(arr, same.orders[k][key])
        with pytest.raises(ValueError, match="switch_off"):
            evolve_perturbative(*args, switch_off=100.0, **kw)
        with pytest.raises(ValueError, match="mode_coupling"):
            evolve_perturbative(*args, mode_coupling=np.ones(3), **kw)

    def test_switch_off_removes_window_end_leak(self, converged):
        # a closed system keeps emitting after the pulse; a hard window end
        # leaks that emission into earlier detection times through the
        # sidelobes of the hard-edged band's kernel, a smooth switch-off
        # does not
        def through(t_end, switch_off):
            ket = evolve_perturbative(converged.system, converged.field, t_end,
                                      order_max=2, t_start=-40.0,
                                      n_steps=int(t_end + 40.0),
                                      switch_off=switch_off)
            amps = detection_amplitudes(ket, HomSpec(T=8.0), 0.0, 10.0)
            return amps["through"][2]

        ref = abs(through(120.0, 40.0))
        hard = abs(through(80.0, 0.0) - through(120.0, 0.0)) / ref
        smooth = abs(through(80.0, 40.0) - through(120.0, 40.0)) / ref
        assert hard > 1e-3
        assert smooth < 1e-2 * hard

    def test_weak_coupling_norms_bounded(self, bench):
        # the normalized pair carries an order-one field at the sample, so
        # the perturbative regime needs genuinely small dipoles
        system = ExcitonSystem(
            levels=bench.system.levels, dipoles_ge=[[0.001]],
            dipoles_ef=[[0.0008]], dephasing_default=0.0)
        ket = evolve_perturbative(system, bench.field, bench.t_end,
                                  t_start=bench.t_start, n_steps=64)
        norms = ket.order_norms()
        assert norms[0] == pytest.approx(1.0)
        assert norms[1:].sum() < 0.05  # perturbative regime
        assert np.all(np.diff(norms[1:]) < 0)


def every_coupling_every_step(system, field, t, order_max=4, *, t_start=None,
                              n_steps=64, keep=None, switch_off=0.0,
                              mode_coupling=None):
    """Reference step loop: every coupling at every order and step, each
    step starting from a copy of every block. `evolve_perturbative` skips
    the applications whose input block is unreachable, which add exact
    zeros, so it must agree bit for bit."""
    t_start = -t if t_start is None else t_start
    h = (t - t_start) / n_steps
    orders = [_zero_blocks(system.n_g, system.n_e, system.n_f,
                           field.frequencies.size)
              for _ in range(order_max + 1)]
    orders[0]["g_ab"][system.indices("g").index(system.initial_index())] = (
        field.coefficients)
    couplings = _build_couplings(system, field, t_start, h, mode_coupling)
    if keep is not None:
        couplings = [c for c in couplings if keep(c.out_key, c.in_key)]
    mid = t_start + h * (np.arange(n_steps) + 0.5)
    ramp = np.clip((mid - (t - switch_off)) / max(switch_off, h), 0.0, 1.0)
    scales = np.cos(0.5 * np.pi * ramp) ** 2
    for n in range(n_steps):
        olds = [{k: v.copy() for k, v in blocks.items()} for blocks in orders]
        for k in range(1, order_max + 1):
            for c in couplings:
                c.apply(orders[k], olds[k - 1], orders[k - 1], scales[n])
        for c in couplings:
            c.advance()
    return orders


def two_e_levels():
    """Ladder with two e and two f levels, and a 12-mode field."""
    system = ExcitonSystem(
        levels=[Level("g0", "g", 0.0), Level("e0", "e", 0.82),
                Level("e1", "e", 0.9), Level("f0", "f", 1.7),
                Level("f1", "f", 1.78)],
        dipoles_ge=[[1.0], [0.6]], dipoles_ef=[[0.8, 0.3], [-0.4, 0.7]],
        dephasing_default=0.0)
    freqs = np.linspace(0.5, 1.3, 12)
    field = DiscretizedField.from_values(
        freqs, _gaussian_pair_values(freqs, freqs, 1.75, 0.16, 0.0, 0.22))
    return system, field


class TestReachableCouplings:
    """`evolve_perturbative` applies, at each order, only the couplings whose
    input block can be nonzero there; every block of every order equals the
    reference loop's bit for bit."""

    @staticmethod
    def assert_same(ket, orders):
        assert len(ket.orders) == len(orders)
        for got, want in zip(ket.orders, orders):
            assert got.keys() == want.keys()
            for key in want:
                assert np.array_equal(got[key], want[key]), key

    @pytest.mark.parametrize("name", ["full"] + sorted(RESTRICTIONS))
    def test_benchmark_kets(self, bench, name):
        keep = RESTRICTIONS.get(name)
        order_max = 2 if name in ("a", "b") else 4
        self.assert_same(bench.evolve(order_max, keep), every_coupling_every_step(
            bench.system, bench.field, bench.t_end, order_max,
            t_start=bench.t_start, n_steps=bench.n_steps, keep=keep))

    def test_switch_off_and_mode_coupling(self, bench):
        kw = dict(t_start=bench.t_start, n_steps=32, switch_off=20.0,
                  mode_coupling=band_taper(bench.field.frequencies, 0.4))
        args = (bench.system, bench.field, bench.t_end)
        self.assert_same(evolve_perturbative(*args, **kw),
                         every_coupling_every_step(*args, **kw))

    @pytest.mark.parametrize("order_max", [0, 3, 5])
    def test_two_e_levels(self, order_max):
        system, field = two_e_levels()
        kw = dict(order_max=order_max, t_start=-30.0, n_steps=24)
        self.assert_same(evolve_perturbative(system, field, 30.0, **kw),
                         every_coupling_every_step(system, field, 30.0, **kw))

    def test_memory_of_one_evolution(self, bench):
        # one three-level full evolution peaks at 0.86 MB (2.07 MB when every
        # block was copied at every step); a step history or operator
        # matrices would not fit
        tracemalloc.start()
        try:
            bench.evolve()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.2e6, peak


class TestNamedErrors:
    """Bad evolution arguments end in a named ValueError before any block
    is allocated."""

    CASES = {
        "no steps": (dict(n_steps=0), "n_steps must be at least 1"),
        "negative steps": (dict(n_steps=-4), "n_steps must be at least 1"),
        "fractional steps": (dict(n_steps=16.5), "n_steps must be an integer"),
        "negative order": (dict(order_max=-1), "order_max must be at least 0"),
        "infinite t": (dict(t=np.inf), "t must be finite"),
        "NaN t": (dict(t=np.nan), "t must be finite"),
        "infinite t_start": (dict(t_start=-np.inf), "t_start must be finite"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_refused_by_name(self, bench, case, monkeypatch):
        def no_blocks(*args):
            raise AssertionError("blocks allocated before the check")

        monkeypatch.setattr(homspec.oracle, "_zero_blocks", no_blocks)
        change, message = self.CASES[case]
        kw = dict(t=bench.t_end, t_start=bench.t_start, n_steps=16)
        kw.update(change)
        with pytest.raises(ValueError, match=message):
            evolve_perturbative(bench.system, bench.field, **kw)


@pytest.mark.parametrize("make", [three_level_benchmark, converged_benchmark])
def test_run_benchmark_evaluates_each_point_as_alone(make, monkeypatch):
    # the pipeline side batches its points; a coarse brute force suffices
    bench = dataclasses.replace(make(), n_steps=8)
    monkeypatch.setattr(homspec.crosscheck, "BENCHMARKS", {"x": lambda: bench})
    result = run_benchmark("x")
    ops = LiouvilleOperatorSet(bench.system)
    args = (bench.s, bench.amplitude, ops, bench.quadrature)
    for k, (tau, T) in enumerate(bench.points):
        value = bench.signal(tau, T, *args, hom=HomSpec(T=T))
        assert result["pipeline"][k] == value, (tau, T)
        if bench.signal is complete_coincidence:
            halves = complete_coincidence_terms(tau, T, *args)
            assert value == float(2.0 * np.real(sum(halves.values())))
        else:
            assert bench.signal is coincidence


class TestConvergedBenchmark:
    """The brute force of "three-level-converged" is a converged reference:
    refining any one setting moves its curve, in criterion 5's own metric,
    by well under the criterion's 1e-2 bound."""

    REFINEMENTS = {
        "modes x1.5": lambda: converged_benchmark(mode_density=1.5),
        "steps x2": lambda: dataclasses.replace(converged_benchmark(),
                                                n_steps=2 * CONVERGED_STEPS),
        # the same 0.5 fs time step over a window that ends 60 fs later
        "window end +60 fs": lambda: dataclasses.replace(
            converged_benchmark(), t_end=CONVERGED_WINDOW[1] + 60.0,
            n_steps=CONVERGED_STEPS + 120),
        "band x4/3": lambda: converged_benchmark(band_scale=4 / 3),
    }

    @pytest.mark.parametrize("refinement", sorted(REFINEMENTS))
    def test_refinement_moves_the_curve_by_under_3e_3(self, refinement,
                                                      converged,
                                                      converged_kets):
        base = brute_force_curve(converged, converged_kets["full"])
        refined = self.REFINEMENTS[refinement]()
        assert (refined.n_modes, refined.n_steps) > (converged.n_modes,
                                                    converged.n_steps)
        assert normalized_deviation(brute_force_curve(refined), base) < 3e-3


def test_converged_amplitude_is_one_transform(monkeypatch):
    # built at its pad factor directly, it equals a second transform of the
    # default-padded amplitude at that pad factor
    calls = []
    real = homspec.biphoton.to_time_domain

    def counted(*args, **kwargs):
        calls.append(kwargs.get("pad_factor"))
        return real(*args, **kwargs)

    monkeypatch.setattr(homspec.biphoton, "to_time_domain", counted)
    amp = converged_benchmark().amplitude
    assert calls == [8]
    assert amp.envelope.shape == (2048, 2048)
    assert np.array_equal(amp.envelope, real(amp, pad_factor=8).envelope)


def test_run_benchmark_defaults_to_the_converged_benchmark(monkeypatch):
    class Reached(Exception):
        pass

    def stub():
        raise Reached

    # any other default name is an unknown benchmark here
    monkeypatch.setattr(homspec.crosscheck, "BENCHMARKS",
                        {"three-level-converged": stub})
    with pytest.raises(Reached):
        homspec.crosscheck.run_benchmark()


class TestAgainstDenseReference:
    def test_low_orders_match_merged_register_reference(self):
        """Independent dense integrator over the explicit product basis.

        The reference merges incident and emitted photons into common modes;
        up to second order no re-absorption can occur, so the two register
        conventions must agree after merging the blocks.
        """
        M = 6
        freqs = np.linspace(0.6, 1.1, M)
        vals = np.exp(-((freqs[:, None] + freqs[None, :] - 1.7) / 0.25) ** 2
                      - ((freqs[:, None] - freqs[None, :]) / 0.3) ** 2)
        field = DiscretizedField.from_values(freqs, vals)
        system = ExcitonSystem(
            levels=[Level("g0", "g", 0.0), Level("e0", "e", 0.85),
                    Level("f0", "f", 1.75)],
            dipoles_ge=[[1.0]], dipoles_ef=[[0.8]], dephasing_default=0.0)

        states = ([("g", "ab", j, k) for j in range(M) for k in range(M)]
                  + [("g", "aa", j, k) for j in range(M) for k in range(j, M)]
                  + [("g", "bb", j, k) for j in range(M) for k in range(j, M)]
                  + [("e", "a", j) for j in range(M)]
                  + [("e", "b", j) for j in range(M)]
                  + [("f", "vac")])
        index = {st: n for n, st in enumerate(states)}
        D = len(states)
        level_energy = {"g": 0.0, "e": 0.85, "f": 1.75}

        def energy(st):
            e = level_energy[st[0]]
            if st[1] in ("ab", "aa", "bb"):
                e += freqs[st[2]] + freqs[st[3]]
            elif st[1] in ("a", "b"):
                e += freqs[st[2]]
            return e

        up = np.zeros((D, D), dtype=complex)
        for j in range(M):
            for k in range(M):
                s_ab = index[("g", "ab", j, k)]
                up[index[("e", "b", k)], s_ab] += 1.0   # absorb a_j
                up[index[("e", "a", j)], s_ab] += 1.0   # absorb b_k
        for j in range(M):
            for k in range(j, M):
                for sect, eblk in (("aa", "a"), ("bb", "b")):
                    s2 = index[("g", sect, j, k)]
                    if j == k:
                        up[index[("e", eblk, j)], s2] += np.sqrt(2.0)
                    else:
                        up[index[("e", eblk, k)], s2] += 1.0
                        up[index[("e", eblk, j)], s2] += 1.0
        for j in range(M):
            up[index[("f", "vac")], index[("e", "a", j)]] += 0.8
            up[index[("f", "vac")], index[("e", "b", j)]] += 0.8
        h_const = up + up.conj().T
        energies = np.array([energy(st) for st in states])
        d_e = np.subtract.outer(energies, energies)

        psi0 = np.zeros(D, dtype=complex)
        for j in range(M):
            for k in range(M):
                psi0[index[("g", "ab", j, k)]] = field.coefficients[j, k]
        t_start, t_end, n_steps = -40.0, 40.0, 6000
        ts = np.linspace(t_start, t_end, n_steps + 1)
        h = ts[1] - ts[0]
        cur = [psi0.copy(), np.zeros(D, complex), np.zeros(D, complex)]
        rhs_prev = [None] * 3
        for n in range(n_steps + 1):
            ht = h_const * np.exp(1j * d_e * ts[n])
            rhs = [None] + [-1j * (ht @ cur[k - 1]) for k in (1, 2)]
            if n > 0:
                for k in (1, 2):
                    cur[k] = cur[k] + h * 0.5 * (rhs_prev[k] + rhs[k])
            rhs_prev = rhs

        ket = evolve_perturbative(system, field, t_end, t_start=t_start,
                                  n_steps=3000, order_max=2)

        # merge the register-resolved order-2 blocks onto the reference basis
        blocks = ket.orders[2]
        merged = np.zeros(D, dtype=complex)
        for j in range(M):
            for k in range(M):
                merged[index[("g", "ab", j, k)]] = (
                    blocks["g_ab"][0, j, k]
                    + blocks["g_a_eb"][0, j, k]      # incident a, emitted b
                    + blocks["g_b_ea"][0, k, j])     # incident b, emitted a
        for j in range(M):
            for k in range(j, M):
                for sect, key, inc_em in ((("aa"), "g_a_ea", None),
                                          (("bb"), "g_b_eb", None)):
                    arr = blocks[key][0]
                    pair = arr[j, k] + arr[k, j]
                    if j == k:
                        merged[index[("g", sect, j, k)]] = np.sqrt(2.0) * arr[j, j]
                    else:
                        merged[index[("g", sect, j, k)]] = pair
        merged[index[("f", "vac")]] = blocks["f_vac"][0]
        ref2 = cur[2]
        scale = np.linalg.norm(ref2)
        assert np.linalg.norm(merged - ref2) < 2e-3 * scale

    def test_order_one_exact_match(self):
        M = 5
        freqs = np.linspace(0.7, 1.0, M)
        vals = np.exp(-((freqs[:, None] + freqs[None, :] - 1.7) / 0.2) ** 2)
        field = DiscretizedField.from_values(freqs, vals)
        system = ExcitonSystem(
            levels=[Level("g0", "g", 0.0), Level("e0", "e", 0.85)],
            dipoles_ge=[[1.0]], dephasing_default=0.0)
        ket_coarse = evolve_perturbative(system, field, 30.0, n_steps=64,
                                         order_max=1)
        ket_fine = evolve_perturbative(system, field, 30.0, n_steps=512,
                                       order_max=1)
        a = ket_coarse.orders[1]["e_a"]
        b = ket_fine.orders[1]["e_a"]
        assert np.max(np.abs(a - b)) < 1e-3 * np.max(np.abs(b))


class TestPathwayEquivalence:
    """The brute force reproduces the exchange-interference row groups.

    Each inner product of opposite arm-restricted second-order states equals
    the corresponding detection-channel row-group sum times the mode-sum
    constant (2 pi / d_omega)^4 and the single bookkeeping factor -i relating
    the raw series to the ledger's propagator convention.
    """

    def test_through_and_reflected_row_groups(self, bench, bench_kets):
        _, ket_a, ket_b = bench_kets
        ops = LiouvilleOperatorSet(bench.system)
        K = (2 * np.pi / bench.field.spacing) ** 4
        q = bench.quadrature
        for tau, T in bench.points:
            hom = HomSpec(T=T)
            amps_a = detection_amplitudes(ket_a, hom, q.t_ref, q.t_ref + tau)
            amps_b = detection_amplitudes(ket_b, hom, q.t_ref, q.t_ref + tau)
            s_i = sum(term_value(TABLE[("I", i)], tau, T, bench.s,
                                 bench.amplitude, ops, q) for i in (1, 2, 3))
            s_ii = sum(term_value(TABLE[("II", i)], tau, T, bench.s,
                                  bench.amplitude, ops, q) for i in (1, 2, 3))
            o_thr = np.vdot(amps_a["through"][2], amps_b["through"][2]) / K
            o_ref = np.vdot(amps_b["reflected"][2], amps_a["reflected"][2]) / K
            assert abs(o_thr - (-1j) * s_i) < 5e-2 * abs(o_thr)
            assert abs(o_ref - (-1j) * s_ii) < 5e-2 * abs(o_ref)

    def test_every_row_group_of_the_complete_signal(self, converged,
                                                    converged_kets):
        """At the converged setting every row group of the complete signal
        stands for its brute-force block: the cross- and same-arm (2,2)
        groups of all four patterns, both pathway-4 absorption orders and
        pathway 5. The blocks also add up to the brute-force total."""
        ops = LiouvilleOperatorSet(converged.system)
        q = converged.quadrature
        K = (2 * np.pi / converged.field.spacing) ** 4
        for tau, T in converged.points:
            blocks = row_group_blocks(converged, tau, T, converged_kets, ops)
            assert len(blocks) == 20
            for group, (brute, ledger) in blocks.items():
                assert abs(brute - ledger) < 5e-2 * abs(brute), (group, tau, T)
            hom = HomSpec(T=T)
            t2, r2 = hom.t_coeff ** 2, hom.r_coeff ** 2
            weights = {"I": t2 * t2, "II": r2 * r2, "III": -t2 * r2,
                       "IV": -t2 * r2}
            brute_sum = 0.0
            for group, (brute, _) in blocks.items():
                det = group.split()[0].split("-")[0]
                # half-blocks enter with their conjugates; same-arm groups
                # are already real totals
                times = 1.0 if "same-arm" in group else 2.0
                brute_sum += weights[det] * times * brute.real
            total = fourth_order_coincidence(converged_kets["full"], hom,
                                             q.t_ref, q.t_ref + tau)
            assert brute_sum == pytest.approx(total / K, rel=1e-9)

    def test_all_left_rows_against_first_principles(self, bench):
        """Direct continuum integrals for the bra-passive sector.

        Independent of both the ledger transcription and the brute force:
        nested time integrals of the explicit phase factors against the
        two-time amplitude, one per interaction ordering class.
        """
        ops = LiouvilleOperatorSet(bench.system)
        amp = bench.amplitude
        q = bench.quadrature
        weg, wfe = 0.85, 0.90
        dge, dfe = 1.0, 0.8
        tau, T, t = 2.5, 2.0, 0.0
        h = 0.05
        u = np.arange(-60.0, 60.0, h)
        U1, U2 = np.meshgrid(u, u, indexing="ij")
        both = amp.time_value(U1, U2) + amp.time_value(U2, U1)
        # both photons absorbed before the first detection
        mask5 = (U1 < U2) & (U2 < t)
        m5 = np.exp(1j * (weg * U1 + wfe * U2 - wfe * t - weg * (t + tau)))
        i5 = (both * m5 * mask5).sum() * h * h * (dge * dfe) ** 2
        # second absorption between the detections; single realization, the
        # amplitude entering with the first absorption on its first slot
        mask4 = (U1 < t) & (U2 > t) & (U2 < t + tau)
        m4 = np.exp(1j * weg * (U1 - t + U2 - (t + tau)))
        i4 = (amp.time_value(U1, U2) * m4 * mask4).sum() * h * h * dge ** 4
        chi0 = complex(amp.time_value(t, t + tau))
        semi5 = np.conj(chi0) * i5
        semi4 = np.conj(chi0) * i4
        v5 = -1j * term_value(TABLE[("I", 5)], tau, T, bench.s, amp, ops, q)
        v4 = -1j * term_value(TABLE[("I", 4)], tau, T, bench.s, amp, ops, q)
        assert abs(v5 - semi5) < 2e-2 * abs(semi5)
        assert abs(v4 - semi4) < 2e-2 * abs(semi4)


class TestDetectionProbability:
    def test_ordering_precondition(self, bench, bench_kets):
        ket, _, _ = bench_kets
        with pytest.raises(ValueError, match="ordered"):
            coincidence_probability(ket, HomSpec(T=1.0), 0.0, 1.0)

    def test_zeroth_order_hom_dip(self, bench):
        # symmetric pair (no delay): coincidences vanish at zero splitter
        # delay and recover at large delay
        center = 0.875
        freqs = np.linspace(center - 0.7, center + 0.7, 32)
        vals = _gaussian_pair_values(freqs, freqs, 2 * center, 0.16, 0.0, 0.22)
        field = DiscretizedField.from_values(freqs, vals)
        system = ExcitonSystem(
            levels=bench.system.levels, dipoles_ge=[[0.0]], dipoles_ef=[[0.0]],
            dephasing_default=0.0)
        ket = evolve_perturbative(system, field, 40.0, n_steps=8)
        t_grid = np.linspace(-25.0, 25.0, 120)

        def rate(T):
            hom = HomSpec(T=T)
            total = 0.0
            for ta in t_grid:
                for dt in np.linspace(0.2, 18.0, 40):
                    total += coincidence_probability(ket, hom, ta, ta - dt,
                                                     order_pairs=[(0, 0)])
            return total

        assert rate(0.0) < 1e-3 * rate(60.0)

    def test_odd_cross_terms_vanish(self, bench_kets):
        ket, _, _ = bench_kets
        hom = HomSpec(T=2.0)
        odd = coincidence_probability(ket, hom, 1.0, 0.0,
                                      order_pairs=[(0, 1), (1, 0), (1, 2),
                                                   (2, 1), (3, 0), (0, 3)])
        assert odd == 0.0

    def test_positive_total_at_weak_coupling(self, bench):
        # at zero splitter delay the four kept detection patterns recombine
        # into a perfect square, so the counting value is non-negative; at
        # finite delay the kept patterns form an interferometric signal that
        # may legitimately swing negative
        system = ExcitonSystem(
            levels=bench.system.levels, dipoles_ge=[[0.001]],
            dipoles_ef=[[0.0008]], dephasing_default=0.0)
        ket = evolve_perturbative(system, bench.field, bench.t_end,
                                  t_start=bench.t_start, n_steps=64)
        for ta in (-3.0, 0.0, 2.0, 5.0):
            for dt in (0.5, 1.5, 4.0):
                p = coincidence_probability(ket, HomSpec(T=0.0), ta, ta - dt)
                assert p >= -1e-12


def test_full_fourth_order_differs_from_ledger_sum(bench, bench_kets):
    """The raw Glauber fourth order contains same-photon scattering terms the
    published pathway table omits; document that the totals differ while the
    exchange row groups match (see TestPathwayEquivalence)."""
    ket, ket_a, ket_b = bench_kets
    ops = LiouvilleOperatorSet(bench.system)
    q = bench.quadrature
    tau, T = 2.5, 2.0
    hom = HomSpec(T=T)
    total = fourth_order_coincidence(ket, hom, q.t_ref, q.t_ref + tau)
    amps_a = detection_amplitudes(ket_a, hom, q.t_ref, q.t_ref + tau)
    amps_b = detection_amplitudes(ket_b, hom, q.t_ref, q.t_ref + tau)
    diag = (exchange_pair_product(amps_a, amps_a, hom)
            + exchange_pair_product(amps_b, amps_b, hom))
    assert abs(diag.real) > 1e-3 * abs(total)
