import logging
import tracemalloc

import numpy as np
import pytest

from conftest import gaussian_amplitude, non_square_gaussian
from homspec import biphoton, crosscheck, quadrature
from homspec.biphoton import (BiphotonAmplitude, CrystalSpec, DeltaAmplitude,
                              FrequencyGrid, GridAxis, GridCoverageError,
                              PumpSpec, build_jsa, default_grid,
                              delta_limit_amplitude, entanglement_time,
                              exchange_phase_factor, export_intensity,
                              from_frequency_values, pair_amplitude_point,
                              to_time_domain)
from homspec.signal import reference_time

PUMP = PumpSpec(omega_p=2.9, sigma_p=0.5)
CRYSTAL = CrystalSpec(omega_a=1.5, omega_b=1.4, T_a=10.0, T_b=-14.0)


@pytest.fixture(scope="module")
def jsa():
    return build_jsa(PUMP, CRYSTAL, 0.0, default_grid(PUMP, CRYSTAL, n=256))


class TestSpecs:
    def test_pump_validation(self):
        with pytest.raises(ValueError):
            PumpSpec(omega_p=2.0, sigma_p=0.0)
        with pytest.raises(ValueError):
            PumpSpec(omega_p=-1.0, sigma_p=0.5)

    def test_degenerate_crystal_rejected(self):
        with pytest.raises(ValueError):
            CrystalSpec(omega_a=1.0, omega_b=1.0, T_a=5.0, T_b=5.0)

    def test_pointwise_value_degenerate_symmetric_sum(self):
        # both phase-matching factors are 1 at the beam centers
        pump = PumpSpec(omega_p=3.0, sigma_p=0.4)
        crystal = CrystalSpec(omega_a=1.5, omega_b=1.5, T_a=50.0, T_b=30.0)
        val = pair_amplitude_point(pump, crystal, 0.0, 1.5, 1.5)
        assert val == pytest.approx(np.sqrt(2.0) * 1.0)

    def test_pointwise_antisymmetric_diagonal_zero(self):
        pump = PumpSpec(omega_p=3.0, sigma_p=0.4)
        crystal = CrystalSpec(omega_a=1.5, omega_b=1.5, T_a=50.0, T_b=30.0)
        assert pair_amplitude_point(pump, crystal, np.pi, 1.55, 1.55) == 0.0

    def test_pointwise_nondegenerate_value(self):
        # independent transcription of the amplitude formula
        pump = PumpSpec(omega_p=2.9, sigma_p=0.3)
        crystal = CrystalSpec(omega_a=1.5, omega_b=1.4, T_a=50.0, T_b=30.0)
        wa, wb = 1.6, 1.2

        def sinc(x):
            return 1.0 if x == 0 else np.sin(x) / x

        envelope = np.exp(-((wa + wb - 2.9) / 0.3) ** 2)
        direct = envelope * sinc((wa - 1.5) * 50.0 + (wb - 1.4) * 30.0)
        swapped = envelope * sinc((wb - 1.5) * 50.0 + (wa - 1.4) * 30.0)
        expected = (direct + swapped) / np.sqrt(2.0)
        got = pair_amplitude_point(pump, crystal, 0.0, wa, wb)
        assert got == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("shift", [0.0, 0.01])
    def test_exchanged_term_on_a_mesh(self, shift):
        # a column and a row of the same frequencies take the exchanged term
        # as the direct one transposed; it must equal the formula bit for
        # bit, and a row of other frequencies must keep the formula
        w = GridAxis(1.45, 0.02, 64).values()
        wa, wb = w[:, None], (w + shift)[None, :]
        direct = PUMP.envelope(wa + wb)
        phi_ab = direct * CRYSTAL.matching(wa, wb)
        phi_ba = direct * CRYSTAL.matching(wb, wa)
        want = (phi_ab + exchange_phase_factor(0.3) * phi_ba) / np.sqrt(2.0)
        got = pair_amplitude_point(PUMP, CRYSTAL, 0.3, wa, wb)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("theta", [0.0, np.pi, -np.pi])
    @pytest.mark.parametrize("shift", [0.0, 0.01])
    def test_real_exchange_factor_is_the_formula_real_part(self, theta,
                                                           shift):
        # a real exchange factor evaluates in float64: its values are the
        # complex formula's real parts bit for bit, its imaginary parts zero,
        # so the normalized JSA is the same bytes either way
        w = GridAxis(1.45, 0.02, 64).values()
        wa, wb = w[:, None], (w + shift)[None, :]
        direct = PUMP.envelope(wa + wb)
        phi_ab = direct * CRYSTAL.matching(wa, wb)
        phi_ba = direct * CRYSTAL.matching(wb, wa)
        want = (phi_ab + exchange_phase_factor(theta) * phi_ba) / np.sqrt(2.0)
        got = pair_amplitude_point(PUMP, CRYSTAL, theta, wa, wb)
        assert got.dtype == np.float64
        assert np.array_equal(got, want.real) and not want.imag.any()
        assert (from_frequency_values(w, w + shift, got).values.tobytes()
                == from_frequency_values(w, w + shift, want).values.tobytes())


class TestBuildJsa:
    def test_normalized_both_domains(self, jsa):
        assert jsa.frequency_norm() == pytest.approx(1.0, abs=1e-9)
        assert jsa.time_norm() == pytest.approx(1.0, abs=1e-6)

    def test_exchange_symmetry_exact(self, jsa):
        assert np.array_equal(jsa.values, jsa.values.T)

    def test_antisymmetric_at_pi(self):
        # longer group delays: the antisymmetric amplitude has fatter
        # spectral tails and needs them to decay inside a 256-point span
        crystal = CrystalSpec(omega_a=1.5, omega_b=1.4, T_a=25.0, T_b=-35.0)
        amp = build_jsa(PUMP, crystal, np.pi,
                        default_grid(PUMP, crystal, n=256, theta=np.pi))
        assert np.array_equal(amp.values, -amp.values.T)
        assert np.all(np.diag(amp.values) == 0)

    @pytest.mark.parametrize("n", [256, 255])
    def test_values_are_the_amplitude_on_the_grid(self, n):
        # the coverage reference is evaluated on the doubled lattice and the
        # JSA taken from its centre block: it must equal the amplitude
        # evaluated on the grid's own frequencies bit for bit
        grid = default_grid(PUMP, CRYSTAL, n=n)
        amp = build_jsa(PUMP, CRYSTAL, 0.3, grid)
        wa, wb = grid.axis_a.values(), grid.axis_b.values()
        raw = pair_amplitude_point(PUMP, CRYSTAL, 0.3, wa[:, None],
                                   wb[None, :])
        direct = from_frequency_values(wa, wb, raw, theta=0.3)
        assert np.array_equal(amp.omega_a, wa)
        assert np.array_equal(amp.values, direct.values)

    def test_coverage_refusal(self):
        tiny = GridAxis(1.45, 0.01, 16)
        with pytest.raises(GridCoverageError):
            build_jsa(PUMP, CRYSTAL, 0.0, FrequencyGrid(tiny, tiny))

    def test_default_grid_reports_needed_size(self):
        crystal = CrystalSpec(omega_a=1.5, omega_b=1.4, T_a=30.0, T_b=50.0)
        pump = PumpSpec(omega_p=2.9, sigma_p=0.3)
        with pytest.raises(GridCoverageError, match="increase the grid"):
            default_grid(pump, crystal, n=256)


class TestTimeDomain:
    def test_shift_property_exact_on_lattice(self, jsa):
        k = 16
        shifted = to_time_domain(jsa, s=k * jsa.dt1)
        assert np.max(np.abs(shifted.time_values[k:] - jsa.time_values[:-k])) < 1e-9

    def test_delay_arm_b(self, jsa):
        k = 8
        shifted = to_time_domain(
            BiphotonAmplitude(theta=jsa.theta, s=0.0, delay_arm="b",
                              omega_a=jsa.omega_a, omega_b=jsa.omega_b,
                              values=jsa.values), s=k * jsa.dt2)
        base = to_time_domain(
            BiphotonAmplitude(theta=jsa.theta, s=0.0, delay_arm="b",
                              omega_a=jsa.omega_a, omega_b=jsa.omega_b,
                              values=jsa.values))
        assert np.max(np.abs(shifted.time_values[:, k:]
                             - base.time_values[:, :-k])) < 1e-9

    def test_gaussian_transform_closed_form(self):
        # separable Gaussian: per-axis transform (sig/sqrt2) e^{-ict-sig^2t^2/4}
        c, sig = 1.0, 0.4
        w = np.linspace(c - 2.0, c + 2.0, 128)
        wa, wb = w[:, None], w[None, :]
        amp = from_frequency_values(w, w, np.exp(-((wa - c) / sig) ** 2
                                                 - ((wb - c) / sig) ** 2))
        t1, t2 = amp.t1[:, None], amp.t2[None, :]
        ana = (sig / np.sqrt(2.0)) ** 2 * np.exp(-1j * c * (t1 + t2)) \
            * np.exp(-sig ** 2 * (t1 ** 2 + t2 ** 2) / 4.0)
        ana /= np.sqrt(np.sum(np.abs(ana) ** 2) * amp.dt1 * amp.dt2)
        err = np.max(np.abs(ana - amp.time_values)) / np.max(np.abs(ana))
        assert err < 1e-6

    def test_interpolation_exact_on_nodes(self, jsa):
        vals = jsa.time_value(jsa.t1[100], jsa.t2[200])
        assert abs(vals - jsa.time_values[100, 200]) < 1e-12

    @pytest.mark.parametrize("case", ["golden", "scan", "oracle"])
    def test_support_box_from_the_envelope(self, case):
        # |E| and |Phi| differ by rounding, which could move a node across
        # the 1e-6 threshold; on the benchmark amplitudes it does not (the
        # README example builds the golden amplitude: same pump, crystal,
        # theta, n and s)
        amp = {"golden": lambda: golden_setup()[0],
               "scan": lambda: gaussian_amplitude(
                   center=0.4, sigma_sum=0.3, sigma_diff=0.5, n=128,
                   half_span=1.6, s=3.0),
               "oracle": lambda: crosscheck.three_level_benchmark().amplitude,
               }[case]()
        mag = np.abs(amp.time_values)
        keep = mag > 1e-6 * mag.max()
        rows, cols = np.flatnonzero(keep.any(axis=1)), np.flatnonzero(
            keep.any(axis=0))
        assert amp.time_support() == (amp.t1[rows[0]], amp.t1[rows[-1]],
                                      amp.t2[cols[0]], amp.t2[cols[-1]])

    def test_support_scan_forms_no_full_lattice(self):
        # the scan of a 1024^2 envelope (16 MB) runs in row blocks inside the
        # transform; |E| of the whole lattice would take 8 MB more than the
        # envelope and the first pass's (1024, 256) array
        amp = crosscheck.three_level_benchmark().amplitude
        tracemalloc.start()
        try:
            out = to_time_domain(amp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.envelope.shape == (1024, 1024)
        first_pass = out.envelope.shape[0] * amp.values.shape[1] * 16
        assert peak < out.envelope.nbytes + first_pass + 2e6, peak

    def test_logs_the_lattice_it_built(self, jsa, caplog):
        with caplog.at_level(logging.DEBUG, logger="homspec.biphoton"):
            amp = to_time_domain(jsa)
        (record,) = [r for r in caplog.records if r.name == "homspec.biphoton"]
        msg = record.getMessage()
        t1_lo, t1_hi, t2_lo, t2_hi = amp.time_support()
        assert "two-time lattice: 1024x1024, pad factor 4" in msg
        assert f"t1 [{t1_lo:.6g}, {t1_hi:.6g}] t2 [{t2_lo:.6g}, {t2_hi:.6g}]" in msg
        assert f"time norm {amp.time_norm():.12f}" in msg
        assert 0.0 <= float(msg.split("boundary mass ")[1]) <= 1e-4

    def test_interpolation_accurate_between_nodes(self):
        amp = gaussian_amplitude()
        mid = amp.t1.size // 2
        xn, yn = amp.t1[mid + 3], amp.t2[mid - 2]
        x = xn + 0.37 * amp.dt1
        y = yn + 0.61 * amp.dt2
        # analytic reference for the correlated Gaussian used by the fixture
        c, sp, sm = 1.0, 0.3, 0.5

        def analytic(t1, t2):
            return np.exp(-sp ** 2 * (t1 + t2) ** 2 / 16.0
                          - sm ** 2 * (t1 - t2) ** 2 / 16.0
                          - 1j * c * (t1 + t2))

        scale = analytic(x, y) / amp.time_value(x, y)
        scale_n = analytic(xn, yn) / amp.time_value(xn, yn)
        # envelope-curvature-limited; the raw-carrier interpolation this
        # guards against is wrong by order one
        assert abs(scale / scale_n - 1.0) < 2e-3

    def test_alias_guard(self):
        w = np.linspace(0.0, 1.0, 32)
        rng = np.random.default_rng(0)
        vals = rng.normal(size=(32, 32))
        with pytest.raises(GridCoverageError, match="wraps"):
            from_frequency_values(w, w, vals)


def padded_fft2(amp, s, pad):
    """The two-time cache by its definition: the phased frequency block
    zero-padded to (pad na, pad nb), one `np.fft.fft2`, and the unitary
    scale with the per-axis phases that map FFT bins onto the centred time
    lattice."""
    vals = amp.values
    if amp.delay_arm == "a":
        vals = vals * np.exp(1j * amp.omega_a * s)[:, None]
    else:
        vals = vals * np.exp(1j * amp.omega_b * s)[None, :]
    na, nb = vals.shape

    def phases(omega, n_pad):
        c, dw = n_pad // 2, omega[1] - omega[0]
        t = (np.arange(n_pad) - c) * 2.0 * np.pi / (n_pad * dw)
        return (np.exp(2j * np.pi * np.arange(omega.size) * c / n_pad),
                np.exp(-1j * omega[0] * t))

    pre_a, post_a = phases(amp.omega_a, pad * na)
    pre_b, post_b = phases(amp.omega_b, pad * nb)
    work = np.zeros((pad * na, pad * nb), complex)
    work[:na, :nb] = vals * pre_a[:, None] * pre_b[None, :]
    scale = amp.d_omega_a * amp.d_omega_b / (2.0 * np.pi)
    return scale * np.fft.fft2(work) * post_a[:, None] * post_b[None, :]


class TestTransformMatchesPaddedFft2:
    @pytest.mark.parametrize("case, s, pad, default_pad", [
        ("golden", 0.0, None, 4),
        ("gauss128", 0.0, None, 8),
        ("non_square", 2.0, None, 8),
        ("golden", 0.0, 1, 1),
        ("gauss128_arm_b", 3.0, None, 8),
    ])
    def test_time_values(self, jsa, case, s, pad, default_pad):
        amp = {"golden": lambda: jsa,
               "gauss128": lambda: gaussian_amplitude(n=128),
               "non_square": non_square_gaussian,
               "gauss128_arm_b": lambda: gaussian_amplitude(
                   n=128, delay_arm="b")}[case]()
        got = to_time_domain(amp, s=s, pad_factor=pad)
        want = padded_fft2(amp, s, default_pad)
        assert got.time_values.shape == want.shape
        err = np.max(np.abs(got.time_values - want))
        assert err <= 1e-14 * np.max(np.abs(want))


def mesh_centroid(amp):
    """Mean of (t1 + t2) / 2 under |Phi|^2, on the full mesh."""
    w = np.abs(amp.time_values) ** 2
    mid = 0.5 * (amp.t1[:, None] + amp.t2[None, :])
    return float((w * mid).sum() / w.sum())


def golden_setup():
    grid = default_grid(PUMP, CRYSTAL, n=256)
    amp = build_jsa(PUMP, CRYSTAL, 0.0, grid, s=15.0)
    return amp, reference_time(amp)


class TestGridSizeBudget:
    @pytest.mark.parametrize("n, theta, ok", [
        (4096, 0.0, True), (4097, 0.0, False), (4096, np.pi, True),
        (2896, 0.3, True), (2897, 0.3, False)])
    def test_largest_set_up_lattice_against_the_budget(self, n, theta, ok):
        # the doubled coverage lattice: 4 n^2 values, float64 for a real
        # exchange factor, complex128 else; the envelope is smaller above
        # n = 1024 (pad 1) and at most 2^24 values below it
        if ok:
            biphoton.check_grid_size(n, theta)
        else:
            with pytest.raises(ValueError, match=rf"^a {n}-sample grid plans "
                               r".* GiB lattice, above the 512 MiB budget"):
                biphoton.check_grid_size(n, theta)

    def test_default_grid_refuses_before_allocating(self, monkeypatch):
        monkeypatch.setattr(biphoton, "pair_amplitude_point", None)
        with pytest.raises(ValueError, match="100000-sample grid plans a 298 "
                                             "GiB lattice"):
            default_grid(PUMP, CRYSTAL, n=100000)


class TestSetUp:
    def test_doubled_lattice_is_evaluated_once_per_grid(self, monkeypatch):
        # the first span is refused, the second accepted; build_jsa on the
        # accepted grid reuses its coverage evaluation (whatever an earlier
        # call left cached, the refused span evaluates afresh)
        sizes = []
        real = biphoton.pair_amplitude_point

        def counted(*args):
            out = real(*args)
            sizes.append(np.size(out))
            return out

        monkeypatch.setattr(biphoton, "pair_amplitude_point", counted)
        golden_setup()
        assert sizes.count(512 * 512) == 2

    def test_coverage_block_is_read_only(self):
        grid = default_grid(PUMP, CRYSTAL, n=256)
        _, block = biphoton._coverage(PUMP, CRYSTAL, 0.0, grid)
        assert not block.flags.writeable
        with pytest.raises(ValueError):
            block[0, 0] = 0.0

    def test_golden_setup_memory_peak(self):
        tracemalloc.start()
        try:
            golden_setup()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 30e6

    @pytest.mark.parametrize("case", ["golden", "gauss_delayed"])
    def test_reference_time_is_the_mesh_centroid(self, case):
        amp = (golden_setup()[0] if case == "golden"
               else gaussian_amplitude(n=128, s=3.0))
        want = mesh_centroid(amp)
        assert abs(reference_time(amp) - want) <= 1e-13 * abs(want)
        assert reference_time(amp, 2.5) == reference_time(amp) + 2.5

    @pytest.mark.parametrize("case", ["golden", "gauss_delayed"])
    def test_reference_time_is_the_full_lattice_marginal_formula(self, case):
        # the blocked scan's marginals add in the order of w.sum(axis=0) and
        # w.sum(axis=1) on the whole lattice, so the value is the same bits
        amp = (golden_setup()[0] if case == "golden"
               else gaussian_amplitude(n=128, s=3.0))
        w = np.abs(amp.envelope)
        w *= w
        rows, cols = w.sum(axis=1), w.sum(axis=0)
        want = float(0.5 * (amp.t1 @ rows + amp.t2 @ cols) / rows.sum())
        assert reference_time(amp) == want
        assert np.array_equal(amp._scan.rows, rows)
        assert np.array_equal(amp._scan.cols, cols)

    def test_default_grid_logs_its_choice(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="homspec.biphoton"):
            grid = default_grid(PUMP, CRYSTAL, n=256)
        (record,) = [r for r in caplog.records if r.name == "homspec.biphoton"]
        msg = record.getMessage()
        spacing = grid.axis_a.spacing
        assert f"spacing={spacing:.6g}" in msg
        assert f"half-span={spacing * 256 / 2:.6g}" in msg
        assert "after 1 span doublings" in msg
        coverage = float(msg.split("coverage=")[1].split()[0])
        assert 1.0 - biphoton.COVERAGE_TOLERANCE <= coverage <= 1.0


class TestDeltaLimit:
    def test_on_support_value(self):
        assert delta_limit_amplitude(5.0, 5.0, 0.0, 0.5) == pytest.approx(2.0)

    def test_off_support(self):
        assert delta_limit_amplitude(5.0, 0.0, 2.0, 0.5) == 0.0

    def test_riemann_mass(self):
        u = np.arange(-40.0, 40.0, 0.5)
        total = delta_limit_amplitude(u, 0.0, 2.0, 0.5).sum() * 0.5
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_value_one_convention(self):
        assert delta_limit_amplitude(1.0, 1.0, 0.0, 0.5,
                                     convention="value_one") == 1.0

    def test_symmetric_only_without_delay(self):
        d0 = DeltaAmplitude(s=0.0, spacing=0.5)
        assert d0.time_value(1.2, 1.3) == d0.time_value(1.3, 1.2)
        d1 = DeltaAmplitude(s=2.0, spacing=0.5)
        assert d1.time_value(3.0, 1.0) != d1.time_value(1.0, 3.0)


class TestEntanglementTime:
    def test_delta_limit_width_is_lattice_limited(self):
        # the discrete delta placed on a lattice has no intrinsic width
        from types import SimpleNamespace

        t = np.arange(-20.0, 20.0, 0.5)
        vals = delta_limit_amplitude(t[:, None], t[None, :], 0.0, 0.5)
        amp = SimpleNamespace(t1=t, t2=t, envelope=vals)
        assert entanglement_time(amp) <= 0.5

    def test_gaussian_moment(self):
        amp = gaussian_amplitude(sigma_diff=0.5)
        # anti-diagonal RMS width of the correlated Gaussian is 2/sigma_diff
        assert entanglement_time(amp) == pytest.approx(2.0 / 0.5, rel=1e-6)

    def test_equals_the_mesh_formula(self):
        # unequal t1 and t2 lattices and carriers, and a delay
        amp = non_square_gaussian(s=3.0)
        w = np.abs(amp.time_values) ** 2
        u = amp.t1[:, None] - amp.t2[None, :]
        mean = (w * u).sum() / w.sum()
        want = np.sqrt((w * (u - mean) ** 2).sum() / w.sum())
        assert entanglement_time(amp) == pytest.approx(want, rel=1e-12, abs=0)

    def test_forms_no_lattice_beyond_the_weights(self):
        amp = gaussian_amplitude()
        lattice = amp.envelope.real.nbytes  # |Phi|^2 on the whole lattice
        tracemalloc.start()
        try:
            entanglement_time(amp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * lattice, (peak, lattice)

    def test_width_scales_with_group_delays(self):
        pump = PumpSpec(omega_p=2.9, sigma_p=0.5)
        c1 = CrystalSpec(omega_a=1.5, omega_b=1.4, T_a=5.0, T_b=-7.0)
        c2 = CrystalSpec(omega_a=1.5, omega_b=1.4, T_a=10.0, T_b=-14.0)
        a1 = build_jsa(pump, c1, 0.0, default_grid(pump, c1, n=256))
        a2 = build_jsa(pump, c2, 0.0, default_grid(pump, c2, n=256))
        ratio = entanglement_time(a2) / entanglement_time(a1)
        assert ratio == pytest.approx(2.0, rel=0.15)


def test_export_intensity(tmp_path, jsa):
    path = tmp_path / "jsi.dat"
    export_intensity(jsa, path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("#")
    data = np.loadtxt(path)
    assert data.shape == jsa.values.shape
    assert np.allclose(data, np.abs(jsa.values) ** 2, atol=1e-10)


class TestShearedContraction:
    """A sheared `LatticeFactor` interpolates only the window columns whose
    stencil lies on the lattice; its contraction must still equal the
    formed matrix when a window's columns run off the lattice at both
    ends."""

    @pytest.mark.parametrize("bracket", [False, True])
    def test_dead_columns_at_both_ends_of_a_window(self, bracket):
        # a random envelope on a small square lattice: every node counts
        rng = np.random.default_rng(2)
        t = np.arange(40) * 0.5 - 10.0
        amp = BiphotonAmplitude(
            theta=0.0, s=0.0, delay_arm="a", omega_a=np.arange(4.0),
            omega_b=np.arange(4.0), values=np.ones((4, 4)), t1=t, t2=t,
            envelope=rng.normal(size=(40, 40)) + 1j * rng.normal(size=(40, 40)),
            _carrier=(0.3, 0.3))
        rows = np.linspace(-6.1, 6.3, 20)
        # 20 mesh rows make one block; its window spans every column, and
        # the columns leave the lattice on both sides
        cols = np.arange(t[0] - 3.1, t[-1] + 3.0, 0.37)
        lf = quadrature._lattice_factor(amp, rows, cols, True, False, bracket,
                                        amp._stencil)
        live = np.flatnonzero(lf.parts[0][2][1])
        assert live[0] > 5 and live[-1] < cols.size - 6
        A = rng.normal(size=(rows.size, 2)) + 1j * rng.normal(size=(rows.size, 2))
        B = rng.normal(size=(lf.shape[1], 2)) + 1j * rng.normal(size=(lf.shape[1], 2))
        dense = np.asarray(lf)
        # the first row's window starts, and the last one's ends, off it
        assert not dense[0, :5].any() and not dense[-1, -5:].any()
        scale = (np.abs(A) * (np.abs(dense) @ np.abs(B))).sum()
        assert abs(lf.contract_terms(A, B).sum()
                   - (A * (dense @ B)).sum()) <= 1e-13 * scale
