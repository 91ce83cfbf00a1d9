import numpy as np
import pytest
from scipy import integrate

from zenosim import oracles, preset
from zenosim.models import DriveParams, ReservoirSpec

# reservoir with the golden-rule rate pinned exactly to 0.01
G0_EXACT = float(np.sqrt(0.01 * 0.001 / (2 * np.pi)))


def paper_band(slope=0.0, g0=0.001262):
    return ReservoirSpec(n_modes=1001, half_width=0.5, g0=g0, slope=slope)


def exact_band(slope=0.0):
    return paper_band(slope=slope, g0=G0_EXACT)


class TestMeasurementTime:
    def test_reference_values(self):
        assert oracles.measurement_time(10.0, 1.0) == pytest.approx(5.0)
        assert oracles.measurement_time(10.0, np.sqrt(2)) == pytest.approx(2.5)

    def test_zero_coupling(self):
        with pytest.raises(ZeroDivisionError):
            oracles.measurement_time(10.0, 0.0)


class TestCoherenceFactor:
    def test_limits(self):
        assert oracles.coherence_factor(0.0, 5.0) == 1.0
        assert oracles.coherence_factor(5.0, 5.0) == pytest.approx(np.exp(-1), abs=1e-12)
        assert oracles.coherence_factor(1e4, 5.0) < 1e-300 or \
            oracles.coherence_factor(1e4, 5.0) == 0.0


class TestRabiAmplitude:
    def test_initial(self):
        assert oracles.rabi_amplitude(0.0, DriveParams(0.1, 0.2)) == pytest.approx(1.0)

    def test_resonant_cosine(self):
        d = DriveParams(omega_r=0.3, detuning=0.0)
        for t in (0.5, 2.0, 7.7):
            assert oracles.rabi_amplitude(t, d) == pytest.approx(np.cos(0.15 * t), abs=1e-12)

    def test_detuned_extremes(self):
        d = DriveParams(omega_r=0.1, detuning=0.2)
        om = np.hypot(0.1, 0.2)
        t_half = np.pi / om
        # at half the generalized period the transfer is maximal
        assert abs(oracles.rabi_amplitude(t_half, d)) ** 2 == pytest.approx(0.8, abs=1e-12)
        assert max(
            1 - abs(oracles.rabi_amplitude(t, d)) ** 2
            for t in np.linspace(0, 40, 4001)
        ) == pytest.approx(0.2, abs=1e-4)

    def test_magnitude_bounded(self):
        d = DriveParams(omega_r=0.4, detuning=-0.3)
        assert all(abs(oracles.rabi_amplitude(t, d)) <= 1 + 1e-12
                   for t in np.linspace(0, 20, 100))


class TestZenoTransitionRate:
    def test_resonant_value(self):
        assert oracles.zeno_transition_rate(DriveParams(0.1, 0.0), 5.0).rate == \
            pytest.approx(0.025, abs=1e-15)

    def test_detuned_value(self):
        assert oracles.zeno_transition_rate(DriveParams(0.1, 0.2), 5.0).rate == \
            pytest.approx(0.0125, abs=1e-15)

    def test_freezes_at_short_measurement(self):
        assert oracles.zeno_transition_rate(DriveParams(0.1, 0.0), 1e-9).rate < 1e-10

    def test_maximized_on_resonance(self):
        rates = [oracles.zeno_transition_rate(DriveParams(0.1, d), 5.0).rate
                 for d in np.linspace(-1, 1, 41)]
        assert np.argmax(rates) == 20


class TestRateEquationPopulation:
    def test_limits(self):
        assert oracles.rate_equation_population(0.0, 0.025) == 1.0
        assert oracles.rate_equation_population(1e9, 0.025) == pytest.approx(0.5)
        assert oracles.rate_equation_population(20.0, 0.025) == \
            pytest.approx(0.5 * (1 + np.exp(-1)), abs=1e-12)


class TestGoldenRule:
    def test_paper_value(self):
        assert oracles.golden_rule_rate(paper_band()).rate == \
            pytest.approx(0.010007, abs=1e-6)

    def test_zero_coupling(self):
        assert oracles.golden_rule_rate(paper_band(g0=0.0)).rate == 0.0

    def test_quadratic_scaling(self):
        r1 = oracles.golden_rule_rate(paper_band(g0=0.001)).rate
        r2 = oracles.golden_rule_rate(paper_band(g0=0.002)).rate
        assert r2 == pytest.approx(4 * r1, rel=1e-12)

    def test_slope_does_not_enter(self):
        assert oracles.golden_rule_rate(paper_band(slope=2.0)).rate == \
            oracles.golden_rule_rate(paper_band()).rate


class TestResolvent:
    def test_flat_band_structure(self):
        res = exact_band()
        strength = np.pi * res.density_of_states * res.g0 ** 2
        for z in (0.02, 0.5, 2.0):
            expected = z + strength * (1 - (2 / np.pi) * np.arctan(z / 0.5))
            assert oracles.resolvent(z, res) == pytest.approx(expected, abs=1e-15)

    def test_conjugate_symmetry_flat(self):
        res = exact_band()
        z = 0.013 + 0.007j
        assert oracles.resolvent(np.conj(z), res) == \
            pytest.approx(np.conj(oracles.resolvent(z, res)), abs=1e-15)

    @pytest.mark.parametrize("slope", [0.0, 2.0])
    def test_matches_band_integral(self, slope):
        # independent quadrature of the defining integral, right half-plane
        res = exact_band(slope)

        def integrand(x, part):
            # g(w) at w = omega_a + x: g0 (1 + (slope / half_width) x)
            g = res.g0 * (1.0 + (res.slope / res.half_width) * x)
            val = res.density_of_states * g ** 2 / (z + 1j * x)
            return val.real if part == 0 else val.imag

        for z in (0.01 + 0.003j, 0.2 - 0.05j, 1.5 + 0j):
            re = integrate.quad(integrand, -0.5, 0.5, args=(0,),
                                epsabs=1e-14, epsrel=1e-12, limit=200)[0]
            im = integrate.quad(integrand, -0.5, 0.5, args=(1,),
                                epsabs=1e-14, epsrel=1e-12, limit=200)[0]
            assert oracles.resolvent(z, res) == pytest.approx(z + re + 1j * im, abs=1e-12)

    def test_branch_point_raises(self):
        with pytest.raises(oracles.DomainError):
            oracles.resolvent(0.5j, exact_band())

    @pytest.mark.parametrize("slope,rel", [(0.0, 1e-3), (2.0, 0.01)])
    def test_root_against_series(self, slope, rel):
        res = exact_band(slope)
        rate = oracles.resolvent_decay_rate(res)
        series = oracles.corrected_free_decay_rate(res).rate
        assert rate == pytest.approx(series, rel=rel)

    def test_root_near_half_golden_rate(self):
        root = oracles.resolvent_root(exact_band())
        assert root.real == pytest.approx(-0.005, rel=0.05)


class TestCorrectedFreeRate:
    def test_wide_band_limit(self):
        res = ReservoirSpec(n_modes=1001, half_width=500.0, g0=G0_EXACT * np.sqrt(1000))
        # same golden rate, huge band: correction vanishes
        assert oracles.corrected_free_decay_rate(res).rate == \
            pytest.approx(res.golden_rate(), rel=1e-3)

    def test_sloped_value(self):
        assert oracles.corrected_free_decay_rate(exact_band(2.0)).rate == \
            pytest.approx(0.0087904, abs=2e-6)

    def test_zero_correction_slope(self):
        res = exact_band(1.0 / np.sqrt(5.0))
        assert oracles.corrected_free_decay_rate(res).rate == \
            pytest.approx(res.golden_rate(), rel=1e-12)


class TestMeasuredDecayRate:
    def test_reference_value(self):
        assert oracles.measured_decay_rate(exact_band(), 5.0).rate == \
            pytest.approx(0.00757747, abs=2e-7)

    def test_limits(self):
        res = exact_band()
        assert oracles.measured_decay_rate(res, 1e9).rate == \
            pytest.approx(res.golden_rate(), rel=1e-8)
        assert oracles.measured_decay_rate(res, 1e-9).rate < 1e-10

    def test_monotone_in_measurement_time(self):
        res = exact_band()
        taus = np.logspace(-2, 3, 30)
        rates = [oracles.measured_decay_rate(res, t).rate for t in taus]
        assert np.all(np.diff(rates) > 0)

    def test_requires_flat_band(self):
        with pytest.raises(ValueError):
            oracles.measured_decay_rate(exact_band(2.0), 5.0)


class TestAntiZenoRate:
    def test_reference_value(self):
        assert oracles.anti_zeno_rate(exact_band(2.0), 5.0).rate == \
            pytest.approx(0.0164298, abs=2e-6)

    def test_sign_change_at_unit_slope(self):
        for tau in (2.0, 5.0, 50.0):
            below = oracles.anti_zeno_rate(exact_band(0.5), tau).rate \
                - oracles.corrected_free_decay_rate(exact_band(0.5)).rate
            at = oracles.anti_zeno_rate(exact_band(1.0), tau).rate \
                - oracles.corrected_free_decay_rate(exact_band(1.0)).rate
            above = oracles.anti_zeno_rate(exact_band(2.0), tau).rate \
                - oracles.corrected_free_decay_rate(exact_band(2.0)).rate
            assert below < 0 and above > 0
            assert at == pytest.approx(0.0, abs=1e-15)

    def test_flat_limit_matches_series_to_first_order(self):
        # difference to the large-(half_width*tau_m) series of the flat-band
        # arctan form is exactly the second-order band-correction term
        res = exact_band(0.0)
        tau = 5.0
        anti = oracles.anti_zeno_rate(res, tau).rate
        series = res.golden_rate() * (1.0 - (2.0 / np.pi) / (res.half_width * tau))
        second_order = res.golden_rate() ** 2 / (np.pi * res.half_width)
        assert anti - series == pytest.approx(second_order, rel=1e-9)

    def test_validity_note_for_short_measurement(self):
        assert "marginal" in oracles.anti_zeno_rate(exact_band(2.0), 1.0).validity_note


class TestLorentzianOverlapRate:
    def test_flat_limit_is_arctan_form_plus_band_term(self):
        res = exact_band(0.0)
        second_order = res.golden_rate() ** 2 / (np.pi * res.half_width)
        for tau in (0.5, 5.0, 50.0):
            overlap = oracles.lorentzian_overlap_rate(res, tau).rate
            arctan = oracles.measured_decay_rate(res, tau).rate
            assert overlap == pytest.approx(arctan + second_order, rel=1e-12)

    @pytest.mark.parametrize("slope", [0.5, 2.0])
    def test_first_order_expansion_is_the_series(self, slope):
        # the gap to anti_zeno_rate is of order 1/x^2, so x * gap -> 0
        res = exact_band(slope)
        scaled = []
        for x in (10.0, 100.0, 1000.0):
            tau = x / res.half_width
            gap = oracles.lorentzian_overlap_rate(res, tau).rate \
                - oracles.anti_zeno_rate(res, tau).rate
            scaled.append(abs(x * gap))
            assert scaled[-1] <= 2.0 * slope ** 2 * res.golden_rate() / x
        assert scaled[0] > scaled[1] > scaled[2]

    def test_formula_id(self):
        pred = oracles.lorentzian_overlap_rate(exact_band(2.0), 5.0)
        assert pred.formula_id == "lorentzian_overlap"


class TestLaplaceResidual:
    def test_decoupled_band_is_identity(self):
        res = paper_band(g0=0.0)
        for z in (0.01 + 0j, -0.004 + 0.002j, 0.3 - 0.1j):
            assert oracles.laplace_rate_equation_residual(z, res, 5.0) == \
                pytest.approx(z, abs=1e-15)

    def test_analytic_across_imaginary_axis(self):
        # without the residue continuation the residual would jump by a few
        # 1e-3 across Re z = 0; the continued function varies smoothly
        res = exact_band(2.0)
        eps = 1e-4
        f_plus = oracles.laplace_rate_equation_residual(eps + 0.002j, res, 5.0,
                                                        epsrel=1e-8)
        f_minus = oracles.laplace_rate_equation_residual(-eps + 0.002j, res, 5.0,
                                                         epsrel=1e-8)
        assert abs(f_plus - f_minus) <= 1e-3

    def test_quadrature_failure_raises(self, monkeypatch):
        # an integral whose reported error exceeds the budget is not returned
        def quad(f, lo, hi, **kw):
            return 0.0, 1.0, {}

        monkeypatch.setattr(oracles.integrate, "quad", quad)
        with pytest.raises(oracles.QuadratureFailure, match="above budget"):
            oracles.laplace_rate_equation_residual(0.01, exact_band(), 5.0)

    def test_domain_guard(self):
        with pytest.raises(oracles.DomainError):
            oracles.laplace_rate_equation_residual(-0.3, exact_band(), 5.0)

    def test_flat_root_matches_arctan_form(self):
        res = exact_band()
        rate = oracles.laplace_decay_rate(res, 5.0, epsrel=1e-7)
        assert rate == pytest.approx(oracles.measured_decay_rate(res, 5.0).rate,
                                     rel=0.02)

    def test_shift_invariance(self):
        res_a = ReservoirSpec(n_modes=1001, half_width=0.5, g0=G0_EXACT,
                              slope=2.0, omega_a=1.0)
        res_b = ReservoirSpec(n_modes=1001, half_width=0.5, g0=G0_EXACT,
                              slope=2.0, omega_a=4.2)
        z = -0.003 + 0.001j
        assert oracles.laplace_rate_equation_residual(z, res_a, 5.0, epsrel=1e-7) == \
            oracles.laplace_rate_equation_residual(z, res_b, 5.0, epsrel=1e-7)


def nested_quad_residual(z, res, tau_m, epsrel=1e-9):
    """The residual as it was computed before the closed-form inner integral:
    nested adaptive quadrature, real and imaginary parts apart, and the
    kernel pole that crosses the band for Re z < 0 added as a residue."""
    inv_tau = 1.0 / tau_m
    half = res.half_width
    rho_g2 = res.density_of_states * res.g0 ** 2
    a_over = res.slope / res.half_width

    def cquad(f, points=None):
        kw = dict(epsabs=1e-14, epsrel=epsrel, limit=400, full_output=1)
        if points is not None:
            kw["points"] = sorted({float(p) for p in points if -half < p < half}) or None
        re = integrate.quad(lambda x: f(x).real, -half, half, **kw)[0]
        im = integrate.quad(lambda x: f(x).imag, -half, half, **kw)[0]
        return re + 1j * im

    def G(x):
        return rho_g2 * (1.0 + a_over * x) ** 2

    def bracket(x, xp):
        return 1.0 / (z + 1j * x + inv_tau) + 1.0 / (z - 1j * xp + inv_tau)

    term1 = cquad(lambda x: G(x) * bracket(x, x))
    feature = abs(z.real)

    def inner(x):
        def f(xp):
            b = bracket(x, xp)
            return G(xp) / (z + 1j * (x - xp)) * b * b
        pts = [x - 5 * feature, x, x + 5 * feature] if feature else [x]
        val = cquad(f, points=pts)
        if z.real < 0.0:
            xp_star = x - 1j * z
            b = bracket(x, xp_star)
            val = val + 2.0 * np.pi * G(xp_star) * b * b
        return val

    return z + term1 - cquad(lambda x: G(x) * inner(x))


class TestClosedFormResidual:
    """The closed-form inner integral against the nested quadrature it replaced."""

    @pytest.mark.parametrize("name", ["fig10", "fig12"])
    @pytest.mark.parametrize("z", [0.003 + 0.001j, -0.003 + 0.001j,
                                   -0.006 - 0.0015j, -0.004 + 0.002j])
    def test_matches_nested_quadrature(self, name, z):
        res = preset(name).model.reservoir
        assert abs(oracles.laplace_rate_equation_residual(z, res, 5.0)
                   - nested_quad_residual(z, res, 5.0)) <= 1e-12

    @pytest.mark.parametrize("name,rate", [("fig10", 0.0076065089563016886),
                                           ("fig12", 0.012152453115701354)])
    def test_recorded_roots(self, name, rate):
        res = preset(name).model.reservoir
        assert oracles.laplace_decay_rate(res, 5.0) == pytest.approx(rate, rel=1e-8)

    @pytest.mark.parametrize("x,gap,tol", [(2.5, 0.261, 5e-4), (10.0, 0.023, 5e-4),
                                           (25.0, 0.0010, 5e-5)])
    def test_series_converges_to_the_pole(self, x, gap, tol):
        # |series - pole| / series at half_width * tau_m = x
        res = preset("fig12").model.reservoir
        tau = x / res.half_width
        series = oracles.anti_zeno_rate(res, tau).rate
        pole = oracles.laplace_decay_rate(res, tau)
        assert abs(series - pole) / series == pytest.approx(gap, abs=tol)


class TestRatePredictions:
    def test_formula_ids(self):
        assert oracles.golden_rule_rate(paper_band()).formula_id == "golden_rule"
        assert oracles.measured_decay_rate(exact_band(), 5.0).formula_id == \
            "measured_decay_arctan"

    def test_rates_nonnegative(self):
        for pred in (
            oracles.golden_rule_rate(paper_band()),
            oracles.corrected_free_decay_rate(exact_band(2.0)),
            oracles.measured_decay_rate(exact_band(), 0.3),
            oracles.anti_zeno_rate(exact_band(2.0), 3.0),
            oracles.zeno_transition_rate(DriveParams(0.1, 0.4), 2.0),
        ):
            assert pred.rate >= 0.0
