"""Closed-form and semi-analytic rate predictions used as ground truth.

Conventions: rates returned here describe exponential decay of populations
(|amplitude|^2 quantities), except where a function documents otherwise.
``tau_m = gamma / (2 lam^2)`` is the characteristic time the detector needs
to destroy the monitored system's coherence; it is the single parameter all
measurement-modified rates depend on.

scipy is loaded only when a Laplace-pole oracle (``laplace_decay_rate``,
``laplace_rate_equation_residual``) first integrates: a process that never
calls them does not import ``scipy.integrate``.
"""

from __future__ import annotations

import cmath
import importlib
import warnings
from dataclasses import dataclass

import numpy as np

from .models import DriveParams, ReservoirSpec


class _LazyModule:
    """Stands in for the module ``name`` and imports it on first attribute
    access.  The functions below look ``integrate.quad`` up at call time, so
    a stand-in swapped onto this module's ``integrate`` receives the calls.
    """

    def __init__(self, name: str):
        self._name = name

    def __getattr__(self, attr):
        return getattr(importlib.import_module(self._name), attr)


integrate = _LazyModule("scipy.integrate")


class DomainError(ValueError):
    """Evaluation requested at or beyond a branch point."""


class QuadratureFailure(RuntimeError):
    """Adaptive quadrature could not reach the requested tolerance."""


@dataclass(frozen=True)
class RatePrediction:
    rate: float
    formula_id: str
    validity_note: str = ""


def measurement_time(gamma: float, lam: float) -> float:
    """Characteristic measurement duration gamma / (2 lam^2)."""
    if lam < 0:
        raise ValueError(f"lam must be >= 0, got {lam}")
    if lam == 0:
        raise ZeroDivisionError("measurement never completes for lam = 0")
    if gamma <= 0:
        raise ValueError("gamma must be > 0")
    return gamma / (2.0 * lam * lam)


def coherence_factor(t: float, tau_m: float) -> float:
    """Surviving fraction of the monitored system's coherence, exp(-t/tau_m)."""
    if t < 0:
        raise ValueError("t must be >= 0")
    if tau_m <= 0:
        raise ValueError("tau_m must be > 0")
    return float(np.exp(-t / tau_m))


def rabi_amplitude(t: float, drive: DriveParams) -> complex:
    """Ground-level amplitude of the free driven system starting in |g>."""
    if t < 0:
        raise ValueError("t must be >= 0")
    om = np.hypot(drive.detuning, drive.omega_r)
    if om == 0.0:
        return 1.0 + 0j
    half = 0.5 * t
    osc = np.cos(half * om) + 1j * (drive.detuning / om) * np.sin(half * om)
    return complex(np.exp(-0.5j * t * drive.detuning) * osc)


def zeno_transition_rate(drive: DriveParams, tau_m: float) -> RatePrediction:
    """Level-flip rate of the frequently measured driven system.

    (omega_r^2 / 2) * tau_m / (1 + (tau_m * detuning)^2); the relaxation
    rate of the population difference is twice this.
    """
    if tau_m <= 0:
        raise ValueError("tau_m must be > 0")
    rate = 0.5 * drive.omega_r ** 2 * tau_m / (1.0 + (tau_m * drive.detuning) ** 2)
    return RatePrediction(rate, "zeno_two_level",
                          "rate approximation; needs tau_m << 1/omega_r")


def rate_equation_population(t: float, rate: float) -> float:
    """Ground-level population under symmetric flip rates, starting in |g>."""
    if t < 0:
        raise ValueError("t must be >= 0")
    if rate < 0:
        raise ValueError("rate must be >= 0")
    return 0.5 * (1.0 + np.exp(-2.0 * rate * t))


def golden_rule_rate(res: ReservoirSpec) -> RatePrediction:
    """Lowest-order decay rate 2 pi rho0 |g(omega_a)|^2 = 2 pi g0^2 / spacing."""
    return RatePrediction(res.golden_rate(), "golden_rule",
                          "flat-band lowest order; slope does not enter")


def resolvent(z: complex, res: ReservoirSpec) -> complex:
    """Laplace-domain resolvent of the free decaying amplitude.

    Closed form for the linear coupling profile; analytic continuation of
    the band integral through Re z = 0, so its zero near
    z = -golden_rate/2 is the physical amplitude pole.  Branch points sit
    at z = +/- i half_width.
    """
    lam_b = res.half_width
    z = complex(z)
    for bp in (1j * lam_b, -1j * lam_b):
        if abs(z - bp) < 1e-12 * max(1.0, lam_b):
            raise DomainError(f"resolvent branch point at z = {bp}")
    a = res.slope
    zl = z / lam_b
    at = np.arctan(zl)
    strength = np.pi * res.density_of_states * res.g0 ** 2
    core = 1.0 - (2.0 / np.pi) * at
    slope_part = (a * a * zl - 2j * a) * ((2.0 / np.pi) - zl + (2.0 / np.pi) * zl * at)
    return z + strength * (core + slope_part)


def resolvent_root(res: ReservoirSpec, z0: complex | None = None,
                   tol: float = 1e-12) -> complex:
    """Newton zero of the resolvent, seeded at -golden_rate/2."""
    if z0 is None:
        z0 = -0.5 * res.golden_rate()
    return _newton(lambda z: resolvent(z, res), complex(z0), tol=tol)


def resolvent_decay_rate(res: ReservoirSpec) -> float:
    """Population decay rate from the resolvent zero, -2 Re z*."""
    return -2.0 * resolvent_root(res).real


def corrected_free_decay_rate(res: ReservoirSpec) -> RatePrediction:
    """First-order band correction to the golden-rule rate.

    gamma0 * (1 - gamma0 / (pi half_width) * (5 a^2 - 1)).
    """
    g0rate = res.golden_rate()
    small = g0rate / (np.pi * res.half_width)
    rate = g0rate * (1.0 - small * (5.0 * res.slope ** 2 - 1.0))
    note = "" if small < 0.1 else f"expansion parameter {small:.3g} not small"
    return RatePrediction(rate, "corrected_free", note)


def measured_decay_rate(res: ReservoirSpec, tau_m: float) -> RatePrediction:
    """Measurement-slowed decay rate, gamma0 * (2/pi) * arctan(half_width * tau_m).

    Valid for a flat coupling profile (slope = 0); monotone in tau_m and
    approaching the golden-rule rate as tau_m grows.
    """
    if tau_m <= 0:
        raise ValueError("tau_m must be > 0")
    if res.slope != 0.0:
        raise ValueError("measured_decay_rate requires a flat coupling (slope = 0)")
    rate = res.golden_rate() * (2.0 / np.pi) * np.arctan(res.half_width * tau_m)
    return RatePrediction(rate, "measured_decay_arctan", "")


def anti_zeno_rate(res: ReservoirSpec, tau_m: float) -> RatePrediction:
    """Measurement-modified decay rate for the sloped coupling profile.

    corrected_free_decay_rate plus gamma0 * (2/pi) (a^2 - 1)/(half_width
    tau_m): exceeds the free rate for a > 1, equals it at a = 1, falls
    below it for a < 1.
    """
    if tau_m <= 0:
        raise ValueError("tau_m must be > 0")
    g0rate = res.golden_rate()
    x = res.half_width * tau_m
    base = corrected_free_decay_rate(res).rate
    rate = base + g0rate * (2.0 / np.pi) * (res.slope ** 2 - 1.0) / x
    note = "" if x >= 2.0 else f"half_width*tau_m = {x:.3g} < 2; series marginal"
    return RatePrediction(rate, "anti_zeno_decay", note)


def lorentzian_overlap_rate(res: ReservoirSpec, tau_m: float) -> RatePrediction:
    """Measurement-modified decay rate as the unexpanded line-shape overlap.

    The overlap 2 pi * integral of G(w) F(w) over the band, of the coupling
    density G(w) = rho0 g(w)^2 with the measurement-broadened Lorentzian
    F of half-width 1/tau_m (Kofman & Kurizki, Nature 405, 546, 2000), is
    gamma0 * (2/pi) * (arctan(x) (1 - a^2/x^2) + a^2/x) with x =
    half_width * tau_m.  The second-order band term of
    corrected_free_decay_rate is added, so the result is

        corrected_free_decay_rate + gamma0 * ((2/pi)(arctan(x)(1 - a^2/x^2) + a^2/x) - 1).

    Its expansion to first order in 1/x is anti_zeno_rate; at a = 0 it is
    measured_decay_rate + gamma0^2 / (pi half_width).
    """
    if tau_m <= 0:
        raise ValueError("tau_m must be > 0")
    g0rate = res.golden_rate()
    x = res.half_width * tau_m
    a2 = res.slope ** 2
    overlap = (2.0 / np.pi) * (np.arctan(x) * (1.0 - a2 / x ** 2) + a2 / x)
    rate = corrected_free_decay_rate(res).rate + g0rate * (overlap - 1.0)
    return RatePrediction(rate, "lorentzian_overlap", "")


# ---------------------------------------------------------------------------
# Laplace-domain rate equation for the measured decaying system


def _complex_quad(f, lo, hi, epsrel):
    kw = dict(epsabs=1e-14, epsrel=epsrel, limit=400, full_output=1)
    re, re_err, *_ = integrate.quad(lambda x: f(x).real, lo, hi, **kw)
    im, im_err, *_ = integrate.quad(lambda x: f(x).imag, lo, hi, **kw)
    val = re + 1j * im
    budget = max(1e-9, 100.0 * epsrel * max(abs(val), 1e-2))
    if max(re_err, im_err) > budget:
        raise QuadratureFailure(
            f"quadrature error {max(re_err, im_err):.2g} above budget {budget:.2g} "
            f"on [{lo}, {hi}]"
        )
    return val


def laplace_rate_equation_residual(z: complex, res: ReservoirSpec, tau_m: float,
                                   epsrel: float = 1e-9) -> complex:
    """Inverse Laplace transform denominator of the measured excited population.

    The population's pole is the zero of this residual; its negative real
    part is the decay rate.  Integrals run over the band in the detuning
    variable (so the result cannot depend on the absolute system
    frequency).  With the band weight G(x) = rho0 g(x)^2 and c = 1/tau_m,

        R(z) = z + int dx G(x) [b(x, x) - int dx' G(x') b(x, x')^2 / (z + i(x - x'))],
        b(x, x') = 1/(z + c + i x) + 1/(z + c - i x').

    The inner x' integral is done in closed form.  In x' the kernel has a
    simple pole at p1 = x - i z and the bracket a double pole at
    p2 = -i (z + c); partial fractions over them (|p1 - p2| >= c, so never
    degenerate) leave int G/(x' - p) and int G/(x' - p)^2, which for the
    quadratic G are polynomials in p plus G(p) times the log

        L(p) = log(h - p) - log(h + p) - i pi,   h = half_width.

    L equals the band integral of 1/(x' - p) for Im p < 0, which covers
    every p for Re z > 0, and it is analytic across the band segment.  So
    for Re z < 0, where the kernel pole p1 has crossed the band, the
    residual is the analytic continuation of the Re z > 0 Laplace data,
    where the physical pole lives, with no residue term to add by hand.
    Only the outer x integral is numeric.
    """
    if tau_m <= 0:
        raise ValueError("tau_m must be > 0")
    z = complex(z)
    inv_tau = 1.0 / tau_m
    if z.real <= -inv_tau:
        raise DomainError("residual is defined for Re z > -1/tau_m")
    half = res.half_width
    rho_g2 = res.density_of_states * res.g0 ** 2
    a_over = res.slope / res.half_width
    curv = rho_g2 * a_over * a_over   # G''/2

    def G(x):
        # band density times |coupling|^2 at detuning x = w - omega_a
        return rho_g2 * (1.0 + a_over * x) ** 2

    def G1(x):
        return 2.0 * rho_g2 * a_over * (1.0 + a_over * x)

    def L(p):
        return cmath.log(half - p) - cmath.log(half + p) - 1j * np.pi

    def I1(p):
        # int G(x')/(x' - p) dx' over the band, by G's Taylor expansion at p
        return G(p) * L(p) + 2.0 * half * (G1(p) - curv * p)

    p2 = -1j * (z + inv_tau)
    I1_p2 = I1(p2)
    # int G(x')/(x' - p2)^2 dx', likewise
    I2_p2 = G1(p2) * L(p2) + 2.0 * half * (curv - G(p2) / (half * half - p2 * p2))

    def integrand(x):
        a = 1.0 / (z + inv_tau + 1j * x)
        p1 = x - 1j * z
        d = x + 1j * inv_tau        # p1 - p2
        i1 = I1(p1)
        diff = (i1 - I1_p2) / d
        # i/(x'-p1) * (a + i/(x'-p2))^2 in partial fractions, integrated
        inner = 1j * (a * a * i1 + 2j * a * diff - (diff - I2_p2) / d)
        return G(x) * (a + 1.0 / (z + inv_tau - 1j * x) - inner)

    return z + _complex_quad(integrand, -half, half, epsrel)


def laplace_decay_rate(res: ReservoirSpec, tau_m: float, z0: complex | None = None,
                       epsrel: float = 1e-8, tol: float = 1e-11) -> float:
    """Population decay rate from the Laplace residual zero, -Re z*."""
    if z0 is None:
        z0 = -0.5 * res.golden_rate()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        root = _newton(
            lambda z: laplace_rate_equation_residual(z, res, tau_m, epsrel=epsrel),
            complex(z0), tol=tol, max_step=0.02,
        )
    return -root.real


def _newton(f, z0: complex, tol: float = 1e-12, maxit: int = 60,
            max_step: float | None = None) -> complex:
    """Damped Newton iteration with a central-difference derivative."""
    z = z0
    for _ in range(maxit):
        fz = f(z)
        if abs(fz) < tol:
            return z
        h = 1e-7 * max(abs(z), 1e-3)
        df = (f(z + h) - f(z - h)) / (2.0 * h)
        if df == 0:
            raise RuntimeError("Newton derivative vanished")
        step = fz / df
        if max_step is not None and abs(step) > max_step:
            step *= max_step / abs(step)
        z = z - step
    raise RuntimeError(f"Newton did not converge within {maxit} iterations; |f| = {abs(fz):.3g}")
