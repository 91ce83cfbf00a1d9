"""The state is a plain amplitude array: its squared norm (``models._weight``),
the engine's renormalization, and subspace weights read through the models'
observables."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zenosim.config import ModelSpec, RunConfig, build_model
from zenosim.engine import RngStream, ZeroNorm, _renormalize, run_batch
from zenosim.models import (
    DetectorMeasurementModel,
    DetectorParams,
    FreeDecayModel,
    ReservoirSpec,
    _weight,
)

# basis |e,a>, |e,b>, |g,a>, |g,b>
FOUR_LEVEL = DetectorMeasurementModel(DetectorParams())
OBS = FOUR_LEVEL.observables()


def amplitudes(parts):
    return np.array([re + 1j * im for re, im in parts])


def run_detector(initial_amplitudes):
    spec = ModelSpec("detector", detector=DetectorParams())
    cfg = RunConfig(spec, dt=0.1, t_max=0.1, n_trajectories=1,
                    initial_amplitudes=np.asarray(initial_amplitudes, dtype=complex))
    return run_batch(build_model(spec), cfg, [RngStream(1, 0)])


class TestNormSquared:
    def test_unit_basis_vector(self):
        assert _weight(np.array([1, 0, 0, 0], complex)) == pytest.approx(1.0, abs=1e-15)

    def test_normalized_superposition(self):
        c = np.array([1, 1], complex) / np.sqrt(2)
        assert _weight(c) == pytest.approx(1.0, abs=1e-15)

    def test_three_four_five(self):
        assert _weight(np.array([0.6, 0.8j])) == pytest.approx(1.0, abs=1e-15)

    def test_unnormalized(self):
        assert _weight(np.array([2.0, 0.0], complex)) == pytest.approx(4.0, abs=1e-15)


class TestNormalize:
    def test_real_scaling(self):
        out = _renormalize(np.array([2, 0], complex))
        np.testing.assert_allclose(out, [1, 0], atol=1e-15)

    def test_phase_untouched(self):
        out = _renormalize(np.array([1, 1j]))
        np.testing.assert_allclose(out, [1 / np.sqrt(2), 1j / np.sqrt(2)], atol=1e-15)

    def test_zero_state_raises(self):
        with pytest.raises(ZeroNorm):
            run_detector([0, 0, 0, 0])

    @given(st.lists(st.tuples(st.floats(-10, 10), st.floats(-10, 10)),
                    min_size=1, max_size=12))
    @settings(max_examples=80, deadline=None)
    def test_idempotent(self, parts):
        amps = amplitudes(parts)
        if np.sqrt(np.sum(np.abs(amps) ** 2)) < 1e-6:
            return
        once = _renormalize(amps)
        twice = _renormalize(once)
        assert np.max(np.abs(once - twice)) <= 1e-12
        assert abs(_weight(once) - 1.0) <= 1e-12


class TestSubspaceProbability:
    def test_pure_ground(self):
        assert OBS["rho_gg"](np.array([0, 0, 0, 1], complex), 0.0) == pytest.approx(1.0)

    def test_even_superposition(self):
        c = np.array([0, 1, 0, 1], complex) / np.sqrt(2)
        assert OBS["rho_gg"](c, 0.0) == pytest.approx(0.5)

    def test_additivity_over_labels(self):
        c = np.sqrt(np.array([0.1, 0.0, 0.2, 0.7], complex))
        assert OBS["rho_aa"](c, 0.0) == pytest.approx(0.3, abs=1e-12)
        assert FOUR_LEVEL.excited_weight(c) == pytest.approx(0.3, abs=1e-12)

    def test_always_true_equals_norm(self):
        c = np.array([0.3, 0.4j, 1.2, -0.5])
        assert OBS["rho_ee"](c, 0.0) + OBS["rho_gg"](c, 0.0) == pytest.approx(_weight(c))
        assert OBS["rho_aa"](c, 0.0) + OBS["rho_bb"](c, 0.0) == pytest.approx(_weight(c))

    @given(st.lists(st.tuples(st.floats(-5, 5), st.floats(-5, 5)),
                    min_size=3, max_size=10))
    @settings(max_examples=60, deadline=None)
    def test_complementary_predicates(self, parts):
        amps = amplitudes(parts)
        if np.sqrt(np.sum(np.abs(amps) ** 2)) < 1e-6:
            return
        c = _renormalize(amps)
        obs = FreeDecayModel(ReservoirSpec(n_modes=len(amps) - 1)).observables()
        assert obs["rho_ee"](c, 0.0) + obs["rho_gg"](c, 0.0) == pytest.approx(1.0, abs=1e-12)


class TestLabels:
    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            run_detector([1, 0])

    def test_basis_mask(self):
        # the detector-excited slots of the four-level basis
        slots = [FOUR_LEVEL.excited_weight(e) > 0 for e in np.eye(4, dtype=complex)]
        assert slots == [True, False, True, False]
