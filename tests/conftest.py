import numpy as np
import pytest

from zenosim.acceptance import AcceptanceRuns
from zenosim.config import ModelSpec, RunConfig
from zenosim.models import DetectorParams, DriveParams, ReservoirSpec


@pytest.fixture(scope="session")
def acceptance_runs():
    """Shared ensemble runs for the acceptance criteria (computed lazily)."""
    return AcceptanceRuns()


_DET = DetectorParams(gamma=10.0, lam=1.0, omega_d=1.0)
_DET_EXC = DetectorParams(gamma=10.0, lam=1.0, omega_d=1.0, coupling_target="excited")
_RESONANT = DriveParams(omega_r=0.5)
_DETUNED = DriveParams(omega_r=0.5, detuning=0.2)
_BAND = ReservoirSpec(n_modes=101, half_width=0.5, g0=0.01)

# Every model, and the driven one on and off resonance, small enough to run
# in batches of every size.  Twelve trajectories each; every case but the
# detector-free one jumps.
BATCH_CASES = {
    "detector": RunConfig(ModelSpec("detector", detector=_DET), dt=0.1, t_max=20.0,
                          n_trajectories=12,
                          observables=("rho_aa", "rho_ee", "rho_gg", "rho_eg_re", "rho_eg_im")),
    "rabi-resonant": RunConfig(ModelSpec("rabi", detector=_DET, drive=_RESONANT), dt=0.1,
                               t_max=20.0, n_trajectories=12,
                               observables=("rho_gg", "rho_ee", "rho_aa")),
    # decimation 3 over 200 steps: the final values are not the last record
    "rabi-detuned": RunConfig(ModelSpec("rabi", detector=_DET, drive=_DETUNED), dt=0.1,
                              t_max=20.0, n_trajectories=12, decimation=3,
                              observables=("rho_gg", "rho_eg_re", "rho_eg_im")),
    "freedecay": RunConfig(ModelSpec("freedecay", reservoir=_BAND), dt=0.1, t_max=20.0,
                           n_trajectories=12, observables=("rho_ee", "rho_gg")),
    "measureddecay-ground": RunConfig(ModelSpec("measureddecay", reservoir=_BAND, detector=_DET),
                                      dt=0.1, t_max=30.0, n_trajectories=12,
                                      observables=("rho_ee", "rho_gg", "rho_aa")),
    "measureddecay-excited": RunConfig(ModelSpec("measureddecay", reservoir=_BAND,
                                                 detector=_DET_EXC),
                                       dt=0.1, t_max=30.0, n_trajectories=12,
                                       observables=("rho_ee", "rho_gg", "rho_aa")),
}


def star_hamiltonian(res):
    """The band's arrowhead Hamiltonian: system in row 0, then the modes, in
    the frame rotating at omega_a."""
    h = np.diag(np.concatenate([[0.0], -res.mode_detunings()]))
    h[0, 1:] = h[1:, 0] = res.mode_couplings()
    return h


def tridiagonal(diagonal, hopping):
    """The dense real symmetric matrix of the tridiagonal pair (diagonal,
    hopping), as ``ReservoirSpec.chain`` returns it."""
    return np.diag(diagonal) + np.diag(hopping, 1) + np.diag(hopping, -1)


@pytest.fixture(params=sorted(BATCH_CASES))
def batch_case(request):
    """(name, RunConfig) of one batch case."""
    return request.param, BATCH_CASES[request.param]


def _assert_same_record(a, b):
    assert (a.trajectory_id, a.seed_used) == (b.trajectory_id, b.seed_used)
    np.testing.assert_array_equal(a.times, b.times)
    assert a.observables.keys() == b.observables.keys()
    for name in a.observables:
        np.testing.assert_array_equal(a.observables[name], b.observables[name])
    assert a.jumps == b.jumps
    assert a.final_observables == b.final_observables


@pytest.fixture
def assert_same_record():
    """Bit-for-bit comparison of two TrajectoryRecords."""
    return _assert_same_record
