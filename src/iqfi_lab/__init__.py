"""iqfi-lab: QFI spectra of qubit sensing protocols and their frequency
integrals, with closed-form references and bounds for cross-checking."""

from .signal_core import SignalParams, theta
from .protocol import (
    Pulse,
    PulseSequence,
    TransverseDrive,
    PiecewiseGenerator,
    ContinuousControl,
    GhzProtocol,
    bloch_state,
    make_ramsey,
    make_pi_train,
    make_pi2_train,
    make_trotterized_gx,
    random_pulse_sequence,
    sequence_from_json,
    sequence_to_json,
)
from .evolution import (IntegrationError, feature_scale, qfi_fd_oracle,
                        qfi_vs_omega)
from .iqfi import (
    HaarResult,
    QfiSpectrum,
    QuadratureConfig,
    QuadratureNonConvergence,
    SweepPoint,
    SweepResult,
    cross_spectral_integral,
    fit_loglog_slope,
    haar_average_iqfi,
    integrate_iqfi,
    integrate_qfi_band,
    sweep_iqfi_vs_T,
)
from .bounds import (
    BoundReport,
    applicable,
    b0_linear_bound,
    ghz_scaling,
    n_pulse_bound,
    pi_train_closed_form,
    pi_train_qfi,
    ramsey_closed_form,
    report_bound,
    report_equality,
    report_lower_bound,
    rwa_iqfi_lower_bound,
    rwa_qfi,
    rwa_state,
)

__version__ = "0.1.0"
