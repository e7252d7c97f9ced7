"""Joint radar-communications power-split simulator and optimizer.

One station broadcasts a single waveform carrying two users' downlink
signals plus a radar pulse, separated only by power allocation.  This
package evaluates both sides of the design (communications rates, delay
estimation error bounds), solves the constrained power splits in closed
form, and emits the tradeoff datasets through :mod:`radcom.cli`.
"""

__version__ = "0.1.0"

from .comms import compute_sinr, jain_fairness, rate_report
from .errors import InfeasibleError, RadcomError, ValidationError
from .optimizer import (SweepResult, TradeoffPoint, asymmetry_sweep, default_grid,
                        max_radar_allocation, optimal_allocation_for_sumrate,
                        sample_feasible_region, star_point, tradeoff_sweep)
from .radar import (WaveformKind, WaveformSpec, analytic_energy,
                    analytic_rms_bandwidth_sq, crlb_delay, post_integration_snr_db,
                    total_estimation_variance)
from .scenario import (PowerAllocation, QosRequirement, ScenarioConfig,
                       db_to_linear, linear_to_db, load_scenario)
from .waveforms import (McDelayReport, SampledWaveform, mc_delay_estimation,
                        numeric_energy, synthesize)

__all__ = [
    "__version__",
    "InfeasibleError", "McDelayReport",
    "PowerAllocation", "QosRequirement",
    "RadcomError", "SampledWaveform", "ScenarioConfig",
    "SweepResult", "TradeoffPoint", "ValidationError",
    "WaveformKind", "WaveformSpec",
    "analytic_energy", "analytic_rms_bandwidth_sq", "asymmetry_sweep",
    "compute_sinr", "crlb_delay", "db_to_linear", "default_grid",
    "jain_fairness",
    "linear_to_db", "load_scenario", "max_radar_allocation",
    "mc_delay_estimation", "numeric_energy",
    "optimal_allocation_for_sumrate", "post_integration_snr_db", "rate_report",
    "sample_feasible_region", "star_point", "synthesize",
    "total_estimation_variance", "tradeoff_sweep",
]
