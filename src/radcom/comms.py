"""Communications side: SINRs, achievable rates, sum rate, and Jain fairness.

The weak user decodes its signal under interference from the strong
user's; the strong user first decodes and strips the weak user's signal
(SIC), so its own rate is interference-free.  The radar waveform is known
at both terminals and already removed, so it never appears as interference.
"""

from __future__ import annotations

import numpy as np

from .scenario import PowerAllocation, ScenarioConfig, check_nonnegative


def compute_sinr(cfg: ScenarioConfig,
                 alloc: PowerAllocation) -> tuple[float, float]:
    """Return (gamma1, gamma2) for the given power split(s).

    gamma1 is interference-free (s2 already stripped, radar known);
    gamma2 sees s1 as interference at the weak user's receiver.
    """
    p = cfg.total_power_mw
    gamma1 = alloc.a1_sq * cfg.h1_gain * p / cfg.sigma1_sq
    gamma2 = (alloc.a2_sq * cfg.h2_gain * p
              / (cfg.h2_gain * alloc.a1_sq * p + cfg.sigma2_sq))
    return gamma1, gamma2


def rate_report(cfg: ScenarioConfig, alloc: PowerAllocation) -> tuple[float, float]:
    """Return the rate bounds (r1, r2), bits/s/Hz, for the given power split(s)."""
    gamma1, gamma2 = compute_sinr(cfg, alloc)
    r1 = np.log2(1.0 + gamma1)
    # The scenario's SIC ordering makes user 1 decode s2 (to strip it) at least
    # as well as user 2 does, so user 2's own SINR sets r2.
    r2 = np.log2(1.0 + gamma2)
    return r1, r2


def jain_fairness(r1: float, r2: float) -> float:
    """Normalized Jain index of the two users' rates, in [1/2, 1]:
    (r1 + r2)^2 / (2 (r1^2 + r2^2)).

    1 means perfectly even rates; 1/2 means one user takes everything.
    Each rate may be a float or an array (one entry per split); all-zero
    rates give nan, for floats as for each entry of arrays.
    """
    check_nonnegative("r1", r1)
    check_nonnegative("r2", r2)
    with np.errstate(invalid="ignore"):
        return np.divide((r1 + r2) * (r1 + r2), 2 * (r1 * r1 + r2 * r2))
