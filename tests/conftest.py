"""Shared helpers for the test suite."""

import numpy as np

from radcom import ScenarioConfig

# The radar-share grid of the command line's --grid 0.01:0.99:200.
GRID = {"lo": 0.01, "hi": 0.99, "count": 200}


def random_table_like_config(rng: np.random.Generator) -> ScenarioConfig:
    """A random scenario respecting the baseline's standing assumptions.

    Strong user above weak user by 2-25 dB, strong user's noise no higher
    than the weak user's, and a transmit power within +/-5 dB of 0 dBm.
    """
    h1 = 10.0 ** rng.uniform(-10.0, -7.0)
    gap_db = rng.uniform(2.0, 25.0)
    sigma2 = 10.0 ** rng.uniform(-11.5, -9.5)
    return ScenarioConfig(
        h1_gain=h1,
        h2_gain=h1 * 10.0 ** (-gap_db / 10.0),
        sigma2_sq=sigma2,
        sigma1_sq=sigma2 * 10.0 ** (-rng.uniform(0.0, 1.0)),
        sigma_r_sq=10.0 ** rng.uniform(-12.0, -10.0),
        eta1=rng.uniform(0.05, 1.0),
        eta2=rng.uniform(0.05, 1.0),
        total_power_mw=10.0 ** rng.uniform(-0.5, 0.5),
    )
