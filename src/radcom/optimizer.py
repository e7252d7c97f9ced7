"""Closed-form power-split optimization and tradeoff-curve generation.

At a fixed radar share the sum rate is maximized by giving the weak user
exactly its QoS rate and the strong user everything left, which the
monotonicity of the rate product turns into a two-line closed form.  The
radar error bound in turn depends on the split only through the radar
share, so its constrained minimum sits at the QoS power minima.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, replace

import numpy as np

from .comms import jain_fairness, rate_report
from .errors import InfeasibleError, ValidationError
from .radar import WaveformSpec, total_estimation_variance
from .scenario import PowerAllocation, QosRequirement, ScenarioConfig, db_to_linear

# Rows per block: a curve is evaluated, and its CSV text formatted, this many
# rows at a time, so a dense command holds one block's temporaries, never a
# whole curve.
BLOCK_ROWS = 1024


@dataclass(frozen=True)
class TradeoffPoint:
    """One sample of the rate versus estimation-error tradeoff, or with array
    fields one column per quantity over many samples (see :meth:`split`)."""

    alloc: PowerAllocation
    r_sum: float                     # bits/s/Hz
    r1: float
    r2: float
    sigma_eps_sq: float              # s^2; inf when ar_sq = 0
    sigma_eps_sq_normalized: float   # 1/ar_sq, >= 1; inf when ar_sq = 0
    fairness: float                  # Jain index of (r1, r2); nan when both are 0

    def split(self) -> tuple[TradeoffPoint, ...]:
        """One scalar TradeoffPoint per entry of an array-valued point."""
        a = self.alloc
        columns = (a.a1_sq, a.a2_sq, a.ar_sq, self.r_sum, self.r1, self.r2,
                   self.sigma_eps_sq, self.sigma_eps_sq_normalized, self.fairness)
        return tuple(
            TradeoffPoint(PowerAllocation(a1, a2, ar), *rest)
            for a1, a2, ar, *rest in zip(*(np.asarray(c).tolist() for c in columns)))


@dataclass(frozen=True)
class SweepResult:
    """Tradeoff curve for one waveform and weak-user QoS level, evaluated on
    demand BLOCK_ROWS points at a time, so a writer holds one block, never the curve.
    """

    cfg: ScenarioConfig
    r02: float
    spec: WaveformSpec
    grid: np.ndarray                           # feasible radar shares, ascending
    infeasible_tail_start: float | None        # ar_sq beyond which no split exists

    def blocks(self) -> Iterator[TradeoffPoint]:
        """The curve's points, ascending in ar_sq, in consecutive array-valued
        blocks of at most BLOCK_ROWS."""
        for start in range(0, len(self.grid), BLOCK_ROWS):
            ar_sq = self.grid[start:start + BLOCK_ROWS]
            alloc = optimal_allocation_for_sumrate(self.cfg, self.r02, ar_sq)
            yield _evaluate(self.cfg, alloc, self.spec)


def default_grid(lo: float, hi: float, count: int) -> np.ndarray:
    """The radar-share grid {lo, hi, count}: count uniform values from lo to hi,
    strictly increasing inside [0, 1).  The one place a grid is checked."""
    if not (0.0 <= lo <= hi < 1.0):
        raise ValidationError(f"grid bounds must satisfy 0 <= lo <= hi < 1, "
                              f"got [{lo!r}, {hi!r}]")
    if count < 1:
        raise ValidationError(f"grid needs at least one point, got {count}")
    try:
        grid = np.linspace(lo, hi, count)
    except (MemoryError, ValueError) as err:   # ValueError: past numpy's size limit
        raise ValidationError(f"grid count {count} is too large: {err}") from None
    # lo = hi, or a spacing below one ulp, repeats a value.
    if np.any(np.diff(grid) <= 0.0):
        raise ValidationError("grid values must be strictly increasing")
    return grid


def _least_sinr(rate: float) -> float:
    """2^rate - 1, the least SINR carrying rate; inf where 2^rate overflows a float."""
    try:
        return 2.0 ** rate - 1.0
    except OverflowError:
        return math.inf


def _weak_user_need(cfg: ScenarioConfig, r02: float) -> float:
    """Least kappa * h2_gain that carries the weak user's QoS rate r02."""
    if not (math.isfinite(r02) and r02 > 0.0):
        raise ValidationError(f"r02 must be > 0, got {r02!r}")
    noise2 = cfg.sigma2_sq / cfg.total_power_mw
    return noise2 * _least_sinr(r02)


def optimal_allocation_for_sumrate(cfg: ScenarioConfig, r02: float,
                                   ar_sq: float) -> PowerAllocation:
    """Sum-rate-optimal split at a fixed radar share under the weak user's QoS.

    Puts the communications budget kappa = 1 - ar_sq entirely on the
    constraint line and sizes the weak user's share so its rate equals r02
    exactly; the remainder goes to the strong user.  ar_sq may be an array,
    giving one split per entry.  Feasibility is tradeoff_sweep's to decide:
    past the QoS onset a1_sq turns negative, which PowerAllocation refuses.
    """
    need = _weak_user_need(cfg, r02)
    kappa = 1.0 - ar_sq
    h2 = cfg.h2_gain
    a1 = np.divide(kappa * h2 - need, h2 * 2.0 ** r02)
    # Pair the two fractions so their sum reproduces kappa bitwise.
    a2 = kappa - a1
    a1 = np.where(a1 < 0.5 * kappa, kappa - a2, a1)[()]
    return PowerAllocation(a1_sq=a1, a2_sq=a2, ar_sq=ar_sq)


def max_radar_allocation(cfg: ScenarioConfig,
                         qos: QosRequirement) -> PowerAllocation:
    """Split giving the radar every watt the QoS constraints do not claim.

    Each user gets the least power that meets its QoS rate with equality.
    """
    noise1 = cfg.sigma1_sq / cfg.total_power_mw
    noise2 = cfg.sigma2_sq / cfg.total_power_mw
    a1_min = _least_sinr(qos.r01) * noise1 / cfg.h1_gain
    sinr2 = _least_sinr(qos.r02)
    # A zero rate needs no power, even beside an overflowing (inf) least share.
    a2_min = sinr2 * (a1_min + noise2 / cfg.h2_gain) if sinr2 > 0.0 else 0.0
    if not (a1_min + a2_min < 1.0):
        raise InfeasibleError(
            f"QoS ({qos.r01:g}, {qos.r02:g}) needs communications power "
            f"{a1_min + a2_min:.6g} >= 1: nothing left for the radar waveform")
    return PowerAllocation(
        a1_sq=a1_min,
        a2_sq=a2_min,
        ar_sq=1.0 - a1_min - a2_min,
    )


def _evaluate(cfg: ScenarioConfig, alloc: PowerAllocation,
              spec: WaveformSpec) -> TradeoffPoint:
    """Tradeoff point of alloc: scalar fields for one split, arrays for many."""
    r1, r2 = rate_report(cfg, alloc)
    # Every target's bound scales as 1/ar_sq: normalized to all power on the radar.
    with np.errstate(divide="ignore"):
        normalized = np.divide(1.0, alloc.ar_sq)
    return TradeoffPoint(
        alloc=alloc,
        r_sum=r1 + r2,
        r1=r1,
        r2=r2,
        sigma_eps_sq=total_estimation_variance(cfg, alloc, spec),
        sigma_eps_sq_normalized=normalized,
        fairness=jain_fairness(r1, r2),
    )


def star_point(cfg: ScenarioConfig, qos: QosRequirement,
               spec: WaveformSpec) -> TradeoffPoint:
    """Minimum-estimation-error point under both users' QoS constraints."""
    return _evaluate(cfg, max_radar_allocation(cfg, qos), spec)


def tradeoff_sweep(cfg: ScenarioConfig, r02: float, spec: WaveformSpec,
                   grid: dict) -> SweepResult:
    """Tradeoff curve over the default_grid {lo, hi, count} at the weak user's QoS level.

    Grid values where the QoS cannot be met are dropped; the exact onset of
    infeasibility is recorded whenever the grid reaches it.  A grid value
    of 0 is kept but its estimation-error bound is flagged infinite.  Every
    check is made here; the points are evaluated when the result is read.
    """
    grid_arr = default_grid(**grid)
    need = _weak_user_need(cfg, r02)
    # Larger radar shares only shrink the budget, so feasibility ends at the
    # first short grid point.
    short = (1.0 - grid_arr) * cfg.h2_gain < need
    count = int(np.argmax(short)) if short.any() else len(grid_arr)
    kappa_min = need / cfg.h2_gain if count < len(grid_arr) else None
    if count == 0:
        raise InfeasibleError(
            f"no grid point is feasible for r02 = {r02:g} "
            f"(kappa_min = {kappa_min:.6g})")
    return SweepResult(cfg, r02, spec, grid_arr[:count],
                       None if kappa_min is None else 1.0 - kappa_min)


def sample_feasible_region(cfg: ScenarioConfig, spec: WaveformSpec, n: int,
                           seed: int) -> list[TradeoffPoint]:
    """n tradeoff points with splits drawn uniformly over the whole power simplex.

    Sorted-uniform spacings give exact uniformity over
    {a1_sq + a2_sq + ar_sq <= 1, all >= 0}; every draw is kept, whichever
    user gets more power.  Deterministic for a given seed.
    """
    if n < 1:
        raise ValidationError(f"need n >= 1 samples, got {n}")
    u = np.sort(np.random.default_rng(seed).random((n, 3)), axis=1)
    # columns a1_sq = u0, a2_sq = u1 - u0, ar_sq = u2 - u1
    splits = np.diff(u, axis=1, prepend=0.0)
    return list(_evaluate(cfg, PowerAllocation(*splits.T), spec).split())


def asymmetry_sweep(cfg: ScenarioConfig, r02: float, spec: WaveformSpec,
                    gaps_db: Sequence[float], grid: dict) -> list[SweepResult]:
    """Tradeoff curves as the weak user's channel drops gap dB below the strong one.

    The strong user's gain stays at the configured value, isolating how the
    channel asymmetry alone degrades the jointly achievable region.  Gaps
    must be strictly positive, and each lowered scenario must still keep
    the SIC ordering of :class:`~radcom.scenario.ScenarioConfig`.
    """
    for gap in gaps_db:
        if not (math.isfinite(gap) and gap > 0.0):
            raise ValidationError(
                f"asymmetry gap must be > 0 dB to keep h1_gain > h2_gain, "
                f"got {gap!r}")
    results = []
    for gap in gaps_db:
        try:
            lowered = replace(cfg, h2_gain=cfg.h1_gain * db_to_linear(-gap))
        except ValidationError as err:
            raise ValidationError(f"asymmetry gap {gap:g} dB: {err}") from err
        results.append(tradeoff_sweep(lowered, r02, spec, grid))
    return results
