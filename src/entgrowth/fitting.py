"""Least-squares slope extraction for growth-rate estimates."""

from dataclasses import dataclass

import numpy as np

from .errors import WindowTooShort

MIN_POINTS = 4   # fewest samples a slope fit accepts


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    stderr: float
    intercept: float
    n_points: int
    window: tuple


def fit_slope(times, values) -> SlopeFit:
    """Ordinary least-squares line fit with the standard error of the slope."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.shape != values.shape or times.ndim != 1:
        raise ValueError("times and values must be matching 1-d arrays")
    n = len(times)
    if n < MIN_POINTS:
        raise WindowTooShort(f"need at least {MIN_POINTS} samples, got {n}")
    t_mean = times.mean()
    v_mean = values.mean()
    dt = times - t_mean
    ss_t = float(np.sum(dt * dt))
    if ss_t == 0:
        raise WindowTooShort("all sample times coincide")
    slope = float(np.sum(dt * (values - v_mean)) / ss_t)
    intercept = v_mean - slope * t_mean
    resid = values - (slope * times + intercept)
    dof = max(n - 2, 1)
    stderr = float(np.sqrt(np.sum(resid * resid) / dof / ss_t))
    return SlopeFit(slope=slope, stderr=stderr, intercept=float(intercept),
                    n_points=n, window=(float(times[0]), float(times[-1])))


def windowed(times, values, t_lo, t_hi):
    """Subset of a sampled series with t_lo <= t <= t_hi."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    mask = (times >= t_lo - 1e-12) & (times <= t_hi + 1e-12)
    return times[mask], values[mask]
