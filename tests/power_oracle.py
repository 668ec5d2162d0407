"""The per-step required-power bisection, an exactness oracle for rates.required_power.

:func:`min_rate_at` rebuilds the config through ``replace``, the profile
through ``make_profile`` (tracking pilots) and a full rate report at every
power it is asked about, as required_power once did at every bisection
step. :func:`required_power_per_step` runs the same bracket and stop rule
on it, so its result must equal required_power's bit for bit.
"""
import math
from dataclasses import replace

import numpy as np

from fdrelay import make_profile, rate_mr, rate_zf


def min_rate_at(ps, scheme, cfg, profile, pilot_tracks_data=False):
    """Smallest per-pair rate at Ps = ps and Pr = K*ps, Pp = ps when the pilots track."""
    pp = ps if pilot_tracks_data else cfg.Pp
    step_cfg = replace(cfg, Ps=ps, Pr=cfg.K * ps, Pp=pp)
    step_profile = (make_profile(profile.beta_sr, profile.beta_rd, cfg.tau, pp)
                    if pilot_tracks_data else profile)
    report = {"zf": rate_zf, "mr": rate_mr}[scheme](step_cfg, step_profile)
    return float(np.min(report.r_e2e))


def required_power_per_step(target, scheme, cfg, profile, pilot_tracks_data=False):
    """Bracket [1e-6, 1e6] grown to 1e12, bisected until hi - lo <= 1e-6 * hi."""

    def reaches(ps):
        return min_rate_at(ps, scheme, cfg, profile, pilot_tracks_data) >= target

    lo, hi = 1e-6, 1e6
    while not reaches(hi):
        hi *= 10.0
        if hi > 1e12:
            return math.inf
    if reaches(lo):
        return lo
    while (hi - lo) > 1e-6 * hi:
        mid = math.sqrt(lo * hi)
        if reaches(mid):
            hi = mid
        else:
            lo = mid
    return hi
