"""Numerical spectral flow, interface conductivity, and reconciliation.

Spectral flow through a level alpha is the signed count of branch
crossings (up-crossings minus down-crossings).  A sample is above alpha
when mu - alpha >= 0, and a crossing is a step on which that side
changes: "up" from below, "down" from above.  Along a branch the
directions therefore alternate, and #up - #down equals
[end above] - [start above], so the flow is the endpoint count by
construction; a sample exactly on alpha needs no special case.  The
conductivity uses the endpoint formula

    2 pi sigma_I = sum_j [ phi(mu_j(zeta_max)) - phi(mu_j(zeta_min)) ],

which, when the window is valid, equals the integer spectral flow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .branches import Branch
from .bulk import FlowPrediction
from .errors import WindowError
from .profiles import DensityProfile, evaluate

__all__ = ["Crossing", "FlowReport", "validate_window", "spectral_flow", "conductivity", "reconcile"]

_ENDPOINT_MARGIN = 0.1  # closest a branch endpoint may sit to alpha


def validate_window(branches: list[Branch], alpha: float, margin: float) -> bool:
    """True iff no branch value sits within margin of alpha at a sweep endpoint."""
    if not branches:
        return True
    z_lo = min(b.zetas[0] for b in branches)
    z_hi = max(b.zetas[-1] for b in branches)
    for b in branches:
        if b.zetas[0] == z_lo and abs(b.mus[0] - alpha) < margin:
            return False
        if b.zetas[-1] == z_hi and abs(b.mus[-1] - alpha) < margin:
            return False
    return True


@dataclass(frozen=True)
class Crossing:
    branch_id: int
    zeta: float
    direction: str  # "up" | "down"


@dataclass(frozen=True)
class FlowReport:
    sf_numeric: int
    sf_predicted: int | None
    crossings: tuple[Crossing, ...]


def _hermite_root(d0: float, d1: float, s0: float, s1: float) -> float | None:
    """The single root in [0, 1] of the cubic Hermite interpolant with values
    d0, d1 and end derivatives s0, s1 (in the unit variable), else None."""
    cubic = [2 * d0 + s0 - 2 * d1 + s1, -3 * d0 - 2 * s0 + 3 * d1 - s1, s0, d0]
    roots = np.roots(cubic)
    real = roots.real[(np.abs(roots.imag) <= 1e-12) & (roots.real >= 0.0) & (roots.real <= 1.0)]
    return float(real[0]) if real.size == 1 else None


def _locate_crossings(branch: Branch, bid: int, alpha: float) -> list[Crossing]:
    """Steps on which the sample's side of alpha changes (above: mu - alpha >= 0),
    each located on its step by cubic Hermite interpolation of the sampled values
    and slopes (linear interpolation when the cubic has no single root in the step)."""
    z = np.asarray(branch.zetas)
    d = np.asarray(branch.mus) - alpha
    s = np.asarray(branch.slopes)
    above = d >= 0.0
    out = []
    for k in np.flatnonzero(above[:-1] != above[1:]):
        h = z[k + 1] - z[k]
        t = _hermite_root(d[k], d[k + 1], h * s[k], h * s[k + 1])
        if t is None:
            t = d[k] / (d[k] - d[k + 1])
        out.append(Crossing(branch_id=bid, zeta=float(z[k] + t * h), direction="down" if above[k] else "up"))
    return out


def spectral_flow(
    branches: list[Branch],
    alpha: float,
    prediction: FlowPrediction | None = None,
) -> FlowReport:
    """Signed crossing count through alpha; requires a valid sweep window."""
    if not validate_window(branches, alpha, _ENDPOINT_MARGIN):
        raise WindowError(f"window invalid at alpha = {alpha}: endpoint branch values too close")

    crossings = [c for bid, b in enumerate(branches) for c in _locate_crossings(b, bid, alpha)]
    return FlowReport(
        sf_numeric=sum(1 if c.direction == "up" else -1 for c in crossings),
        sf_predicted=prediction.sf if prediction is not None else None,
        crossings=tuple(sorted(crossings, key=lambda c: c.zeta)),
    )


def conductivity(branches: list[Branch], dens: DensityProfile) -> float:
    """2 pi sigma_I by the endpoint formula; no branch may end inside the density window."""
    e1, e2 = dens.window
    total = 0.0
    for b in branches:
        ends = (b.mus[0], b.mus[-1])
        for mu_end in ends:
            if e1 < mu_end < e2:
                raise WindowError(
                    f"phi window touches branch endpoint: mu = {mu_end:.6g} in ({e1}, {e2})"
                )
        phi_start, phi_end = evaluate(dens.phi, np.asarray(ends))
        total += float(phi_end - phi_start)
    return total


def reconcile(report: FlowReport, pred: FlowPrediction, sigma: float, sigma_pred: FlowPrediction) -> bool:
    """True iff the numerical flow equals its prediction `pred` and 2 pi sigma lies within
    1e-6 of `sigma_pred`, the prediction at a level inside the density window."""
    return report.sf_numeric == pred.sf and abs(sigma - sigma_pred.sf) < 1e-6
