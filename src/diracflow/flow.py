"""Numerical spectral flow, interface conductivity, and reconciliation.

Spectral flow through a level alpha is the signed count of branch
crossings (up-crossings minus down-crossings).  The conductivity uses
the endpoint formula

    2 pi sigma_I = sum_j [ phi(mu_j(zeta_max)) - phi(mu_j(zeta_min)) ],

which must agree with the along-branch integral of d phi(mu) (the
fundamental theorem of calculus on each sampled curve) and, when the
window is valid, with the integer spectral flow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .branches import Branch, validate_window
from .bulk import FlowPrediction
from .errors import WindowError
from .profiles import DensityProfile, evaluate

__all__ = ["Crossing", "FlowReport", "spectral_flow", "conductivity", "reconcile"]

_ENDPOINT_MARGIN = 0.1  # closest a branch endpoint may sit to alpha


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
    """Sign changes of mu - alpha on the sampled curve, each located on its
    step by cubic Hermite interpolation of the sampled values and slopes
    (linear interpolation when the cubic has no single root in the step)."""
    z = np.asarray(branch.zetas)
    d = np.asarray(branch.mus) - alpha
    s = np.asarray(branch.slopes)
    out = []
    for k in range(d.size - 1):
        if d[k] == 0.0:
            # crossing exactly on a sample node: resolved by the caller's
            # alpha perturbation; should not be reached
            continue
        if d[k] * d[k + 1] < 0.0:
            h = z[k + 1] - z[k]
            t = _hermite_root(d[k], d[k + 1], h * s[k], h * s[k + 1])
            if t is None:
                t = d[k] / (d[k] - d[k + 1])
            out.append(
                Crossing(branch_id=bid, zeta=float(z[k] + t * h), direction="up" if d[k] < 0 else "down")
            )
    return out


def spectral_flow(
    branches: list[Branch],
    alpha: float,
    prediction: FlowPrediction | None = None,
) -> FlowReport:
    """Signed crossing count through alpha; requires a valid sweep window."""
    if not validate_window(branches, alpha, _ENDPOINT_MARGIN):
        raise WindowError(f"window invalid at alpha = {alpha}: endpoint branch values too close")

    a = alpha
    if any(mu == a for b in branches for mu in b.mus):
        a = alpha + 1e-9  # crossing on a sample node: perturb and retry

    crossings: list[Crossing] = []
    for bid, b in enumerate(branches):
        crossings.extend(_locate_crossings(b, bid, a))
    n_up = sum(1 for c in crossings if c.direction == "up")
    n_down = sum(1 for c in crossings if c.direction == "down")
    sf = n_up - n_down

    # endpoint formula cross-check: #(below -> above) - #(above -> below)
    ends = 0
    for b in branches:
        lo_below = b.mus[0] < a
        hi_below = b.mus[-1] < a
        if lo_below and not hi_below:
            ends += 1
        elif hi_below and not lo_below:
            ends -= 1
    if ends != sf:
        raise WindowError(
            f"crossing count {sf} disagrees with endpoint formula {ends} at alpha = {alpha}"
        )

    return FlowReport(
        sf_numeric=sf,
        sf_predicted=prediction.sf if prediction is not None else None,
        crossings=tuple(sorted(crossings, key=lambda c: c.zeta)),
    )


def conductivity(branches: list[Branch], dens: DensityProfile) -> float:
    """2 pi sigma_I by the endpoint formula, verified against the branch integral."""
    e1, e2 = dens.window
    for b in branches:
        for mu_end in (b.mus[0], b.mus[-1]):
            if e1 < mu_end < e2:
                raise WindowError(
                    f"phi window touches branch endpoint: mu = {mu_end:.6g} in ({e1}, {e2})"
                )

    endpoint_sum = 0.0
    integral_sum = 0.0
    for b in branches:
        phis = evaluate(dens.phi, np.asarray(b.mus))
        endpoint_sum += float(phis[-1] - phis[0])
        # integral of d phi(mu) along the sampled curve
        integral_sum += float(np.sum(np.diff(phis)))
    if abs(endpoint_sum - integral_sum) > 1e-6:
        raise WindowError(
            f"endpoint sum {endpoint_sum} and branch integral {integral_sum} disagree"
        )
    return endpoint_sum


def reconcile(report: FlowReport, pred: FlowPrediction, sigma: float, sigma_pred: FlowPrediction) -> bool:
    """True iff the numerical flow equals its prediction `pred` and 2 pi sigma lies within
    1e-6 of `sigma_pred`, the prediction at a level inside the density window."""
    return report.sf_numeric == pred.sf and abs(sigma - sigma_pred.sf) < 1e-6
