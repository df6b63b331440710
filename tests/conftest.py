"""Shared helpers: random admissible interface scenarios, wall builders and the A2' bound."""

from __future__ import annotations

import numpy as np
import pytest

from diracflow.bulk import HalfSpaceParams, count_levels, landau_levels
from diracflow.profiles import ProfileSet, SwitchProfile, derivative, evaluate

_SUP_SAMPLES = 10_000  # points of the dense sample in sup_A2_prime


def walls(minus: HalfSpaceParams, plus: HalfSpaceParams) -> ProfileSet:
    """Smooth walls on the default (-1, 1) transition joining two half-spaces."""
    return ProfileSet(
        B=SwitchProfile(minus.B, plus.B),
        m=SwitchProfile(minus.m, plus.m),
        V=SwitchProfile(minus.V, plus.V),
    )


def magnetic_potential_prime(ps: ProfileSet, x):
    """A2'(x) = B(x) + x * B'(x)."""
    x = np.asarray(x, dtype=float)
    out = evaluate(ps.B, x) + x * derivative(ps.B, x)
    return float(out) if out.ndim == 0 else out


def sup_A2_prime(ps: ProfileSet, L: float) -> float:
    """sup over [-L, L] of |A2'(x)| by dense sampling.

    Exact on the plateaus, where A2' = B is constant; the transition
    interval is covered by the dense sample.
    """
    if L <= 0:
        raise ValueError("L must be positive")
    x = np.linspace(-L, L, _SUP_SAMPLES)
    sup = float(np.max(np.abs(magnetic_potential_prime(ps, x))))
    return max(sup, abs(ps.B.lower), abs(ps.B.upper))


def gap_components_joint(
    minus: HalfSpaceParams, plus: HalfSpaceParams, span: float = 6.0, min_width: float = 0.5
) -> list[tuple[float, float]]:
    """Connected components of the joint resolvent set inside [-span, span]."""
    levels = []
    for hp in (minus, plus):
        levels += [l for l in landau_levels(hp, 12).levels if abs(l) < span]
    levels = sorted(levels)
    return [
        (a, b)
        for a, b in zip(levels[:-1], levels[1:])
        if b - a > min_width and max(abs(a), abs(b)) < span - 0.5
    ]


def draw_interface_scenario(rng: np.random.Generator, max_count: int = 8):
    """One random admissible tuple: half-spaces plus a level alpha in a joint gap.

    Drawn per the acceptance envelope |B| in [0.5, 4], |m| <= 3, |V| <= 2;
    alpha keeps 0.2 clearance from the component edges, and components
    with more than max_count Landau levels below alpha are redrawn to
    keep sweep sizes desk-scale.
    """
    while True:
        B = rng.uniform(0.5, 4.0, 2) * rng.choice([-1, 1], 2)
        m = rng.uniform(-3.0, 3.0, 2)
        V = rng.uniform(-2.0, 2.0, 2)
        minus = HalfSpaceParams(B=float(B[0]), m=float(m[0]), V=float(V[0]))
        plus = HalfSpaceParams(B=float(B[1]), m=float(m[1]), V=float(V[1]))
        comps = gap_components_joint(minus, plus)
        if not comps:
            continue
        lo, hi = comps[rng.integers(len(comps))]
        alpha = float(rng.uniform(lo + 0.2, hi - 0.2))
        if max(count_levels(minus, alpha), count_levels(plus, alpha)) > max_count:
            continue
        return minus, plus, alpha, (lo, hi)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260826)


# --- acceptance-criteria reporting -------------------------------------------
# Each acceptance test records a one-line verdict here; the lines are echoed
# in a terminal-summary section so pass/fail per criterion is visible even
# though pytest captures stdout of passing tests.

_ACCEPTANCE: list[str] = []


def record_criterion(num: int, name: str, passed: bool, detail: str = "") -> None:
    line = f"[criterion {num}] {name}: {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    _ACCEPTANCE.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE:
            terminalreporter.write_line(line)
