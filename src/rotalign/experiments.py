"""Randomized detection campaigns with seeded, reproducible statistics.

Each trial draws an offset angle uniformly on (-pi, pi] and a field
with all four matrix coefficients uniform on [-bound, bound] (the
coefficient-space switch draws the basis coordinates instead), builds
the rotated copy, runs detection, rotates the copy back by the
estimate, and scores the root of the summed squared coefficient
differences against the original field.  Scoring in coefficient space
sidesteps the half-turn ambiguity of the angle itself.

Randomness comes from numpy's default PCG64 generator.  Every trial
gets its own stream seeded by (campaign seed, trial index), so a
trial's draw depends on nothing but its index and reports are
bit-reproducible for a fixed seed.

Detection accuracy degrades when the saddle and invariant energies of
the drawn field differ by many orders of magnitude: the step size is
proportional to the smaller of the two, so such trials stop far from
the optimum or exhaust the iteration cap.  Reports therefore carry the
converged-only error statistics as the headline numbers and the
everything-included variants alongside, plus counts of capped and
degenerate trials.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .fields import Decomposition, LinearField, recompose, total_rotate
from .registration import (
    DegenerateZeroFieldError,
    DetectionStatus,
    DetectorConfig,
    detect,
)

__all__ = [
    "TrialSpec",
    "TrialOutcome",
    "ExperimentReport",
    "run_trial",
    "run_campaign",
    "report_csv_header",
]


@dataclass(frozen=True)
class TrialSpec:
    """Campaign parameters; fields live on the unit square, drawn by matrix entry by default."""

    trials: int
    eps: float
    seed: int
    coeff_bound: float = 1.0
    max_iter: int = 10000
    coefficient_space: bool = False

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError(f"trials must be at least 1, got {self.trials!r}")
        if not self.eps > 0.0:
            raise ValueError(f"eps must be positive, got {self.eps!r}")


class TrialOutcome(NamedTuple):
    error: float
    iterations: int
    status: DetectionStatus


@dataclass(frozen=True)
class ExperimentReport:
    """Aggregate statistics of one campaign.

    ``avg_error``/``max_error`` cover converged trials; the ``_all``
    variants additionally include capped runs.  ``avg_iterations``
    counts every non-degenerate trial (capped runs contribute the cap).
    """

    eps: float
    trials: int
    seed: int
    avg_error: float
    max_error: float
    avg_iterations: float
    converged_fraction: float
    degenerate_trials: int
    non_converged_trials: int
    avg_error_all: float
    max_error_all: float

    def to_json_dict(self) -> dict:
        return {
            "eps": self.eps,
            "trials": self.trials,
            "avg_error": self.avg_error,
            "max_error": self.max_error,
            "avg_iterations": self.avg_iterations,
            "converged_fraction": self.converged_fraction,
            "seed": self.seed,
            "degenerate_trials": self.degenerate_trials,
            "non_converged_trials": self.non_converged_trials,
            "avg_error_all": self.avg_error_all,
            "max_error_all": self.max_error_all,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"

    def csv_row(self) -> list:
        return [repr(self.eps), repr(self.avg_error), repr(self.max_error),
                repr(self.avg_iterations), repr(self.converged_fraction),
                str(self.trials), str(self.seed)]


def report_csv_header() -> list:
    return ["eps", "avg_error", "max_error", "avg_iterations",
            "converged_fraction", "trials", "seed"]


def _draw_field(rng: np.random.Generator, bound: float, coefficient_space: bool) -> tuple:
    """Draw (angle, field): angle on (-pi, pi], coefficients on [-bound, bound]."""
    angle = math.pi - 2.0 * math.pi * rng.random()
    coeffs = rng.uniform(-bound, bound, size=4)
    if coefficient_space:
        field = recompose(Decomposition(*coeffs))
    else:
        field = LinearField(coeffs[0], coeffs[1], coeffs[2], coeffs[3])
    return angle, field


def run_trial(rng: np.random.Generator, eps: float, coeff_bound: float = 1.0,
              max_iter: int = 10000, coefficient_space: bool = False) -> TrialOutcome:
    """One randomized draw-rotate-detect-score round."""
    angle, field = _draw_field(rng, coeff_bound, coefficient_space)
    copy = total_rotate(field, angle)
    try:
        result = detect(field, copy, DetectorConfig(eps=eps, max_iter=max_iter),
                        record_trace=False)
    except DegenerateZeroFieldError:
        return TrialOutcome(math.nan, 0, DetectionStatus.DEGENERATE_ZERO_FIELD)
    recovered = total_rotate(copy, -result.alpha)
    error = math.sqrt(
        (recovered.a11 - field.a11) ** 2 + (recovered.a12 - field.a12) ** 2
        + (recovered.a21 - field.a21) ** 2 + (recovered.a22 - field.a22) ** 2)
    return TrialOutcome(error, result.iterations, result.status)


def _trial_by_index(spec: TrialSpec, index: int) -> TrialOutcome:
    rng = np.random.default_rng([spec.seed, index])
    return run_trial(rng, spec.eps, spec.coeff_bound, spec.max_iter,
                     spec.coefficient_space)


def run_campaign(spec: TrialSpec) -> ExperimentReport:
    """Run the whole campaign and aggregate; deterministic for a fixed seed."""
    outcomes = [_trial_by_index(spec, i) for i in range(spec.trials)]

    converged_errors = []
    all_errors = []
    iteration_total = 0
    completed = 0
    degenerate = 0
    capped = 0
    for outcome in outcomes:
        if outcome.status is DetectionStatus.DEGENERATE_ZERO_FIELD:
            degenerate += 1
            continue
        completed += 1
        iteration_total += outcome.iterations
        all_errors.append(outcome.error)
        if outcome.status is DetectionStatus.CONVERGED:
            converged_errors.append(outcome.error)
        else:
            capped += 1

    def avg(values: list) -> float:
        return sum(values) / len(values) if values else math.nan

    return ExperimentReport(
        eps=spec.eps,
        trials=spec.trials,
        seed=spec.seed,
        avg_error=avg(converged_errors),
        max_error=max(converged_errors) if converged_errors else math.nan,
        avg_iterations=iteration_total / completed if completed else math.nan,
        converged_fraction=len(converged_errors) / completed if completed else 0.0,
        degenerate_trials=degenerate,
        non_converged_trials=capped,
        avg_error_all=avg(all_errors),
        max_error_all=max(all_errors) if all_errors else math.nan,
    )
