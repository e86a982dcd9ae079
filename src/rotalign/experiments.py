"""Randomized detection campaigns with seeded, reproducible statistics.

Each trial draws an offset angle uniformly on (-pi, pi] and a field
with all four matrix coefficients uniform on [-1, 1] (the
coefficient-space switch draws the basis coordinates instead), builds
the rotated copy, runs detection, rotates the copy back by the
estimate, and scores the root of the summed squared coefficient
differences against the original field.  Scoring in coefficient space
sidesteps the half-turn ambiguity of the angle itself.  Detection
reads only the argument of the correlation, which a common scale on
both fields leaves unchanged, so draws on [-b, b] would give the same
counts and iterations with every error b times as large: the unit
scale loses nothing.

Randomness comes from numpy's default PCG64 generator.  Every trial
gets its own stream seeded by (campaign seed, trial index), so a
trial's draw depends on nothing but its index and reports are
bit-reproducible for a fixed seed.  ``run_trial`` plays one trial on a
generator it is given; ``run_campaign`` computes the same streams for
all indices at once and runs every trial as arrays, detecting with
``registration._detect_all``, bit for bit what ``run_trial`` gives on
``default_rng([seed, index])``.

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
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .fields import (
    UNIT_SQUARE,
    Decomposition,
    LinearField,
    _conjugate,
    _entries,
    _integer,
    recompose,
    second_moment,
    total_rotate,
)
from .multivector import wrap_angle
from .registration import (
    DegenerateZeroFieldError,
    DetectionStatus,
    DetectorConfig,
    _detect_all,
    _mapped,
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
    max_iter: int = 10000
    coefficient_space: bool = False

    def __post_init__(self):
        # Trial indices are hashed as one 32-bit word each.
        if not 1 <= _integer("trials", self.trials) <= 2 ** 32:
            raise ValueError(f"trials must be between 1 and 2**32, got {self.trials!r}")
        if _integer("seed", self.seed) < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed!r}")
        DetectorConfig(eps=self.eps, max_iter=self.max_iter)


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
    A statistic over no trials is NaN here and null in the JSON form.
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
        def defined(x: float):
            return None if math.isnan(x) else x

        return {
            "eps": self.eps,
            "trials": self.trials,
            "avg_error": defined(self.avg_error),
            "max_error": defined(self.max_error),
            "avg_iterations": defined(self.avg_iterations),
            "converged_fraction": self.converged_fraction,
            "seed": self.seed,
            "degenerate_trials": self.degenerate_trials,
            "non_converged_trials": self.non_converged_trials,
            "avg_error_all": defined(self.avg_error_all),
            "max_error_all": defined(self.max_error_all),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, allow_nan=False) + "\n"

    def csv_row(self) -> list:
        return [repr(self.eps), repr(self.avg_error), repr(self.max_error),
                repr(self.avg_iterations), repr(self.converged_fraction),
                str(self.trials), str(self.seed)]


def report_csv_header() -> list:
    return ["eps", "avg_error", "max_error", "avg_iterations",
            "converged_fraction", "trials", "seed"]


def _draw_field(rng: np.random.Generator, coefficient_space: bool) -> tuple:
    """Draw (angle, field): angle on (-pi, pi], coefficients on [-1, 1]."""
    angle = math.pi - 2.0 * math.pi * rng.random()
    coeffs = rng.uniform(-1.0, 1.0, size=4)
    if coefficient_space:
        field = recompose(Decomposition(*coeffs))
    else:
        field = LinearField(coeffs[0], coeffs[1], coeffs[2], coeffs[3])
    return angle, field


def _errors(diffs: np.ndarray) -> np.ndarray:
    """Root of the summed squared coefficient differences, per column of diffs.

    Squares are taken with ``pow``, as ``x ** 2`` on a numpy float does.
    Fields drawn on [-1, 1] keep these sums far inside the float range.
    """
    squares = np.float_power(diffs, 2.0)
    return np.sqrt(squares[0] + squares[1] + squares[2] + squares[3])


def run_trial(rng: np.random.Generator, eps: float, max_iter: int = 10000,
              coefficient_space: bool = False) -> TrialOutcome:
    """One randomized draw-rotate-detect-score round; the reference for ``run_campaign``."""
    angle, field = _draw_field(rng, coefficient_space)
    copy = total_rotate(field, angle)
    try:
        result = detect(field, copy, DetectorConfig(eps=eps, max_iter=max_iter))
    except DegenerateZeroFieldError:
        return TrialOutcome(math.nan, 0, DetectionStatus.DEGENERATE_ZERO_FIELD)
    recovered = total_rotate(copy, -result.alpha)
    diffs = np.subtract(recovered.coefficients(), field.coefficients())
    return TrialOutcome(float(_errors(diffs[:, None])[0]), result.iterations, result.status)


# numpy's SeedSequence hash (pool of four 32-bit words) and PCG64's multiplier.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MULT_LIMBS = [np.uint64(_PCG64_MULT >> (32 * k) & _MASK32) for k in range(4)]


def _words(value: int) -> list:
    """SeedSequence's split of a non-negative integer into 32-bit words, low word first."""
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _carry(columns: list) -> list:
    """Normalise column sums to 32-bit limbs, dropping the carry out of the top."""
    limbs = []
    carry = 0
    for column in columns:
        column = column + carry
        limbs.append(column & _MASK32)
        carry = column >> 32
    return limbs


def _pcg64_step(state: list, inc: list) -> list:
    """state * multiplier + inc mod 2**128, on 32-bit limbs (low first) in uint64 arrays."""
    columns = list(inc)
    for i in range(4):
        for j in range(4 - i):
            product = state[i] * _MULT_LIMBS[j]
            columns[i + j] = columns[i + j] + (product & _MASK32)
            if i + j < 3:
                columns[i + j + 1] = columns[i + j + 1] + (product >> 32)
    return _carry(columns)


def _trial_draws(seed: int, n: int) -> tuple:
    """(angle, coeffs) of trials 0..n-1, bit for bit what ``_draw_field`` takes
    from ``np.random.default_rng([seed, index])``.

    Both of numpy's steps run on arrays across all indices at once:
    SeedSequence's hash of [seed, index] in uint32 (indices must fit one
    word, so n <= 2**32), then PCG64's seeding and its first five
    outputs in 128-bit arithmetic on four 32-bit limbs.  The outputs
    become doubles the way ``Generator.random`` forms them, and the
    coefficients are mapped to [-1, 1] as ``Generator.uniform`` maps
    them (low + (high - low) * draw).  ``coeffs`` has one row per matrix
    entry (or basis coordinate).
    """
    index = np.arange(n, dtype=np.uint32)
    entropy = [np.full(1, w, dtype=np.uint32) for w in _words(seed)] + [index]
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const
        return value ^ (value >> 16)

    def mix(x, y):
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ (result >> 16)

    zero = np.zeros(1, dtype=np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))

    # generate_state(4, uint64): eight words cycled from the pool.
    hash_const = _INIT_B
    w = []
    for i in range(8):
        word = pool[i % 4] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        word = word * hash_const
        w.append((word ^ (word >> 16)).astype(np.uint64))

    # PCG64 seeding: the state words are (initstate high, low, initseq high,
    # low) as uint64s; inc = initseq << 1 | 1, state = (inc + initstate) * mult + inc.
    seq = [w[6], w[7], w[4], w[5]]
    inc = [(seq[k] << 1 | (seq[k - 1] >> 31 if k else 1)) & _MASK32 for k in range(4)]
    state = _pcg64_step(_carry([a + b for a, b in zip(inc, [w[2], w[3], w[0], w[1]])]), inc)
    # Each output: one step, then XSL-RR (high ^ low, rotated right by the top six bits).
    draws = []
    for _ in range(5):
        state = _pcg64_step(state, inc)
        high = state[3] << 32 | state[2]
        x = high ^ (state[1] << 32 | state[0])
        rotation = high >> 58
        x = x >> rotation | x << (64 - rotation & 63)
        draws.append((x >> 11) * 2.0 ** -53)
    return math.pi - 2.0 * math.pi * draws[0], -1.0 + 2.0 * np.array(draws[1:])


def _outcomes(spec: TrialSpec) -> tuple:
    """(live, errors, iterations, capped) of every trial of the campaign.

    Trial i is ``run_trial(np.random.default_rng([seed, i]), ...)`` bit
    for bit, but all trials are drawn, built, detected and scored
    together as arrays.  ``live`` marks the trials that are not
    degenerate; the other three arrays hold those trials, in order.
    """
    angle, coeffs = _trial_draws(operator.index(spec.seed), spec.trials)
    field = _entries(*coeffs) if spec.coefficient_space else tuple(coeffs)
    copy = _conjugate(np.cos(angle), np.sin(angle), *field)
    live, applied, iterations, capped = _detect_all(field, copy, second_moment(UNIT_SQUARE),
                                                    spec.eps, spec.max_iter)
    field = tuple(x[live] for x in field)
    copy = tuple(x[live] for x in copy)
    back = -_mapped(wrap_angle, -applied)
    recovered = _conjugate(np.cos(back), np.sin(back), *copy)
    return live, _errors(np.subtract(recovered, field)), iterations, capped


def run_campaign(spec: TrialSpec) -> ExperimentReport:
    """Run the whole campaign and aggregate; deterministic for a fixed seed."""
    _, errors, iterations, capped = _outcomes(spec)
    converged_errors = errors[~capped].tolist()
    all_errors = errors.tolist()
    completed = len(all_errors)

    def avg(values: list) -> float:
        return sum(values) / len(values) if values else math.nan

    return ExperimentReport(
        eps=spec.eps,
        trials=spec.trials,
        seed=spec.seed,
        avg_error=avg(converged_errors),
        max_error=max(converged_errors) if converged_errors else math.nan,
        avg_iterations=int(iterations.sum()) / completed if completed else math.nan,
        converged_fraction=len(converged_errors) / completed if completed else 0.0,
        degenerate_trials=spec.trials - completed,
        non_converged_trials=int(capped.sum()),
        avg_error_all=avg(all_errors),
        max_error_all=max(all_errors) if all_errors else math.nan,
    )
