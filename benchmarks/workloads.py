"""The three benchmark workloads, their inputs and their correctness checks.

Each workload builds its inputs from the seed (that is the set-up the
benchmark times), then runs one operation at a time in a closed loop:

* ``campaign``: one ``rotalign experiment`` run through ``cli.main`` per
  operation, cycling the criterion-6 eps ladder.  Work unit: one trial.
* ``verify``: one criterion-5 shaped pair per operation, detected with
  ``detect`` and then with ``oracle_detect``.  Work unit: one pair.
* ``sampled``: one ``detect_sampled`` at n = 512 per operation on exact
  linear pairs.  Work unit: one detection.

Only public names of the package are called, and never with a thread
count, so the package's internals can change without touching this file.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from rotalign import cli, fields, registration

# Criterion 6: eps ladder and its average-error bands (converged trials).
LADDER = (0.1, 1e-3, 1e-5)
ERROR_BANDS = {0.1: (0.03, 0.3), 1e-3: (5e-4, 1e-2), 1e-5: (5e-6, 1e-4)}
CAMPAIGN_TRIALS = 2000           # trials per experiment run

VERIFY_EPS = 1e-5                # criterion 5's eps
VERIFY_PAIRS = 8192              # pairs drawn per seed, cycled if time remains
DISAGREE_BOUND = 1e-4            # criterion 5's detect-vs-oracle bound, mod pi
REPRODUCE_TOL = 1e-6             # |total_rotate(u, -oracle) - v| in coefficients

SAMPLED_N = 512
SAMPLED_EPS = 1e-6
SAMPLED_MAX_ITER = 200           # guard: a stalled detection fails instead of hanging
SAMPLED_PAIRS = 8
SAMPLED_ENERGY_RATIO = 0.3       # saddle / invariant energy
SAMPLED_OFFSET = 0.7             # |t| in radians; with the ratio, about 23 iterations
SAMPLED_TOL = 1e-4               # |alpha - t| mod pi for every detection


def angle_gap(a: float, b: float) -> float:
    """Distance between two angles modulo pi."""
    d = abs(a - b) % math.pi
    return min(d, math.pi - d)


@dataclass
class Op:
    seconds: float      # wall time of the program call being measured
    units: int          # work units it completed
    ok: bool


@dataclass
class Outcome:
    """What a workload reports once its loop has ended."""

    err_over_eps: float
    details: dict = field(default_factory=dict)
    extra_attempted: int = 0     # checks run after the loop
    extra_failed: int = 0


class Campaign:
    name = "campaign"
    unit = "trial"
    block = len(LADDER)      # operations per traced/untraced block: one ladder pass

    def __init__(self, seed: int, tmpdir: str, api):
        self.api = api
        self.tmpdir = tmpdir
        self.seed = seed
        self.errors = {eps: [] for eps in LADDER}
        self.capped = 0
        self.first_hashes = {}
        self.failures = []

    def campaign_seed(self, ladder_pass: int) -> int:
        """Input: one campaign seed per ladder pass, derived from the run seed."""
        return self.seed * 1_000_000 + ladder_pass

    def _argv(self, op_index: int) -> tuple:
        eps = LADDER[op_index % len(LADDER)]
        cseed = self.campaign_seed(op_index // len(LADDER))
        out = os.path.join(self.tmpdir, f"report_{op_index % len(LADDER)}.json")
        argv = ["experiment", "--trials", str(CAMPAIGN_TRIALS), "--eps", repr(eps),
                "--seed", str(cseed), "--out", out]
        return eps, out, argv

    def _run(self, op_index: int, main) -> tuple:
        eps, out, argv = self._argv(op_index)
        t0 = time.perf_counter()
        code = main(argv)
        seconds = time.perf_counter() - t0
        with open(out, "rb") as handle:
            raw = handle.read()
        return eps, code, raw, seconds

    def run_once(self, i: int) -> Op:
        eps, code, raw, seconds = self._run(i, self.api.main)
        report = json.loads(raw)
        ok = (code == 0 and report["trials"] == CAMPAIGN_TRIALS
              and math.isfinite(report["avg_error"]))
        if not ok:
            self.failures.append(f"eps={eps:g} op {i}: exit {code}, report {report}")
        self.errors[eps].append(report["avg_error"])
        self.capped += report["non_converged_trials"]
        if i < len(LADDER):
            self.first_hashes[repr(eps)] = hashlib.sha256(raw).hexdigest()
        return Op(seconds, CAMPAIGN_TRIALS, ok)

    def finish(self) -> Outcome:
        failed = 0
        # Criterion 6's bands hold for the average over 1e5 trials.  One run
        # of CAMPAIGN_TRIALS can leave the 1e-5 band through a single converged
        # trial with a tiny energy ratio, so the check pools the run's trials.
        pooled = {eps: statistics.fmean(errs) for eps, errs in self.errors.items() if errs}
        for eps, mean in pooled.items():
            lo, hi = ERROR_BANDS[eps]
            if not lo <= mean <= hi:
                failed += 1
                self.failures.append(f"eps={eps:g}: pooled avg_error {mean!r} "
                                     f"outside [{lo:g}, {hi:g}]")
        # Same seed, same code: the first ladder pass must reproduce byte for byte.
        for i in range(len(LADDER)):
            eps, code, raw, _ = self._run(i, cli.main)
            digest = hashlib.sha256(raw).hexdigest()
            if code != 0 or self.first_hashes.get(repr(eps)) != digest:
                failed += 1
                self.failures.append(f"eps={eps:g}: report hash changed on re-run")
        # The median over runs keeps one heavy-tailed run from moving the figure.
        ratios = {eps: statistics.median(errs) / eps for eps, errs in self.errors.items() if errs}
        return Outcome(
            err_over_eps=max(ratios.values()),
            details={"report_sha256": self.first_hashes,
                     "campaign_seeds": [self.campaign_seed(0),
                                        self.campaign_seed(len(self.errors[LADDER[0]]) - 1)],
                     "pooled_avg_error": {repr(e): m for e, m in pooled.items()},
                     "max_run_avg_error": {repr(e): max(v) for e, v in self.errors.items() if v},
                     "capped_frac": self.capped / (CAMPAIGN_TRIALS * sum(map(len, self.errors.values()))),
                     "trials_per_run": CAMPAIGN_TRIALS},
            extra_attempted=2 * len(LADDER), extra_failed=failed)


class Verify:
    name = "verify"
    unit = "pair"
    block = 256

    def __init__(self, seed: int, tmpdir: str, api):
        self.api = api
        self.cfg = registration.DetectorConfig(eps=VERIFY_EPS)
        rng = np.random.default_rng(seed)
        coeffs = rng.uniform(-1.0, 1.0, size=(VERIFY_PAIRS, 4))
        thetas = math.pi - 2.0 * math.pi * rng.random(VERIFY_PAIRS)
        self.pairs = []
        for row, theta in zip(coeffs.tolist(), thetas.tolist()):
            v = fields.LinearField(*row)
            self.pairs.append((v, api.total_rotate(v, theta)))
        self.gaps = []
        self.oracle_seconds = []
        self.capped = 0
        self.failures = []

    def run_once(self, i: int) -> Op:
        v, u = self.pairs[i % len(self.pairs)]
        t0 = time.perf_counter()
        result = self.api.detect(v, u, self.cfg)
        t1 = time.perf_counter()
        oracle = self.api.oracle_detect(v, u)
        self.oracle_seconds.append(time.perf_counter() - t1)
        ok = math.isfinite(result.alpha) and math.isfinite(oracle)
        if ok:
            back = fields.total_rotate(u, -oracle)
            residual = math.dist(back.coefficients(), v.coefficients())
            ok = residual <= REPRODUCE_TOL
            self.gaps.append(angle_gap(result.alpha, oracle))
        if not ok:
            self.failures.append(f"pair {i}: alpha {result.alpha!r}, oracle {oracle!r}")
        if result.status is registration.DetectionStatus.MAX_ITER_EXCEEDED:
            self.capped += 1
        return Op(t1 - t0, 1, ok)

    def finish(self) -> Outcome:
        gaps = self.gaps or [math.inf]
        over = [g / VERIFY_EPS for g in gaps]
        return Outcome(
            err_over_eps=statistics.quantiles(over, n=10, method="inclusive")[8]
            if len(over) > 1 else over[0],
            details={"disagree_frac": sum(g > DISAGREE_BOUND for g in gaps) / len(gaps),
                     "capped_frac": self.capped / max(1, len(self.oracle_seconds)),
                     "oracle_ms_p50": statistics.median(self.oracle_seconds) * 1e3
                     if self.oracle_seconds else None})


class Sampled:
    name = "sampled"
    unit = "detection"
    block = 1

    def __init__(self, seed: int, tmpdir: str, api):
        self.api = api
        self.cfg = registration.DetectorConfig(eps=SAMPLED_EPS, max_iter=SAMPLED_MAX_ITER)
        rng = np.random.default_rng(seed)
        self.pairs = []
        for j in range(SAMPLED_PAIRS):
            domain = fields.UNIT_DISK if j % 2 else fields.SymmetricDomain.square(1.0)
            # Energy ratio and offset size set the iteration count, so both are
            # fixed: every detection then costs the same number of resamples.
            # Directions, scale and the offset's sign come from the seed.
            phi_saddle, phi_inv = rng.uniform(-math.pi, math.pi, size=2)
            inv = rng.uniform(0.5, 1.5)
            sad = inv * math.sqrt(SAMPLED_ENERGY_RATIO)
            v = fields.recompose(fields.Decomposition(
                sad * math.cos(phi_saddle), sad * math.sin(phi_saddle),
                inv * math.cos(phi_inv), inv * math.sin(phi_inv)), domain)
            t = SAMPLED_OFFSET * float(rng.choice((-1.0, 1.0)))
            self.pairs.append((api.sample(v, SAMPLED_N),
                               api.sample(api.total_rotate(v, t), SAMPLED_N), t))
        self.gaps = []
        self.iterations = []
        self.failures = []

    def run_once(self, i: int) -> Op:
        sv, su, t = self.pairs[i % len(self.pairs)]
        t0 = time.perf_counter()
        result = self.api.detect_sampled(sv, su, self.cfg)
        seconds = time.perf_counter() - t0
        gap = angle_gap(result.alpha, t)
        ok = result.converged() and gap <= SAMPLED_TOL
        if not ok:
            self.failures.append(f"pair {i % len(self.pairs)}: {result.status.value}, "
                                 f"|alpha - t| = {gap:.3g}")
        self.gaps.append(gap)
        self.iterations.append(result.iterations)
        return Op(seconds, 1, ok)

    def finish(self) -> Outcome:
        return Outcome(
            err_over_eps=max(self.gaps) / SAMPLED_EPS,
            details={"alpha_err": self.gaps, "iterations": self.iterations,
                     "values_array_bytes": SAMPLED_N * SAMPLED_N * 2 * 8})


WORKLOADS = {w.name: w for w in (Campaign, Verify, Sampled)}
