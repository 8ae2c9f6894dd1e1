"""Simulated inputs of the rare_events and cli_mbma workloads.

Only numpy is used; the program under test receives the generated CSV
files.  Sizes are fixed and only values depend on the seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# rare_events: one replicate meta-analysis per study count, in seeded order
RARE_STUDY_COUNTS = (3, 4, 5, 6, 7, 8)
RARE_THETA = 0.5  # true log odds ratio
RARE_TAU = 0.3  # true between-study sd of the log odds ratio
RARE_CONTROL_RISK = (0.01, 0.05)  # uniform range of the control-arm risk
RARE_ARM_SIZE = (20, 100)  # uniform integer range of each arm's size

# cli_mbma: a dose-response meta-analysis with a fixed arm make-up
MBMA_ARMS_PER_STUDY = (2,) * 8 + (3,) * 8 + (4,) * 7 + (5,) * 7  # 30 studies, 103 arms
MBMA_DOSES = (25.0, 50.0, 100.0, 150.0, 200.0)
MBMA_EMAX = 2.0  # true maximal effect, log-odds scale
MBMA_ED50 = 40.0  # true dose of half the maximal effect
MBMA_TAU = 0.5  # true sd of the arm-level random effects
MBMA_BASELINE = (-1.0, 0.5)  # control-arm logit: normal mean and sd
MBMA_ARM_SIZE = (40, 200)


def _expit(x):
    return 1.0 / (1.0 + np.exp(-x))


@dataclass(frozen=True)
class PairwiseReplicate:
    """Two-arm binary studies: control (y0, n0) and treatment (y1, n1)."""

    y0: tuple[int, ...]
    n0: tuple[int, ...]
    y1: tuple[int, ...]
    n1: tuple[int, ...]

    def wide_csv(self) -> str:
        lines = ["study,r1,n1,r2,n2"]
        for i, row in enumerate(zip(self.y0, self.n0, self.y1, self.n1), start=1):
            lines.append(f"S{i}," + ",".join(str(v) for v in row))
        return "\n".join(lines) + "\n"


def rare_event_replicates(seed: int) -> list[PairwiseReplicate]:
    """Few-study meta-analyses with 1-5 % event rates.

    delta_i ~ N(RARE_THETA, RARE_TAU^2) on the log-odds scale; small arms
    at these risks produce zero-event arms and double-zero studies.
    """
    rng = np.random.default_rng([seed, 1])
    out = []
    for k in rng.permutation(RARE_STUDY_COUNTS):
        p0 = rng.uniform(*RARE_CONTROL_RISK, size=k)
        delta = rng.normal(RARE_THETA, RARE_TAU, size=k)
        p1 = _expit(np.log(p0 / (1.0 - p0)) + delta)
        n0 = rng.integers(RARE_ARM_SIZE[0], RARE_ARM_SIZE[1] + 1, size=k)
        n1 = rng.integers(RARE_ARM_SIZE[0], RARE_ARM_SIZE[1] + 1, size=k)
        y0 = rng.binomial(n0, p0)
        y1 = rng.binomial(n1, p1)
        out.append(
            PairwiseReplicate(
                tuple(int(v) for v in y0),
                tuple(int(v) for v in n0),
                tuple(int(v) for v in y1),
                tuple(int(v) for v in n1),
            )
        )
    return out


@dataclass(frozen=True)
class DoseArm:
    study: int
    dose: float
    responders: int
    sample_size: int


def mbma_arms(seed: int) -> list[DoseArm]:
    """Arms of a simulated Emax dose-response meta-analysis.

    Each study has a placebo arm and a seeded subset of MBMA_DOSES; the
    arm effects of a study are correlated as in the fitted model
    (covariance tau^2 * (I + J) / 2).
    """
    rng = np.random.default_rng([seed, 2])
    arms = []
    for s, n_arms in enumerate(rng.permutation(MBMA_ARMS_PER_STUDY), start=1):
        doses = np.sort(rng.choice(MBMA_DOSES, size=n_arms - 1, replace=False))
        m = n_arms - 1
        cov = MBMA_TAU**2 * 0.5 * (np.eye(m) + np.ones((m, m)))
        gamma = np.linalg.cholesky(cov) @ rng.standard_normal(m)
        base = rng.normal(*MBMA_BASELINE)
        logits = np.concatenate(
            [[base], base + MBMA_EMAX * doses / (MBMA_ED50 + doses) + gamma]
        )
        sizes = rng.integers(MBMA_ARM_SIZE[0], MBMA_ARM_SIZE[1] + 1, size=n_arms)
        events = rng.binomial(sizes, _expit(logits))
        for dose, r, n in zip(np.concatenate([[0.0], doses]), events, sizes):
            arms.append(DoseArm(s, float(dose), int(r), int(n)))
    return arms


def mbma_wide_csv(arms: list[DoseArm]) -> str:
    """One study per row: nd, then d<j>, r<j>, n<j> per arm, blank when absent."""
    width = max(MBMA_ARMS_PER_STUDY)
    header = ["study", "nd"] + [f"{c}{j}" for j in range(1, width + 1) for c in "drn"]
    lines = [",".join(header)]
    for s in sorted({a.study for a in arms}):
        own = [a for a in arms if a.study == s]
        cells = [f"T{s}", str(len(own))]
        for j in range(width):
            if j < len(own):
                a = own[j]
                cells += [f"{a.dose:g}", str(a.responders), str(a.sample_size)]
            else:
                cells += ["", "", ""]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
