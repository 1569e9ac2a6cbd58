"""The block sampler keeps Algorithm 2's candidate law and search outcomes.

Three checks:

* **candidate law** — rows drawn by the block kernel are compared, one
  coordinate at a time with two-sample KS tests, against a plain
  reference loop written here (``rng.dirichlet`` plus rejection, one row
  at a time, no inflation) on narrow, wide, fixed-coordinate, two-scale
  and rare-transition rows. Bonferroni-corrected over all coordinates.
* **round position** — with λ-inflation on, the first and the last rounds
  of 400 blocks of 40 on quick swat's widest 12-successor row, one KS
  test per coordinate, Bonferroni-corrected: a pooled pass serves a
  block's early rounds first, so only the shuffle of escalated blocks
  keeps the law from depending on a round's position; a tight row that
  escalates ×100 after every unserved vector checks the shuffle itself;
* **search outcomes** — ``rounds_to_min``, ``rounds_to_max`` and the
  IMCIS interval endpoints over 30 search seeds on quick group-repair and
  swat, binned by quartiles recorded at version 0.13.0 (the one-round,
  one-row sampler) and compared with a chi-square test, Bonferroni-corrected.

Regenerate :data:`REFERENCE_QUARTILES` only from a checkout of the old
sampler: ``PYTHONPATH=<that checkout>/src python -m tests.statistical.test_imcis_law``
prints them (200 seeds, ~8 minutes on a 2-core Xeon).
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats

from repro.imcis import DirichletConfig, DirichletRowSampler, IMCISConfig, imcis_from_sample
from repro.imcis.dirichlet import BlockSampler
from repro.imcis.random_search import RandomSearchConfig
from repro.importance.estimator import run_importance_sampling
from repro.models.registry import REGISTRY

#: Family-wise significance level of each check.
ALPHA = 0.01
#: Rows per sampler in the candidate-law comparison.
N_ROWS = 10_000
#: No λ-inflation, so both samplers draw from Dirichlet(K·â) throughout.
NO_INFLATION = dict(inflate_after=10**9)


def reference_rows(center, lower, upper, uniform, k_of_budget, n, rng, batch=16):
    """The old per-row loop: uniform stage, a batch of Dirichlet draws, first fit."""
    fixed = upper - lower <= 2e-12
    group = [j for j in np.flatnonzero(~fixed) if j not in uniform]
    rows = []
    while len(rows) < n:
        row, budget = center.copy(), 1.0 - center[fixed].sum()
        for pos, j in enumerate(uniform):
            rest = list(uniform[pos + 1 :]) + group
            low = max(lower[j], budget - upper[rest].sum())
            high = min(upper[j], budget - lower[rest].sum())
            row[j] = rng.uniform(low, high)
            budget -= row[j]
        block = budget * rng.dirichlet(k_of_budget(budget) * center[group], size=batch)
        inside = np.all((block >= lower[group] - 1e-12) & (block <= upper[group] + 1e-12), axis=1)
        if inside.any():
            row[group] = block[inside.argmax()]
            rows.append(row)
    return np.array(rows)


def paper_k(center, eps):
    """``K = min_j â_j(1 − â_j)/ε_j² − 1`` over the free coordinates."""
    free = eps > 1e-12
    return float(np.min(center[free] * (1 - center[free]) / eps[free] ** 2 - 1.0))


def split_k(center, eps, group):
    """§IV-C-2's conditional concentration of the Dirichlet group."""

    def k_of_budget(budget):
        means = budget * center[group] / center[group].sum()
        values = (means * (budget - means) / eps[group] ** 2 - 1.0) / budget
        return max(float(np.min(np.maximum(values, 1.0))), 1.0)

    return k_of_budget


#: name -> (centre, half-widths ε, sampler config, uniform coordinates)
ROWS = {
    "narrow": ([0.3, 0.5, 0.2], [0.01] * 3, {}, []),
    "wide": ([0.3, 0.5, 0.2], [0.2] * 3, {}, []),
    "fixed": ([0.3, 0.5, 0.2], [0.0, 0.05, 0.05], {}, []),
    "two-scale": ([0.5, 0.3, 0.2], [1e-3, 0.08, 0.08], {"outlier_ratio": 50.0}, [0]),
    "rare": ([3e-4, 1 - 3e-4], [2.5e-4, 2.5e-4], {}, []),
}


@pytest.fixture(scope="module")
def law_pvalues():
    """``(row, coordinate, p-value)`` of every per-coordinate KS test."""
    results = []
    for index, (name, (center, eps, config, uniform)) in enumerate(ROWS.items()):
        center, eps = np.array(center), np.array(eps)
        lower, upper = np.clip(center - eps, 0.0, 1.0), np.clip(center + eps, 0.0, 1.0)
        eps = (upper - lower) / 2.0
        sampler = DirichletRowSampler(
            np.arange(center.size), center, lower, upper,
            DirichletConfig(**NO_INFLATION, **config),
        )
        assert sampler.uses_two_scale_split == bool(uniform)
        group = [j for j in range(center.size) if eps[j] > 1e-12 and j not in uniform]
        if uniform:
            k_of_budget = split_k(center, eps, group)
        else:
            k_of_budget = lambda budget, k=paper_k(center, eps): k  # noqa: E731
        rng = np.random.default_rng(100 + index)
        block = BlockSampler([sampler])
        blocks = np.concatenate([block.sample(rng, 50)[0] for _ in range(N_ROWS // 50)])
        reference = reference_rows(center, lower, upper, uniform, k_of_budget, N_ROWS, rng)
        assert sampler.k_scale == 1.0
        assert np.all(blocks >= lower - 1e-9) and np.all(blocks <= upper + 1e-9)
        for j in range(center.size):
            if eps[j] <= 1e-12:
                assert np.all(blocks[:, j] == center[j])
                continue
            results.append((name, j, stats.ks_2samp(blocks[:, j], reference[:, j]).pvalue))
    return results


@pytest.mark.parametrize("name", sorted(ROWS))
def test_candidate_law_matches_reference_loop(law_pvalues, name):
    threshold = ALPHA / len(law_pvalues)
    for row, coordinate, pvalue in law_pvalues:
        if row == name:
            assert pvalue > threshold, f"{name} coordinate {coordinate}: KS p = {pvalue:.2e}"


# ---------------------------------------------------------------------------
# Round position within a block

#: Blocks, rounds per block, and the rounds compared at each end of a block.
POSITION_BLOCKS, POSITION_ROUNDS, POSITION_EDGE = 400, 40, 10


def widest_swat_row() -> DirichletRowSampler:
    """Quick swat's 12-successor row with the largest total width, default config."""
    imc = REGISTRY.make_study("swat", rng=2018, quick=True).imc
    bounds = [imc.row_bounds(state) for state in range(imc.n_states)]
    state = max(
        (s for s, (support, _, _) in enumerate(bounds) if support.size == 12),
        key=lambda s: float((bounds[s][2] - bounds[s][1]).sum()),
    )
    support, lower, upper = bounds[state]
    center = np.array([imc.center.probability(state, int(j)) for j in support])
    return DirichletRowSampler(support, center, lower, upper, DirichletConfig())


def test_round_position_does_not_change_the_law():
    """A pooled pass serves a block's early rounds first; with λ-inflation on,
    the first and last rounds of a block must still share one law."""
    sampler = widest_swat_row()
    block = BlockSampler([sampler])
    rng = np.random.default_rng(2018)
    rows = np.stack([block.sample(rng, POSITION_ROUNDS)[0] for _ in range(POSITION_BLOCKS)])
    assert sampler.stats.inflations > 0
    early = rows[:, :POSITION_EDGE].reshape(-1, rows.shape[2])
    late = rows[:, -POSITION_EDGE:].reshape(-1, rows.shape[2])
    free = np.flatnonzero(sampler.upper > sampler.lower)
    threshold = ALPHA / free.size
    for j in free:
        pvalue = stats.ks_2samp(early[:, j], late[:, j]).pvalue
        assert pvalue > threshold, f"coordinate {j}: early vs late rounds, KS p = {pvalue:.2e}"


def test_escalated_rounds_are_shuffled():
    """A tight row whose every unserved round escalates ×100 after one
    vector: unshuffled, a block's last rounds would all come from the
    escalated, far more concentrated passes (KS p < 1e-13 on every seed
    tried); shuffled, its first and last rounds share one law."""
    config = DirichletConfig(batch_size=1, inflate_after=1, inflation=100.0, decay=0.5)
    center = np.array([0.3, 0.5, 0.2])
    sampler = DirichletRowSampler(np.arange(3), center, center - 0.05, center + 0.05, config)
    block = BlockSampler([sampler])
    rng = np.random.default_rng(2018)
    rows = np.stack([block.sample(rng, POSITION_ROUNDS)[0] for _ in range(100)])
    assert sampler.stats.inflations > 0
    early = rows[:, :POSITION_EDGE].reshape(-1, 3)
    late = rows[:, -POSITION_EDGE:].reshape(-1, 3)
    for j in range(3):
        pvalue = stats.ks_2samp(early[:, j], late[:, j]).pvalue
        assert pvalue > ALPHA / 3, f"coordinate {j}: early vs late rounds, KS p = {pvalue:.2e}"


# ---------------------------------------------------------------------------
# Search outcomes against 0.13.0

#: The search the outcome check runs (R = 100 keeps 30 seeds cheap).
SEARCH = RandomSearchConfig(r_undefeated=100, record_history=False)
OUTCOME_SEEDS = range(30)
STATISTICS = ("rounds_to_min", "rounds_to_max", "ci_low", "ci_high")

#: Quartiles (25/50/75%) of each statistic over search seeds 0..199 of
#: :func:`search_outcomes`, recorded at version 0.13.0 (commit 0c0f87d,
#: one ``rng.dirichlet(alpha, size=16)`` call per row per round) with this
#: module's ``__main__``.
REFERENCE_QUARTILES = {
    "group-repair": {
        "rounds_to_min": (41.25, 94.0, 165.75),
        "rounds_to_max": (46.0, 95.0, 153.25),
        "ci_low": (9.36022e-08, 9.37585e-08, 9.38972e-08),
        "ci_high": (1.18503e-07, 1.18706e-07, 1.18908e-07),
    },
    "swat": {
        "rounds_to_min": (29.75, 76.0, 136.5),
        "rounds_to_max": (48.75, 97.5, 158.75),
        "ci_low": (0.00429901, 0.00467827, 0.00515282),
        "ci_high": (0.0901522, 0.140564, 0.258176),
    },
}


def search_outcomes(study: str, seeds) -> "dict[str, list[float]]":
    """One quick IS sample (1 000 traces, seed 2018); one IMCIS search per seed."""
    case = REGISTRY.make_study(study, rng=2018, quick=True)
    imc = case.imc
    sample = run_importance_sampling(
        case.proposal, case.formula, 1000, np.random.default_rng(2018), original=imc.center
    )
    outcomes: "dict[str, list[float]]" = {name: [] for name in STATISTICS}
    for seed in seeds:
        result = imcis_from_sample(
            imc, sample, np.random.default_rng(seed), IMCISConfig(search=SEARCH)
        )
        outcomes["rounds_to_min"].append(result.search.rounds_to_min)
        outcomes["rounds_to_max"].append(result.search.rounds_to_max)
        outcomes["ci_low"].append(result.interval.low)
        outcomes["ci_high"].append(result.interval.high)
    return outcomes


@pytest.mark.parametrize("study", sorted(REFERENCE_QUARTILES))
def test_search_outcomes_match_reference_quartiles(study):
    outcomes = search_outcomes(study, OUTCOME_SEEDS)
    threshold = ALPHA / (len(REFERENCE_QUARTILES) * len(STATISTICS))
    for name in STATISTICS:
        edges = REFERENCE_QUARTILES[study][name]
        counts = np.bincount(np.searchsorted(edges, outcomes[name]), minlength=4)
        pvalue = stats.chisquare(counts).pvalue
        assert pvalue > threshold, f"{study} {name}: quartile counts {counts}, p = {pvalue:.2e}"


if __name__ == "__main__":
    for study in sorted(REFERENCE_QUARTILES):
        outcomes = search_outcomes(study, range(200))
        quartiles = {k: [float(f"{q:.6g}") for q in np.quantile(v, [0.25, 0.5, 0.75])]
                     for k, v in outcomes.items()}
        print(study, quartiles)
