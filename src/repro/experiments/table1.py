"""Table I: random-search statistics on the illustrative example.

For each repetition, run Algorithm 1 on a fresh sample, record the number
of rounds ``nr`` the random search ran (``rounds_total``) and the extreme
parameter values ``(a_min, c_min, a_max, c_max)`` read off the optimised
matrices, then summarise with average / min / max / standard deviation.

A repetition is the matrix's ``imcis`` cell
(:mod:`repro.experiments.matrix`), whose record carries Algorithm 2's
search summary: this module reads it, so Table I shares the cell's
runner, store key kind and codec.

Table I was produced with the parameters sampled (not closed-form-pinned),
so the default configuration disables the single-observation closed form —
matching the spread the paper reports (e.g. ``a_min`` averaging 5.02e-5
against the exact bound 5e-5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.errors import StoreError
from repro.experiments.matrix import _CellContext, _CellOutcome, run_cell_repetitions
from repro.imcis.random_search import RandomSearchConfig
from repro.models import illustrative
from repro.models.base import CaseStudy
from repro.store.codecs import decode_search_summary
from repro.store.store import ArtifactStore
from repro.util.stats import DescriptiveStats, describe
from repro.util.tables import format_table


def transition_value(
    study: CaseStudy, rows: "dict[int, np.ndarray | list[float]]", state: int, target: int
) -> float | None:
    """Read a transition probability out of an optimised row assignment."""
    row = rows.get(state)
    if row is None:
        return None
    support, _lo, _up = study.imc.row_bounds(state)
    positions = np.flatnonzero(support == target)
    if positions.size == 0:
        return None
    return float(row[int(positions[0])])


@dataclass
class Table1Result:
    """Collected per-repetition statistics and their summaries.

    :attr:`records` — one possibly-sparse mapping per successful
    repetition (a repetition lacks a key when ``transition_value``
    returned ``None`` for it) — is the single source of truth; the
    per-column views the summary statistics consume are derived from it,
    so columns and rows can never desynchronize.
    """

    records: list[dict[str, float]] = field(default_factory=list)

    def _column(self, key: str) -> list[float]:
        return [record[key] for record in self.records if key in record]

    @property
    def n_rounds(self) -> list[int]:
        """Rounds the search ran (``rounds_total``), per repetition."""
        return [int(record["n_rounds"]) for record in self.records]

    @property
    def a_min(self) -> list[float]:
        """Optimised ``a`` at the minimising extreme, per repetition."""
        return self._column("a_min")

    @property
    def c_min(self) -> list[float]:
        """Optimised ``c`` at the minimising extreme, per repetition."""
        return self._column("c_min")

    @property
    def a_max(self) -> list[float]:
        """Optimised ``a`` at the maximising extreme, per repetition."""
        return self._column("a_max")

    @property
    def c_max(self) -> list[float]:
        """Optimised ``c`` at the maximising extreme, per repetition."""
        return self._column("c_max")

    def rows(self) -> list[list[object]]:
        """Aligned per-repetition rows (blank cells for missing values)."""
        return [
            [int(record["n_rounds"])]
            + [record.get(key, "") for key in ("a_min", "c_min", "a_max", "c_max")]
            for record in self.records
        ]

    def summaries(self) -> dict[str, DescriptiveStats]:
        """Column summaries in the paper's layout."""
        return {
            "nr": describe(self.n_rounds),
            "amin": describe(self.a_min),
            "cmin": describe(self.c_min),
            "amax": describe(self.a_max),
            "cmax": describe(self.c_max),
        }

    def render(self) -> str:
        """ASCII rendering shaped like the paper's Table I."""
        cols = self.summaries()
        rows = []
        for stat in ("average", "min", "max", "st. dev."):
            rows.append(
                [stat]
                + [cols[name].as_dict()[stat] for name in ("nr", "amin", "cmin", "amax", "cmax")]
            )
        return format_table(
            ["", "nr", "amin", "cmin", "amax", "cmax"],
            rows,
            title="Table I — illustrative example, random-search statistics",
        )


def _table1_record(study: CaseStudy, outcome: _CellOutcome) -> "dict[str, float] | None":
    """Rounds and extreme ``a``/``c`` values of one ``imcis`` cell repetition.

    ``None`` when the repetition had no successful trace, so no search ran.
    """
    if outcome.detail is None or "search" not in outcome.detail:
        raise StoreError(
            "imcis cell record lacks the 'search' key Table I reads; "
            "it was not written by this version's matrix cell"
        )
    search = decode_search_summary(outcome.detail["search"])
    if search is None:
        return None
    rows_min, rows_max = search["rows_min"], search["rows_max"]
    values = {
        "n_rounds": float(search["rounds_total"]),
        "a_min": transition_value(study, rows_min, illustrative.S0, illustrative.S1),
        "c_min": transition_value(study, rows_min, illustrative.S1, illustrative.S2),
        "a_max": transition_value(study, rows_max, illustrative.S0, illustrative.S1),
        "c_max": transition_value(study, rows_max, illustrative.S1, illustrative.S2),
    }
    return {key: value for key, value in values.items() if value is not None}


def run_table1(
    repetitions: int = 100,
    n_samples: int = 10_000,
    r_undefeated: int = 1000,
    rng: np.random.Generator | int | None = None,
    params: illustrative.IllustrativeParameters = illustrative.IllustrativeParameters(),
    workers: "int | str | None" = None,
    store: "ArtifactStore | Path | str | None" = None,
) -> Table1Result:
    """Run the Table I experiment.

    Parameters
    ----------
    repetitions : int
        Number of Algorithm 1 runs (the paper uses 100).
    n_samples : int
        Traces per repetition (the paper uses 10 000).
    r_undefeated : int
        Random-search stopping parameter ``R`` (the paper uses 1000).
    rng : numpy.random.Generator or int, optional
        Root seed every repetition stream derives from.
    params : IllustrativeParameters, optional
        Parameters of the illustrative IMC.
    workers : int or str, optional
        Worker processes for the repetition fan-out (``"auto"`` = CPU
        count); the statistics are identical for every worker count.
    store : ArtifactStore or path-like, optional
        Artifact store: repetitions already recorded under this exact
        configuration and seed are loaded instead of recomputed.
        Requires an explicit, non-``None`` *rng* seed.

    Returns
    -------
    Table1Result
        Per-repetition records plus the paper's summary statistics.
    """
    study = illustrative.make_study(params, n_samples=n_samples)
    search = RandomSearchConfig(
        r_undefeated=r_undefeated, closed_form_single=False, record_history=False
    )
    context = _CellContext(study, "imcis", n_samples, study.confidence, search)
    outcomes = run_cell_repetitions(
        context, repetitions, rng, workers=workers, store=ArtifactStore.coerce(store)
    )
    records = [_table1_record(study, outcome) for outcome in outcomes]
    return Table1Result(records=[record for record in records if record is not None])
