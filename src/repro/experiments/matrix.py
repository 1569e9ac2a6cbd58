"""Cross-study experiment matrix: every registered study × every estimator.

The registry (:mod:`repro.models.registry`) turns the paper's three-table
reproduction into a benchmark suite; this module is its runner. A *cell*
is one ``(study, estimator, backend)`` combination; each cell runs a
configurable number of repetitions through the shared parallel fan-out
(:func:`~repro.experiments.runner.map_repetitions`) and aggregates the
per-repetition estimates, intervals and effective sample sizes into one
consolidated records table, rendered as ASCII, CSV, JSON and markdown.

Estimator semantics — each cell estimates the study's ground truth γ:

* ``mc`` / ``bayes`` simulate the exact chain ``A`` directly (crude
  baselines; blind to rare events at small sample sizes);
* ``is`` samples the study's proposal and weights against ``A`` (against
  the centre ``Â`` when the study has no ground truth), so its interval
  is an honest CI for γ — the matrix checks estimator correctness,
  whereas the Table II experiments deliberately weight against ``Â`` to
  exhibit the coverage failure;
* ``imcis`` runs Algorithm 1 over the study's IMC on the same kind of
  sample; its conservative interval covers γ whenever ``A ∈ [Â]``;
* ``ce`` iterates the cross-entropy refiner before estimating: part of
  the trace budget refines the proposal towards the zero-variance
  measure, the remainder funds a final fused-weight IS run under the
  refined proposal.

Each estimator is one entry of :data:`ESTIMATORS`: its run function and
the knobs that enter its cells' store keys. Adding or removing an
estimator touches that table only. An ``imcis`` repetition is exactly one
Section VI repetition: it also keeps the centre-chain IS result of its
sample, so Table II and Figures 2 and 4
(:mod:`repro.experiments.coverage`) run on :func:`run_cell_repetitions`
and share their store records with the matrix's ``imcis`` cells.

Determinism contract: every cell derives its repetition seeds from the
root seed alone — identically for every cell, so a single-study run
reproduces its rows from the full sweep — and repetitions are pure
functions of ``(context, seed)``. The rendered tables are therefore
bitwise identical for every worker count. Wall-clock timings are the one
exception; they are kept out of the deterministic artifacts and written
to a separate timing table.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import time
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.errors import EstimationError, StoreError
from repro.imcis.algorithm import IMCISConfig, imcis_from_sample
from repro.imcis.random_search import RandomSearchConfig
from repro.importance.bounded import UnrolledProposal
from repro.importance.cross_entropy import cross_entropy_estimate
from repro.importance.estimator import estimate_from_sample, run_importance_sampling
from repro.importance.zero_variance import zero_variance_proposal
from repro.models.base import CaseStudy
from repro.models.registry import REGISTRY, StudyRegistry
from repro.smc.bayes import bayesian_estimate
from repro.smc.engine import canonical_backend
from repro.smc.estimators import monte_carlo_estimate
from repro.smc.results import ConfidenceInterval
from repro.store.cache import map_repetitions_cached
from repro.store.codecs import (
    decode_interval,
    encode_ce_estimate,
    encode_estimation_result,
    encode_interval,
)
from repro.store.keys import code_versions, config_key, describe_study, seed_entropy
from repro.store.store import ArtifactStore
from repro.util.rng import spawn_seeds
from repro.util.tables import format_number, format_table

#: The default cell set: the paper's estimator stack (the crude baselines
#: cannot see rare events at smoke-run sample sizes).
DEFAULT_ESTIMATORS = ("is", "imcis")

#: Constants of the ``ce`` cells: refinement rounds, the fraction of each
#: repetition's budget spent refining, the smoothing λ and the
#: support-floor weight (tune them through
#: :func:`~repro.importance.cross_entropy.cross_entropy_estimate` itself).
CE_ROUNDS = 2
CE_REFINE_FRACTION = 0.5
CE_SMOOTHING = 0.5
CE_SUPPORT_FLOOR = 0.05

#: Fields older manifests carry that this version no longer has, with the
#: only values it can still honour (the ``ce`` constants above; ``imc``
#: knobs at their inert defaults). Any other value stays an unknown field.
_REMOVED_FIELDS: "dict[str, object]" = {
    "ce_rounds": CE_ROUNDS,
    "ce_refine_fraction": CE_REFINE_FRACTION,
    "ce_smoothing": CE_SMOOTHING,
    "ce_support_floor": CE_SUPPORT_FLOOR,
    "imc_batches": 4,
    "imc_ess_target": None,
    "imc_replica_budget": None,
}

#: Column order of the deterministic records table.
RECORD_FIELDS = (
    "study",
    "estimator",
    "backend",
    "repetitions",
    "n_samples",
    "gamma_true",
    "estimate_mean",
    "estimate_std",
    "ci_low",
    "ci_high",
    "ess_mean",
    "coverage",
    "within_ci",
)


@dataclass(frozen=True)
class MatrixConfig:
    """Configuration of one matrix run.

    Parameters
    ----------
    studies : tuple of str, optional
        Registry names to cover. ``None`` resolves to the registry's
        quick set under ``quick=True`` and to every registered study
        otherwise.
    estimators : tuple of str
        Estimators per study, out of :data:`ESTIMATORS`.
    backend : str, optional
        Simulation engine for every cell.
    repetitions : int
        Repetitions per cell.
    n_samples : int, optional
        Traces per repetition; ``None`` defers to each study's own value.
    confidence : float, optional
        Interval confidence level; ``None`` defers to each study.
    search_rounds : int
        The IMCIS random-search stopping parameter ``R``.
    quick : bool
        Apply each study's quick factory parameters.
    seed : int
        Root RNG seed every cell derives its repetition seeds from.
    workers : int or str, optional
        Worker processes for the repetition fan-out (``"auto"`` = CPU
        count, ``None`` = inline). Never affects results.
    """

    studies: "tuple[str, ...] | None" = None
    estimators: "tuple[str, ...]" = DEFAULT_ESTIMATORS
    backend: str | None = "auto"
    repetitions: int = 20
    n_samples: int | None = None
    confidence: float | None = None
    search_rounds: int = 1000
    quick: bool = False
    seed: int = 2018
    workers: "int | str | None" = None

    def search(self) -> "RandomSearchConfig | None":
        """The IMCIS random search every ``imcis`` cell runs.

        ``None`` when the run has no ``imcis`` cell, so an invalid
        ``search_rounds`` fails those runs alone (other cells never read
        it).

        Raises
        ------
        OptimizationError
            When ``search_rounds`` is out of the random search's range.
        """
        if "imcis" not in self.estimators:
            return None
        return RandomSearchConfig(r_undefeated=self.search_rounds, record_history=False)

    def to_payload(self) -> "dict[str, object]":
        """JSON-serialisable form, stored in resumable run manifests."""
        return {
            "studies": None if self.studies is None else list(self.studies),
            "estimators": list(self.estimators),
            "backend": self.backend,
            "repetitions": self.repetitions,
            "n_samples": self.n_samples,
            "confidence": self.confidence,
            "search_rounds": self.search_rounds,
            "quick": self.quick,
            "seed": self.seed,
            "workers": self.workers,
        }

    @staticmethod
    def from_payload(payload: "dict[str, object]") -> "MatrixConfig":
        """Invert :meth:`to_payload` (used by ``repro matrix --resume``).

        Per-estimator knobs that older versions stored (``ce_*``,
        ``imc_*``) are dropped when they hold the values this version
        runs with, so their manifests still resume. The removed
        ``"parallel"`` backend becomes ``"auto"`` with a
        :class:`DeprecationWarning`: those runs keyed and recorded their
        cells as ``"auto"``, so the manifest resumes onto the same cells.

        Raises
        ------
        StoreError
            When the payload carries fields this version does not know —
            e.g. a manifest written by a newer version, or a hand-edited
            one — instead of a raw ``TypeError`` deep in the CLI.
        """
        fields = {
            name: value
            for name, value in payload.items()
            if name not in _REMOVED_FIELDS or _REMOVED_FIELDS[name] != value
        }
        known = {f.name for f in dataclasses.fields(MatrixConfig)}
        unknown = sorted(set(fields) - known)
        if unknown:
            raise StoreError(
                f"run manifest carries unknown matrix-config field(s) {unknown}; "
                "it was probably written by a different version"
            )
        studies = fields.get("studies")
        fields["studies"] = None if studies is None else tuple(studies)
        fields["estimators"] = tuple(fields.get("estimators", DEFAULT_ESTIMATORS))
        if fields.get("backend") == "parallel":
            fields["backend"] = canonical_backend("parallel")
        return MatrixConfig(**fields)


@dataclass(frozen=True)
class _CellOutcome:
    """One repetition of one cell.

    ``detail`` carries estimator-specific results as an already-encoded
    JSON payload (codecs of :mod:`repro.store.codecs`): the ``ce``
    refinement diagnostics, and the ``imcis`` centre-chain IS result that
    Table II reads. The aggregation ignores it.
    """

    estimate: float
    interval: ConfidenceInterval
    ess: float | None
    detail: "dict | None" = None


@dataclass(frozen=True)
class _CellContext:
    """Per-cell payload shipped to repetition workers once.

    ``search`` is the IMCIS random search (``None`` when the run has no
    ``imcis`` cell); it never records history.
    """

    study: CaseStudy
    estimator: str
    n_samples: int
    confidence: float
    search: RandomSearchConfig | None
    backend: str | None


def _encode_cell_outcome(outcome: _CellOutcome) -> dict:
    """JSON payload of one cell repetition (exact float round-trip)."""
    payload = {
        "estimate": outcome.estimate,
        "interval": encode_interval(outcome.interval),
        "ess": outcome.ess,
    }
    if outcome.detail is not None:
        payload["detail"] = outcome.detail
    return payload


def _decode_cell_outcome(payload: dict) -> _CellOutcome:
    """Invert :func:`_encode_cell_outcome`."""
    return _CellOutcome(
        estimate=payload["estimate"],
        interval=decode_interval(payload["interval"]),
        ess=payload["ess"],
        detail=payload.get("detail"),
    )


def _cell_key(context: _CellContext, rng: "np.random.Generator | int") -> str:
    """Content address of one cell's repetition stream.

    Deliberately excludes the repetition and worker counts (repetition
    seeds are prefix-stable spawns of *rng*) and includes only the
    cell's own estimator's knobs (:attr:`Estimator.key_params`) — tuning
    the IMCIS search rounds does not evict the other estimators' cells.
    """
    return config_key(
        {
            "kind": "matrix-cell",
            "study": describe_study(context.study),
            "estimator": context.estimator,
            "n_samples": context.n_samples,
            "confidence": context.confidence,
            "params": ESTIMATORS[context.estimator].key_params(context),
            "backend": context.backend or "auto",
            "seed_entropy": seed_entropy(rng),
            "versions": code_versions(),
        }
    )


def _target(context: _CellContext):
    """The chain whose γ a cell estimates: the truth, else the centre ``Â``."""
    study = context.study
    return study.true_chain if study.true_chain is not None else study.center


# The run functions below call the simulation and estimation entry points
# through this module's globals at call time, so a wrapper installed on
# ``repro.experiments.matrix`` (e.g. a profiler) sees every call.


def _run_mc(context: _CellContext, rng: np.random.Generator) -> _CellOutcome:
    result = monte_carlo_estimate(
        _target(context),
        context.study.formula,
        context.n_samples,
        rng,
        confidence=context.confidence,
        backend=context.backend,
    )
    return _CellOutcome(result.estimate, result.interval, result.ess)


def _run_bayes(context: _CellContext, rng: np.random.Generator) -> _CellOutcome:
    result = bayesian_estimate(
        _target(context),
        context.study.formula,
        context.n_samples,
        rng,
        confidence=context.confidence,
        backend=context.backend,
    )
    return _CellOutcome(result.estimate, result.interval, None)


def _run_is(context: _CellContext, rng: np.random.Generator) -> _CellOutcome:
    # Single-chain estimate: fuse the target's weights, skip tables.
    study, target = context.study, _target(context)
    sample = run_importance_sampling(
        study.proposal,
        study.formula,
        context.n_samples,
        rng,
        backend=context.backend,
        original=target,
        keep_counts=False,
    )
    result = estimate_from_sample(target, sample, context.confidence)
    return _CellOutcome(result.estimate, result.interval, result.ess)


def _run_imcis(context: _CellContext, rng: np.random.Generator) -> _CellOutcome:
    study = context.study
    sample = run_importance_sampling(
        study.proposal,
        study.formula,
        context.n_samples,
        rng,
        backend=context.backend,
        original=study.center,
    )
    config = IMCISConfig(confidence=context.confidence, search=context.search)
    result = imcis_from_sample(study.imc, sample, rng, config)
    center = result.center_estimate
    return _CellOutcome(
        result.mid_value, result.interval, center.ess, detail=encode_estimation_result(center)
    )


def _run_ce(context: _CellContext, rng: np.random.Generator) -> _CellOutcome:
    # Iterated optimise-then-estimate over time-homogeneous chains.
    # Studies with a time-dependent proposal (which CE cannot refine)
    # seed from the bounded zero-variance tilt of the learnt centre — the
    # module docstring's recommendation for rare bounded events.
    study = context.study
    initial = study.proposal
    if isinstance(initial, UnrolledProposal):
        initial = zero_variance_proposal(study.center, study.formula, mixing=0.2, bounded=True)
    ce = cross_entropy_estimate(
        _target(context),
        study.formula,
        context.n_samples,
        rng,
        rounds=CE_ROUNDS,
        refine_fraction=CE_REFINE_FRACTION,
        smoothing=CE_SMOOTHING,
        support_floor=CE_SUPPORT_FLOOR,
        initial_proposal=initial,
        confidence=context.confidence,
        backend=context.backend,
    )
    result = ce.result
    return _CellOutcome(result.estimate, result.interval, result.ess, detail=encode_ce_estimate(ce))


def _no_params(context: _CellContext) -> "dict[str, object]":
    return {}


def _imcis_params(context: _CellContext) -> "dict[str, object]":
    return {"search": dataclasses.asdict(context.search)}


def _ce_params(context: _CellContext) -> "dict[str, object]":
    return {
        "rounds": CE_ROUNDS,
        "refine_fraction": CE_REFINE_FRACTION,
        "smoothing": CE_SMOOTHING,
        "support_floor": CE_SUPPORT_FLOOR,
    }


@dataclass(frozen=True)
class Estimator:
    """One entry of the estimator table.

    Attributes
    ----------
    run:
        ``run(context, rng) -> _CellOutcome``: one repetition of a cell,
        a pure function of its arguments, encoding its own ``detail``.
    key_params:
        ``key_params(context) -> dict``: the knobs of this estimator that
        enter its cells' store keys.
    """

    run: "Callable[[_CellContext, np.random.Generator], _CellOutcome]"
    key_params: "Callable[[_CellContext], dict[str, object]]" = _no_params


#: The estimators the matrix knows how to run, by name. The service's
#: request validation and the CLI's ``--estimators`` surfaces read this
#: table at use time — it is the single source of truth for estimators.
ESTIMATORS: "dict[str, Estimator]" = {
    "mc": Estimator(_run_mc),
    "bayes": Estimator(_run_bayes),
    "is": Estimator(_run_is),
    "imcis": Estimator(_run_imcis, _imcis_params),
    "ce": Estimator(_run_ce, _ce_params),
}
#: The registered estimator names, in table order.
ESTIMATOR_NAMES = tuple(ESTIMATORS)


def _matrix_repetition(context: _CellContext, seed: np.random.SeedSequence) -> _CellOutcome:
    """One cell repetition, a pure function of ``(context, seed)``.

    Module-level so the parallel runner can ship it to workers by
    reference; deriving every draw from *seed* is what makes the matrix
    invariant to the worker count.
    """
    return ESTIMATORS[context.estimator].run(context, np.random.default_rng(seed))


def run_cell_repetitions(
    context: _CellContext,
    repetitions: int,
    rng: "np.random.Generator | int | None",
    workers: "int | str | None" = None,
    store: "ArtifactStore | None" = None,
    progress: "Callable[[int, int], None] | None" = None,
) -> "list[_CellOutcome]":
    """Run (or read from *store*) the first *repetitions* of one cell.

    Repetition seeds are spawned from *rng*; a store additionally needs
    it to be an explicit seed. The key snapshots the seed state *before*
    :func:`~repro.util.rng.spawn_seeds` advances a shared ``Generator``'s
    spawn counter — the pre-spawn state identifies the streams.
    """
    key = _cell_key(context, rng) if store is not None else None
    return map_repetitions_cached(
        _matrix_repetition,
        context,
        spawn_seeds(rng, repetitions),
        workers=workers,
        store=store,
        key=key,
        encode=_encode_cell_outcome,
        decode=_decode_cell_outcome,
        progress=progress,
    )


def interval_coverage(
    intervals: "list[ConfidenceInterval]", value: float | None
) -> float | None:
    """Fraction of *intervals* containing *value*.

    ``None`` — distinct from an observed 0 % coverage — when there is no
    target value (the study has no exact γ) or no interval.
    """
    if value is None or not intervals:
        return None
    return sum(1 for ci in intervals if ci.contains(value)) / len(intervals)


@dataclass(frozen=True)
class MatrixCell:
    """Aggregate of one ``(study, estimator, backend)`` cell."""

    study: str
    estimator: str
    backend: str
    repetitions: int
    n_samples: int
    gamma_true: float | None
    estimate_mean: float
    estimate_std: float
    ci_low: float
    ci_high: float
    ess_mean: float | None
    coverage: float | None
    within_ci: bool | None
    wall_time: float
    traces_per_sec: float

    def record(self, include_timing: bool = False) -> dict:
        """The cell as a flat record (timing excluded by default — it is
        the one non-deterministic column)."""
        record = {name: getattr(self, name) for name in RECORD_FIELDS}
        if include_timing:
            record["wall_time"] = self.wall_time
            record["traces_per_sec"] = self.traces_per_sec
        return record


def _aggregate_cell(
    context: _CellContext,
    outcomes: "list[_CellOutcome]",
    wall_time: float,
) -> MatrixCell:
    """Fold one cell's repetition outcomes into its matrix record."""
    study = context.study
    gamma_true = study.gamma_true
    estimates = np.array([o.estimate for o in outcomes])
    lows = np.array([o.interval.low for o in outcomes])
    highs = np.array([o.interval.high for o in outcomes])
    ess_values = [o.ess for o in outcomes if o.ess is not None]
    ci_low = float(lows.mean())
    ci_high = float(highs.mean())
    coverage = interval_coverage([o.interval for o in outcomes], gamma_true)
    within_ci: bool | None = None
    if gamma_true is not None:
        mean_interval = ConfidenceInterval(ci_low, ci_high, context.confidence)
        within_ci = mean_interval.contains(gamma_true)
    total_traces = context.n_samples * len(outcomes)
    return MatrixCell(
        study=study.name,
        estimator=context.estimator,
        backend=context.backend or "auto",
        repetitions=len(outcomes),
        n_samples=context.n_samples,
        gamma_true=gamma_true,
        estimate_mean=float(estimates.mean()),
        estimate_std=float(estimates.std()),
        ci_low=ci_low,
        ci_high=ci_high,
        ess_mean=float(np.mean(ess_values)) if ess_values else None,
        coverage=coverage,
        within_ci=within_ci,
        wall_time=wall_time,
        traces_per_sec=total_traces / wall_time if wall_time > 0 else 0.0,
    )


@dataclass
class MatrixResult:
    """The consolidated records table of one matrix run."""

    config: MatrixConfig
    cells: "list[MatrixCell]"

    def records(self, include_timing: bool = False) -> "list[dict]":
        """Flat per-cell records, in run order."""
        return [cell.record(include_timing) for cell in self.cells]

    def failing_cells(self) -> "list[MatrixCell]":
        """Cells whose mean interval misses the study's exact γ."""
        return [cell for cell in self.cells if cell.within_ci is False]

    @staticmethod
    def _cell_text(value: object) -> str:
        if value is None:
            return ""
        if isinstance(value, bool):
            return "yes" if value else "no"
        if isinstance(value, float):
            return format_number(value)
        return str(value)

    def _table_rows(self) -> "list[list[str]]":
        return [
            [self._cell_text(record[name]) for name in RECORD_FIELDS]
            for record in self.records()
        ]

    def render(self) -> str:
        """ASCII rendering of the matrix (deterministic columns only)."""
        return format_table(
            list(RECORD_FIELDS),
            self._table_rows(),
            title="Cross-study experiment matrix",
        )

    def render_markdown(self) -> str:
        """GitHub-flavoured markdown rendering (deterministic columns only)."""
        header = "| " + " | ".join(RECORD_FIELDS) + " |"
        separator = "| " + " | ".join("---" for _ in RECORD_FIELDS) + " |"
        body = ["| " + " | ".join(row) + " |" for row in self._table_rows()]
        return "\n".join([header, separator, *body]) + "\n"

    def to_csv_text(self) -> str:
        """The records as CSV, floats at full ``repr`` precision."""
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(RECORD_FIELDS)
        for record in self.records():
            writer.writerow(
                ["" if record[name] is None else record[name] for name in RECORD_FIELDS]
            )
        return buffer.getvalue()

    def to_json_text(self) -> str:
        """The records as a JSON document."""
        return json.dumps(self.records(), indent=2) + "\n"

    def timing_csv_text(self) -> str:
        """Per-cell wall time and throughput (non-deterministic by nature)."""
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["study", "estimator", "backend", "wall_time", "traces_per_sec"])
        for cell in self.cells:
            writer.writerow(
                [cell.study, cell.estimator, cell.backend, cell.wall_time, cell.traces_per_sec]
            )
        return buffer.getvalue()

    def write(self, out_dir: Path) -> "dict[str, Path]":
        """Write CSV/JSON/markdown (plus the timing table) under *out_dir*.

        Returns the written paths. All files except ``matrix_timing.csv``
        are bitwise identical across worker counts and machines.
        """
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        paths = {
            "csv": out_dir / "matrix.csv",
            "json": out_dir / "matrix.json",
            "markdown": out_dir / "matrix.md",
            "timing": out_dir / "matrix_timing.csv",
        }
        paths["csv"].write_text(self.to_csv_text())
        paths["json"].write_text(self.to_json_text())
        paths["markdown"].write_text(self.render_markdown())
        paths["timing"].write_text(self.timing_csv_text())
        return paths


def resolve_studies(config: MatrixConfig, registry: StudyRegistry = REGISTRY) -> "list[str]":
    """The study names a matrix run covers, in registry order."""
    if config.studies is not None:
        return [registry.get(name).name for name in config.studies]
    if config.quick:
        return registry.quick_studies()
    return registry.list_studies()


def run_matrix(
    config: MatrixConfig,
    registry: StudyRegistry = REGISTRY,
    store: "ArtifactStore | Path | str | None" = None,
    progress: "Callable[[dict], None] | None" = None,
) -> MatrixResult:
    """Run the full (study × estimator) matrix described by *config*.

    Parameters
    ----------
    config : MatrixConfig
        The run description. Studies are built once each (quick
        factories under ``quick=True``) and shipped to the repetition
        workers per cell; the repetition axis owns the process
        parallelism.
    registry : StudyRegistry, optional
        The catalogue study names resolve through.
    store : ArtifactStore or path-like, optional
        Artifact store to consult before dispatching repetitions: cells
        whose ``(study, estimator, config, seed)`` records already exist
        are served from disk and only cache misses simulate. Cached and
        fresh repetitions produce bitwise-identical artifacts.
    progress : callable, optional
        Observational progress hook, called with one dict per event:
        ``{"event": "cell-start", "study", "estimator", "cell", "cells"}``
        when a cell begins, ``{"event": "repetition", ..., "done",
        "total"}`` as its repetitions complete (cached repetitions report
        immediately), and ``{"event": "cell-done", ...}`` with the cell's
        deterministic record when it finishes. Never affects results; the
        estimation service streams these as job events.

    Returns
    -------
    MatrixResult
        One aggregated :class:`MatrixCell` per ``(study, estimator)``
        pair, in registry × estimator order.
    """
    for estimator in config.estimators:
        if estimator not in ESTIMATORS:
            raise EstimationError(f"unknown estimator {estimator!r}; known: {tuple(ESTIMATORS)}")
    if config.repetitions < 1:
        raise EstimationError("repetitions must be positive")
    artifact_store = ArtifactStore.coerce(store)
    search = config.search()
    study_names = resolve_studies(config, registry)
    n_cells = len(study_names) * len(config.estimators)
    cells: "list[MatrixCell]" = []
    for name in study_names:
        study = registry.make_study(name, rng=config.seed, quick=config.quick)
        n_samples = config.n_samples if config.n_samples is not None else study.n_samples
        confidence = config.confidence if config.confidence is not None else study.confidence
        for estimator in config.estimators:
            context = _CellContext(
                study=study,
                estimator=estimator,
                n_samples=n_samples,
                confidence=confidence,
                search=search,
                backend=config.backend,
            )
            cell_event = {
                "study": study.name,
                "estimator": estimator,
                "cell": len(cells) + 1,
                "cells": n_cells,
            }
            rep_progress = None
            if progress is not None:
                progress({"event": "cell-start", **cell_event})
                rep_progress = lambda done, total: progress(  # noqa: E731
                    {"event": "repetition", **cell_event, "done": done, "total": total}
                )
            started = time.perf_counter()
            outcomes = run_cell_repetitions(
                context,
                config.repetitions,
                config.seed,
                workers=config.workers,
                store=artifact_store,
                progress=rep_progress,
            )
            wall_time = time.perf_counter() - started
            cells.append(_aggregate_cell(context, outcomes, wall_time))
            if progress is not None:
                progress({"event": "cell-done", **cell_event, "record": cells[-1].record()})
    return MatrixResult(config=config, cells=cells)
