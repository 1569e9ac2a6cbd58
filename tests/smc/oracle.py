"""The scalar reference walk of Algorithm 1: a test oracle for the engine.

:class:`ScalarWalk` simulates a :class:`~repro.smc.engine.SimulationPlan`
one trace at a time, the way the paper states it: per step one
``rng.random()`` draw, the successor from the row's
``np.searchsorted(..., side="right")`` clamped to its last entry, and the
log-proposal and fused log-numerator added in time order. A trace stops
once :class:`PrefixVerdict` decides the formula on the prefix walked so
far, once the plan's futility mask cuts it, or at the step cap.

:class:`PrefixVerdict` reads the :class:`~repro.properties.logic.Formula`
AST directly (Kleene three-valued logic over the finite prefix), not the
formula's mask spec, so it stays independent of
:func:`repro.smc.kernels.monitor_codes`, which it checks.

On one-trace batches the walk draws the same stream as
:class:`~repro.smc.engine.KernelBackend`, so the two agree bitwise.
"""

from __future__ import annotations

from unittest import mock

import numpy as np

from repro.importance import estimator
from repro.properties.logic import And, Formula, Globally, Next, Not, Or, Until
from repro.smc.engine import EnsembleResult, SimulationPlan

from tests.conftest import records_from_keys


def _and(a: "bool | None", b: "bool | None") -> "bool | None":
    if a is False or b is False:
        return False
    return None if a is None or b is None else True


def _or(a: "bool | None", b: "bool | None") -> "bool | None":
    if a is True or b is True:
        return True
    return None if a is None or b is None else False


class PrefixVerdict:
    """Truth of *formula* on every path extending a finite prefix.

    Calling it on a prefix gives ``True``/``False`` once all extensions
    agree and ``None`` while the prefix leaves the formula open. Called
    again on the same list after an append, an until resumes its scan
    where the shorter prefix left it open, so walking a trace of length
    ``L`` costs ``O(L)`` evaluations, not ``O(L²)``.
    """

    def __init__(self, formula: Formula, model):
        self.formula, self.model = formula, model
        self._masks: dict = {}
        self._path: "list | None" = None
        self._resume: dict = {}

    def __call__(self, path) -> "bool | None":
        if path is not self._path:
            self._path, self._resume = path, {}
        return self._at(self.formula, path, 0)

    def _at(self, formula: Formula, path, start: int) -> "bool | None":
        if formula.is_state_formula:
            if start >= len(path):
                return None
            if formula not in self._masks:
                self._masks[formula] = formula.mask(self.model)
            return bool(self._masks[formula][path[start]])
        if isinstance(formula, Not):
            inner = self._at(formula.inner, path, start)
            return None if inner is None else not inner
        if isinstance(formula, (And, Or)):
            combine = _and if isinstance(formula, And) else _or
            return combine(
                self._at(formula.left, path, start), self._at(formula.right, path, start)
            )
        if isinstance(formula, Next):
            return self._at(formula.inner, path, start + 1)
        if isinstance(formula, Globally):
            verdict: "bool | None" = True
            for position in range(start, start + formula.bound + 1):
                verdict = _and(verdict, self._at(formula.inner, path, position))
            return verdict
        if isinstance(formula, Until):
            return self._until(formula, path, start, start)
        raise TypeError(f"no prefix semantics for {formula!r}")

    def _until(self, formula: Until, path, start: int, position: int) -> "bool | None":
        """``rhs ∨ (lhs ∧ X(lhs U rhs))`` unrolled from *position* on."""
        key = (id(formula), start)
        if position == start:
            position = self._resume.get(key, start)
        while formula.bound is None or position - start <= formula.bound:
            if position >= len(path):
                return None
            rhs = self._at(formula.rhs, path, position)
            lhs = self._at(formula.lhs, path, position)
            if rhs is True or lhs is False:
                return rhs
            if rhs is None or lhs is None:
                rest = self._until(formula, path, start, position + 1)
                return _or(rhs, _and(lhs, rest))
            position += 1
            if self._resume.get(key, start) < position:
                self._resume[key] = position
        return False


class ScalarWalk:
    """One Python loop per trace over *plan*, with
    :class:`~repro.smc.engine.KernelBackend`'s ``run_ensemble`` interface.

    Every trace keeps its records (the kernel keeps those of failed traces
    too until it prunes them in bulk), and ``cuts`` counts the traces the
    futility mask has cut so far.
    """

    name = "oracle"

    def __init__(self, plan: SimulationPlan):
        self.plan = plan
        self.cuts = 0
        self._verdict = PrefixVerdict(plan.formula, plan.chain)
        self._rows: dict = {}

    def _row(self, state: int):
        """Successors, cumulative and log probabilities, and log weights of *state*."""
        row = self._rows.get(state)
        if row is None:
            plan = self.plan
            targets, probs = plan.chain.row_entries(state)
            keep = probs > 0.0
            targets, probs = targets[keep], probs[keep]
            cumulative = np.cumsum(probs)
            cumulative[-1] = 1.0
            weights = None
            if plan.weight_chain is not None:
                source, mapped = state, targets
                if plan.weight_state_map is not None:
                    source, mapped = plan.weight_state_map[state], plan.weight_state_map[targets]
                with np.errstate(divide="ignore"):
                    weights = np.log(plan.weight_chain.row(int(source))[mapped])
            row = self._rows[state] = (targets, cumulative, np.log(probs), weights)
        return row

    def _decided(self, path) -> "bool | None":
        verdict = self._verdict(path)
        fut = self.plan.futility
        if verdict is None and fut is not None and fut.applies(path[-1], len(path) - 1):
            self.cuts += 1
            return False
        return verdict

    def run_ensemble(self, n_samples: int, rng: np.random.Generator) -> EnsembleResult:
        plan = self.plan
        n_states = plan.chain.n_states
        satisfied = np.zeros(n_samples, dtype=bool)
        decided = np.zeros(n_samples, dtype=bool)
        lengths = np.zeros(n_samples, dtype=np.int64)
        log_proposals = np.zeros(n_samples)
        log_numerators = np.zeros(n_samples)
        step_traces: "list[int]" = []
        step_keys: "list[int]" = []
        for k in range(n_samples):
            path = [plan.initial_state]
            verdict = self._decided(path)
            while verdict is None and len(path) - 1 < plan.max_steps:
                state = path[-1]
                targets, cumulative, logs, weights = self._row(state)
                pos = int(np.searchsorted(cumulative, rng.random(), side="right"))
                pos = min(pos, targets.size - 1)
                log_proposals[k] += logs[pos]
                if weights is not None:
                    log_numerators[k] += weights[pos]
                step_traces.append(k)
                step_keys.append(state * n_states + int(targets[pos]))
                path.append(int(targets[pos]))
                verdict = self._decided(path)
            satisfied[k], decided[k] = verdict is True, verdict is not None
            lengths[k] = len(path) - 1
        records = None
        if plan.count_mode != "none":
            records = records_from_keys(
                n_samples, n_states, np.array(step_traces, dtype=np.int64),
                np.array(step_keys, dtype=np.int64),
            )
        return EnsembleResult(
            satisfied=satisfied,
            decided=decided,
            lengths=lengths,
            log_proposals=log_proposals if plan.record_log_prob else None,
            log_numerators=log_numerators if plan.weight_chain is not None else None,
            step_records=records,
        )


def oracle_sample(proposal, formula, n_samples, rng, **options):
    """:func:`~repro.importance.run_importance_sampling` with
    :class:`ScalarWalk` in place of the kernel backend.

    Fails unless the walk was built: a patch that misses the name the
    estimator builds its engine from would leave the kernel in place, and
    every walk-vs-kernel parity test would compare the kernel with itself.
    """
    walks: "list[ScalarWalk]" = []

    def walk(plan: SimulationPlan) -> ScalarWalk:
        walks.append(ScalarWalk(plan))
        return walks[-1]

    with mock.patch.object(estimator, "KernelBackend", walk):
        sample = estimator.run_importance_sampling(proposal, formula, n_samples, rng, **options)
    assert walks, "run_importance_sampling did not build its engine from estimator.KernelBackend"
    return sample
