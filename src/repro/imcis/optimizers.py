"""Alternative optimisers for the IMCIS objective (paper appendix).

The paper's appendix discusses two statistical optimisation schemes as
potential replacements for the random search and lists their obstacles:

* **projected (stochastic) gradient descent** — cheap gradients (the
  likelihood of a path is polynomial in ``A``) but every update must be
  projected back into the interval polytope;
* **interior-point / constrained programming** — handles the constraints
  natively but scales poorly with their number.

Both are implemented here, operating on the same
:class:`~repro.imcis.candidates.CandidateSpace` as the random search so the
ablation benchmark (`benchmarks/bench_ablation_optimizers.py`) can compare
the three on identical problems. The gradient method implements the
projection step the appendix calls for with the box-simplex water-filling
projection; the constrained-programming baseline uses scipy's SLSQP.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.imc import project_row_to_simplex
from repro.errors import OptimizationError
from repro.imcis.candidates import CandidateSpace
from repro.imcis.objective import ISObjective, Moments
from repro.util.rng import ensure_rng

#: Optimisation directions.
MINIMIZE, MAXIMIZE = "min", "max"


@dataclass
class OptimizerOutcome:
    """Result of one direction of an alternative optimiser."""

    direction: str
    moments: Moments
    rows: dict[int, np.ndarray]
    log_a: np.ndarray
    iterations: int
    method: str


def _check_direction(direction: str) -> None:
    if direction not in (MINIMIZE, MAXIMIZE):
        raise OptimizationError(f"direction must be '{MINIMIZE}' or '{MAXIMIZE}'")


def _vector_for(space: CandidateSpace, rows: dict[int, np.ndarray], direction: str) -> np.ndarray:
    log_min, log_max = space.log_vectors(rows)
    return log_min if direction == MINIMIZE else log_max


def _f_and_grad(
    objective: ISObjective,
    space: CandidateSpace,
    rows: dict[int, np.ndarray],
    direction: str,
) -> tuple[float, dict[int, np.ndarray]]:
    """``f`` and its gradient w.r.t. the sampled rows (zero elsewhere)."""
    log_a = _vector_for(space, rows, direction)
    log_f = objective.log_f(log_a)
    f_value = math.exp(log_f) if log_f != float("-inf") else 0.0
    # d f / d a_t = f * d log f / d log a_t / a_t
    grad_log = objective.gradient_log_f(log_a)
    grads: dict[int, np.ndarray] = {}
    for plan in space.sampled_plans:
        row = rows[plan.state]
        grad_row = np.zeros_like(row)
        for col, pos in zip(plan.obs_columns, plan.obs_positions):
            a = float(row[pos])
            if a > 0:
                grad_row[pos] = f_value * float(grad_log[col]) / a
        grads[plan.state] = grad_row
    return f_value, grads


def projected_gradient(
    objective: ISObjective,
    space: CandidateSpace,
    direction: str,
    learning_rate: float = 0.5,
    iterations: int = 200,
    rng: np.random.Generator | int | None = None,
    stochastic: bool = False,
) -> OptimizerOutcome:
    """Projected (optionally stochastic) gradient descent on ``f``.

    With ``stochastic=True`` the gradient of a single random successful
    path replaces the full gradient (Equation 14 of the appendix);
    otherwise the full-batch gradient is used (Equation 13). Steps are
    normalised per state-row and projected back onto the box-simplex.
    """
    _check_direction(direction)
    generator = ensure_rng(rng)
    rows = space.center_rows()
    sign = -1.0 if direction == MINIMIZE else 1.0

    counts = objective.tables.counts
    log_b = objective.tables.log_proposal

    for _ in range(iterations):
        if stochastic and counts.shape[0] > 0:
            # Gradient of one random path's likelihood (appendix, Eq. 14).
            k = int(generator.integers(counts.shape[0]))
            log_a = _vector_for(space, rows, direction)
            row_k = counts.getrow(k)
            log_l = float(np.asarray(row_k @ log_a).ravel()[0]) - float(log_b[k])
            weight = math.exp(log_l)
            grads = {}
            cols = {int(c): float(v) for c, v in zip(row_k.indices, row_k.data)}
            for plan in space.sampled_plans:
                grad_row = np.zeros_like(rows[plan.state])
                for col, pos in zip(plan.obs_columns, plan.obs_positions):
                    n = cols.get(int(col))
                    if n:
                        a = float(rows[plan.state][pos])
                        if a > 0:
                            grad_row[pos] = weight * n / a
                grads[plan.state] = grad_row
        else:
            _, grads = _f_and_grad(objective, space, rows, direction)
        for plan in space.sampled_plans:
            grad_row = grads[plan.state]
            norm = float(np.abs(grad_row).max())
            if norm == 0.0:
                continue
            step = sign * learning_rate * grad_row / norm
            # Scale the step to the row's interval widths so one iteration
            # cannot jump across the whole box.
            widths = plan.upper - plan.lower
            step = step * float(widths.max())
            updated = rows[plan.state] + step
            rows[plan.state] = project_row_to_simplex(updated, plan.lower, plan.upper)

    log_a = _vector_for(space, rows, direction)
    return OptimizerOutcome(
        direction=direction,
        moments=objective.moments(log_a),
        rows=rows,
        log_a=log_a,
        iterations=iterations,
        method="projected-sgd" if stochastic else "projected-gd",
    )


def slsqp(
    objective: ISObjective,
    space: CandidateSpace,
    direction: str,
    max_iterations: int = 200,
) -> OptimizerOutcome:
    """Constrained-programming baseline via scipy SLSQP.

    Variables are the concatenated support rows of the sampled states;
    constraints are per-row probability sums and the interval box.
    """
    # Imported here: it costs ~0.15 s of import and nothing else in the
    # package uses it.
    from scipy import optimize

    _check_direction(direction)
    plans = space.sampled_plans
    if not plans:
        rows: dict[int, np.ndarray] = {}
        log_a = _vector_for(space, rows, direction)
        return OptimizerOutcome(direction, objective.moments(log_a), rows, log_a, 0, "slsqp")

    offsets: list[tuple[int, int]] = []
    start = 0
    for plan in plans:
        offsets.append((start, start + plan.support.size))
        start += plan.support.size
    dimension = start
    sign = 1.0 if direction == MINIMIZE else -1.0

    def unpack(x: np.ndarray) -> dict[int, np.ndarray]:
        return {
            plan.state: x[a:b] for plan, (a, b) in zip(plans, offsets)
        }

    def fun(x: np.ndarray) -> float:
        rows = unpack(x)
        log_a = _vector_for(space, rows, direction)
        log_f = objective.log_f(log_a)
        return sign * (math.exp(log_f) if log_f != float("-inf") else 0.0)

    def jac(x: np.ndarray) -> np.ndarray:
        rows = unpack(x)
        _, grads = _f_and_grad(objective, space, rows, direction)
        out = np.zeros(dimension)
        for plan, (a, b) in zip(plans, offsets):
            out[a:b] = sign * grads[plan.state]
        return out

    x0 = np.concatenate([plan.center for plan in plans])
    bounds = optimize.Bounds(
        np.concatenate([plan.lower for plan in plans]),
        np.concatenate([plan.upper for plan in plans]),
    )
    constraints = []
    for plan, (a, b) in zip(plans, offsets):
        matrix = np.zeros((1, dimension))
        matrix[0, a:b] = 1.0
        constraints.append(optimize.LinearConstraint(matrix, 1.0, 1.0))

    result = optimize.minimize(
        fun,
        x0,
        jac=jac,
        bounds=bounds,
        constraints=constraints,
        method="SLSQP",
        options={"maxiter": max_iterations, "ftol": 1e-18},
    )
    rows = unpack(np.clip(result.x, bounds.lb, bounds.ub))
    # Repair tiny simplex violations from the solver.
    for plan in plans:
        rows[plan.state] = project_row_to_simplex(rows[plan.state], plan.lower, plan.upper)
    log_a = _vector_for(space, rows, direction)
    return OptimizerOutcome(
        direction=direction,
        moments=objective.moments(log_a),
        rows=rows,
        log_a=log_a,
        iterations=int(result.nit),
        method="slsqp",
    )
