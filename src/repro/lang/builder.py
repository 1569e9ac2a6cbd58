"""State-space construction: modelling-language AST → CTMC / DTMC.

Semantics of the subset (matching PRISM for the models we need):

* the global state is the tuple of all module variables;
* all modules' unlabelled commands interleave: every command whose guard
  holds contributes its updates to the state's outgoing transitions;
* for a ``ctmc``, update weights are *rates* and race semantics apply —
  rates for the same (source, target) pair accumulate; self-loop rates are
  dropped (they do not affect a CTMC's behaviour);
* for a ``dtmc``, each command's update weights must sum to one, and when
  several commands are enabled in a state the choice among them is uniform
  (PRISM's convention for unlabelled DTMC commands);
* the reachable state space is explored breadth-first from the initial
  valuation; out-of-range updates are hard errors (they indicate a modelling
  bug, not an intended boundary).

Labels: declared ``label`` expressions are evaluated per state; the built-in
``"init"`` label (the initial state) and ``"deadlock"`` (no enabled command)
are always added, as in PRISM.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np
from scipy import sparse

from repro.core.ctmc import CTMC
from repro.core.dtmc import DTMC
from repro.errors import ModelError
from repro.lang import ast
from repro.lang.expr import evaluate_bool, evaluate_int, evaluate_number
from repro.lang.parser import parse_model

#: Switch to sparse matrices above this many states.
SPARSE_THRESHOLD = 512


def resolve_constants(
    model: ast.ModelFile, overrides: Mapping[str, float] | None = None
) -> dict[str, object]:
    """Evaluate the model's constants, applying build-time *overrides*.

    Constants may reference previously declared constants. Undefined
    constants (declared without a value) must be supplied via *overrides* —
    this is how the repair models receive their failure rate ``α``.
    """
    overrides = dict(overrides or {})
    unknown = set(overrides) - set(model.constant_names())
    if unknown:
        raise ModelError(f"overrides for undeclared constants: {sorted(unknown)}")
    env: dict[str, object] = {}
    for decl in model.constants:
        if decl.name in overrides:
            raw = overrides[decl.name]
            if decl.type_name == "int":
                value: object = int(raw)
            elif decl.type_name == "bool":
                value = bool(raw)
            else:
                value = float(raw)
        elif decl.value is not None:
            value = decl.value.evaluate(env)
            if decl.type_name == "int":
                value = evaluate_int(decl.value, env, f"constant {decl.name}")
            elif decl.type_name == "double":
                value = evaluate_number(decl.value, env, f"constant {decl.name}")
            elif decl.type_name == "bool":
                value = evaluate_bool(decl.value, env, f"constant {decl.name}")
        else:
            raise ModelError(
                f"constant {decl.name!r} has no value; supply it via overrides"
            )
        env[decl.name] = value
    return env


class StateSpaceBuilder:
    """Explores the reachable state space of a parsed model."""

    def __init__(self, model: ast.ModelFile, constants: Mapping[str, float] | None = None):
        self._model = model
        self._constants = resolve_constants(model, constants)
        self._variables = model.variable_declarations()
        names = [v.name for v in self._variables]
        if len(set(names)) != len(names):
            raise ModelError("duplicate state-variable names across modules")
        clash = set(names) & set(self._constants)
        if clash:
            raise ModelError(f"state variables shadow constants: {sorted(clash)}")
        self._ranges: dict[str, tuple[int, int]] = {}
        self._initial: list[int] = []
        for var in self._variables:
            low = evaluate_int(var.low, self._constants, f"lower bound of {var.name}")
            high = evaluate_int(var.high, self._constants, f"upper bound of {var.name}")
            if low > high:
                raise ModelError(f"variable {var.name!r} has empty range [{low}..{high}]")
            init = evaluate_int(var.init, self._constants, f"init of {var.name}")
            if not low <= init <= high:
                raise ModelError(
                    f"initial value {init} of {var.name!r} outside [{low}..{high}]"
                )
            self._ranges[var.name] = (low, high)
            self._initial.append(init)
        self._commands = [
            command for module in model.modules for command in module.commands
        ]

    @property
    def constants(self) -> dict[str, object]:
        """The resolved constant environment."""
        return dict(self._constants)

    def _env_of(self, state: tuple[int, ...]) -> dict[str, object]:
        env = dict(self._constants)
        for var, value in zip(self._variables, state):
            env[var.name] = value
        return env

    def _apply(
        self, state: tuple[int, ...], update: ast.Update, env: Mapping[str, object]
    ) -> tuple[int, ...]:
        values = {var.name: value for var, value in zip(self._variables, state)}
        for assignment in update.assignments:
            if assignment.variable not in values:
                raise ModelError(
                    f"update assigns to unknown variable {assignment.variable!r}"
                )
            new_value = evaluate_int(
                assignment.value, env, f"update of {assignment.variable}"
            )
            low, high = self._ranges[assignment.variable]
            if not low <= new_value <= high:
                raise ModelError(
                    f"update drives {assignment.variable!r} to {new_value}, "
                    f"outside [{low}..{high}]"
                )
            values[assignment.variable] = new_value
        return tuple(values[var.name] for var in self._variables)

    def explore(self) -> "ExploredSpace":
        """Breadth-first exploration from the initial state."""
        index_of: dict[tuple[int, ...], int] = {}
        states: list[tuple[int, ...]] = []
        edges: list[tuple[int, int, float]] = []
        per_state_commands: list[int] = []

        initial = tuple(self._initial)
        index_of[initial] = 0
        states.append(initial)
        frontier = [initial]
        while frontier:
            state = frontier.pop()
            source = index_of[state]
            env = self._env_of(state)
            enabled = 0
            for command in self._commands:
                if not evaluate_bool(command.guard, env, f"guard at line {command.line}"):
                    continue
                enabled += 1
                for update in command.updates:
                    weight = evaluate_number(update.weight, env, "update weight")
                    if weight < 0:
                        raise ModelError(
                            f"negative weight {weight} at line {command.line}"
                        )
                    if weight == 0.0:
                        continue
                    target_state = self._apply(state, update, env)
                    target = index_of.get(target_state)
                    if target is None:
                        target = len(states)
                        index_of[target_state] = target
                        states.append(target_state)
                        frontier.append(target_state)
                    edges.append((source, target, weight, enabled - 1))
            while len(per_state_commands) < len(states):
                per_state_commands.append(0)
            per_state_commands[source] = enabled
        return ExploredSpace(
            model=self._model,
            constants=self._constants,
            variables=[v.name for v in self._variables],
            states=states,
            edges=edges,
            enabled_commands=per_state_commands,
        )


class ExploredSpace:
    """The reachable state graph before matrix assembly."""

    def __init__(self, model, constants, variables, states, edges, enabled_commands):
        self.model = model
        self.constants = constants
        self.variables = variables
        self.states = states
        self.edges = edges
        self.enabled_commands = enabled_commands

    @property
    def n_states(self) -> int:
        """Number of reachable states."""
        return len(self.states)

    def state_names(self) -> list[str]:
        """Readable names like ``(state1=0,state2=3)``."""
        return [
            "(" + ",".join(f"{n}={v}" for n, v in zip(self.variables, s)) + ")"
            for s in self.states
        ]

    def labels(self) -> dict[str, np.ndarray]:
        """Declared labels plus built-in ``init`` and ``deadlock``."""
        result: dict[str, np.ndarray] = {}
        for decl in self.model.labels:
            mask = np.zeros(self.n_states, dtype=bool)
            for idx, state in enumerate(self.states):
                env = dict(self.constants)
                env.update(zip(self.variables, state))
                mask[idx] = evaluate_bool(env=env, expr=decl.condition, what=f'label "{decl.name}"')
            result[decl.name] = mask
        init_mask = np.zeros(self.n_states, dtype=bool)
        init_mask[0] = True
        result.setdefault("init", init_mask)
        deadlock = np.array([n == 0 for n in self.enabled_commands], dtype=bool)
        result.setdefault("deadlock", deadlock)
        return result

    def _assemble(self, weights: list[tuple[int, int, float]]):
        n = self.n_states
        if n > SPARSE_THRESHOLD:
            rows = [e[0] for e in weights]
            cols = [e[1] for e in weights]
            data = [e[2] for e in weights]
            return sparse.csr_matrix((data, (rows, cols)), shape=(n, n))
        matrix = np.zeros((n, n))
        for source, target, weight in weights:
            matrix[source, target] += weight
        return matrix

    def to_ctmc(self) -> CTMC:
        """Assemble a CTMC (rates accumulate; self-loops dropped)."""
        if self.model.model_type != "ctmc":
            raise ModelError(f"model is a {self.model.model_type}, not a ctmc")
        weights = [
            (source, target, rate)
            for (source, target, rate, _cmd) in self.edges
            if source != target
        ]
        return CTMC(self._assemble(weights), 0, self.labels(), self.state_names())

    def to_dtmc(self) -> DTMC:
        """Assemble a DTMC (uniform choice among enabled commands)."""
        if self.model.model_type != "dtmc":
            raise ModelError(f"model is a {self.model.model_type}, not a dtmc")
        weights = []
        for source, target, probability, _cmd in self.edges:
            share = probability / self.enabled_commands[source]
            weights.append((source, target, share))
        # Deadlock states self-loop (PRISM's "fix deadlocks" behaviour).
        for state, enabled in enumerate(self.enabled_commands):
            if enabled == 0:
                weights.append((state, state, 1.0))
        matrix = self._assemble(weights)
        return DTMC(matrix, 0, self.labels(), self.state_names())


def build_ctmc(source: str, constants: Mapping[str, float] | None = None) -> CTMC:
    """Parse and build a CTMC from modelling-language *source*."""
    return StateSpaceBuilder(parse_model(source), constants).explore().to_ctmc()
