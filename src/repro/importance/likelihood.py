"""The support condition behind the likelihood ratio (Section III-A).

For a path ``ω`` sampled under proposal ``B``, the likelihood ratio w.r.t.
the original chain ``A`` is ``L(ω) = P_A(ω)/P_B(ω) = Π (a_ij/b_ij)^{n_ij}``.
It is well defined only when every transition ``A`` allows is also possible
under ``B``. The log-ratios themselves are computed on whole samples:
``log P_B(ω)`` is recorded during simulation and ``Σ n_ij log a_ij`` is
either fused into the simulation loop or binned from the step records
(:class:`~repro.smc.kernels.StepRecords`), bitwise alike;
:func:`repro.importance.estimator.log_weights` subtracts the two.
"""

from __future__ import annotations

from repro.core.dtmc import DTMC
from repro.errors import EstimationError


def check_absolute_continuity(original: DTMC, proposal: DTMC) -> None:
    """Raise unless every *original* transition with positive probability is
    possible under *proposal* (``μ`` absolutely continuous w.r.t. ``μ'``).

    This is the precondition of Equation (4). Quadratic scan for dense
    chains, support comparison for sparse ones.
    """
    if original.n_states != proposal.n_states:
        raise EstimationError("original and proposal must share a state space")
    for state in range(original.n_states):
        orig_idx, _ = original.row_entries(state)
        prop_idx, _ = proposal.row_entries(state)
        missing = set(int(j) for j in orig_idx) - set(int(j) for j in prop_idx)
        if missing:
            raise EstimationError(
                f"proposal gives zero probability to transition "
                f"({state}, {sorted(missing)[0]}) possible under the original chain"
            )
