"""Common shape of a prepared case study.

Every benchmark module exposes a ``make_study`` returning a
:class:`CaseStudy`: the IMC, the property, the IS proposal, the ground-truth
chain (when one exists) and the exact probabilities the coverage experiments
compare against. The experiment harness and the benchmarks consume only
this interface.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core import linalg
from repro.core.dtmc import DTMC, ROW_ATOL
from repro.core.imc import IMC
from repro.errors import ModelError
from repro.importance.bounded import UnrolledProposal
from repro.properties.logic import Formula


@dataclass
class CaseStudy:
    """A fully prepared experimental configuration.

    Attributes
    ----------
    name:
        Identifier used in reports (e.g. ``"illustrative"``).
    imc:
        The interval chain ``[Â]`` IMCIS optimises over.
    formula:
        The property ``φ``.
    proposal:
        The importance-sampling distribution ``B`` every estimator samples
        under: a DTMC, or an
        :class:`~repro.importance.bounded.UnrolledProposal` (a
        time-dependent proposal for a bounded until, as in SWaT).
    true_chain:
        The exact system ``A`` (used to *sample nothing* — only to define
        the coverage target γ). ``None`` when no ground truth exists.
    gamma_true:
        Exact ``γ(A)`` from numerical analysis / closed form.
    gamma_center:
        Exact ``γ(Â)`` of the IMC's centre chain.
    n_samples:
        The paper's sample size for this study (``N = 10 000`` throughout).
    confidence:
        Confidence level of the reported intervals.

    The study also carries a private memo, filled by
    :func:`repro.store.keys.describe_study`: the digests of its matrices,
    together with the objects they were computed from, so a study shared
    by many store lookups hashes its (frozen) matrices once.
    """

    name: str
    imc: IMC
    formula: Formula
    proposal: DTMC | UnrolledProposal
    true_chain: DTMC | None
    gamma_true: float | None
    gamma_center: float
    n_samples: int = 10_000
    confidence: float = 0.95
    _fingerprints: "tuple | None" = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        """Reject studies with out-of-range probabilities or a broken proposal.

        The exact probabilities must be probabilities, and the proposal —
        the one distribution the experiments actually sample from, the
        unrolled chain of an :class:`UnrolledProposal` — must be
        row-stochastic with entries in [0, 1] (the same CSR-friendly
        checks the DTMC constructor applies, re-run here because proposals
        can reach a study through validation-skipping paths such as
        ``with_labels``).
        """
        checks = (("gamma_true", self.gamma_true), ("gamma_center", self.gamma_center))
        for field_name, value in checks:
            if value is None:
                continue
            if not 0.0 <= value <= 1.0:
                raise ModelError(
                    f"{field_name} of study {self.name!r} must lie in [0, 1], got {value!r}"
                )
        sampled = self.proposal
        if isinstance(sampled, UnrolledProposal):
            sampled = sampled.chain
        linalg.check_entries_in_unit_interval(
            sampled.transitions, f"proposal of study {self.name!r}"
        )
        sums = linalg.row_sums(sampled.transitions)
        bad = np.flatnonzero(np.abs(sums - 1.0) > ROW_ATOL)
        if bad.size:
            state = int(bad[0])
            raise ModelError(
                f"proposal row {state} of study {self.name!r} sums to "
                f"{sums[state]!r}, expected 1"
            )

    @property
    def center(self) -> DTMC:
        """The learnt chain ``Â`` at the centre of the IMC."""
        return self.imc.center
