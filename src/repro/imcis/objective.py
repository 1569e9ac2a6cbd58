"""The IMCIS objective ``f(A)`` and its second moment ``g(A)``.

Equation (10) of the paper:

    f(A) = Σ_k z(ω_k) Π_{(i→j) ∈ T_k} (a_ij / b_ij)^{n_ij(ω_k)}

Everything is evaluated in log-space. A candidate is the vector
``log_a[t]`` over the observed transition columns; the per-trace log
likelihood ratios are one sparse mat-vec,

    logL = N @ log_a − log P_B,

and ``f = Σ exp(logL)``, ``g = Σ exp(2·logL)`` via log-sum-exp. Because the
proposal's contribution was recorded per trace as a scalar, the objective is
well-defined for *any* proposal — including time-inhomogeneous ones — and
the candidate ``A`` is the only variable.

A trace enters ``f`` only through its count row ``n(ω_k)`` and its weight
``1/P_B(ω_k)``, so the sum groups by count row: with ``u`` ranging over the
distinct rows and ``w_u = Σ_{k: n(ω_k) = u} 1/P_B(ω_k)``,

    f(A) = Σ_u w_u Π_t a_t^{u_t},   log f = logsumexp(U @ log_a + log w).

:meth:`ISObjective.log_f` scores candidates this way: a block of ``B``
candidates is a ``(B, n_columns)`` matrix scored by one product
``U @ log_A.T`` and a column-wise log-sum-exp, one term per distinct row
(knuth-yao's hundreds of successful traces have a handful of rows).

The random search scores both directions of a block at once: the min-
and max-vectors differ only on pinned columns, so each direction is the
shared block plus a fixed offset per distinct row. One exponential pass
``E = exp(terms − top)`` (``top`` each candidate's largest term) serves
both, each direction's sum being ``Σ_r exp(o_r − max o)·E_rb``. A
direction whose offsets are all −inf, or spread too far for those
weights to keep every row that matters, takes its own log-sum-exp.

Grouping and the shared pass reassociate the sum, so the grouped
``log f`` can differ from the per-trace one in the last bits. Only
comparisons of candidates read it. :meth:`ISObjective.moments` (γ̂ and σ̂
at the reported extremes, once per improvement),
:meth:`ISObjective.log_likelihood_ratios` and
:meth:`ISObjective.gradient_log_f` keep the per-trace sum, so reported
results are bitwise those of the per-trace objective.

Note Algorithm 1 (lines 22–23) writes ``σ̂ = g/N − γ̂²``; that expression is
the *variance* — we return its square root as the standard deviation used
in the confidence interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from repro.errors import EstimationError
from repro.imcis.tables import ObservationTables
from repro.util.stats import logsumexp

#: Widest spread (nats) of one direction's finite offsets that
#: :func:`_logsumexp_offsets` scores from the shared exponentials. A row
#: that matters lies within ~40 nats of its column's top after its offset,
#: so its shared exponential and weight stay ≥ ``exp(−640)``, well above
#: the smallest normal double (``exp(−708)``).
FUSED_OFFSET_SPAN = 600.0


@dataclass(frozen=True)
class Moments:
    """First/second-moment summary of the IS sum at a candidate ``A``."""

    log_f: float
    log_g: float
    n_total: int

    @property
    def f(self) -> float:
        """``f(A) = Σ_k z L_k`` (the *unnormalised* objective)."""
        return math.exp(self.log_f) if self.log_f != float("-inf") else 0.0

    @property
    def gamma(self) -> float:
        """``γ̂_N(A) = f(A)/N`` (Algorithm 1, lines 20–21)."""
        if self.log_f == float("-inf"):
            return 0.0
        return math.exp(self.log_f - math.log(self.n_total))

    @property
    def sigma(self) -> float:
        """``σ̂_N(A) = sqrt(g(A)/N − γ̂²)`` (Algorithm 1, lines 22–23)."""
        if self.log_g == float("-inf"):
            return 0.0
        second = math.exp(self.log_g - math.log(self.n_total))
        variance = second - self.gamma**2
        return math.sqrt(max(0.0, variance))


class ISObjective:
    """Vectorised evaluator of ``f``/``g`` over observed-transition columns."""

    def __init__(self, tables: ObservationTables):
        self._tables = tables
        self._counts = tables.counts
        self._log_b = tables.log_proposal
        self._rows, self._log_w = _distinct_rows(self._counts, self._log_b)

    @property
    def tables(self) -> ObservationTables:
        """The observation tables the objective is built on."""
        return self._tables

    @property
    def n_columns(self) -> int:
        """Length of the candidate vector."""
        return self._tables.n_transitions

    @property
    def n_rows(self) -> int:
        """Distinct count rows, the terms :meth:`log_f` sums."""
        return self._rows.shape[0]

    def log_likelihood_ratios(self, log_a: np.ndarray) -> np.ndarray:
        """Per-successful-trace ``log L_k`` at the candidate.

        A ``(B, n_columns)`` block gives a ``(n_traces, B)`` matrix, one
        column per candidate.
        """
        _check_shape(log_a, self.n_columns)
        if self._counts.shape[0] == 0:
            return np.empty((0,) + log_a.shape[:-1])
        if log_a.ndim == 1:
            return np.asarray(self._counts @ log_a).ravel() - self._log_b
        return np.asarray(self._counts @ log_a.T) - self._log_b[:, None]

    def log_ratio_shift(self, delta_log_a: np.ndarray) -> np.ndarray:
        """Per-distinct-row change of the :meth:`log_f` terms when the
        candidate moves by *delta_log_a* (one value per row, not per trace).

        The product is sparse, so a row that never takes a column is not
        touched by that column's shift, even a −inf one.
        """
        return np.asarray(self._rows @ delta_log_a).ravel()

    def log_f(self, log_a: np.ndarray, offsets: np.ndarray | None = None):
        """``log f(A)`` (−inf when no trace succeeded), summed over distinct rows.

        A ``(B, n_columns)`` block gives ``B`` values. *offsets*, an
        ``(m, n_rows)`` array of per-distinct-row shifts (see
        :meth:`log_ratio_shift`), scores the shifted candidates instead and
        adds a leading axis of length ``m``: one product and one
        exponential pass serve them all (see :func:`_logsumexp_offsets`).
        """
        _check_shape(log_a, self.n_columns)
        if self._rows.shape[0] == 0:
            terms = np.empty((0,) + log_a.shape[:-1])
        elif log_a.ndim == 1:
            terms = np.asarray(self._rows @ log_a).ravel() + self._log_w
        else:
            terms = np.asarray(self._rows @ log_a.T) + self._log_w[:, None]
        if offsets is not None:
            if log_a.ndim == 2:
                return _logsumexp_offsets(terms, offsets)
            return np.array([_logsumexp_first(terms + o) for o in offsets])
        if log_a.ndim == 1:
            return logsumexp(terms)
        return _logsumexp_first(terms)

    def moments(self, log_a: np.ndarray) -> Moments:
        """``(log f, log g)`` at the candidate, for γ̂ and σ̂."""
        log_ratios = self.log_likelihood_ratios(log_a)
        if log_ratios.size == 0:
            return Moments(float("-inf"), float("-inf"), self._tables.n_total)
        return Moments(
            log_f=logsumexp(log_ratios),
            log_g=logsumexp(2.0 * log_ratios),
            n_total=self._tables.n_total,
        )

    def gradient_log_f(self, log_a: np.ndarray) -> np.ndarray:
        """Gradient of ``log f`` w.r.t. ``log_a`` (softmax-weighted counts).

        ``∂ log f / ∂ log a_t = Σ_k softmax(logL)_k · n_t(ω_k)`` — used by
        the gradient-based baseline optimisers. The gradient w.r.t. ``a_t``
        itself is this divided by ``a_t``.
        """
        log_ratios = self.log_likelihood_ratios(log_a)
        if log_ratios.size == 0:
            return np.zeros(self.n_columns)
        weights = np.exp(log_ratios - logsumexp(log_ratios))
        return np.asarray(weights @ self._counts).ravel()


def _logsumexp_first(values: np.ndarray) -> np.ndarray:
    """``logsumexp`` over axis 0, computed in place (*values* is overwritten)."""
    top = values.max(axis=0, initial=float("-inf"))
    shift = np.where(np.isfinite(top), top, 0.0)
    np.subtract(values, shift, out=values)
    np.exp(values, out=values)
    with np.errstate(divide="ignore"):
        return np.log(values.sum(axis=0)) + shift


def _logsumexp_offsets(terms: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """``logsumexp(terms + o[:, None], axis=0)`` for each row ``o`` of
    *offsets*, from one exponential pass over *terms* (overwritten).

    With ``top`` each column's maximum and ``E = exp(terms − top)``, a
    direction's value is ``log(Σ_r W_r E_rb) + top_b + max o`` where
    ``W = exp(o − max o)``. The row sum is an ``einsum``, which calls no
    BLAS and so starts no threads. A direction whose offsets are all −inf,
    or whose finite ones spread over :data:`FUSED_OFFSET_SPAN`, is summed
    on its own instead (the per-direction log-sum-exp of each shifted
    block). The results agree with the per-direction ones to rounding;
    only comparisons read them.
    """
    peak = offsets.max(axis=1, initial=-np.inf)
    low = np.where(np.isneginf(offsets), np.inf, offsets).min(axis=1, initial=np.inf)
    fused = np.isfinite(peak) & (peak - low <= FUSED_OFFSET_SPAN)
    if not fused.all():
        out = np.empty((offsets.shape[0], terms.shape[1]))
        for d in np.flatnonzero(~fused):
            out[d] = _logsumexp_first(terms + offsets[d][:, None])
        if fused.any():
            out[fused] = _logsumexp_offsets(terms, offsets[fused])
        return out
    top = terms.max(axis=0)
    shift = np.where(np.isfinite(top), top, 0.0)
    np.subtract(terms, shift, out=terms)
    np.exp(terms, out=terms)
    sums = np.einsum("dr,rb->db", np.exp(offsets - peak[:, None]), terms)
    with np.errstate(divide="ignore"):
        return np.log(sums) + shift + peak[:, None]


def _check_shape(log_a: np.ndarray, n_columns: int) -> None:
    if log_a.shape[-1:] != (n_columns,) or log_a.ndim > 2:
        raise EstimationError(
            f"candidate vector has shape {log_a.shape}, expected "
            f"({n_columns},) or (B, {n_columns})"
        )


def _distinct_rows(counts: sparse.csr_matrix, log_b: np.ndarray):
    """The distinct rows of *counts* in order of first occurrence, and the
    log of each row's weight ``Σ 1/P_B`` over its traces.

    A row's key is the bytes of its ``(column, count)`` pairs. Each weight
    is a log-sum-exp shifted by its group's maximum: equal rows can carry
    ``log P_B`` values a few ULP apart, and ``1/P_B`` can overflow. When
    every row is distinct the tables' matrix is returned as it is, with
    weights ``−log P_B``.
    """
    if not counts.has_canonical_format:
        counts = counts.copy()
        counts.sum_duplicates()
    pairs = np.empty((counts.nnz, 2))
    pairs[:, 0], pairs[:, 1] = counts.indices, counts.data
    raw, bounds = pairs.tobytes(), (16 * counts.indptr).tolist()
    ids: dict[bytes, int] = {}
    group = np.array(
        [ids.setdefault(raw[a:b], len(ids)) for a, b in zip(bounds, bounds[1:])], dtype=np.int64
    )
    if len(ids) == group.size:
        return counts, -log_b
    _, firsts = np.unique(group, return_index=True)
    top = np.full(len(ids), -np.inf)
    np.maximum.at(top, group, -log_b)
    shift = np.where(np.isfinite(top), top, 0.0)
    total = np.bincount(group, weights=np.exp(-log_b - shift[group]), minlength=len(ids))
    with np.errstate(divide="ignore"):
        return counts[firsts], np.log(total) + shift
