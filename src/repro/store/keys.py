"""Stable cache keys for experiment artifacts.

The store is content-addressed: a repetition's cache location is a
:func:`config_key` — a SHA-256 digest of a canonical JSON document
describing *everything* its result depends on. The experiments build that
document from

* the case study's numeric content (:func:`describe_study` — interval
  bound matrices, proposal, ground-truth chain, property, sample size),
* the estimator configuration (name, confidence, search parameters),
* the root :class:`~numpy.random.SeedSequence` entropy (repetition ``i``
  always receives the ``i``-th spawned child, so the root entropy plus the
  record index identifies the exact RNG stream), and
* the code-relevant versions (:func:`code_versions` — the store schema,
  the package version and the NumPy version, whose RNG and floating-point
  kernels the bitwise-parity guarantee rides on).

Keys are deliberately *oblivious* to the repetition count and the worker
count: repetitions are pure functions of ``(context, seed)`` and
``SeedSequence.spawn`` hands out prefix-stable children, so extending a
run from 4 to 100 repetitions reuses the first 4 records, and records
computed on 4 workers are bitwise those computed on 1.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Mapping

import numpy as np

import repro
from repro.core.dtmc import DTMC
from repro.core.imc import IMC
from repro.core.linalg import is_sparse
from repro.errors import StoreError
from repro.importance.bounded import UnrolledProposal
from repro.models.base import CaseStudy

__all__ = [
    "STORE_SCHEMA",
    "canonical_json",
    "code_versions",
    "config_key",
    "describe_study",
    "fingerprint_array",
    "fingerprint_chain",
    "fingerprint_matrix",
    "payload_checksum",
    "seed_entropy",
]

#: Version of the on-disk record format; part of every key, so a format
#: change can never misinterpret records written by an older layout.
#: Bumped to 2 when matrix cell records grew estimator-specific detail
#: payloads (the ``ce`` diagnostics).
STORE_SCHEMA = 2


def canonical_json(payload: object) -> str:
    """Serialise *payload* to canonical JSON (sorted keys, no whitespace).

    Parameters
    ----------
    payload : object
        Any JSON-serialisable value. Non-finite floats are allowed (they
        serialise to ``NaN``/``Infinity``, which is stable).

    Returns
    -------
    str
        A deterministic textual form: equal payloads — across processes,
        platforms and dict insertion orders — produce equal strings.
    """
    try:
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))
    except (TypeError, ValueError) as error:
        raise StoreError(f"payload is not canonically serialisable: {error}") from None


def config_key(payload: Mapping[str, object]) -> str:
    """Hash a key payload to its content address.

    Parameters
    ----------
    payload : Mapping[str, object]
        The JSON-serialisable description of everything the cached result
        depends on.

    Returns
    -------
    str
        The first 32 hex digits of the SHA-256 of the canonical JSON —
        the record-file name under the store root.
    """
    digest = hashlib.sha256(canonical_json(dict(payload)).encode("utf-8"))
    return digest.hexdigest()[:32]


def payload_checksum(payload: object) -> str:
    """Short integrity checksum embedded in every stored record line."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()[:12]


def code_versions() -> "dict[str, object]":
    """The code-relevant versions baked into every key.

    NumPy is included because both the RNG streams and the floating-point
    kernels the simulation engine vectorises through live there; a NumPy
    upgrade invalidates the cache rather than risk serving results the
    current code could not reproduce bitwise.
    """
    return {
        "schema": STORE_SCHEMA,
        "repro": repro.__version__,
        "numpy": np.__version__,
    }


def fingerprint_array(array: np.ndarray) -> str:
    """Digest of one ndarray's dtype, shape and exact bytes."""
    arr = np.ascontiguousarray(array)
    digest = hashlib.sha256()
    digest.update(str(arr.dtype).encode())
    digest.update(str(arr.shape).encode())
    digest.update(arr.tobytes())
    return digest.hexdigest()[:32]


def fingerprint_matrix(matrix: object) -> str:
    """Digest of a dense or CSR-sparse matrix's exact numeric content."""
    if is_sparse(matrix):
        csr = matrix.tocsr()  # type: ignore[attr-defined]
        parts = (
            "sparse",
            str(csr.shape),
            fingerprint_array(csr.data),
            fingerprint_array(csr.indices),
            fingerprint_array(csr.indptr),
        )
        return hashlib.sha256("|".join(parts).encode()).hexdigest()[:32]
    return fingerprint_array(np.asarray(matrix))


def fingerprint_chain(chain: DTMC) -> str:
    """Digest of a DTMC: transitions, initial state and labels."""
    label_parts = [
        f"{name}:{fingerprint_array(np.asarray(mask))}"
        for name, mask in sorted(chain.labels.items())
    ]
    parts = (
        fingerprint_matrix(chain.transitions),
        str(chain.initial_state),
        ";".join(label_parts),
    )
    return hashlib.sha256("|".join(parts).encode()).hexdigest()[:32]


def _fingerprint_imc(imc: IMC) -> "dict[str, str]":
    return {
        "lower": fingerprint_matrix(imc.lower),
        "upper": fingerprint_matrix(imc.upper),
        "center": fingerprint_chain(imc.center),
    }


def _fingerprint_proposal(proposal: "DTMC | UnrolledProposal") -> "str | dict[str, object]":
    if isinstance(proposal, DTMC):
        return fingerprint_chain(proposal)
    return {
        "chain": fingerprint_chain(proposal.chain),
        "n_original": proposal.n_original,
        "bound": proposal.bound,
        "formula": repr(proposal.formula),
    }


def _study_fingerprints(study: CaseStudy) -> "dict[str, object]":
    """Digests of *study*'s IMC, proposal and true chain, hashed once.

    The digests are memoised on the study with the objects they were
    computed from, and reused only while the study still holds those
    very objects: their matrices are frozen, so the same object means
    the same content. Concurrent first calls may both hash; each stores
    the same digests. The returned dict is a fresh copy.
    """
    sources = (study.imc, study.proposal, study.true_chain)
    memo = study._fingerprints
    if memo is None or any(old is not new for old, new in zip(memo[0], sources)):
        imc, proposal, true_chain = sources
        memo = study._fingerprints = (
            sources,
            {
                "imc": _fingerprint_imc(imc),
                "proposal": _fingerprint_proposal(proposal),
                "true_chain": None if true_chain is None else fingerprint_chain(true_chain),
            },
        )
    return {
        name: dict(value) if isinstance(value, dict) else value
        for name, value in memo[1].items()
    }


def describe_study(study: CaseStudy) -> "dict[str, object]":
    """The key-payload fragment identifying one prepared case study.

    Parameters
    ----------
    study : CaseStudy
        The prepared study. Its numeric content — not the factory
        parameters that produced it — is what gets hashed, so two routes
        to the same model (registry name vs direct ``make_study`` call)
        share cache entries, and *any* drift in the model invalidates
        them. The proposal entry fingerprints the chain the study
        samples under: for an :class:`UnrolledProposal`, the unrolled
        chain plus its projection and goal. The matrix digests are
        computed once per study object (see :func:`_study_fingerprints`),
        so a warm job on a cached study hashes nothing.

    Returns
    -------
    dict
        A JSON-serialisable description to embed under a key payload's
        ``"study"`` entry.
    """
    return {
        "name": study.name,
        **_study_fingerprints(study),
        "formula": repr(study.formula),
        "gamma_true": study.gamma_true,
        "gamma_center": study.gamma_center,
        "n_samples": study.n_samples,
        "confidence": study.confidence,
    }


def seed_entropy(rng: "np.random.Generator | np.random.SeedSequence | int | None") -> str:
    """The root seed state that :func:`repro.util.rng.spawn_seeds` derives from.

    Returned as a string (entropy can exceed JSON's safe integer range)
    that also pins the sequence's spawn position: a shared ``Generator``
    whose ``SeedSequence`` has already spawned children hands later calls
    *different* repetition streams, so the spawn counter must
    disambiguate the keys. ``None`` (OS entropy) is rejected — an
    unseeded run is not cacheable.
    """
    if isinstance(rng, np.random.Generator):
        seq = rng.bit_generator.seed_seq  # type: ignore[attr-defined]
    elif isinstance(rng, np.random.SeedSequence):
        seq = rng
    elif rng is None:
        raise StoreError(
            "cannot cache an unseeded (None) run: its RNG stream is "
            "drawn from OS entropy and can never be reproduced"
        )
    else:
        seq = np.random.SeedSequence(rng)
    spawn_key = ",".join(str(part) for part in seq.spawn_key)
    return f"{seq.entropy}:[{spawn_key}]:{seq.n_children_spawned}"
