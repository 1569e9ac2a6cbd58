"""Content-addressed experiment artifact store (format v2).

The Section VI experiments are repetition-heavy Monte Carlo fan-outs in
which every repetition is a pure function of ``(configuration, seed)``.
This package caches those repetitions on disk so reruns only simulate
what actually changed:

* :mod:`repro.store.keys` — stable :func:`config_key` hashing of study
  content, estimator configuration, root seed entropy and code versions;
* :mod:`repro.store.format` — binary record segments: length-prefixed,
  CRC-checked frames around the exact canonical-JSON payload bytes;
* :mod:`repro.store.index` — the durable indexed catalog (append-only
  per-writer index segments compacted into a sorted key → coordinates
  map) that makes listings, lookups and gc O(index);
* :mod:`repro.store.store` — the :class:`ArtifactStore` facade itself
  (``open``, ``get``/``put``/``iter_keys``/``stats``, run manifests,
  ``describe``/``verify``/``gc`` maintenance);
* :mod:`repro.store.cache` — :func:`map_repetitions_cached`, the drop-in
  cache-aware variant of the parallel repetition fan-out;
* :mod:`repro.store.leases` — durable, fenced job leases (owner id,
  heartbeat deadline, monotonic fencing token) the fleet layer and the
  store's own maintenance operations coordinate through;
* :mod:`repro.store.codecs` — exact-round-trip JSON codecs for the
  result records the experiments aggregate.

The experiments (:mod:`repro.experiments`) accept ``store=`` and consult
the cache before dispatching repetitions; the CLI exposes ``--store``,
``--resume`` and the ``repro store ls|inspect|gc`` maintenance commands.
Cached and freshly computed repetitions produce bitwise-identical
artifacts at every worker count.

Deprecation policy
------------------
The blessed public surface is what this module re-exports. Within it,
:class:`ArtifactStore`'s stable contract is ``open``/``get``/``put``/
``iter_keys``/``key_stats``/``describe``/``stats`` plus the maintenance
verbs. The v1 format and everything that served only it were removed in
0.11, earlier than the announced 1.0, because no v1 record could be hit
any more (keys embed the package version): the read-through engine,
``RunRecord``, ``migrate()`` and ``repro store migrate``, the
``version=`` parameter of ``ArtifactStore``/``ArtifactStore.open``, the
v1-era methods deprecated since 0.8 (``record_path``, ``load``,
``append``, ``keys``, ``record_count``, ``compact``) and the ``store ls
--json`` alias of ``--format json``. ``gc`` deletes a leftover v1
``records/`` tree. Anything not re-exported here is internal and may
change without notice.
"""

from repro.store.cache import map_repetitions_cached
from repro.store.format import SegmentWriter
from repro.store.index import IndexEntry
from repro.store.keys import (
    STORE_SCHEMA,
    canonical_json,
    code_versions,
    config_key,
    describe_study,
    fingerprint_array,
    fingerprint_chain,
    fingerprint_matrix,
    seed_entropy,
)
from repro.store.leases import Lease, LeaseManager, default_owner_id
from repro.store.store import (
    FORMAT_VERSION,
    ArtifactStore,
    RunManifest,
    StoreStats,
)

__all__ = [
    "ArtifactStore",
    "FORMAT_VERSION",
    "IndexEntry",
    "Lease",
    "LeaseManager",
    "RunManifest",
    "STORE_SCHEMA",
    "SegmentWriter",
    "StoreStats",
    "canonical_json",
    "code_versions",
    "config_key",
    "default_owner_id",
    "describe_study",
    "fingerprint_array",
    "fingerprint_chain",
    "fingerprint_matrix",
    "map_repetitions_cached",
    "seed_entropy",
]
