"""Case-study registry: every benchmark family, resolvable by name.

The paper validates IMCIS on three case studies; the estimator stack is
model-agnostic. This module turns the per-module ``make_study`` factories
into a uniform, named collection so that experiments, benchmarks and the
CLI resolve studies by name instead of ad-hoc imports — and so the
cross-study experiment matrix (:mod:`repro.experiments.matrix`) can fan
over *all* of them.

Every factory returns one :class:`~repro.models.base.CaseStudy`, whose
``proposal`` is the chain its estimators sample under (for SWaT, a
time-dependent :class:`~repro.importance.bounded.UnrolledProposal`).
Seeded factories (SWaT learns its model from simulated logs and takes an
``rng``) are registered with ``seeded=True`` so callers can thread a root
seed through without knowing which studies need one.

The module-level :data:`REGISTRY` holds the default catalogue: the three
paper studies, the large repair model (tagged ``"slow"``) and four
parametric IMC families. Fresh, empty registries can be constructed for
testing or for private study sets.

:meth:`StudyRegistry.make_study` builds each study once per process: a
registry keeps its last :data:`BUILT_STUDIES` builds, so a repeated
request (a warm service job, a second matrix run) reuses the model
instead of re-deriving it. Every factory is deterministic given its
parameters and integer seed, so a cached study is the object a rebuild
would produce.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Callable, Iterator, Mapping
from dataclasses import dataclass, field

from repro.errors import ModelError
from repro.models import (
    birth_death,
    gamblers_ruin,
    illustrative,
    knuth_yao,
    repair_group,
    repair_large,
    swat,
    tandem_repair,
)
from repro.models.base import CaseStudy
from repro.obs import metrics as _obs_metrics

#: Tag of studies too expensive for quick/smoke runs.
SLOW_TAG = "slow"

#: Built studies a registry keeps (least recently used evicted first).
BUILT_STUDIES = 8

_METRIC_BUILDS = _obs_metrics.registry().counter(
    "repro_study_builds_total",
    "make_study calls, by study and whether the built study came from the cache.",
    ("study", "cached"),
)


@dataclass(frozen=True)
class StudySpec:
    """A registered case-study family.

    Attributes
    ----------
    name:
        Registry key (and the expected ``CaseStudy.name``).
    factory:
        The parametric ``make_study(**params)`` callable returning a
        :class:`CaseStudy`.
    description:
        One-line summary shown in listings.
    tags:
        Free-form markers; :data:`SLOW_TAG` excludes a study from quick
        matrix runs.
    quick_params:
        Factory overrides applied by quick/smoke runs (e.g. a smaller
        learning-log volume for SWaT).
    seeded:
        True when the factory accepts an ``rng`` keyword (model building
        itself is stochastic).
    """

    name: str
    factory: Callable[..., object]
    description: str = ""
    tags: frozenset[str] = frozenset()
    quick_params: Mapping[str, object] = field(default_factory=dict)
    seeded: bool = False

    def build(
        self, rng: object | None = None, quick: bool = False, **params: object
    ) -> CaseStudy:
        """Instantiate the study.

        Parameters
        ----------
        rng : Generator, int or None, optional
            Forwarded to seeded factories; ignored otherwise.
        quick : bool, optional
            Apply :attr:`quick_params` underneath any explicit *params*.
        **params
            Factory keyword overrides (each family is parametric).

        Returns
        -------
        CaseStudy
            The built study.

        Raises
        ------
        ModelError
            When the factory does not produce a :class:`CaseStudy`.
        """
        merged: dict[str, object] = dict(self.quick_params) if quick else {}
        merged.update(params)
        if self.seeded and rng is not None:
            merged.setdefault("rng", rng)
        study = self.factory(**merged)
        if not isinstance(study, CaseStudy):
            raise ModelError(
                f"factory of study {self.name!r} returned {type(study).__name__}, "
                "expected a CaseStudy"
            )
        return study


class StudyRegistry:
    """A named, ordered collection of case-study families.

    :meth:`make_study` memoises its builds in a lock-guarded LRU of
    :data:`BUILT_STUDIES` entries, shared by every thread using the
    registry (service job workers, fleet worker threads). A study is
    keyed on ``(name, quick, seed, params)``, where *seed* is the integer
    ``rng`` of a seeded family and ``None`` for every other family, whose
    build ignores the seed. Seeded builds from a ``Generator`` or ``None``
    and builds with unhashable parameters are never cached. Callers must
    treat the returned study as read-only.
    """

    def __init__(self) -> None:
        self._specs: dict[str, StudySpec] = {}
        self._built: "OrderedDict[tuple, CaseStudy]" = OrderedDict()
        self._built_lock = threading.Lock()

    def register(
        self,
        name: str,
        factory: Callable[..., object],
        description: str = "",
        tags: "tuple[str, ...] | frozenset[str]" = (),
        quick_params: Mapping[str, object] | None = None,
        seeded: bool = False,
    ) -> StudySpec:
        """Add a study family under *name*.

        Parameters
        ----------
        name : str
            Registry key (and the expected ``CaseStudy.name``).
        factory : callable
            Parametric ``make_study(**params)`` returning a
            :class:`CaseStudy`. It must be deterministic given its
            parameters (and integer ``rng``): :meth:`make_study` caches
            its builds.
        description : str, optional
            One-line summary shown in listings.
        tags : tuple or frozenset of str, optional
            Free-form markers; :data:`SLOW_TAG` excludes a study from
            quick runs.
        quick_params : Mapping, optional
            Factory overrides applied by quick/smoke runs.
        seeded : bool, optional
            True when the factory accepts an ``rng`` keyword.

        Returns
        -------
        StudySpec
            The spec as registered.

        Raises
        ------
        ModelError
            When *name* is already registered.
        """
        if name in self._specs:
            raise ModelError(f"study {name!r} is already registered")
        spec = StudySpec(
            name=name,
            factory=factory,
            description=description,
            tags=frozenset(tags),
            quick_params=dict(quick_params or {}),
            seeded=seeded,
        )
        self._specs[name] = spec
        return spec

    def get(self, name: str) -> StudySpec:
        """The spec registered under *name*.

        Parameters
        ----------
        name : str
            Registry key to resolve.

        Returns
        -------
        StudySpec
            The registered spec.

        Raises
        ------
        ModelError
            When *name* is unknown (the message lists known names).
        """
        try:
            return self._specs[name]
        except KeyError:
            raise ModelError(
                f"unknown study {name!r}; registered: {self.list_studies()}"
            ) from None

    def list_studies(self, tag: str | None = None, exclude_tag: str | None = None) -> list[str]:
        """Registered names, in registration order, optionally filtered.

        Parameters
        ----------
        tag : str, optional
            Keep only studies carrying this tag.
        exclude_tag : str, optional
            Drop studies carrying this tag.

        Returns
        -------
        list of str
            Matching registry keys, in registration order.
        """
        names = []
        for name, spec in self._specs.items():
            if tag is not None and tag not in spec.tags:
                continue
            if exclude_tag is not None and exclude_tag in spec.tags:
                continue
            names.append(name)
        return names

    def quick_studies(self) -> list[str]:
        """The names quick/smoke runs cover (everything not tagged slow)."""
        return self.list_studies(exclude_tag=SLOW_TAG)

    def make_study(
        self, name: str, rng: object | None = None, quick: bool = False, **params: object
    ) -> CaseStudy:
        """Build the study registered under *name*.

        Parameters
        ----------
        name : str
            Registry key to resolve.
        rng : Generator, int or None, optional
            Forwarded to seeded factories; ignored otherwise.
        quick : bool, optional
            Apply the spec's quick parameters underneath *params*.
        **params
            Factory keyword overrides.

        Returns
        -------
        CaseStudy
            The built study (see :meth:`StudySpec.build`), shared with
            every other caller asking for the same key.
        """
        spec = self.get(name)
        key = _build_key(spec, rng, quick, params)
        study = None
        if key is not None:
            with self._built_lock:
                study = self._built.get(key)
                if study is not None:
                    self._built.move_to_end(key)
        cached = study is not None
        if not cached:
            study = spec.build(rng=rng, quick=quick, **params)
            if key is not None:
                with self._built_lock:
                    # A concurrent build of the same key may have landed
                    # first; keep one object per key.
                    study = self._built.setdefault(key, study)
                    self._built.move_to_end(key)
                    while len(self._built) > BUILT_STUDIES:
                        self._built.popitem(last=False)
        _METRIC_BUILDS.labels(study=name, cached="true" if cached else "false").inc()
        return study

    def __contains__(self, name: object) -> bool:
        return name in self._specs

    def __len__(self) -> int:
        return len(self._specs)

    def __iter__(self) -> Iterator[StudySpec]:
        return iter(self._specs.values())


def _build_key(
    spec: StudySpec, rng: object | None, quick: bool, params: "dict[str, object]"
) -> "tuple | None":
    """The cache key of one build, or ``None`` when it must not be cached."""
    seed = None
    if spec.seeded:
        if type(rng) is not int:
            return None
        seed = rng
    key = (spec.name, quick, seed, tuple(sorted(params.items())))
    try:
        hash(key)
    except TypeError:
        return None
    return key


def register_default_studies(registry: StudyRegistry) -> StudyRegistry:
    """Register the full default catalogue onto *registry*."""
    registry.register(
        "illustrative",
        illustrative.make_study,
        description="4-state example of Fig. 1 with the perfect IS proposal",
    )
    registry.register(
        "group-repair",
        repair_group.make_study,
        description="125-state grouped-repair benchmark (Section VI-B)",
    )
    registry.register(
        "large-repair",
        repair_large.make_study,
        description="40 320-state repair benchmark (Section VI-C)",
        tags=(SLOW_TAG,),
    )
    registry.register(
        "swat",
        swat.make_study,
        description="70-state SWaT surrogate, learnt from simulated logs (Section VI-D)",
        quick_params={"log_traces": 400, "log_steps": 600},
        seeded=True,
    )
    registry.register(
        "birth-death",
        birth_death.make_study,
        description="M/M/1/K busy-cycle overflow with interval service probability",
    )
    registry.register(
        "gamblers-ruin",
        gamblers_ruin.make_study,
        description="biased gambler's ruin with perturbed win probability",
    )
    registry.register(
        "knuth-yao",
        knuth_yao.make_study,
        description="Knuth-Yao die with an interval coin (rare six)",
    )
    registry.register(
        "tandem-repair",
        tandem_repair.make_study,
        description="tandem repair network scaling the repair family (64 states default)",
    )
    return registry


#: The default catalogue used by the CLI, the matrix and the benchmarks.
REGISTRY = register_default_studies(StudyRegistry())
