"""The case-study models, ready-made for the experiments.

The paper's three studies plus the parametric IMC families live here as
one module each; :mod:`repro.models.registry` collects them into the
named :data:`~repro.models.registry.REGISTRY` the experiments, CLI and
benchmarks resolve studies from.
"""

from repro.models.base import CaseStudy
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
from repro.models.registry import (
    REGISTRY,
    StudyRegistry,
    StudySpec,
    register_default_studies,
)

__all__ = [
    "REGISTRY",
    "CaseStudy",
    "StudyRegistry",
    "StudySpec",
    "birth_death",
    "gamblers_ruin",
    "illustrative",
    "knuth_yao",
    "register_default_studies",
    "repair_group",
    "repair_large",
    "swat",
    "tandem_repair",
]
