"""The package's entry points import neither ``scipy.stats`` nor ``scipy.optimize``.

Those two cost ~0.8 s of every cold start and the package needs neither
at import: its quantiles come from ``scipy.special`` and only the SLSQP
baseline (``repro.imcis.optimizers.slsqp``) imports ``scipy.optimize``, in
its own body. The guard imports the entry points in a fresh interpreter
under ``-X importtime`` and, on failure, names the ``repro`` module that
pulled each forbidden one in.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

FORBIDDEN = ("scipy.stats", "scipy.optimize")
ENTRY_POINTS = "import repro, repro.cli, repro.service, repro.experiments.matrix"
SRC = Path(repro.__file__).resolve().parent.parent


def _forbidden(name: str) -> bool:
    return any(name == root or name.startswith(root + ".") for root in FORBIDDEN)


def _import_tree(importtime: str) -> list[tuple[int, str]]:
    """``(depth, module)`` per ``-X importtime`` line, in the order printed.

    A module's line follows those of the modules it imported, which are
    one level deeper.
    """
    tree = []
    for line in importtime.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line.split("|")
        if not fields[0].rsplit(":", 1)[1].strip().isdigit():
            continue  # the header line
        name = fields[-1].rstrip()
        tree.append((len(name) - len(name.lstrip()), name.strip()))
    return tree


def importers(importtime: str) -> dict[str, list[str]]:
    """Forbidden modules grouped by the innermost ``repro`` module that loaded them."""
    tree = _import_tree(importtime)
    found: dict[str, list[str]] = {}
    for index, (depth, name) in enumerate(tree):
        if not _forbidden(name):
            continue
        importer = "<entry point>"
        for later_depth, later in tree[index + 1 :]:
            if later_depth < depth:
                if later == "repro" or later.startswith("repro."):
                    importer = later
                    break
                depth = later_depth
        found.setdefault(importer, []).append(name)
    return found


def test_entry_points_skip_stats_and_optimize():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = f"{ENTRY_POINTS}; import json, sys; print(json.dumps(sorted(sys.modules)))"
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", code],
        capture_output=True,
        text=True,
        env=env,
        check=False,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    loaded = [name for name in json.loads(done.stdout.splitlines()[-1]) if _forbidden(name)]
    culprits = "; ".join(
        f"{importer} loads {', '.join(names[:3])} ({len(names)} modules)"
        for importer, names in importers(done.stderr).items()
    )
    assert not loaded, f"{ENTRY_POINTS!r} loaded {len(loaded)} forbidden modules: {culprits}"


def test_importers_name_the_importing_module():
    importtime = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:       10 |         10 |       numpy",
            "import time:       20 |         20 |         scipy.stats._stats_py",
            "import time:       30 |         50 |       scipy.stats",
            "import time:       40 |        100 |     repro.smc.bayes",
            "import time:        5 |        105 |   repro.smc",
            "import time:       60 |         60 |   scipy.sparse",
            "import time:        1 |        166 | repro",
        ]
    )
    assert importers(importtime) == {
        "repro.smc.bayes": ["scipy.stats._stats_py", "scipy.stats"]
    }
    assert importers(importtime.replace("scipy.stats", "scipy.special")) == {}
