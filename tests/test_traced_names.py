"""The names the traced benchmark patches must stay bound.

``benchmarks/tracing.py`` wraps every (module, attribute) pair of its
``INTERNAL_NAMES`` and ``numpy.random.default_rng`` as ``experiments``
uses it.  A name that is missing is skipped silently, so a traced run
still exits 0 and prints ``null`` for the metrics built on it.  The
tuple is read from the file's source, without importing the harness.
"""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"

# Already unbound before this check existed; no metric is built on it.
KNOWN_ABSENT = {("rotalign.registration", "field_norms")}


def _internal_names() -> tuple:
    for node in ast.parse(TRACING.read_text()).body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None) == "INTERNAL_NAMES"):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no INTERNAL_NAMES in {TRACING}")


def test_traced_internal_names_are_bound():
    names = _internal_names()
    assert len(names) > 10
    missing = [(module, attr) for module, attr, _ in names
               if (module, attr) not in KNOWN_ABSENT
               and not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []


def test_traced_rng_setup_resolves():
    experiments = importlib.import_module("rotalign.experiments")
    assert callable(experiments.np.random.default_rng)
