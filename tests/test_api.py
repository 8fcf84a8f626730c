import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

import ordist

REMOVED = [
    "Power",
    "Bounded",
    "Max",
    "Sum",
    "Mixture",
    "transform",
    "order_distance",
    "classification_distance",
    "p_distance",
    "conditional_entropy",
    "frechet_distance",
    "expected_ground",
    "pair_coverable",
]

# names the benchmark harness under perfbench/ looks up on the package
BENCHMARK_NAMES = [
    "Design",
    "TreatmentTable",
    "dump_system",
    "load_system",
    "build_jdc",
    "witness_reproduces_tables",
    "default_order_metric",
]


def test_all_names_resolve_and_none_is_a_module():
    assert len(ordist.__all__) == len(set(ordist.__all__))
    for name in ordist.__all__:
        assert not isinstance(getattr(ordist, name), types.ModuleType), name


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from ordist import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == set(ordist.__all__)


@pytest.mark.parametrize("name", REMOVED)
def test_removed_names_are_gone(name):
    assert name not in ordist.__all__
    assert not hasattr(ordist, name)
    assert not hasattr(ordist.metrics, name)
    assert not hasattr(ordist.selectivity, name)


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_benchmark_names_present(name):
    assert name in ordist.__all__


def test_submodules_stay_package_attributes():
    assert callable(ordist.lp.verify_certificate)
    assert callable(ordist.selectivity.enumerate_irreducible)
    assert callable(ordist.selectivity.is_irreducible)


# run without site, so that only what ordist imports is loaded beyond the
# interpreter's own start-up modules
IMPORT_ALL = """
import importlib, json, pkgutil, sys
sys.path.insert(0, sys.argv[1])
import ordist
for info in pkgutil.iter_modules(ordist.__path__):
    if info.name != "__main__":  # runs the command line
        importlib.import_module("ordist." + info.name)
print(json.dumps(sorted({name.partition(".")[0] for name in sys.modules})))
"""


def test_runtime_imports_only_the_standard_library():
    src = str(Path(ordist.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-S", "-c", IMPORT_ALL, src],
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout
    loaded = set(json.loads(out))
    assert {"ordist", "fractions"} <= loaded
    assert loaded - {"ordist"} <= set(sys.stdlib_module_names) | {"__main__"}
