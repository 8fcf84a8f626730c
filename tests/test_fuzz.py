"""Fuzzing the system and metric loaders.

Valid documents are mutated by dropping keys or list items, replacing
values with values of other types or with other numbers, and corrupting
numbers.  Each mutated
document must either load or raise OrdistError, and ``ordist check|jdc``
on it must end in an exit code, never in an uncaught exception; exit
code 1 comes with a message.
"""

import copy
import json
import math
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ordist.cli import main
from ordist.errors import OrdistError
from ordist.fileio import load_metric, load_system

SAMPLES = Path(__file__).resolve().parent.parent / "samples"

SYSTEMS = [json.loads((SAMPLES / name).read_text()) for name in ("product.json", "prbox.json")]
SYSTEMS.append(
    {
        "inputs": [{"name": "1", "values": ["x", "x'"]}, {"name": "2", "values": ["y", "y'"]}],
        "treatments": [["x", "y"], ["x'", "y'"]],
        "tables": [
            {"treatment": ["x", "y"], "probs": [{"outcome": ["0", "1"], "p": 0.25},
                                                {"outcome": ["1", "1"], "p": "3/4"}]},
            {"treatment": ["x'", "y'"], "probs": [{"outcome": ["0", "0"], "p": "1"}]},
        ],
    }
)

METRICS = [
    {"kind": "order", "rank": {"0": 1, "1": 2}},
    {"kind": "order", "rank_per_point": [{"input": "1", "value": "x", "rank": {"0": 2, "1": 1}}]},
    {"kind": "classification", "cells": [["0"], ["1"]],
     "cells_per_point": [{"input": "2", "value": "y", "cells": [["0", "1"]]}]},
    {"kind": "p", "p": "inf", "embed": {"0": 0, "1": "1/2"}},
    {"kind": "entropy", "base": 2},
    {"kind": "frechet", "embed": {"0": 0, "1": 1}},
    {"kind": "separation", "u": {"0": 0, "1": 1}},
    {"kind": "expected_ground", "values": ["0", "1"], "ground": [[0, 1], ["1", 0]]},
    {
        "kind": "order",
        "rank": {"0": 1, "1": 2},
        "transform": [
            {"op": "power", "q": "1/2"},
            {"op": "bounded"},
            {"op": "mixture", "others": [{"kind": "classification", "cells": [["0"], ["1"]]}],
             "weights": ["1/2", "1/2"]},
            {"op": "max", "other": {"kind": "frechet", "embed": {"0": 0, "1": 1}}},
            {"op": "sum", "other": {"kind": "entropy"}},
        ],
    },
]

# replacement values of every JSON type, including numbers that parse badly
REPLACEMENTS = [
    None, True, 0, -1, 7, 1.5, -0.25, 1e308, "", "x", "1/0", "-3/4", "3/-4",
    "nan", "inf", "1e400", "0.5.5", "99999999999999999999/3", [], [None], {}, {"kind": 1},
    math.nan,  # written by json.dumps as the non-JSON literal NaN
]


def _paths(node, prefix=()):
    """Every path into a JSON document, the root first."""
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, (*prefix, key))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, (*prefix, i))


# well-formed numbers that may still be wrong where they land
NUMBERS = ["0", "1", "1/3", "-1/4", 0.5, 2, 1e-12]


def _corrupt_number(value):
    text = str(value)
    return [text + "/0", "-" + text, text + "e999", text.replace("/", "//"), text[:-1] or "."]


@st.composite
def mutated(draw, bases):
    doc = copy.deepcopy(draw(st.sampled_from(bases)))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        if not path:
            doc = copy.deepcopy(draw(st.sampled_from(REPLACEMENTS)))
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        old = parent[key]
        op = draw(st.sampled_from(["drop", "replace", "corrupt", "renumber"]))
        if op == "drop":
            del parent[key]
        elif op == "renumber":
            parent[key] = draw(st.sampled_from(NUMBERS))
        elif op == "corrupt" and isinstance(old, (int, float, str)) and not isinstance(old, bool):
            parent[key] = draw(st.sampled_from(_corrupt_number(old)))
        else:
            parent[key] = copy.deepcopy(draw(st.sampled_from(REPLACEMENTS)))
        if not isinstance(doc, (dict, list)):
            break
    return doc


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.err


def _loads(loader, doc) -> bool:
    try:
        loader(doc)
    except OrdistError:
        return False
    return True


FUZZ = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)


class TestLoaderFuzz:
    @FUZZ
    @given(doc=mutated(SYSTEMS), command=st.sampled_from(["check", "jdc"]))
    def test_mutated_system(self, capsys, tmp_path, doc, command):
        file = tmp_path / "system.json"
        file.write_text(json.dumps(doc))
        loads = _loads(load_system, str(file))
        code, err = _run(capsys, command, str(file), "--json")
        if loads is False:
            assert code == 1 and err.startswith("error:")
        assert code in (0, 1, 2)
        if code == 1:
            assert err.strip()

    @FUZZ
    @given(doc=mutated(METRICS))
    def test_mutated_metric(self, capsys, doc):
        text = json.dumps(doc)
        # a document that is not an object is read as a file name
        loads = _loads(load_metric, doc) if isinstance(doc, dict) else None
        code, err = _run(capsys, "check", str(SAMPLES / "product.json"), "--json", "--metric", text)
        if loads is False:
            assert code == 1 and err.startswith("error:")
        assert code in (0, 1, 2)
        if code == 1:
            assert err.strip()

    @pytest.mark.parametrize("doc", METRICS)
    def test_base_metrics_load(self, doc):
        assert _loads(load_metric, doc)

    @pytest.mark.parametrize("doc", SYSTEMS)
    def test_base_systems_load(self, doc):
        assert _loads(load_system, doc)
