"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import ordist  # noqa: E402
import ordist.cli  # noqa: E402

from run import tail  # noqa: E402
from spans import PER_LAYER, TARGETS, Patch, Tracer, per_layer, self_times  # noqa: E402
from systems import (  # noqa: E402
    joint_system,
    latent_system,
    pr_system,
    to_ordist,
    treatment_subset,
    write_system,
)
from workloads import Case, Checker  # noqa: E402


def _feasible(system) -> bool:
    design, tables = to_ordist(ordist, system)
    assert ordist.validate_system(design, tables).ok
    assert ordist.check_marginal_selectivity(design, tables).passed
    return ordist.jdc_feasible(ordist.build_jdc(design, tables)).feasible


@pytest.mark.parametrize("seed", range(8))
def test_promised_verdicts_hold_at_smallest_size(seed):
    rng = random.Random(seed)
    assert _feasible(joint_system(rng, "joint", 2, 2))
    assert _feasible(latent_system(rng, "latent", 2, 2))
    subset = treatment_subset(random.Random(0), rng, 2, 2, 0.75)
    assert _feasible(latent_system(rng, "restricted", 2, 2, subset))
    assert not _feasible(pr_system(rng, "pr", 2, 2, Fraction(5 + seed % 4, 8)))


def test_generators_are_seeded():
    lam = Fraction(2, 3)
    assert pr_system(random.Random(3), "a", 3, 2, lam) == pr_system(random.Random(3), "a", 3, 2, lam)


def test_self_time_on_synthetic_span_tree():
    spans = [
        ["root", 0.0, 10.0, None, 1],
        ["a", 1.0, 4.0, 0, 1],
        ["a.child", 2.0, 3.0, 1, 1],
        ["b", 3.0, 6.0, 0, 1],  # overlaps a: the union [1, 6] is covered
        ["c", 9.0, 12.0, 0, 1],  # clipped to the parent's end
    ]
    assert self_times(spans) == [4.0, 2.0, 1.0, 3.0, 3.0]


def test_per_layer_self_time_and_ratios():
    clock = iter([0.0, 1.0, 4.0, 10.0]).__next__
    tracer = Tracer(clock)
    outer = tracer.open("cli.main")
    inner = tracer.open("jdc.build_jdc")
    tracer.close(inner)
    tracer.close(outer)
    tracer.counts.update(sequences_tested=3, realizable_examined=12)
    metrics = per_layer(tracer, calls=2, overhead_s=0.5)
    assert set(metrics) == set(PER_LAYER)
    assert metrics["cli.self_s"]["value"] == pytest.approx(3.5)
    assert metrics["jdc.build_jdc_s"]["value"] == pytest.approx(1.5)
    assert metrics["selectivity.irreducible_yield"]["value"] == pytest.approx(0.25)


def _fake_ordist(drop: str):
    modules = {mod: SimpleNamespace() for mod, _, _ in TARGETS}
    for mod, attr, _ in TARGETS:
        if f"{mod}.{attr}" != drop:
            setattr(modules[mod], attr, lambda *a, **k: None)
    return SimpleNamespace(**modules)


def test_missing_wrapped_attribute_is_reported_absent():
    fake = _fake_ordist(drop="selectivity.is_irreducible")
    original = fake.cli.run_suite
    tracer = Tracer()
    patch = Patch(fake, tracer)
    assert patch.absent() == {
        "selectivity.realizable_examined",
        "selectivity.irreducible_yield",
    }
    with patch:
        assert fake.cli.run_suite is not original
    assert fake.cli.run_suite is original
    metrics = per_layer(tracer, calls=1, overhead_s=0.0, absent=patch.absent())
    assert metrics["selectivity.realizable_examined"]["value"] is None
    assert metrics["lp.pivots"]["value"] == 0


def test_missing_cli_attribute_makes_cli_self_time_absent():
    patch = Patch(_fake_ordist(drop="cli.fine_chain_equivalence"), Tracer())
    assert patch.absent() == {"jdc.fine_block_s", "cli.self_s"}


def test_tail_has_ten_samples_beyond_it():
    pct, value = tail([float(k) for k in range(40, 0, -1)])
    assert (pct, value) == (75.0, 30.0)


def _run(path, command="jdc"):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = ordist.cli.main([command, str(path), "--json"])
    return code, out.getvalue()


def test_checker_accepts_correct_reports_and_rejects_tampered_ones(tmp_path):
    rng = random.Random(5)
    sound = joint_system(rng, "joint", 2, 3)
    bad = pr_system(rng, "pr", 2, 3, Fraction(3, 4))
    checker = Checker(ordist)
    for system in (sound, bad):
        path = tmp_path / f"{system.name}.json"
        write_system(ordist, system, path)
        case = Case(system, "jdc")
        code, out = _run(path)
        assert checker.check(case, str(path), code, out) is None
        report = json.loads(out)
        if system.sound:
            report["witness"][0]["p"] = "0"
        else:
            for entry in report["certificate"]:
                entry["y"] = "0"
        assert checker.check(case, str(path), code, json.dumps(report)) is not None
        assert checker.check(case, str(path), 1, out) is not None
        assert checker.check(case, str(path), code, out[: len(out) // 2]) is not None


def test_checker_requires_negative_residuals_on_pr_systems(tmp_path):
    system = pr_system(random.Random(2), "pr", 3, 3, Fraction(1))
    path = tmp_path / "pr.json"
    write_system(ordist, system, path)
    case = Case(system, "check")
    code, out = _run(path, "check")
    checker = Checker(ordist)
    assert checker.check(case, str(path), code, out) is None
    report = json.loads(out)
    assert report["violations"]
    report["violations"][0]["residual"] = "0"
    assert checker.check(case, str(path), code, json.dumps(report)) is not None
    report["violations"] = []
    assert checker.check(case, str(path), code, json.dumps(report)) is not None


def test_benchmark_json_matches_the_code():
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (unit, _) in PER_LAYER.items()
    }
