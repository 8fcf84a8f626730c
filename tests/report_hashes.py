"""Hash the output of every CLI call in a benchmark batch.

Run from anywhere in a checkout::

    python3 tests/report_hashes.py --seed 1
    python3 tests/report_hashes.py --seed 2 --workload check_full
    python3 tests/report_hashes.py --seed 1 --workload samples
    python3 tests/report_hashes.py --seed 1 --workload samples_float
    python3 tests/report_hashes.py --seed 2 --workload capped
    python3 tests/report_hashes.py --seed 2 --workload msel
    python3 tests/report_hashes.py --seed 2 --workload jdc_float
    python3 tests/report_hashes.py --seed 2 --workload jdc_flipped
    python3 tests/report_hashes.py --seed 2 --workload restricted_pr

For each workload (all of them by default) the seed's batch of systems is
generated by ``perfbench/workloads.py`` and written by
``perfbench/systems.py`` into a temporary directory.  Every case of the
batch is then run through ``ordist.cli.main`` in batch order, and one
sha256 is printed per workload over each call's exit code, stdout and
stderr.  The temporary directory's path is replaced by a fixed token
before hashing, so the hashes depend only on the program and the seed:
two checkouts print the same hashes exactly when every call behaves the
same.  One more choice, ``samples`` (also run by default, after the
workloads), hashes ``ordist check`` and ``ordist jdc``, then ``ordist
check`` with the benchmark's ``EXTRA_METRICS``
(``perfbench/workloads.py``), each with and without ``--json``, on every
``samples/*.json`` in name order, the samples directory's path likewise
replaced; it does not depend on the seed.
``samples_float`` (run by default after ``samples``) makes the same calls
with ``--arithmetic float``, so that float reports are pinned too.
``capped`` (run by default, after ``samples_float``) reruns every
``check`` case of the seed's ``check_full`` and ``check_restricted``
batches at each ``--cap`` of ``CAPS``, so that truncated reports are
pinned too; it fails unless each cap cuts at least one report.
``msel`` (run by default, after ``capped``) reruns every ``check`` case
of the same two batches with one table of the system perturbed
(:func:`perturbed`), so that failing marginal-selectivity reports of
large systems are pinned too; it fails unless every ``check_full`` case
reports marginal selectivity violated.
``jdc_float`` (run by default, after ``msel``) reruns every case of the
seed's ``jdc_exact`` batch with ``--arithmetic float``, so that the
simplex's tolerance verdicts and float-printed witnesses and certificates
are pinned too.
``jdc_flipped`` (run by default, after ``jdc_float``) runs every PR case
of the seed's ``jdc_exact`` batch on its system with input 2's outputs
swapped (:func:`flipped`), once as it is and once with ``--arithmetic
float``; it fails unless some call exits 2 refuted by the simplex, with
no certificate chain, so that benchmark-sized simplex certificates are
pinned in both arithmetics.
``restricted_pr`` (run by default, last) runs every case of the seed's
``check_restricted`` batch on its design with the tables of a PR-embedded
system (:func:`restricted_pr`), so that violation reports on restricted
designs are pinned too; it fails unless some report lists a violation.
Every ``--json`` call's stdout must parse as strict JSON, with no NaN or
Infinity, or the script fails.  Every call must also leave no objects in
reference cycles, which ``ordist.cli.main`` relies on when it pauses the
cyclic garbage collector: the collector stays paused around each call and
``gc.collect()`` must find nothing after it, or the script fails with the
call's arguments.
The default order-distance and the extra classification distance are
summed in a table's ints and the extra transformed p-distance on its
marginals, so the choice covers both paths of the chain suite.  pytest
does not collect this file.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import hashlib
import io
import json
import math
import random
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import ordist  # noqa: E402
import ordist.cli  # noqa: E402
from systems import System, pr_system, write_system  # noqa: E402
from workloads import EXTRA_METRICS, PR_WEIGHTS, WORKLOADS  # noqa: E402


def call(argv: list[str]) -> tuple[object, str, str]:
    """One CLI call: its exit code (the exception's name if it raised),
    stdout and stderr.  Raises RuntimeError if the call left objects in
    reference cycles."""
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    gc.disable()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code: object = ordist.cli.main(argv)
            except Exception as exc:
                code = type(exc).__name__
        cyclic = gc.collect()
    finally:
        gc.enable()
    if cyclic:
        raise RuntimeError(f"{cyclic} objects left in reference cycles by ordist {argv}")
    return code, out.getvalue(), err.getvalue()


def _not_json(constant: str):
    raise ValueError(f"{constant} is not JSON")


def add_call(digest, argv: list[str], directory: str) -> tuple[object, str, str]:
    """Feed one call's exit code, stdout and stderr to `digest`, with
    `directory` replaced by a fixed token, and return them.  A ``--json``
    call's stdout must be strict JSON: a NaN or an infinity in it raises
    ValueError."""
    parts = call(argv)
    if "--json" in argv and parts[1]:
        json.loads(parts[1], parse_constant=_not_json)
    for part in parts:
        text = str(part).replace(directory, "<dir>")
        digest.update(f"{len(text)}:{text}".encode("utf-8"))
    return parts


def batch_hash(workload: str, seed: int, options: tuple[str, ...] = ()) -> str:
    """sha256 over every call of the workload's batch at `seed`, each call
    given the extra `options`."""
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        written = set()
        for case in WORKLOADS[workload](random.Random(seed)):
            path = str(Path(tmp) / f"{case.system.name}.json")
            if path not in written:
                write_system(ordist, case.system, path)
                written.add(path)
            add_call(digest, [*case.argv(path), *options], tmp)
    return digest.hexdigest()


#: the caps the ``capped`` choice reruns each ``check`` case at: cap 97
#: cuts about half of the restricted designs at seed 1, and 5000 every
#: full one
CAPS = (1, 7, 97, 5000)


def capped_hash(seed: int) -> str:
    """sha256 over every ``check`` case of the `check_full` and
    `check_restricted` batches at `seed`, each run at every cap of CAPS.
    Raises RuntimeError if a cap cuts none of the reports."""
    digest = hashlib.sha256()
    cut = dict.fromkeys(CAPS, False)
    with tempfile.TemporaryDirectory() as tmp:
        for workload in ("check_full", "check_restricted"):
            for case in WORKLOADS[workload](random.Random(seed)):
                path = str(Path(tmp) / f"{case.system.name}.json")
                write_system(ordist, case.system, path)
                for cap in CAPS:
                    parts = add_call(digest, [*case.argv(path), "--cap", str(cap)], tmp)
                    cut[cap] = cut[cap] or json.loads(parts[1]).get("truncated") is True
    if not all(cut.values()):
        raise RuntimeError(f"caps {[c for c in CAPS if not cut[c]]} cut no report at seed {seed}")
    return digest.hexdigest()


def perturbed(system, seed: int):
    """`system` with one table, drawn by `seed`, perturbed: 1/den of its
    mass (den the lcm of its cells' denominators) moves from its first cell
    with positive mass to the cell that differs from it only in the first
    input's output.  Every marginal over a subset holding the first input
    then differs by 1/den from those of the other tables of its class, and
    no other marginal changes."""
    treatments = system.all_treatments()
    treatment = treatments[random.Random(f"msel-{seed}-{system.name}").randrange(len(treatments))]
    cells = dict(system.tables[treatment])
    step = Fraction(1, math.lcm(*(p.denominator for p in cells.values())))
    src = next(o for o, p in cells.items() if p > 0)
    axis = list(dict.fromkeys(o[0] for o in cells))
    dst = (axis[(axis.index(src[0]) + 1) % len(axis)], *src[1:])
    cells[src] -= step
    cells[dst] += step
    return dataclasses.replace(system, tables={**system.tables, treatment: cells})


def msel_hash(seed: int) -> str:
    """sha256 over every ``check`` case of the `check_full` and
    `check_restricted` batches at `seed`, each on its system with one
    table :func:`perturbed`.  Raises RuntimeError if a ``check_full``
    case reports marginal selectivity passed."""
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        for workload in ("check_full", "check_restricted"):
            for case in WORKLOADS[workload](random.Random(seed)):
                path = str(Path(tmp) / f"{case.system.name}.json")
                write_system(ordist, perturbed(case.system, seed), path)
                parts = add_call(digest, case.argv(path), tmp)
                if workload == "check_full" and json.loads(parts[1])["marginal_selectivity"]["passed"]:
                    raise RuntimeError(f"perturbed {case.system.name} passes marginal selectivity")
    return digest.hexdigest()


def flipped(system: System) -> System:
    """`system` with input 2's outputs "0" and "1" swapped in every table."""
    swap = {"0": "1", "1": "0"}
    tables = {
        t: {(o[0], swap[o[1]], *o[2:]): p for o, p in cells.items()}
        for t, cells in system.tables.items()
    }
    return dataclasses.replace(system, tables=tables)


def jdc_flipped_hash(seed: int) -> str:
    """sha256 over every PR case of the `jdc_exact` batch at `seed` on its
    system :func:`flipped`, run as it is and with ``--arithmetic float``.
    Raises RuntimeError if no call exits 2 without a certificate chain."""
    digest = hashlib.sha256()
    by_simplex = False
    with tempfile.TemporaryDirectory() as tmp:
        for case in WORKLOADS["jdc_exact"](random.Random(seed)):
            if case.system.sound:
                continue
            path = str(Path(tmp) / f"{case.system.name}.json")
            write_system(ordist, flipped(case.system), path)
            for options in ((), ("--arithmetic", "float")):
                code, out, _ = add_call(digest, [*case.argv(path), *options], tmp)
                by_simplex = by_simplex or (code == 2 and json.loads(out)["certificate_chain"] is None)
    if not by_simplex:
        raise RuntimeError(f"no flipped jdc_exact case is refuted by the simplex at seed {seed}")
    return digest.hexdigest()


def restricted_pr(system: System, k: int, seed: int) -> System:
    """The restricted design of `system`, the `k`-th case of its batch,
    with the tables of a PR-embedded system on the same inputs, drawn by
    `seed` and the system's name, kept at the design's treatments."""
    n_values = len(system.inputs[0][1])
    rng = random.Random(f"rpr-{seed}-{system.name}")
    pr = pr_system(rng, system.name, 3, n_values, PR_WEIGHTS[k % len(PR_WEIGHTS)])
    tables = {t: pr.tables[t] for t in system.treatments}
    return dataclasses.replace(system, tables=tables, sound=False)


def restricted_pr_hash(seed: int) -> str:
    """sha256 over every case of the `check_restricted` batch at `seed`,
    each on its design with :func:`restricted_pr` tables.  Raises
    RuntimeError if no report lists a violation."""
    digest = hashlib.sha256()
    violated = 0
    with tempfile.TemporaryDirectory() as tmp:
        for k, case in enumerate(WORKLOADS["check_restricted"](random.Random(seed))):
            path = str(Path(tmp) / f"{case.system.name}.json")
            write_system(ordist, restricted_pr(case.system, k, seed), path)
            _, out, _ = add_call(digest, case.argv(path), tmp)
            violated += bool(json.loads(out)["violations"])
    if not violated:
        raise RuntimeError(f"no restricted PR report lists a violation at seed {seed}")
    return digest.hexdigest()


def samples_hash(arithmetic: tuple[str, ...] = ()) -> str:
    """sha256 over `check`, `jdc` and `check` with EXTRA_METRICS, text and
    JSON, on every sample, each call given the `arithmetic` options."""
    digest = hashlib.sha256()
    samples = ROOT / "samples"
    for path in sorted(samples.glob("*.json")):
        for command, *options in (["check"], ["jdc"], ["check", *EXTRA_METRICS]):
            for extra in ([], ["--json"]):
                add_call(digest, [command, str(path), *options, *arithmetic, *extra], str(samples))
    return digest.hexdigest()


#: the choices beyond the benchmark's workloads, in the order they run by
#: default
EXTRA_CHOICES = (
    "samples", "samples_float", "capped", "msel", "jdc_float", "jdc_flipped", "restricted_pr"
)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument(
        "--workload", action="append", choices=sorted([*WORKLOADS, *EXTRA_CHOICES])
    )
    args = p.parse_args(argv)
    # the first call builds the CLI's parser, which leaves cycles once per
    # process; a call on no file does that before the checked calls
    with contextlib.redirect_stdout(io.StringIO()):
        ordist.cli.main(["demo-normal"])
    for workload in args.workload or [*WORKLOADS, *EXTRA_CHOICES]:
        if workload == "samples":
            print(f"samples {samples_hash()}")
        elif workload == "samples_float":
            print(f"samples_float {samples_hash(('--arithmetic', 'float'))}")
        elif workload == "capped":
            print(f"capped {capped_hash(args.seed)}")
        elif workload == "msel":
            print(f"msel {msel_hash(args.seed)}")
        elif workload == "jdc_float":
            print(f"jdc_float {batch_hash('jdc_exact', args.seed, ('--arithmetic', 'float'))}")
        elif workload == "jdc_flipped":
            print(f"jdc_flipped {jdc_flipped_hash(args.seed)}")
        elif workload == "restricted_pr":
            print(f"restricted_pr {restricted_pr_hash(args.seed)}")
        else:
            print(f"{workload} {batch_hash(workload, args.seed)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
