"""Exact tables held as ints over one denominator, against the Fraction
paths they replaced (tests/table_reference.py): the literal parser, table
construction, validation, marginal selectivity and the marginals."""

import copy
import itertools
import json
import math
import random
import re
import time
from decimal import Decimal
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ordist import Design, TreatmentTable, dump_system, load_system, validate_system
from ordist.arith import digit_limit, parse_number, parse_ratio
from ordist.errors import SystemFormatError
from ordist.probspace import _column_sums, _lattice_sums, _sums, bivariate
from ordist.selectivity import check_marginal_selectivity

from msel_reference import reference_marginal_selectivity
from randsys import random_coupled_system, system_from_joint
from table_reference import (
    NUMERIC_CODES,
    reference_numeric_issues,
    reference_parse_number,
    sum_down,
)

SAMPLES = Path(__file__).resolve().parent.parent / "samples"
MODES = ("auto", "rational", "float")


def parsed(parse, raw, mode):
    """("rational", Fraction), ("float", value) or ("rejects", kind), where
    kind tells a TypeError from a rejected value."""
    try:
        value = parse(raw, mode)
    except TypeError:
        return ("rejects", "type")
    except (ValueError, ArithmeticError):
        return ("rejects", "value")
    if isinstance(value, tuple):
        n, d = value
        assert type(n) is int and type(d) is int and d > 0 and math.gcd(n, d) == 1
        return ("rational", F(n, d))
    if isinstance(value, F):
        return ("rational", value)
    assert isinstance(value, float)
    return ("float", "nan" if math.isnan(value) else value)


def assert_same_parse(raw, mode):
    want = parsed(reference_parse_number, raw, mode)
    assert parsed(parse_ratio, raw, mode) == want, (raw, mode)
    assert parsed(parse_number, raw, mode) == want, (raw, mode)


@st.composite
def literal_texts(draw):
    sign = draw(st.sampled_from(["", "+", "-"]))
    num = draw(st.text("0123456789_", max_size=6))
    kind = draw(st.sampled_from(["ratio", "decimal", "junk"]))
    if kind == "ratio":
        den_sign = draw(st.sampled_from(["", "", "+", "-"]))
        text = f"{sign}{num}/{den_sign}{draw(st.text('0123456789_', max_size=4))}"
    elif kind == "decimal":
        frac = draw(st.none() | st.text("0123456789", max_size=12))
        exp = draw(st.none() | st.integers(-40, 40))
        text = sign + num
        if frac is not None:
            text += "." + frac
        if exp is not None:
            text += draw(st.sampled_from("eE")) + str(exp)
    else:
        text = draw(st.text(st.sampled_from(list("0123456789+-/._eE ١٣")), max_size=8))
        # an exponent of four digits or more builds a huge int in the
        # reference; the digit limit is pinned separately
        assume(not re.search(r"[eE][+-]?[\d_١٣]{4}", text))
    if draw(st.booleans()):
        pad = draw(st.sampled_from([" ", "\t", " \n"]))
        at = draw(st.integers(0, len(text)))
        text = text[:at] + pad + text[at:] if draw(st.booleans()) else pad + text + pad
    return text


LITERALS = st.one_of(
    literal_texts(),
    st.integers(-(10**30), 10**30),
    st.fractions(),
    st.decimals(min_value=-(10**9), max_value=10**9, allow_nan=False, allow_infinity=False),
    st.floats(),
    st.booleans(),
    st.sampled_from([Decimal("NaN"), Decimal("Infinity"), Decimal("-Infinity"), None, [1]]),
)


class TestParseRatio:
    @given(LITERALS, st.sampled_from(MODES))
    @settings(max_examples=1500, deadline=None)
    def test_agrees_with_the_fraction_parser(self, raw, mode):
        assert_same_parse(raw, mode)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize(
        "raw",
        [
            "3/-4",  # int() reads both parts, Fraction rejects the literal
            " 1 /3",  # likewise
            "1_000/3",
            "+1/3",
            "-0/7",
            "1/0",
            "1E2",
            "1e-3",
            "0.1234567891",  # 10 places: a float in auto mode
            Decimal("0.25"),  # a JSON decimal
            Decimal("0.1234567891"),
            3,
            True,
        ],
    )
    def test_pinned_literals(self, raw, mode):
        assert_same_parse(raw, mode)

    def test_pinned_values(self):
        assert parse_ratio("-0/7") == (0, 1)
        assert parse_ratio("+6/4") == (3, 2)
        assert parse_ratio("1E2") == (100, 1)
        assert parse_ratio("1e-3") == (1, 1000)
        assert parse_ratio(Decimal("0.25")) == (1, 4)
        assert parse_ratio(3) == (3, 1)
        assert isinstance(parse_ratio("0.1234567891"), float)
        assert parse_ratio("0.1234567891", "rational") == (1234567891, 10**10)
        assert parse_ratio("1/3", "float") == 1 / 3
        for bad in ("3/-4", " 1 /3", "1/0"):
            with pytest.raises((ValueError, ZeroDivisionError)):
                parse_ratio(bad)
        with pytest.raises(TypeError):
            parse_ratio(True)

    @pytest.mark.parametrize(
        "raw, mode",
        [
            ("1e10000000", "auto"),
            ("1e10000000", "float"),
            (Decimal("1e5000"), "auto"),
            (Decimal("-1e5000"), "rational"),
            ("1e-5000", "rational"),
            ("1" * 5000 + ".5", "auto"),
            ("1" * 5000 + "/3", "auto"),
        ],
    )
    def test_more_digits_than_the_limit_rejected_at_once(self, raw, mode):
        start = time.perf_counter()
        with pytest.raises(ValueError):
            parse_number(raw, mode)
        assert time.perf_counter() - start < 1

    def test_values_within_the_limit_kept(self):
        limit = digit_limit()
        assert parse_ratio(f"1e{limit - 1}") == (10 ** (limit - 1), 1)
        assert parse_ratio("0e99999", "rational") == (0, 1)
        # more than AUTO_MAX_PLACES places: a float, no exact value is built
        assert parse_ratio("1e-5000") == 0.0


# --- tables ---------------------------------------------------------------


def random_systems():
    """Exact random systems, full and restricted, as (design, tables)."""
    rng = random.Random(7)
    out = []
    for k in range(24):
        if k % 3 == 0:
            design, tables, _ = system_from_joint(rng, n_inputs=rng.choice([2, 3]))
        else:
            design, tables = random_coupled_system(
                rng, n_inputs=rng.choice([2, 3]), restrict_phi=k % 3 == 1
            )
        out.append((design, tables))
    return out


def perturbed(doc, rng):
    """The document with a few cells changed: some negative, some sums off,
    literals written as ratios, decimals or ints."""
    doc = copy.deepcopy(doc)
    for table in doc["tables"]:
        for cell in table["probs"]:
            p = F(cell["p"])
            roll = rng.random()
            if roll < 0.08:
                p = -p / 2
            elif roll < 0.16:
                p += F(1, rng.choice([3, 8, 12]))
            if p.denominator == 1 and rng.random() < 0.5:
                cell["p"] = int(p)
            elif 10**6 % p.denominator == 0 and rng.random() < 0.5:
                cell["p"] = str(Decimal(p.numerator) / p.denominator)
            else:
                cell["p"] = str(p)
    return doc


def file_cells(doc, arithmetic="auto"):
    """treatment -> {outcome: parse_number(p)} straight from the document."""
    return {
        tuple(t["treatment"]): {
            tuple(c["outcome"]): parse_number(c["p"], arithmetic) for c in t["probs"]
        }
        for t in doc["tables"]
    }


def loaded_cases():
    rng = random.Random(11)
    cases = []
    for design, tables in random_systems():
        doc = dump_system(design, tables)
        cases.append(doc)
        cases.append(perturbed(doc, rng))
    for path in sorted(SAMPLES.glob("*.json")):
        cases.append(json.loads(path.read_text()))
    return cases


CASES = loaded_cases()


@pytest.mark.parametrize("doc", CASES)
def test_int_tables_agree_with_the_fraction_path(doc):
    loaded = load_system(doc)
    cells = file_cells(doc)
    if loaded.regime == "float":
        # only the exact samples are held as ints
        assert any(isinstance(p, float) for table in cells.values() for p in table.values())
        return
    tables = loaded.tables
    for t in tables:
        # probs: the file's cells parsed by parse_number, zero-filled
        want = {o: cells[t.treatment].get(o, F(0)) for o in itertools.product(*t.axes)}
        assert t.probs == want
        assert list(t.probs) == list(want)
        assert all(type(p) is F for p in t.probs.values())
        ints, den = t.scaled()
        assert [F(n, den) for n in ints] == list(want.values())
        assert t.total() == sum(want.values())

    # validation: same numeric issues, messages and sum errors
    report = validate_system(loaded.design, tables)
    issues, sum_errors = reference_numeric_issues(tables)
    assert [i for i in report.issues if i.code in NUMERIC_CODES] == issues
    assert report.sum_errors == sum_errors

    # marginal selectivity: same report as the reference scan, valid or not
    got = check_marginal_selectivity(loaded.design, tables)
    want_msel = reference_marginal_selectivity(loaded.design, tables)
    assert got.as_json() == want_msel.as_json()
    assert got.classes == want_msel.classes

    # marginals: the Fraction cells summed down
    names = loaded.design.inputs
    for t in tables:
        for i, name in enumerate(names):
            assert t.univariate(name) == sum_down(t.probs, [i])
        for (i, a), (j, b) in itertools.permutations(enumerate(names), 2):
            pair = sum_down(t.probs, sorted((i, j)))
            m = bivariate(t, a, b)
            for r, u in enumerate(t.axes[i]):
                for c, v in enumerate(t.axes[j]):
                    assert m.probs[r][c] == pair[(u, v) if i < j else (v, u)]


def test_column_sums_add_like_sums():
    # several tables' cells transposed and summed at once, with sums of up
    # to 270 cells (more than one nesting block), equal _sums
    rng = random.Random("column-sums")
    sizes = (2, 3, 45)
    tables = [[rng.randint(-10**12, 10**12) for _ in range(math.prod(sizes))] for _ in range(4)]
    columns = list(zip(*tables))
    for k in range(len(sizes) + 1):
        for keep in itertools.combinations(range(len(sizes)), k):
            want = [_sums(cells, sizes, keep) for cells in tables]
            assert _column_sums(columns, sizes, keep) == list(zip(*want)), keep


def test_lattice_sums_equal_sums_from_the_full_cells():
    # every proper nonempty subset once, larger first, each equal to its
    # sums from the full cells, on 1-5 axes of 1-4 values
    rng = random.Random("lattice-sums")
    for _ in range(30):
        sizes = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 5)))
        tables = [[rng.randint(-10**6, 10**6) for _ in range(math.prod(sizes))] for _ in range(3)]
        columns = list(zip(*tables))
        got = list(_lattice_sums(columns, sizes))
        n = len(sizes)
        want_order = [keep for k in range(n - 1, 0, -1) for keep in itertools.combinations(range(n), k)]
        assert [keep for keep, _ in got] == (want_order or [(0,)])
        for keep, sums in got:
            assert sums == _column_sums(columns, sizes, keep), (sizes, keep)


class TestTableViews:
    def test_code_built_table_keeps_its_mapping(self):
        design = Design(["1", "2"], {"1": ["x"], "2": ["y"]})
        cells = {("0", "0"): F(1, 2), ("0", "1"): F(1, 3), ("1", "0"): F(1, 6), ("1", "1"): F(0)}
        t = TreatmentTable(design, ("x", "y"), cells, axes=[("0", "1"), ("0", "1")])
        assert t.probs is t.probs
        assert t.probs == cells
        assert t.scaled() == ([3, 2, 1, 0], 6)
        assert t.regime() == "rational"

    def test_from_ints_derives_probs_once(self):
        design = Design(["1", "2"], {"1": ["x"], "2": ["y"]})
        t = TreatmentTable.from_ints(design, ("x", "y"), [("0", "1"), ("a",)], [1, 3], 4)
        assert t.probs == {("0", "a"): F(1, 4), ("1", "a"): F(3, 4)}
        assert t.probs is t.probs
        assert t.total() == 1
        with pytest.raises(SystemFormatError):
            TreatmentTable.from_ints(design, ("x", "y"), [("0", "1"), ("a",)], [1, 2, 1], 4)


def test_loading_and_checking_make_no_fraction_per_cell(monkeypatch):
    # a 3x4 full design of 64 tables: load, validate and the marginal
    # selectivity check build Fractions only for their reports
    design, tables, _ = system_from_joint(random.Random(3), n_inputs=3, n_values=4)
    doc = dump_system(design, tables)
    cells = sum(len(t["probs"]) for t in doc["tables"])
    made = []
    new = F.__new__

    def counting(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(F, "__new__", counting)
    loaded = load_system(doc)
    assert validate_system(loaded.design, loaded.tables).ok
    assert check_marginal_selectivity(loaded.design, loaded.tables).passed
    monkeypatch.undo()
    assert cells > 400
    assert len(made) <= 2
