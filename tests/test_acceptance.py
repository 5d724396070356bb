"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Every tolerance and case count is pinned here; the timing budgets
are asserted, not advisory.
"""

import itertools
import random
import time
from contextlib import contextmanager

from pinned_cases import DISTRIBUTION_CASES, FUSION_CASES, LINE_CASES, MULTI_CASES
from conftest import dfn, tri
from fuzzysns import (
    DiscreteFuzzyNumber,
    TriangularFuzzyNumber,
    apply_D,
    apply_F,
    apply_L,
    apply_M,
    common_carry_dfn,
    common_carry_tri,
    crisp_D,
    crisp_F,
    crisp_L,
    crisp_M,
    crisp_value,
    equivalence_suite,
    scenario_from_json,
    scenario_to_json,
)
from fuzzysns.cli import main
from test_cli import random_scenario


@contextmanager
def criterion(number, description, budget):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL - {description}")
        raise
    elapsed = time.monotonic() - started
    assert elapsed < budget, f"criterion {number} exceeded {budget}s ({elapsed:.2f}s)"
    print(f"criterion {number}: PASS - {description} [{elapsed:.2f}s < {budget}s]")


def test_criterion_1_crisp_baseline():
    with criterion(1, "crisp line baseline and carry-remainder identity", budget=1.0):
        result = crisp_L(7, 10, 3, 2)
        assert result.carry == 2
        assert result.remainder == 1
        assert result.transformant == 4
        assert result.new_image == 14

        rng = random.Random(10**6 + 1)
        for _ in range(10_000):
            n = rng.randint(0, 10**9)
            radix = rng.randint(1, 10**6)
            r = crisp_L(n, 0, radix, 1)
            assert r.carry * radix + r.remainder == n


def _degenerate(value, fam):
    if fam == "triangular":
        return TriangularFuzzyNumber(value, value, value)
    return DiscreteFuzzyNumber({value: 1})


def test_criterion_2_crisp_embedding():
    patterns = {
        "fuzzy_cardinal": ("N",),
        "fuzzy_radix": ("n",),
        "fuzzy_rate": ("r",),
        "fuzzy_radix_rate": ("n", "r"),
        "whole_fuzziness": ("N", "n", "r", "img"),
    }
    with criterion(2, "degenerate fuzzy inputs reproduce crisp results (4 forms x 5 patterns x 1000)", budget=30.0):
        for form, (pattern, slots) in itertools.product("LDFM", patterns.items()):
            rng = random.Random(f"{form}/{pattern}")
            for case_index in range(1000):
                fam = "triangular" if case_index % 2 == 0 else "discrete"
                w = 1 if form in "LD" else rng.randint(2, 4)
                v = 1 if form in "LF" else rng.randint(2, 4)
                operands = [rng.randint(0, 10**6) for _ in range(w)]
                images = [rng.randint(0, 10**4) for _ in range(v)]
                radices = [rng.randint(1, 10**3) for _ in range(w)]
                rates = [rng.randint(0, 100) for _ in range(v)]

                def lift(value, slot):
                    return _degenerate(value, fam) if slot in slots else value

                f_ops = [lift(x, "N") for x in operands]
                f_imgs = [lift(x, "img") for x in images]
                f_radices = [lift(x, "n") for x in radices]
                f_rates = [lift(x, "r") for x in rates]

                if form == "L":
                    got = apply_L(f_ops[0], f_imgs[0], f_radices[0], f_rates[0])
                    want = crisp_L(operands[0], images[0], radices[0], rates[0])
                elif form == "D":
                    got = apply_D(f_ops[0], f_imgs, f_radices[0], f_rates)
                    want = crisp_D(operands[0], images, radices[0], rates)
                elif form == "F":
                    got = apply_F(f_ops, f_imgs[0], f_radices, f_rates[0])
                    want = crisp_F(operands, images[0], radices, rates[0])
                else:
                    got = apply_M(f_ops, f_imgs, f_radices, f_rates)
                    want = crisp_M(operands, images, radices, rates)

                for mapping, crisp_mapping in (
                    (got.partial_carries, want.partial_carries),
                    (got.remainders, want.remainders),
                    (got.transformants, want.transformants),
                    (got.new_image_cardinals, want.new_image_cardinals),
                ):
                    for key, value in mapping.items():
                        assert crisp_value(value) == crisp_mapping[key]
                if want.common_carry is not None:
                    assert crisp_value(got.common_carry) == want.common_carry


def test_criterion_3_zadeh_oracle_equivalence():
    with criterion(3, "sup-min paths match the brute-force oracle on 10,000 cases", budget=60.0):
        passed, total = equivalence_suite(seed=20_24, cases=10_000)
        assert (passed, total) == (10_000, 10_000)


def test_criterion_4_pinned_case_fidelity():
    with criterion(4, "all 20 pinned mixed-fuzziness cases reproduce exactly", budget=5.0):
        headline_args = LINE_CASES[0][1]
        headline = apply_L(**headline_args)
        assert headline.carry == tri(1, 2, 3)
        assert headline.remainder == tri(-5, 1, 6)
        assert headline.transformant == tri(2, 4, 6)

        for name, args, expected in LINE_CASES:
            result = apply_L(**args)
            assert result.carry == expected["carry"], name
            assert result.remainder == expected["remainder"], name
            assert result.transformant == expected["transformant"], name
            assert result.new_image == expected["new_image"], name
        for name, args, expected in DISTRIBUTION_CASES:
            result = apply_D(**args)
            assert result.carry == expected["carry"], name
            assert result.remainder == expected["remainder"], name
            assert list(result.transformants.values()) == expected["transformants"], name
            assert list(result.new_image_cardinals.values()) == expected["new_images"], name
        for name, args, expected in FUSION_CASES:
            result = apply_F(**args)
            assert list(result.partial_carries.values()) == expected["partials"], name
            assert result.common_carry == expected["common"], name
            assert list(result.remainders.values()) == expected["remainders"], name
            assert result.transformant == expected["transformant"], name
            assert result.new_image == expected["new_image"], name
        for name, args, expected in MULTI_CASES:
            result = apply_M(**args)
            assert list(result.partial_carries.values()) == expected["partials"], name
            assert result.common_carry == expected["common"], name
            assert list(result.remainders.values()) == expected["remainders"], name
            assert list(result.transformants.values()) == expected["transformants"], name
            assert list(result.new_image_cardinals.values()) == expected["new_images"], name


def test_criterion_5_common_carry_formation():
    with criterion(5, "carry formation: permutation-free min, disjoint/overlap rules, mode law", budget=10.0):
        rng = random.Random(55)
        for size in range(1, 6):
            for _ in range(20):
                parts = []
                for _ in range(size):
                    a = rng.randint(0, 10)
                    m = rng.randint(a, 12)
                    b = rng.randint(m, 15)
                    parts.append(tri(a, m, b))
                expected = tri(
                    min(p.lower for p in parts),
                    min(p.mode for p in parts),
                    min(p.upper for p in parts),
                )
                for perm in itertools.permutations(parts):
                    assert common_carry_tri(list(perm)) == expected

        assert common_carry_dfn([dfn({2: 1}), dfn({5: "0.5", 6: 1})]) == dfn({2: 1})
        merged = common_carry_dfn(
            [dfn({1: "0.4", 2: 1, 3: "0.6"}), dfn({2: "0.7", 3: 1})]
        )
        assert merged == dfn({1: "0.4", 2: 1, 3: "0.6"})

        for _ in range(1000):
            def random_normal():
                size = rng.randint(1, 8)
                values = rng.sample(range(0, 25), size)
                grades = {v: f"0.{rng.randint(1, 9)}" for v in values}
                grades[rng.choice(values)] = 1
                return dfn(grades)

            a, b = random_normal(), random_normal()
            assert common_carry_dfn([a, b]).mode == min(a.mode, b.mode)


def test_criterion_6_triangular_ordering_invariant():
    with criterion(6, "100,000 randomized applications keep lower <= mode <= upper", budget=30.0):
        rng = random.Random(66)

        def scalar(low, high):
            if rng.random() < 0.4:
                return rng.randint(low, high)
            a = rng.randint(low, high)
            m = rng.randint(a, high)
            b = rng.randint(m, high)
            return tri(a, m, b)

        def check(value):
            if isinstance(value, TriangularFuzzyNumber):
                assert value.lower <= value.mode <= value.upper

        for _ in range(100_000):
            form = rng.choice("LDFM")
            w = 1 if form in "LD" else 2
            v = 1 if form in "LF" else 2
            operands = [scalar(0, 10**5) for _ in range(w)]
            images = [scalar(0, 10**3) for _ in range(v)]
            radices = [scalar(1, 50) for _ in range(w)]
            rates = [scalar(0, 20) for _ in range(v)]
            if form == "L":
                result = apply_L(operands[0], images[0], radices[0], rates[0])
            elif form == "D":
                result = apply_D(operands[0], images, radices[0], rates)
            elif form == "F":
                result = apply_F(operands, images[0], radices, rates[0])
            else:
                result = apply_M(operands, images, radices, rates)
            for value in result.partial_carries.values():
                check(value)
            for value in result.remainders.values():
                check(value)
            for value in result.transformants.values():
                check(value)
            for value in result.new_image_cardinals.values():
                check(value)
            if result.common_carry is not None:
                check(result.common_carry)


def test_criterion_7_cli_round_trip(tmp_path, capsys, crisp_line_scenario_text):
    with criterion(7, "1,000 scenario round-trips and the crisp eval transcript", budget=30.0):
        rng = random.Random(77)
        for _ in range(1000):
            scenario = random_scenario(rng)
            text = scenario_to_json(scenario)
            parsed = scenario_from_json(text)
            assert parsed == scenario
            assert scenario_to_json(parsed) == text

        path = tmp_path / "crisp_line.json"
        path.write_text(crisp_line_scenario_text, encoding="utf-8")
        code = main(["eval", str(path)])
        captured = capsys.readouterr()
        assert code == 0
        assert "p=2 rem=1 q=4 N'_j=14" in captured.out
