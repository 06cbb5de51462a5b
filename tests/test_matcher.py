from __future__ import annotations

import math

import pytest

from skillpath.collection import build_collection
from skillpath.examplegen import ReasoningStrategy
from skillpath.matcher import (
    SelectionMode,
    coverage,
    select_best,
    selection_score,
    uniqueness,
)
from skillpath.skills import ReasoningSkill

from conftest import make_example

S = ReasoningSkill


def test_uniqueness_closed_form(worked_collection):
    # ln((N + 1) / (freq + 1)) with N = 3
    assert uniqueness(S.DEDUCTIVE, worked_collection) == pytest.approx(math.log(4 / 3), abs=1e-12)
    assert uniqueness(S.ANALOGICAL, worked_collection) == pytest.approx(math.log(2), abs=1e-12)
    # an unused skill gets the maximum bonus ln(N + 1)
    assert uniqueness(S.ABDUCTIVE, worked_collection) == pytest.approx(math.log(4), abs=1e-12)


def test_uniqueness_in_a_larger_collection():
    examples = [make_example([S.DEDUCTIVE]) for _ in range(4)]
    examples += [make_example([S.INDUCTIVE]) for _ in range(15)]
    collection = build_collection(examples)
    assert len(collection.examples) == 19
    assert uniqueness(S.DEDUCTIVE, collection) == pytest.approx(math.log(4), abs=1e-12)


def test_coverage_counts_distinct_skills_over_seven():
    strategy = ReasoningStrategy(
        ("a", "b", "c"), (S.DEDUCTIVE, S.DEDUCTIVE, S.ANALOGICAL)
    )
    assert coverage(strategy) == pytest.approx(2 / 7, abs=1e-15)
    full = ReasoningStrategy(tuple("abcdefg"), tuple(S))
    assert coverage(full) == pytest.approx(1.0, abs=1e-15)


def test_worked_collection_totals(worked_collection):
    expected = [0.430539215309, 1.266543538726, 1.529151503977]
    for example, want in zip(worked_collection.examples, expected):
        got = selection_score(example, worked_collection).total
        assert got == pytest.approx(want, abs=1e-9)


def test_breakdown_sums_components(worked_collection):
    b = selection_score(worked_collection.examples[1], worked_collection)
    assert b.total == pytest.approx(b.coverage + b.uniqueness_sum, abs=1e-15)


def test_repeated_skill_pays_uniqueness_per_occurrence(worked_collection):
    # [Ind, Ind]: coverage 1/7, uniqueness ln(2) charged twice
    b = selection_score(worked_collection.examples[2], worked_collection)
    assert b.coverage == pytest.approx(1 / 7, abs=1e-15)
    assert b.uniqueness_sum == pytest.approx(2 * math.log(2), abs=1e-12)


def test_full_mode_selects_highest_total(worked_collection):
    result = select_best(worked_collection, SelectionMode.FULL)
    assert result.selected_index == 2
    assert result.mode is SelectionMode.FULL
    assert len(result.per_example) == 3


def test_component_modes_can_disagree_with_full():
    collection = build_collection(
        [
            # broad but common skills
            make_example([S.DEDUCTIVE, S.INDUCTIVE, S.ANALOGICAL]),
            # narrow but rare skill, repeated
            make_example([S.ABDUCTIVE, S.ABDUCTIVE, S.ABDUCTIVE]),
            make_example([S.DEDUCTIVE]),
            make_example([S.INDUCTIVE]),
            make_example([S.ANALOGICAL]),
        ]
    )
    by_cov = select_best(collection, SelectionMode.COVERAGE_ONLY)
    by_uni = select_best(collection, SelectionMode.UNIQUENESS_ONLY)
    assert by_cov.selected_index == 0
    assert by_uni.selected_index == 1


def test_tie_break_prefers_lowest_index():
    collection = build_collection(
        [
            make_example([S.DEDUCTIVE]),
            make_example([S.DEDUCTIVE]),
            make_example([S.DEDUCTIVE]),
        ]
    )
    for mode in (SelectionMode.FULL, SelectionMode.COVERAGE_ONLY, SelectionMode.UNIQUENESS_ONLY):
        assert select_best(collection, mode).selected_index == 0


def test_random_mode_is_seeded_and_in_range(worked_collection):
    first = select_best(worked_collection, SelectionMode.RANDOM, seed=11)
    second = select_best(worked_collection, SelectionMode.RANDOM, seed=11)
    assert first.selected_index == second.selected_index
    assert 0 <= first.selected_index < 3
    # breakdowns still reported for audit even when ignored
    assert len(first.per_example) == 3


def test_random_mode_requires_a_seed(worked_collection):
    with pytest.raises(ValueError):
        select_best(worked_collection, SelectionMode.RANDOM)


def test_match_result_record_shape(worked_collection):
    record = select_best(worked_collection, SelectionMode.FULL).to_record()
    assert record["selected_index"] == 2
    assert record["mode"] == "full"
    assert len(record["per_example"]) == 3
    for row in record["per_example"]:
        assert set(row) == {"coverage", "uniqueness_sum", "total"}
