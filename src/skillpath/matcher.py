"""Strategy selection: pick the example whose skill path fits best.

Two signals combine. Coverage rewards touching many distinct skills of
the seven-skill universe. Uniqueness rewards skills that few examples in
the collection use, weighted ln((N+1)/(freq+1)) where freq counts example
membership. The total sums coverage with the uniqueness weight of every
step, so a skill repeated across steps is paid once per occurrence.

Ties are broken toward the lowest index after rounding scores to 12
decimal places, which keeps selection stable across platforms whose float
printing differs in the last bits.
"""

from __future__ import annotations

import math
import random
from enum import Enum
from typing import NamedTuple

from .collection import ExampleCollection
from .examplegen import ReasoningStrategy, SimilarExample
from .skills import ReasoningSkill, all_skills

SKILL_UNIVERSE = len(all_skills())
_TIE_DECIMALS = 12


class SelectionMode(Enum):
    FULL = "full"
    COVERAGE_ONLY = "coverage"
    UNIQUENESS_ONLY = "uniqueness"
    RANDOM = "random"


class ScoreBreakdown(NamedTuple):
    coverage: float
    uniqueness_sum: float
    total: float


# ranking mode -> the ScoreBreakdown field it ranks by
_RANKED_BY = {SelectionMode.FULL: "total", SelectionMode.COVERAGE_ONLY: "coverage",
              SelectionMode.UNIQUENESS_ONLY: "uniqueness_sum"}


class MatchResult(NamedTuple):
    selected_index: int
    per_example: tuple[ScoreBreakdown, ...]
    mode: SelectionMode

    def to_record(self) -> dict:
        return {
            "mode": self.mode.value,
            "selected_index": self.selected_index,
            "per_example": [b._asdict() for b in self.per_example],
        }


def uniqueness(skill: ReasoningSkill, collection: ExampleCollection) -> float:
    """ln((N+1)/(freq+1)) with freq the skill's example membership count."""
    return math.log((len(collection.examples) + 1) / (collection.freq(skill) + 1))


def coverage(strategy: ReasoningStrategy) -> float:
    """Distinct-skill fraction of the seven-skill universe."""
    return len(set(strategy.skills)) / SKILL_UNIVERSE


def selection_score(example: SimilarExample, collection: ExampleCollection) -> ScoreBreakdown:
    """Coverage, summed uniqueness over all steps, and their sum."""
    cov = coverage(example.strategy)
    uniq = sum(uniqueness(s, collection) for s in example.strategy.skills)
    return ScoreBreakdown(coverage=cov, uniqueness_sum=uniq, total=cov + uniq)


def select_best(
    collection: ExampleCollection,
    mode: SelectionMode = SelectionMode.FULL,
    seed: int | str | None = None,
) -> MatchResult:
    """Pick one example index under the given mode.

    Full, coverage and uniqueness each rank by their field in _RANKED_BY,
    and Random draws uniformly from a seeded RNG; a missing seed is an error
    because unseeded selection cannot be replayed. Every mode reports the
    full per-example breakdown.
    """
    breakdowns = tuple(selection_score(ex, collection) for ex in collection.examples)
    if mode is SelectionMode.RANDOM:
        if seed is None:
            raise ValueError("random selection requires an explicit seed")
        index = random.Random(seed).randrange(len(collection.examples))
        return MatchResult(index, breakdowns, mode)

    field = _RANKED_BY[mode]
    # max keeps the first of equal keys, so a tie goes to the lowest index
    best = max(range(len(breakdowns)), key=lambda i: round(getattr(breakdowns[i], field), _TIE_DECIMALS))
    return MatchResult(best, breakdowns, mode)
