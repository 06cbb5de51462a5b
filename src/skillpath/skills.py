"""The closed seven-skill reasoning taxonomy.

Order matters: coverage is measured against this fixed universe and the
catalog is rendered into prompts in this order, so the enum is the single
source of truth for both membership and position.
"""

from __future__ import annotations

import re
from enum import IntEnum
from typing import NamedTuple

from .errors import UnknownSkill


class ReasoningSkill(IntEnum):
    DEDUCTIVE = 0
    INDUCTIVE = 1
    ABDUCTIVE = 2
    CAUSE_EFFECT = 3
    ANALOGICAL = 4
    CRITICAL_THINKING = 5
    DECOMPOSITIONAL = 6

    @property
    def display_name(self) -> str:
        return _DETAILS[self].display_name

    @property
    def canonical(self) -> str:
        """Lowercase serialized form, e.g. "cause & effect"."""
        return _DETAILS[self].display_name.lower()

    @property
    def description(self) -> str:
        return _DETAILS[self].description


class SkillDetail(NamedTuple):
    display_name: str
    description: str
    example: str


_DETAILS: dict[ReasoningSkill, SkillDetail] = {
    ReasoningSkill.DEDUCTIVE: SkillDetail(
        "Deductive",
        "Applies an established general rule to a specific case, so the "
        "conclusion follows with certainty from the premises.",
        "Every planet orbits a star. Mars is a planet, so Mars orbits a star.",
    ),
    ReasoningSkill.INDUCTIVE: SkillDetail(
        "Inductive",
        "Generalizes from repeated observations to a conclusion that is "
        "probable rather than guaranteed.",
        "The bakery has sold out every Saturday this year, so it will "
        "probably sell out next Saturday.",
    ),
    ReasoningSkill.ABDUCTIVE: SkillDetail(
        "Abductive",
        "Picks the most plausible explanation for the evidence at hand.",
        "The street is wet and umbrellas are dripping, so it most likely "
        "rained a short while ago.",
    ),
    ReasoningSkill.CAUSE_EFFECT: SkillDetail(
        "Cause & Effect",
        "Connects an action or condition to the outcome it produces.",
        "If the dam gates stay closed through the storm, the reservoir "
        "level will rise.",
    ),
    ReasoningSkill.ANALOGICAL: SkillDetail(
        "Analogical",
        "Transfers what is known about one situation to another that "
        "shares its structure.",
        "A heart works like a pump, so a blocked artery restricts flow "
        "the way a clogged pipe does.",
    ),
    ReasoningSkill.CRITICAL_THINKING: SkillDetail(
        "Critical Thinking",
        "Weighs the available facts, including conflicting ones, before "
        "committing to a conclusion.",
        "Two reviews praise the laptop and one reports overheating, so "
        "check whether the complaint concerns the same model.",
    ),
    ReasoningSkill.DECOMPOSITIONAL: SkillDetail(
        "Decompositional",
        "Breaks a problem into parts and reasons about how the parts "
        "combine into the whole.",
        "To judge a phone, rate its screen, battery and camera separately, "
        "then combine the ratings.",
    ),
}

# alias -> skill, keyed by the normalized form produced by _normalize_label
_ALIASES: dict[str, ReasoningSkill] = {}


def _normalize_label(label: str) -> str:
    t = label.casefold().replace("&", " and ")
    t = re.sub(r"[^a-z ]+", " ", t)
    return re.sub(r"\s+", " ", t).strip()


def _register(skill: ReasoningSkill, *aliases: str) -> None:
    for alias in aliases:
        _ALIASES[_normalize_label(alias)] = skill


_register(ReasoningSkill.DEDUCTIVE, "deductive", "deduction", "deductive reasoning")
_register(ReasoningSkill.INDUCTIVE, "inductive", "induction", "inductive reasoning")
_register(ReasoningSkill.ABDUCTIVE, "abductive", "abduction", "abductive reasoning")
_register(
    ReasoningSkill.CAUSE_EFFECT,
    "cause & effect",
    "cause and effect",
    "cause-effect",
    "causal",
    "causal reasoning",
    "cause & effect reasoning",
)
_register(ReasoningSkill.ANALOGICAL, "analogical", "analogy", "analogical reasoning")
_register(
    ReasoningSkill.CRITICAL_THINKING,
    "critical thinking",
    "critical",
    "critical reasoning",
)
_register(
    ReasoningSkill.DECOMPOSITIONAL,
    "decompositional",
    "decomposition",
    "decompose",
    "decompositional reasoning",
)


def all_skills() -> list[ReasoningSkill]:
    """The full taxonomy in canonical order."""
    return list(ReasoningSkill)


def parse_skill(label: str) -> ReasoningSkill:
    """Map a free-form skill label to the taxonomy.

    Matching is case-insensitive, tolerates surrounding punctuation and
    treats "&" and "and" as the same word. Labels outside the alias table
    raise UnknownSkill rather than guessing.
    """
    key = _normalize_label(label)
    if key in _ALIASES:
        return _ALIASES[key]
    raise UnknownSkill(label)


def skill_catalog() -> str:
    """Render the taxonomy as prompt-ready definition lines."""
    lines = []
    for skill in all_skills():
        d = _DETAILS[skill]
        lines.append(f"- {d.display_name}: {d.description} Example: {d.example}")
    return "\n".join(lines)
