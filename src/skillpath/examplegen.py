"""Synthesis of similar worked examples for a question template.

Candidates come from one of three construction modes: random pool fills,
provider-guided fills, or free-form template variations. Survivors of the
similarity filter get a reasoning strategy (typed steps plus an answer
from the same reply) and one short reference passage per step, all from
one more reply, forming a SimilarExample ready for collection into a Γ.
"""

from __future__ import annotations

import logging
import random
import re
from enum import Enum
from typing import NamedTuple

from .decompose import QuestionTemplate, render_template
from .errors import (
    EmptyAnswer,
    ProviderError,
    UnknownSkill,
    UnparseableScore,
    UnparseableStrategy,
)
from .providers import CompletionRequest, Provider
from .resources import load_entity_pool, render_prompt
from .skills import ReasoningSkill, parse_skill, skill_catalog
from .textutil import ARTICLES, normalize_ws, squeeze_punct

log = logging.getLogger(__name__)

SIMILARITY_MIN = 1
SIMILARITY_MAX = 10


class ConstructionMode(Enum):
    RANDOM_FILL = "random-fill"
    GUIDED_FILL = "guided-fill"
    TEMPLATE_VARIATION = "template-variation"


class CandidateQuestion(NamedTuple):
    text: str
    mode: ConstructionMode
    similarity_score: int | None = None


class _ReasoningStrategy(NamedTuple):
    subquestions: tuple[str, ...]
    skills: tuple[ReasoningSkill, ...]


class ReasoningStrategy(_ReasoningStrategy):
    """Ordered subquestions with one reasoning skill per step."""

    __slots__ = ()

    def __new__(cls, subquestions: tuple[str, ...], skills: tuple[ReasoningSkill, ...]):
        subquestions, skills = tuple(subquestions), tuple(skills)
        if not skills:
            raise ValueError("a strategy needs at least one step")
        if len(subquestions) != len(skills):
            raise ValueError(f"{len(subquestions)} subquestions vs {len(skills)} skills")
        for s in skills:
            if not isinstance(s, ReasoningSkill):
                raise ValueError(f"not a taxonomy member: {s!r}")
        return super().__new__(cls, subquestions, skills)


class _SimilarExample(NamedTuple):
    question: str
    strategy: ReasoningStrategy
    reference_docs: tuple[str, ...]
    answer: str


class SimilarExample(_SimilarExample):
    __slots__ = ()

    def __new__(cls, question: str, strategy: ReasoningStrategy, reference_docs: tuple[str, ...], answer: str):
        reference_docs = tuple(reference_docs)
        if not question.strip():
            raise ValueError("example question is empty")
        if len(reference_docs) != len(strategy.subquestions):
            raise ValueError(
                f"{len(reference_docs)} reference docs vs "
                f"{len(strategy.subquestions)} subquestions"
            )
        if not answer.strip():
            raise EmptyAnswer("example has no answer text")
        return super().__new__(cls, question, strategy, reference_docs, answer)


_NUMBERED = re.compile(r"^\s*(\d+)[.)]\s*(.*\S)\s*$")
_STEP_WITH_SKILL = re.compile(r"^(?P<body>.*\S)\s*\((?P<skill>[^()]+)\)\s*[.:]?$")
_GENERATED_ANSWER = re.compile(r"Generated Answer:\s*(.*)", re.IGNORECASE)
_INT = re.compile(r"\d+")
_DECIMAL = re.compile(r"\d[.,]\d")
# a scale written beside a score, its top bound captured: "1-10", "1 to 10", "/10", "out of 10"
_SCALE = re.compile(r"(?:\d+\s*(?:-|–|\bto\b)|/|\bout of)\s*(\d+)")
_SCORE_LABEL = re.compile(r"\b(?:score|rating)\b", re.IGNORECASE)


def generate_candidates(
    template: QuestionTemplate,
    mode: ConstructionMode,
    count: int,
    provider: Provider | None = None,
    rng: random.Random | None = None,
    pool: dict[str, tuple[str, ...]] | None = None,
) -> list[CandidateQuestion]:
    """Produce up to `count` new questions from a template.

    random_fill draws replacement entities from the bundled pool with a
    seeded RNG and needs no provider. The other two modes ask the provider
    for fills or variations. Duplicates (whitespace and punctuation
    insensitive) are removed before anything gets scored.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    if mode is ConstructionMode.RANDOM_FILL:
        texts = _random_fill(template, count, rng or random.Random(0), pool)
    elif mode is ConstructionMode.GUIDED_FILL:
        texts = _guided_fill(template, count, _require_provider(provider, mode))
    else:
        texts = _template_variation(template, count, _require_provider(provider, mode))

    seen: set[str] = set()
    out: list[CandidateQuestion] = []
    for text in texts:
        key = squeeze_punct(text).casefold()
        if key and key not in seen:
            seen.add(key)
            out.append(CandidateQuestion(text=text, mode=mode))
    return out


def _require_provider(provider: Provider | None, mode: ConstructionMode) -> Provider:
    if provider is None:
        raise ValueError(f"mode {mode.value} requires a provider")
    return provider


def _random_fill(
    template: QuestionTemplate,
    count: int,
    rng: random.Random,
    pool: dict[str, tuple[str, ...]] | None,
) -> list[str]:
    pool = pool if pool is not None else load_entity_pool()
    texts = []
    for _ in range(count):
        fills: dict[str, str] = {}
        for p in template.placeholders:
            options = [e for e in pool.get(p.entity_type, []) if e != p.entity_text]
            # no alternative of this type in the pool: keep the original
            entity = rng.choice(options) if options else p.entity_text
            fills[p.slot] = p.spell(entity)
        texts.append(render_template(template, fills))
    return texts


def _slot_lines(template: QuestionTemplate) -> str:
    lines = []
    for p in template.placeholders:
        lines.append(f"- slot {p.slot} (type {p.entity_type}), currently: {p.entity_text}")
    return "\n".join(lines)


def _guided_fill(template: QuestionTemplate, count: int, provider: Provider) -> list[str]:
    prompt = render_prompt(
        "entity_substitution",
        template_text=template.template_text,
        slot_lines=_slot_lines(template),
        count=str(count),
    )
    reply = provider.complete(CompletionRequest(prompt, tag="substitution")).text
    slots = {p.slot: p for p in template.placeholders}
    texts = []
    for line in reply.splitlines():
        m = _NUMBERED.match(line)
        if not m:
            continue
        fills: dict[str, str] = {}
        for part in m.group(2).split(";"):
            if "=" not in part:
                continue
            key, _, value = part.partition("=")
            key = normalize_ws(key)
            value = value.strip()
            if key in slots and value:
                # a value that brings its own article keeps it instead of the slot's
                own_article = value.split()[0].lower() in ARTICLES
                fills[key] = value if own_article else slots[key].spell(value)
        if fills.keys() == slots.keys():
            texts.append(render_template(template, fills))
        else:
            log.debug("dropping malformed fill line: %r", line)
    return texts


def _template_variation(template: QuestionTemplate, count: int, provider: Provider) -> list[str]:
    prompt = render_prompt(
        "template_variation",
        question=template.original,
        template_text=template.template_text,
        count=str(count),
    )
    reply = provider.complete(CompletionRequest(prompt, tag="variation")).text
    texts = []
    for line in reply.splitlines():
        m = _NUMBERED.match(line)
        if m:
            texts.append(m.group(2).strip().strip('"'))
    return texts


def score_similarity(original: str, candidate: str, provider: Provider) -> int:
    """Ask the provider how similar a candidate is, on the 1 to 10 scale.

    On the reply's last line that holds an integer, once the scale written
    there ("1-10", "/10", "out of 10") is taken out, the score is the first
    integer after a "Score" or "Rating" label, or else the last integer.
    An ambiguous reply is refused, not guessed: a decimal, a scale not to
    10, no integer but the scale's, or a score outside it is UnparseableScore.
    """
    prompt = render_prompt(
        "similarity_scoring",
        original_question=original,
        candidate_question=candidate,
    )
    reply = provider.complete(CompletionRequest(prompt, tag="similarity")).text
    last = next((line for line in reversed(reply.splitlines()) if _INT.search(line)), "")
    unscaled = _SCALE.sub(" ", last)
    label = _SCORE_LABEL.search(unscaled)
    numbers = _INT.findall(unscaled, label.end())[:1] if label else _INT.findall(unscaled)
    if not numbers or _DECIMAL.search(last) or any(top != "10" for top in _SCALE.findall(last)):
        raise UnparseableScore(f"no score on the 1 to 10 scale in reply: {reply[:120]!r}")
    try:
        score = int(numbers[-1])
    except ValueError as exc:  # more digits than int() converts
        raise UnparseableScore(f"a score of {len(numbers[-1])} digits is outside [1, 10]") from exc
    if not SIMILARITY_MIN <= score <= SIMILARITY_MAX:
        raise UnparseableScore(f"score {score} outside [1, 10]")
    return score


def score_candidates(
    original: str, candidates: list[CandidateQuestion], provider: Provider
) -> list[CandidateQuestion]:
    """Attach a similarity score to each candidate."""
    return [c._replace(similarity_score=score_similarity(original, c.text, provider)) for c in candidates]


def filter_candidates(candidates: list[CandidateQuestion], delta: int) -> list[CandidateQuestion]:
    """Keep candidates whose score meets the threshold, order preserved.

    The comparison is score >= delta. Unscored candidates are a caller
    bug and raise ValueError.
    """
    if not SIMILARITY_MIN <= delta <= SIMILARITY_MAX:
        raise ValueError(f"delta must lie in [1, 10], got {delta}")
    for c in candidates:
        if c.similarity_score is None:
            raise ValueError(f"candidate not scored: {c.text!r}")
    return [c for c in candidates if c.similarity_score >= delta]


def build_strategy(question: str, provider: Provider) -> tuple[ReasoningStrategy, str]:
    """Generate a reasoning strategy and an answer for a question.

    One provider call returns numbered steps, each ending in a
    parenthesized skill label, followed by a Generated Answer line. A
    numbered step without a recognizable skill makes the whole reply
    UnparseableStrategy; stray prose around the steps is ignored.
    """
    prompt = render_prompt(
        "strategy_generation",
        skill_catalog=skill_catalog(),
        question=question,
    )
    reply = provider.complete(CompletionRequest(prompt, tag="strategy")).text
    return parse_strategy_reply(reply)


def parse_strategy_reply(reply: str) -> tuple[ReasoningStrategy, str]:
    subquestions: list[str] = []
    skills: list[ReasoningSkill] = []
    answer = ""
    m = _GENERATED_ANSWER.search(reply)
    if m:
        answer = m.group(1).strip().strip('"').strip()
    step_region = reply[: m.start()] if m else reply
    for line in step_region.splitlines():
        numbered = _NUMBERED.match(line)
        if not numbered:
            continue
        with_skill = _STEP_WITH_SKILL.match(numbered.group(2))
        if not with_skill:
            raise UnparseableStrategy(f"step {numbered.group(1)} names no skill: {line.strip()!r}")
        try:
            skill = parse_skill(with_skill.group("skill"))
        except UnknownSkill as exc:
            raise UnparseableStrategy(f"step {numbered.group(1)}: {exc}") from exc
        subquestions.append(with_skill.group("body").strip())
        skills.append(skill)
    if not skills:
        raise UnparseableStrategy("reply contains no numbered steps")
    return ReasoningStrategy(tuple(subquestions), tuple(skills)), answer


def build_reference_docs(strategy: ReasoningStrategy, provider: Provider) -> list[str]:
    """One short reference passage per strategy step, all from one provider call.

    The prompt lists the subquestions numbered in step order. The reply must
    number one non-empty passage per step, exactly 1 to k in order, or it is
    a ProviderError; unnumbered lines are ignored, as in a strategy reply.
    """
    listed = "\n".join(f"{n}. {subq}" for n, subq in enumerate(strategy.subquestions, start=1))
    prompt = render_prompt("reference_document", subquestions=listed)
    reply = provider.complete(CompletionRequest(prompt, tag="reference")).text
    numbered = [m.groups() for m in map(_NUMBERED.match, reply.splitlines()) if m]
    steps = len(strategy.subquestions)
    if [n for n, _ in numbered] != [str(n) for n in range(1, steps + 1)]:
        raise ProviderError(f"reference reply does not number one passage per step, 1 to {steps}: {reply[:120]!r}")
    return [passage for _, passage in numbered]


def synthesize_example(question: str, provider: Provider) -> SimilarExample:
    """Strategy, reference docs and assembly for one candidate question."""
    strategy, answer = build_strategy(question, provider)
    docs = build_reference_docs(strategy, provider)
    return SimilarExample(question=question, strategy=strategy, reference_docs=docs, answer=answer)
