from __future__ import annotations

import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skillpath.decompose import decompose_question
from skillpath.errors import (
    EmptyAnswer,
    ProviderError,
    SkillPathError,
    UnparseableScore,
    UnparseableStrategy,
)
from skillpath.examplegen import (
    CandidateQuestion,
    ConstructionMode,
    ReasoningStrategy,
    SimilarExample,
    build_reference_docs,
    build_strategy,
    filter_candidates,
    generate_candidates,
    parse_strategy_reply,
    score_candidates,
    synthesize_example,
)
from skillpath.canned import CannedProvider, canned_reply
from skillpath.providers import CompletionRequest, MockProvider
from skillpath.resources import load_prompt, render_prompt
from skillpath.skills import ReasoningSkill, skill_catalog

from conftest import replies

EIFFEL = "Which is taller, the Eiffel Tower or the Empire State Building?"


def eiffel_template():
    return decompose_question(EIFFEL)


def test_random_fill_is_seed_deterministic():
    template = eiffel_template()
    a = generate_candidates(template, ConstructionMode.RANDOM_FILL, 5, rng=random.Random(7))
    b = generate_candidates(template, ConstructionMode.RANDOM_FILL, 5, rng=random.Random(7))
    assert [c.text for c in a] == [c.text for c in b]
    assert all(c.mode is ConstructionMode.RANDOM_FILL for c in a)
    assert all(c.similarity_score is None for c in a)


def test_random_fill_swaps_out_the_original_entities():
    template = eiffel_template()
    pool = {
        "adj": ["taller", "older"],
        "place": ["the Eiffel Tower", "Mount Fuji", "Lake Baikal"],
    }
    candidates = generate_candidates(
        template,
        ConstructionMode.RANDOM_FILL,
        8,
        rng=random.Random(3),
        pool={"adj": ["older"], "place": ["Mount Fuji", "Lake Baikal"]},
    )
    for c in candidates:
        assert "Eiffel Tower" not in c.text
        assert "Empire State Building" not in c.text
        assert c.text.startswith("Which is older, the ")


def test_random_fill_keeps_original_when_pool_has_no_substitute():
    template = eiffel_template()
    candidates = generate_candidates(
        template,
        ConstructionMode.RANDOM_FILL,
        1,
        rng=random.Random(0),
        pool={"adj": [], "place": ["Mount Fuji"]},
    )
    assert candidates[0].text == "Which is taller, the Mount Fuji or the Mount Fuji?"


def test_guided_fill_parses_slot_assignments():
    template = eiffel_template()
    reply = (
        "Here are the fills.\n"
        "1. adj=older; place 1=Willis Tower; place 2=CN Tower\n"
        "2. adj=wider; place 1=Lake Baikal\n"
        "3. adj=taller; place 1=Big Ben; place 2=Space Needle\n"
    )
    candidates = generate_candidates(
        template, ConstructionMode.GUIDED_FILL, 3, provider=MockProvider(lambda request: reply)
    )
    # line 2 misses a slot and is dropped rather than rendered half-filled
    assert [c.text for c in candidates] == [
        "Which is older, the Willis Tower or the CN Tower?",
        "Which is taller, the Big Ben or the Space Needle?",
    ]


def test_guided_fill_keeps_an_article_the_value_already_has():
    template = eiffel_template()
    reply = (
        "1. adj=older; place 1=the Louvre; place 2=Big Ben\n"
        "2. adj=older; place 1=The Shard; place 2=An Old Mill\n"
        "3. adj=older; place 1=a  Tower; place 2=theatre Royal\n"
    )
    candidates = generate_candidates(
        template, ConstructionMode.GUIDED_FILL, 3, provider=MockProvider(lambda request: reply)
    )
    assert [c.text for c in candidates] == [
        "Which is older, the Louvre or the Big Ben?",
        "Which is older, The Shard or An Old Mill?",
        "Which is older, a  Tower or the theatre Royal?",
    ]


def test_template_variation_takes_numbered_questions():
    template = eiffel_template()
    reply = (
        "1. Which is longer, the Nile or the Amazon?\n"
        "ignore this commentary line\n"
        '2. "Which is deeper, Lake Baikal or Crater Lake?"\n'
    )
    candidates = generate_candidates(
        template, ConstructionMode.TEMPLATE_VARIATION, 2, provider=MockProvider(lambda request: reply)
    )
    assert [c.text for c in candidates] == [
        "Which is longer, the Nile or the Amazon?",
        "Which is deeper, Lake Baikal or Crater Lake?",
    ]


def test_duplicate_candidates_collapse():
    template = eiffel_template()
    reply = (
        "1. Which is longer, the Nile or the Amazon?\n"
        "2. which is longer, the Nile or the Amazon ?\n"
        "3. Which is deeper, Lake Baikal or Crater Lake?\n"
    )
    candidates = generate_candidates(
        template, ConstructionMode.TEMPLATE_VARIATION, 3, provider=MockProvider(lambda request: reply)
    )
    assert len(candidates) == 2


def test_provider_modes_refuse_to_run_without_provider():
    template = eiffel_template()
    with pytest.raises(ValueError):
        generate_candidates(template, ConstructionMode.GUIDED_FILL, 2)


def similarity_prompt(*candidates):
    """The similarity prompt that lists candidates, numbered in order."""
    listed = "\n".join(f"{n}. {text}" for n, text in enumerate(candidates, start=1))
    return render_prompt("similarity_scoring", original_question="a", candidate_questions=listed)


def score_all(count, reply):
    """The scores score_candidates gives `count` candidates whose similarity reply is `reply`."""
    candidates = [CandidateQuestion(f"b{n}", ConstructionMode.GUIDED_FILL) for n in range(count)]
    return [c.similarity_score for c in score_candidates("a", candidates, MockProvider(lambda request: reply))]


def test_score_reads_last_integer():
    assert score_all(1, "Both compare two landmarks on 1 shared axis. Score (1-10): 8") == [8]


# one candidate's similarity reply -> the score read from it, or None where it is UnparseableScore
SCORE_REPLIES = {
    "canned": (canned_reply(CompletionRequest(similarity_prompt("b"), tag="similarity")), 10),
    "slash-ten": ("Score: 8/10", 8),
    "out-of-ten": ("I would rate this 7 out of 10.", 7),
    "scale-after": ("Rating: 3 (on a scale of 1-10)", 3),
    "scale-in-words": ("Score (1 to 10): 6", 6),
    "explanation-lines-first": ("It asks for 2 facts, not 1.\nScore: 9", 9),
    "bound-explained-after": ("Score: 8 (10 means identical)", 8),
    "bound-named-after": ("Score: 8, where 10 is identical", 8),
    "integer-line-after-the-score": ("Score: 3\nBoth ask about 2 places.", 3),
    "bounds-line-after-the-score": ("Score: 8\n(1 = different, 10 = identical)", 8),
    "labelled-bound-line-after-the-score": ("Score: 8\nA score of 10 would mean identical.", None),
    "labelled-bound-rule-after-the-score": ("Score: 3\nRating 10 is for identical questions.", None),
    "numbered-item": ("1. Both compare landmarks. Score: 8", 8),
    "label-around-the-scale": ("Score (1-10): 10", 10),
    "score-of": ("The candidate earns a score of 7.", 7),
    # a label that reaches its integer through punctuation (or "of") outranks one with words between
    "prose-score-before-the-label": ("I would score it high, as both name 2 places.\nScore: 8", 8),
    "prose-score-after-the-label": ("Score: 6\nI would score it lower if it named 3 places.", 6),
    "words-between-label-and-score": ("Score for similarity: 8\nBoth ask about 2 places.", 8),
    "worded-labels-differ": ("Score for similarity: 8\nRating given by me: 6", None),
    "decimal": ("9.5", None),
    "decimal-out-of-ten": ("Score: 7.5 out of 10", None),
    "other-scale": ("Score: 4/5", None),
    "other-range": ("Rating: 3 (on a scale of 1-5)", None),
    "only-the-bounds": ("Score (1-10): see above", None),
    "zero": ("Score: 0/10", None),
}


@pytest.mark.parametrize("reply, score", SCORE_REPLIES.values(), ids=SCORE_REPLIES)
def test_a_similarity_reply_is_read_as_written_or_refused(reply, score):
    if score is None:
        with pytest.raises(UnparseableScore):
            score_all(1, reply)
    else:
        assert score_all(1, reply) == [score]


def test_score_rejects_missing_or_out_of_scale():
    with pytest.raises(UnparseableScore):
        score_all(1, "no digits here")
    with pytest.raises(UnparseableScore):
        score_all(1, "Score: 37")


# (candidates, similarity reply) -> the scores read from it, or None where it is UnparseableScore
ITEM_REPLIES = {
    **{f"canned-{k}": ((k, canned_reply(CompletionRequest(similarity_prompt(*"bcdef"[:k]), tag="similarity"))),
                       [10] * k) for k in (1, 2, 5)},
    "paren-numbers": ((2, "1) Score: 7\n2) Score: 4"), [7, 4]),
    "preface-line": ((2, "I scored all 2 questions.\n1. Score: 7\n2. Score: 4"), [7, 4]),
    "score-beneath-its-number": ((2, "1. Same shape, other places.\n   Score (1-10): 9\n2. It asks for 3 facts.\n"
                                     "Score: 2"), [9, 2]),
    "missing-number": ((3, "1. Score: 7\n3. Score: 4"), None),
    "duplicate-number": ((2, "1. Score: 7\n1. Score: 4"), None),
    "out-of-order": ((2, "2. Score: 7\n1. Score: 4"), None),
    "extra-number": ((2, "1. Score: 7\n2. Score: 4\n3. Score: 5"), None),
    "one-number-for-two": ((2, "1. Score: 7"), None),
    "unnumbered-for-two": ((2, "Score: 7"), None),
}


@pytest.mark.parametrize("case, scores", ITEM_REPLIES.values(), ids=ITEM_REPLIES)
def test_a_similarity_reply_scores_each_candidate_in_its_numbered_item_or_is_refused(case, scores):
    if scores is None:
        with pytest.raises(UnparseableScore, match="^similarity reply does not number one item per candidate:"):
            score_all(*case)
    else:
        assert score_all(*case) == scores


def test_the_reply_in_the_prompt_example_is_read_as_its_score():
    example = load_prompt("similarity_scoring").split("Reply:\n", 1)[1].split("\n\n", 1)[0]
    assert score_all(1, example) == [8]


@pytest.mark.parametrize("count", range(11))
def test_score_candidates_makes_one_call_listing_the_candidates_in_order(count):
    requests = []

    def reply(request):
        requests.append(request)
        return canned_reply(request)

    candidates = [CandidateQuestion(f"Which is taller, tower {n} or tower {n + 1}?", ConstructionMode.GUIDED_FILL)
                  for n in range(count)]
    assert [c.similarity_score for c in score_candidates("a", candidates, MockProvider(reply))] == [10] * count
    assert [r.prompt for r in requests] == ([similarity_prompt(*(c.text for c in candidates))] if count else [])
    if count:
        assert re.findall(r"^(\d+)\. (.*)$", requests[0].prompt, re.MULTILINE) == [
            (str(n), c.text) for n, c in enumerate(candidates, start=1)]


def test_filter_keeps_at_or_above_threshold():
    scored = [
        CandidateQuestion("q1", ConstructionMode.RANDOM_FILL, 7),
        CandidateQuestion("q2", ConstructionMode.RANDOM_FILL, 6),
        CandidateQuestion("q3", ConstructionMode.RANDOM_FILL, 10),
    ]
    kept = filter_candidates(scored, 7)
    assert [c.text for c in kept] == ["q1", "q3"]
    assert len(filter_candidates(scored, 1)) == 3
    assert len(filter_candidates(scored, 10)) == 1


def test_filter_validates_inputs():
    with pytest.raises(ValueError):
        filter_candidates([], 0)
    with pytest.raises(ValueError):
        filter_candidates([CandidateQuestion("q", ConstructionMode.RANDOM_FILL)], 7)


def test_score_candidates_attaches_scores_in_order():
    requests = []

    def reply(request):
        requests.append(request)
        return "1. Score: 3\n2. Score: 9"

    candidates = [CandidateQuestion(q, ConstructionMode.GUIDED_FILL) for q in ("q1", "q2")]
    scored = score_candidates("orig", candidates, MockProvider(reply))
    assert [c.similarity_score for c in scored] == [3, 9]
    assert [c.text for c in scored] == ["q1", "q2"]
    (request,) = requests
    assert "\n1. q1\n2. q2\n" in request.prompt


# a guided-fill reply for the Eiffel template -> the candidates read from it; a malformed line is dropped
FILL_REPLIES = {
    "spaces-around": ("1. adj = older ; place 1 = Big Ben ; place 2 = CN Tower",
                      ["Which is older, the Big Ben or the CN Tower?"]),
    "paren-number": ("1) adj=older; place 1=Big Ben; place 2=CN Tower",
                     ["Which is older, the Big Ben or the CN Tower?"]),
    "trailing-semicolon": ("1. adj=older; place 1=Big Ben; place 2=CN Tower;",
                           ["Which is older, the Big Ben or the CN Tower?"]),
    "unknown-slot-ignored": ("1. adj=older; place 1=Big Ben; place 2=CN Tower; place 3=Louvre",
                             ["Which is older, the Big Ben or the CN Tower?"]),
    "equals-in-a-value": ("1. adj=older; place 1=E=mc2 Tower; place 2=CN Tower",
                          ["Which is older, the E=mc2 Tower or the CN Tower?"]),
    "repeated-slot-takes-the-last": ("1. adj=older; adj=newer; place 1=Big Ben; place 2=CN Tower",
                                     ["Which is newer, the Big Ben or the CN Tower?"]),
    # misread: quotes and a closing period are kept in the question
    "quoted-values": ('1. adj="older"; place 1="Big Ben"; place 2="CN Tower"',
                      ['Which is "older", the "Big Ben" or the "CN Tower"?']),
    "closing-period": ("1. adj=older; place 1=Big Ben; place 2=CN Tower.",
                       ["Which is older, the Big Ben or the CN Tower.?"]),
    "empty-value": ("1. adj=; place 1=Big Ben; place 2=CN Tower", []),
    "comma-separated": ("1. adj=older, place 1=Big Ben, place 2=CN Tower", []),
    "colon-assignments": ("1. adj: older; place 1: Big Ben; place 2: CN Tower", []),
    "slot-in-upper-case": ("1. ADJ=older; Place 1=Big Ben; place 2=CN Tower", []),
    "bracketed-slots": ("1. [adj]=older; [place 1]=Big Ben; [place 2]=CN Tower", []),
    "unnumbered": ("adj=older; place 1=Big Ben; place 2=CN Tower", []),
}


@pytest.mark.parametrize("reply, texts", FILL_REPLIES.values(), ids=FILL_REPLIES)
def test_a_fill_reply_is_read_as_written_or_dropped(reply, texts):
    provider = MockProvider(lambda request: reply)
    assert [c.text for c in generate_candidates(eiffel_template(), ConstructionMode.GUIDED_FILL, 3, provider)] == texts


# a template-variation reply -> the candidates read from it; an unnumbered line is ignored
VARIATION_REPLIES = {
    "paren-number": ("1) Which is longer, the Nile or the Amazon?", ["Which is longer, the Nile or the Amazon?"]),
    "preface-line": ("Here you go:\n1. Which is longer, the Nile or the Amazon?",
                     ["Which is longer, the Nile or the Amazon?"]),
    "quoted": ('1. "Which is longer, the Nile or the Amazon?"', ["Which is longer, the Nile or the Amazon?"]),
    "empty-item-dropped": ('1. ""\n2. Which is older?', ["Which is older?"]),
    "a-year-reads-as-a-number": ("1889. Which is older?", ["Which is older?"]),
    "duplicate-but-for-punctuation": ("1. Which is longer, the Nile?\n2. which is longer the nile",
                                      ["Which is longer, the Nile?", "which is longer the nile"]),
    # misread: curly or single quotes, emphasis and a label are kept in the question
    "curly-quotes": ("1. \u201cWhich is longer?\u201d", ["\u201cWhich is longer?\u201d"]),
    "single-quotes": ("1. 'Which is longer?'", ["'Which is longer?'"]),
    "emphasised": ("1. **Which is longer?**", ["**Which is longer?**"]),
    "labelled": ("1. Question: Which is longer?", ["Question: Which is longer?"]),
    "dashed": ("- Which is longer, the Nile or the Amazon?", []),
    "unnumbered": ("Which is longer, the Nile or the Amazon?", []),
}


@pytest.mark.parametrize("reply, texts", VARIATION_REPLIES.values(), ids=VARIATION_REPLIES)
def test_a_variation_reply_is_read_as_written_or_ignored(reply, texts):
    provider = MockProvider(lambda request: reply)
    candidates = generate_candidates(eiffel_template(), ConstructionMode.TEMPLATE_VARIATION, 3, provider)
    assert [c.text for c in candidates] == texts


def strategy_prompt(*questions):
    """The strategy prompt that lists questions, each on its "Question k:" line."""
    listed = "\n".join(f'Question {n}: "{question}"' for n, question in enumerate(questions, start=1))
    return render_prompt("strategy_generation", skill_catalog=skill_catalog(), questions=listed)


def reference_prompt(*strategies):
    """The reference prompt that lists each strategy's steps, numbered, under its "Question k:" line."""
    listed = "\n".join(f"Question {k}:" + "".join(f"\n{n}. {q}" for n, q in enumerate(s.subquestions, start=1))
                       for k, s in enumerate(strategies, start=1))
    return render_prompt("reference_document", subquestions=listed)


STRATEGY_REPLY = """\
1. What does the question ask about the device? (critical thinking)
2. Break the problem into the device and its inventor. (decompositional)
3. Recall who filed the relevant patent. (deductive)
4. Conclude from the patent record. (cause & effect)
Generated Answer: Alexander Graham Bell
"""


def test_parse_strategy_reply_full_shape():
    strategy, answer = parse_strategy_reply(STRATEGY_REPLY)
    assert answer == "Alexander Graham Bell"
    assert len(strategy.subquestions) == 4
    assert strategy.skills == (
        ReasoningSkill.CRITICAL_THINKING,
        ReasoningSkill.DECOMPOSITIONAL,
        ReasoningSkill.DEDUCTIVE,
        ReasoningSkill.CAUSE_EFFECT,
    )
    assert strategy.subquestions[0] == "What does the question ask about the device?"
    # the skill annotation is stripped from the step body
    assert "(" not in strategy.subquestions[2]


def test_parse_strategy_tolerates_prose_around_steps():
    reply = (
        "Sure, here is a plan.\n\n"
        "1. Compare the two heights. (deductive)\n\n"
        "That is all.\nGenerated Answer: the Eiffel Tower\n"
    )
    strategy, answer = parse_strategy_reply(reply)
    assert strategy.skills == (ReasoningSkill.DEDUCTIVE,)
    assert answer == "the Eiffel Tower"


def test_parse_strategy_requires_a_skill_per_step():
    with pytest.raises(UnparseableStrategy):
        parse_strategy_reply("1. A step with no annotation.\nGenerated Answer: x")


def test_parse_strategy_rejects_unknown_skill_names():
    with pytest.raises(UnparseableStrategy):
        parse_strategy_reply("1. A step. (wishful thinking)\nGenerated Answer: x")


def test_parse_strategy_rejects_steplessness():
    with pytest.raises(UnparseableStrategy):
        parse_strategy_reply("I cannot help with that.")


# a strategy reply -> (subquestions, skills, generated answer), or None where it is UnparseableStrategy
STRATEGY_REPLIES = {
    "canned": (canned_reply(CompletionRequest(strategy_prompt("Plan the steps."), tag="strategy")),
               (("Identify what the question is asking for.",
                 "Locate the fact that answers it in the reference material."),
                ("decompositional", "deductive"), "The answer is stated in the reference material.")),
    "paren-numbers": ("1) Compare the heights. (deductive)\nGenerated Answer: x",
                      (("Compare the heights.",), ("deductive",), "x")),
    "indented-steps": ("  1. Compare. (Deductive Reasoning)\n  2. Conclude. (cause and effect)\nGenerated Answer: x",
                       (("Compare.", "Conclude."), ("deductive", "cause & effect"), "x")),
    "emphasised-skill": ("1. Compare the heights. (**deductive**)\nGenerated Answer: x",
                         (("Compare the heights.",), ("deductive",), "x")),
    "punctuation-after-the-skill": ("1. Compare the heights (deductive):\nGenerated Answer: x",
                                    (("Compare the heights",), ("deductive",), "x")),
    "parentheses-in-the-body": ("1. Compare heights (in metres (m)). (deductive)\nGenerated Answer: x",
                                (("Compare heights (in metres (m)).",), ("deductive",), "x")),
    "quoted-answer-label-in-lower-case": ('1. Compare. (deductive)\ngenerated answer: "the Tower"',
                                          (("Compare.",), ("deductive",), "the Tower")),
    "answer-on-the-next-line": ("1. Compare. (deductive)\nGenerated Answer:\nthe Tower",
                                (("Compare.",), ("deductive",), "the Tower")),
    "numbered-answer-line": ("1. Compare. (deductive)\n2. Generated Answer: x", (("Compare.",), ("deductive",), "x")),
    "two-answer-lines": ("1. Compare. (deductive)\nGenerated Answer: a\nGenerated Answer: b",
                         (("Compare.",), ("deductive",), "a")),
    "no-answer-line": ("1. Compare. (deductive)", (("Compare.",), ("deductive",), "")),
    "emphasised-answer-label": ("1. Compare. (deductive)\n**Generated Answer:** the Tower",
                                (("Compare.",), ("deductive",), "the Tower")),
    "step-headings": ("Step 1: Compare the heights. (deductive)\nGenerated Answer: x", None),
    "dashed-steps": ("- Compare. (deductive)\nGenerated Answer: x", None),
    "answer-before-the-steps": ("Generated Answer: x\n1. Compare. (deductive)", None),
    "no-skill": ("1. A step with no annotation.\nGenerated Answer: x", None),
    "unknown-skill": ("1. A step. (wishful thinking)\nGenerated Answer: x", None),
    "skill-without-a-body": ("1. (deductive)\nGenerated Answer: x", None),
}


@pytest.mark.parametrize("reply, parsed", STRATEGY_REPLIES.values(), ids=STRATEGY_REPLIES)
def test_a_strategy_reply_is_read_as_written_or_refused(reply, parsed):
    if parsed is None:
        with pytest.raises(UnparseableStrategy):
            parse_strategy_reply(reply)
    else:
        strategy, answer = parse_strategy_reply(reply)
        assert (strategy.subquestions, tuple(s.canonical for s in strategy.skills), answer) == parsed


def test_build_strategy_round_trips_through_provider():
    [(strategy, answer)] = build_strategy(["Who invented the telephone?"], MockProvider(lambda request: STRATEGY_REPLY))
    assert len(strategy.skills) == 4
    assert answer == "Alexander Graham Bell"


def test_the_reply_in_the_strategy_prompt_example_is_read_as_its_steps_and_answer():
    example = load_prompt("strategy_generation").split("Reasoning Paths:\n", 1)[1].split("\n\n", 1)[0]
    [(strategy, answer)] = build_strategy(["Who invented the telephone?"], MockProvider(lambda request: example))
    assert len(strategy.skills) == 4
    assert answer == "Alexander Graham Bell invented the telephone in 1876."


# the section lines of a batched reply -> (candidates, the line that heads each section, whether it is read);
# section k holds one step or passage that names k, and an empty head line leaves the section unheaded
SECTION_LAYOUTS = {
    "in-order": (3, ["Question 1:", "Question 2:", "Question 3:"], True),
    "restated-question": (2, ['Question 1: "Which is older?"', "Question 2: Which is taller, 1 or 2?"], True),
    "emphasised": (2, ["**Question 1:**", "  **Question 2:** Which is taller?"], True),
    "lower-case": (2, ["question 1:", "QUESTION 2:"], True),
    "unheaded-one": (1, [""], True),
    "one-headed": (1, ["Question 1:"], True),
    "missing": (3, ["Question 1:", "Question 3:"], False),
    "duplicate": (2, ["Question 1:", "Question 1:"], False),
    "out-of-order": (2, ["Question 2:", "Question 1:"], False),
    "extra": (2, ["Question 1:", "Question 2:", "Question 3:"], False),
    "zero-based": (2, ["Question 0:", "Question 1:"], False),
    "stops-after-section-k-1": (3, ["Question 1:", "Question 2:"], False),
    "unheaded-two": (2, [""], False),
    "numbered-heads": (2, ["1.", "2."], False),
    "heads-without-colon": (2, ["Question 1", "Question 2"], False),
}


def sectioned(heads, body):
    """A reply of one section per head line, after a preface line; body(k) is section k's text."""
    return "\n".join(["Here they are."] + [f"{head}\n{body(k)}" for k, head in enumerate(heads, start=1)])


@pytest.mark.parametrize("count, heads, read", SECTION_LAYOUTS.values(), ids=SECTION_LAYOUTS)
def test_a_strategy_reply_gives_each_question_its_section_or_is_refused(count, heads, read):
    reply = sectioned(heads, lambda k: f"1. Recall fact {k}. (deductive)\nGenerated Answer: answer {k}")
    questions = [f"q{k}?" for k in range(1, count + 1)]
    if not read:
        with pytest.raises(UnparseableStrategy, match="^strategy reply does not head one section per question: "):
            build_strategy(questions, MockProvider(lambda request: reply))
    else:
        parsed = build_strategy(questions, MockProvider(lambda request: reply))
        assert [(s.subquestions, answer) for s, answer in parsed] == [
            ((f"Recall fact {k}.",), f"answer {k}") for k in range(1, count + 1)]


@pytest.mark.parametrize("count, heads, read", SECTION_LAYOUTS.values(), ids=SECTION_LAYOUTS)
def test_a_reference_reply_gives_each_strategy_its_section_or_is_refused(count, heads, read):
    reply = sectioned(heads, lambda k: f"1. Passage {k}.")
    strategies = [ReasoningStrategy((f"a{k}?",), (ReasoningSkill.DEDUCTIVE,)) for k in range(1, count + 1)]
    if not read:
        with pytest.raises(ProviderError, match="^reference reply does not head one section per question: "):
            build_reference_docs(strategies, MockProvider(lambda request: reply))
    else:
        docs = build_reference_docs(strategies, MockProvider(lambda request: reply))
        assert docs == [[f"Passage {k}."] for k in range(1, count + 1)]


def test_one_bad_section_refuses_the_whole_strategy_reply():
    reply = "Question 1:\n1. Compare. (deductive)\nGenerated Answer: a\nQuestion 2:\n1. Guess. (wishful thinking)"
    with pytest.raises(UnparseableStrategy, match="^step 1: unknown reasoning skill label: 'wishful thinking'$"):
        build_strategy(["q1?", "q2?"], MockProvider(lambda request: reply))


def test_an_answer_line_reads_no_further_than_its_section():
    reply = "Question 1:\n1. Compare. (deductive)\nGenerated Answer:\nQuestion 2:\n1. Recall. (deductive)\n" \
            "Generated Answer: b"
    assert [answer for _, answer in build_strategy(["q1?", "q2?"], MockProvider(lambda request: reply))] == ["", "b"]


def test_strategy_validation():
    with pytest.raises(ValueError, match="^2 subquestions vs 1 skills$"):
        ReasoningStrategy(("a", "b"), (ReasoningSkill.DEDUCTIVE,))
    with pytest.raises(ValueError):
        ReasoningStrategy((), ())


def test_reference_docs_one_per_subquestion():
    strategy = ReasoningStrategy(
        ("When was the tower finished?", "How tall is it?"),
        (ReasoningSkill.DEDUCTIVE, ReasoningSkill.DEDUCTIVE),
    )
    prompts = []

    def reply(request):
        prompts.append(request.prompt)
        return "1. The tower was finished in 1889.\n2. It stands 330 metres tall."

    docs = build_reference_docs([strategy], MockProvider(reply))
    assert docs == [["The tower was finished in 1889.", "It stands 330 metres tall."]]
    (prompt,) = prompts
    assert prompt.endswith("\nQuestion 1:\n1. When was the tower finished?\n2. How tall is it?\n")


def test_one_reference_reply_serves_strategies_of_2_1_and_3_steps():
    strategies = [ReasoningStrategy(tuple(f"q{k}.{n}?" for n in range(1, steps + 1)), (ReasoningSkill.DEDUCTIVE,) * steps)
                  for k, steps in enumerate((2, 1, 3), start=1)]
    prompts = []

    def reply(request):
        prompts.append(request.prompt)
        return "\n".join(f"Question {k}:" + "".join(f"\n{n}. Fact {k}.{n}." for n in range(1, len(s.subquestions) + 1))
                         for k, s in enumerate(strategies, start=1))

    assert build_reference_docs(strategies, MockProvider(reply)) == [
        ["Fact 1.1.", "Fact 1.2."], ["Fact 2.1."], ["Fact 3.1.", "Fact 3.2.", "Fact 3.3."]]
    assert prompts == [reference_prompt(*strategies)]
    assert prompts[0].endswith("\nQuestion 1:\n1. q1.1?\n2. q1.2?\nQuestion 2:\n1. q2.1?\n"
                               "Question 3:\n1. q3.1?\n2. q3.2?\n3. q3.3?\n")


@pytest.mark.parametrize("passages", ["1. Fact.\n2. Fact.", "1. Fact.\n3. Fact.\n2. Fact.", "2. Fact.\n3. Fact."],
                         ids=["two-for-three", "out-of-order", "one-based-from-2"])
def test_a_section_that_misnumbers_its_passages_refuses_the_reference_reply(passages):
    strategies = [ReasoningStrategy(("a?",), (ReasoningSkill.DEDUCTIVE,)), THREE_STEPS]
    reply = f"Question 1:\n1. Fact.\nQuestion 2:\n{passages}"
    with pytest.raises(ProviderError, match="^reference reply section 2 does not number one passage per step, 1 to 3: "):
        build_reference_docs(strategies, MockProvider(lambda request: reply))


THREE_STEPS = ReasoningStrategy(("a?", "b?", "c?"), (ReasoningSkill.DEDUCTIVE,) * 3)
ONE_STEP = ReasoningStrategy(("a?",), (ReasoningSkill.DEDUCTIVE,))


# a reference reply to THREE_STEPS -> the passages read from it, or None where it is a ProviderError
REFERENCE_REPLIES = {
    "canned": (canned_reply(CompletionRequest(reference_prompt(THREE_STEPS), tag="reference")),
               ["The fact needed for this step is stated plainly in standard reference material."] * 3),
    "paren-numbers": ("1) Alpha.\n2) Beta.\n3) Gamma.", ["Alpha.", "Beta.", "Gamma."]),
    "preface-line": ("Here are the passages:\n1. Alpha.\n2. Beta.\n3. Gamma.", ["Alpha.", "Beta.", "Gamma."]),
    "blank-lines": ("\n1. Alpha.\n\n  2.  Beta.  \n\n3. Gamma.\n", ["Alpha.", "Beta.", "Gamma."]),
    "missing-number": ("1. Alpha.\n3. Gamma.", None),
    "duplicate-number": ("1. Alpha.\n2. Beta.\n2. Beta again.\n3. Gamma.", None),
    "out-of-order": ("1. Alpha.\n3. Gamma.\n2. Beta.", None),
    "extra-number": ("1. Alpha.\n2. Beta.\n3. Gamma.\n4. Delta.", None),
    "empty-passage": ("1. Alpha.\n2.\n3. Gamma.", None),
    "zero-based": ("0. Alpha.\n1. Beta.\n2. Gamma.", None),
    "unnumbered": ("Alpha. Beta. Gamma.", None),
}


@pytest.mark.parametrize("reply, passages", REFERENCE_REPLIES.values(), ids=REFERENCE_REPLIES)
def test_a_reference_reply_is_read_as_numbered_or_refused(reply, passages):
    provider = MockProvider(lambda request: reply)
    if passages is None:
        with pytest.raises(ProviderError, match="^reference reply section 1 does not number one passage per step, 1 to 3:"):
            build_reference_docs([THREE_STEPS], provider)
    else:
        assert build_reference_docs([THREE_STEPS], provider) == [passages]


@pytest.mark.parametrize("steps", [(1,), (5,), (2, 1, 3), (3, 3), (1, 2, 3, 4, 5), (2,) * 10])
def test_synthesize_example_makes_two_calls_whatever_its_candidates_and_steps(steps):
    questions = [f"Which is candidate {k}?" for k in range(1, len(steps) + 1)]
    subquestions = [[f"Which fact {k}.{n} matters?" for n in range(1, count + 1)] for k, count in enumerate(steps, 1)]
    strategy_reply = "\n".join(f"Question {k}:" + "".join(f"\n{n}. {q} (deductive)" for n, q in enumerate(qs, 1))
                               + f"\nGenerated Answer: answer {k}" for k, qs in enumerate(subquestions, 1))
    requests = []

    def reply(request):
        requests.append(request)
        return strategy_reply if request.tag == "strategy" else canned_reply(request)

    examples = synthesize_example(questions, MockProvider(reply))
    assert [r.tag for r in requests] == ["strategy", "reference"]
    assert requests[0].prompt == strategy_prompt(*questions)
    strategies = [ReasoningStrategy(qs, (ReasoningSkill.DEDUCTIVE,) * len(qs)) for qs in subquestions]
    assert requests[1].prompt == reference_prompt(*strategies)
    assert [(e.question, e.strategy, len(e.reference_docs), e.answer) for e in examples] == [
        (q, s, len(s.subquestions), f"answer {k}") for k, (q, s) in enumerate(zip(questions, strategies), start=1)]


def test_a_canned_synthesis_gives_every_candidate_the_same_example():
    examples = synthesize_example(["q1?", "q2?", "q3?"], CannedProvider())
    assert [e.question for e in examples] == ["q1?", "q2?", "q3?"]
    assert len({(e.strategy, e.reference_docs, e.answer) for e in examples}) == 1


def test_reference_docs_reject_empty_replies():
    strategy = ReasoningStrategy(("a?",), (ReasoningSkill.DEDUCTIVE,))
    with pytest.raises(ProviderError):
        build_reference_docs([strategy], MockProvider(lambda request: "   "))


def test_similar_example_validates_shape():
    strategy = ReasoningStrategy(("a?",), (ReasoningSkill.DEDUCTIVE,))
    example = SimilarExample("q?", strategy, ["doc"], "ans")
    assert example.reference_docs == ("doc",)
    with pytest.raises(ValueError, match="^2 reference docs vs 1 subquestions$"):
        SimilarExample("q?", strategy, ["doc", "extra"], "ans")
    with pytest.raises(EmptyAnswer):
        SimilarExample("q?", strategy, ["doc"], "  ")


def test_synthesize_example_end_to_end_with_mock():
    provider = MockProvider(replies(
        STRATEGY_REPLY,
        "1. Bell filed the telephone patent in 1876.\n"
        "2. A patent names its inventor.\n"
        "3. The patent office recorded the filing.\n"
        "4. The record survives today.",
    ))
    [example] = synthesize_example(["Who invented the telephone?"], provider)
    assert example.question == "Who invented the telephone?"
    assert example.answer == "Alexander Graham Bell"
    assert example.reference_docs == ("Bell filed the telephone patent in 1876.", "A patent names its inventor.",
                                      "The patent office recorded the filing.", "The record survives today.")


# one line of text: no character that str.splitlines() breaks on
_LINE = st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp"))
_SLOTS = ["adj", "place 1", "place 2", "person"]
_SKILL_LABELS = [label for s in ReasoningSkill for label in (s.canonical, s.display_name)]

# reply lines shaped like the ones the parsers look for, among arbitrary text
_REPLY_LINE = st.one_of(
    st.text(max_size=60),
    st.builds("{}. {}".format, st.integers(0, 12), st.text(_LINE, max_size=40)),
    st.builds(
        "{}) {} ({})".format,
        st.integers(0, 12),
        st.text(_LINE, max_size=30),
        st.sampled_from(_SKILL_LABELS) | st.text(_LINE, max_size=12),
    ),
    st.builds("{}Generated Answer:{} {}".format, st.sampled_from(["", "**"]), st.sampled_from(["", "**"]),
              st.text(max_size=30)),
    st.builds("{}Question {}:{}".format, st.sampled_from(["", "**", "  "]), st.integers(0, 4),
              st.sampled_from(["", "**", ' "Which is older?"']) | st.text(_LINE, max_size=20)),
    st.lists(
        st.tuples(st.sampled_from(_SLOTS) | st.text(_LINE, max_size=8), st.text(_LINE, max_size=12)),
        max_size=4,
    ).map(lambda pairs: "1. " + "; ".join(f"{slot}={value}" for slot, value in pairs)),
    st.from_regex(r"\d{1,6}", fullmatch=True),
    st.integers(1, 6000).map("7".__mul__),
)
_EIFFEL_TEMPLATE = eiffel_template()


@settings(max_examples=300, deadline=None)
@given(st.lists(_REPLY_LINE, max_size=8).map("\n".join))
@example("7" * 4301)  # more digits than int() converts
def test_reply_parsers_raise_nothing_but_package_errors(reply):
    """A SkillPathError fails one question; any other error stops the command."""
    provider = MockProvider(lambda request: reply)
    parsers = [
        lambda: parse_strategy_reply(reply),
        lambda: score_candidates(EIFFEL, [CandidateQuestion("Which is older?", ConstructionMode.GUIDED_FILL)], provider),
        lambda: score_candidates(EIFFEL, [CandidateQuestion(q, ConstructionMode.GUIDED_FILL) for q in "abc"], provider),
        lambda: generate_candidates(_EIFFEL_TEMPLATE, ConstructionMode.GUIDED_FILL, 3, provider=provider),
        lambda: build_strategy(["Which is older?"], provider),
        lambda: build_strategy(["a", "b", "c"], provider),
        lambda: build_reference_docs([THREE_STEPS], provider),
        lambda: build_reference_docs([THREE_STEPS, ONE_STEP, THREE_STEPS], provider),
        lambda: synthesize_example(["a", "b", "c"], provider),
    ]
    for parse in parsers:
        try:
            parse()
        except SkillPathError:
            pass


def _no_answer_marker(text: str) -> bool:
    return bool(text) and re.search("generated answer:", text, re.IGNORECASE) is None


_STEP = st.text(_LINE, min_size=1, max_size=40).map(str.strip).filter(_no_answer_marker)
_ANSWER = _STEP.filter(lambda text: text == text.strip('"').strip())


@given(
    st.lists(st.tuples(_STEP, st.sampled_from(list(ReasoningSkill)), st.booleans()), min_size=1, max_size=6),
    _ANSWER,
)
def test_a_rendered_strategy_parses_back(steps, answer):
    lines = [
        f"{n}. {body} ({skill.display_name if display else skill.canonical})"
        for n, (body, skill, display) in enumerate(steps, start=1)
    ]
    strategy, parsed_answer = parse_strategy_reply("\n".join(lines + [f"Generated Answer: {answer}"]))
    assert strategy.subquestions == tuple(body for body, _, _ in steps)
    assert strategy.skills == tuple(skill for _, skill, _ in steps)
    assert parsed_answer == answer
