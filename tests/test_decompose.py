from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skillpath.decompose import (
    RuleBasedTagger,
    TokenLabel,
    _phrase_table,
    _scan_phrases,
    build_template,
    classify_tokens,
    decompose_question,
    render_template,
)
from skillpath.errors import (
    EmptyQuestion,
    MissingSubstitution,
    UnknownPlaceholder,
)
from skillpath.resources import load_entity_pool
from skillpath.textutil import texts_match, tokenize

EIFFEL_Q = "Which is taller, the Eiffel Tower or the Empire State Building?"


def test_classify_finds_typed_entities_and_structural_remainder():
    tokens = classify_tokens(EIFFEL_Q)
    entities = [(t.text, t.entity_type) for t in tokens if t.label is TokenLabel.ENTITY]
    assert entities == [
        ("taller", "adj"),
        ("Eiffel Tower", "place"),
        ("Empire State Building", "place"),
    ]
    rest = [t.text for t in tokens if t.label is TokenLabel.STRUCTURAL]
    assert rest == ["Which", "is", ",", "or", "?"]


def test_classify_absorbs_leading_articles():
    tokens = classify_tokens(EIFFEL_Q)
    articles = [t.article for t in tokens if t.label is TokenLabel.ENTITY]
    assert articles == ["", "the", "the"]


def test_token_indices_are_contiguous():
    tokens = classify_tokens(EIFFEL_Q)
    assert [t.index for t in tokens] == list(range(len(tokens)))


def test_template_text_matches_expected_slots():
    template = decompose_question(EIFFEL_Q)
    assert template.template_text == "Which is [adj], [place 1] or [place 2]?"
    assert [p.slot for p in template.placeholders] == ["adj", "place 1", "place 2"]


def test_round_trip_regenerates_original():
    template = decompose_question(EIFFEL_Q)
    rebuilt = render_template(template, template.original_substitutions())
    assert rebuilt == EIFFEL_Q


def test_render_with_new_entities():
    template = decompose_question(EIFFEL_Q)
    out = render_template(
        template,
        {"adj": "older", "place 1": "the Taj Mahal", "place 2": "the Golden Gate Bridge"},
    )
    assert out == "Which is older, the Taj Mahal or the Golden Gate Bridge?"


def test_render_validates_substitution_keys():
    template = decompose_question(EIFFEL_Q)
    subs = template.original_substitutions()
    missing = dict(subs)
    del missing["adj"]
    with pytest.raises(MissingSubstitution):
        render_template(template, missing)
    extra = dict(subs)
    extra["nonsense"] = "x"
    with pytest.raises(UnknownPlaceholder):
        render_template(template, extra)


def test_question_with_no_entities_is_all_structural():
    tokens = classify_tokens("Why?")
    assert all(t.label is TokenLabel.STRUCTURAL for t in tokens)
    template = build_template(tokens)
    assert template.placeholders == []
    assert template.template_text == "Why?"


def test_empty_and_punctuation_only_questions_rejected():
    with pytest.raises(EmptyQuestion):
        classify_tokens("   ")
    with pytest.raises(EmptyQuestion):
        classify_tokens("?!?")


def test_rule_tagger_types_unknown_capitalized_runs():
    tokens = classify_tokens("In what city was the subject of the film Nowhere Boy born?")
    entities = [(t.text, t.entity_type) for t in tokens if t.entity_type]
    assert ("Nowhere Boy", "object") in entities


def test_rule_tagger_place_and_org_cues():
    tokens = classify_tokens("Was the Willis Tower built before the Acme Corporation formed?")
    types = {t.text: t.entity_type for t in tokens if t.entity_type}
    assert types["Willis Tower"] == "place"
    assert types["Acme Corporation"] == "organization"


def test_rule_tagger_digits_and_comparatives():
    tokens = classify_tokens("Was it heavier in 1889 than 42 tons?")
    types = {t.text: t.entity_type for t in tokens if t.entity_type}
    assert types["heavier"] == "adj"
    assert types["1889"] == "date"
    assert types["42"] == "number"


def test_round_trip_with_default_tagger_on_pool_sentences():
    questions = [
        "Who invented the telephone?",
        "Did Marie Curie study at Oxford University?",
        "Is Mount Everest taller than the Eiffel Tower?",
    ]
    for q in questions:
        template = decompose_question(q)
        assert texts_match(render_template(template, template.original_substitutions()), q)


# ------------------------------------------- gazetteer index vs the full scan


def _full_scan_table(pairs):
    """The scan's phrase table before indexing: a list, longest first."""
    table = [([p.casefold() for p in tokenize(phrase)], etype) for phrase, etype in pairs]
    return sorted((row for row in table if row[0]), key=lambda row: len(row[0]), reverse=True)


def _full_scan(phrases, folded, types):
    """Every phrase against every position, phrase by phrase."""
    n = len(folded)
    for parts, etype in phrases:
        width = len(parts)
        for start in range(0, n - width + 1):
            if any(types[start + k] is not None for k in range(width)):
                continue
            if folded[start : start + width] == parts:
                for k in range(width):
                    types[start + k] = etype


# a small vocabulary makes overlapping matches common
_VOCAB = ["a", "b", ","]
_PHRASE = st.lists(st.sampled_from(_VOCAB + ["A"]), min_size=1, max_size=4).map(" ".join)
_PAIRS = st.lists(st.tuples(_PHRASE, st.sampled_from(["x", "y", "z"])), max_size=10)


@st.composite
def _pairs_with_a_phrase_under_two_types(draw):
    pairs = draw(_PAIRS)
    phrase = draw(_PHRASE)
    first, second = draw(st.permutations(["x", "y", "z"]))[:2]
    at = draw(st.integers(0, len(pairs)))
    return pairs[:at] + [(phrase, first)] + pairs[at:] + [(phrase, second)]


@settings(max_examples=300)
@given(_PAIRS | _pairs_with_a_phrase_under_two_types(), st.lists(st.sampled_from(_VOCAB), max_size=14))
# an earlier-ranked phrase overlapping a later one that starts first
@example([("b , a", "x"), ("a b ,", "y")], ["a", "b", ",", "a"])
@example([("a b", "x"), ("b , a", "y")], ["a", "b", ",", "a"])
def test_indexed_scan_matches_the_full_scan(pairs, folded):
    expected = [None] * len(folded)
    _full_scan(_full_scan_table(pairs), folded, expected)
    got = [None] * len(folded)
    _scan_phrases(_phrase_table(pairs), folded, got)
    assert got == expected


def test_indexed_scan_matches_the_full_scan_on_the_bundled_pool():
    pool = load_entity_pool()
    pairs = [(name, etype) for etype, names in pool.items() for name in names]
    index, full = _phrase_table(pairs), _full_scan_table(pairs)
    questions = [EIFFEL_Q] + [
        f"Is {a} older than {b}, and is the {b} near {a}?"
        for names in pool.values()
        for a, b in zip(names, names[1:] + names[:1])
    ]
    for question in questions:
        folded = [t.casefold() for t in tokenize(question)]
        expected = [None] * len(folded)
        _full_scan(full, folded, expected)
        got = [None] * len(folded)
        _scan_phrases(index, folded, got)
        assert got == expected, question
