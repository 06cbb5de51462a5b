from __future__ import annotations

import pytest
from hypothesis import example, find, given
from hypothesis import strategies as st

from skillpath.errors import ZeroDenominator
from skillpath.metrics import (
    CITATION_CONTAINMENT,
    EvalRecord,
    attribute_citations,
    detect_retrace,
    evaluate_records,
    exact_match,
    hits_and_error,
    per_record_rows,
    retrace_rate,
    rouge_l,
    token_stats,
)
from skillpath.providers import TokenUsage
from skillpath.textutil import norm_tokens, split_sentences

from conftest import TRICKY

CUES = ["sorry", "actually", "let me rethink", "wait"]


def rec(qid="q", cited=None, gold=None, **kw):
    defaults = dict(prediction="x", gold_answers=["x"])
    defaults.update(kw)
    return EvalRecord(
        question_id=qid, cited_sentences=cited, gold_sentences=gold, **defaults
    )


def test_rouge_identity_and_disjoint():
    assert rouge_l("the tower stands tall", "the tower stands tall") == pytest.approx(1.0)
    assert rouge_l("alpha beta gamma", "delta epsilon") == pytest.approx(0.0)


def test_rouge_worked_fraction():
    # LCS 4, lengths 6 and 8: F = 2*(4/6)*(4/8) / (4/6 + 4/8) = 4/7
    candidate = "the tower was completed quite recently"
    reference = "the tower was completed in 1889 in paris"
    assert rouge_l(candidate, reference) == pytest.approx(4 / 7, abs=1e-12)


def test_rouge_is_case_and_punctuation_insensitive():
    assert rouge_l("The Tower, stands tall!", "the tower stands tall") == pytest.approx(1.0)


def test_rouge_empty_candidate_scores_zero():
    assert rouge_l("", "the reference") == 0.0


def test_rouge_empty_reference_refuses():
    with pytest.raises(ValueError, match="^reference has no word tokens$"):
        rouge_l("the candidate", "")
    with pytest.raises(ValueError, match="^reference has no word tokens$"):
        rouge_l("the candidate", "?!")


def test_exact_match_normalization():
    assert exact_match("The Eiffel Tower.", ["eiffel tower"]) == 1
    assert exact_match("  an   apple ", ["Apple"]) == 1
    assert exact_match("apples", ["apple"]) == 0


def test_exact_match_scans_all_golds():
    assert exact_match("Paris", ["Lyon", "paris."]) == 1
    assert exact_match("Paris", ["Lyon", "Marseille"]) == 0
    with pytest.raises(ValueError):
        exact_match("Paris", [])


def test_hits_counts_superset_records():
    records = [
        rec("a", cited={(0, 0), (0, 1)}, gold={(0, 0)}),
        rec("b", cited={(0, 0)}, gold={(0, 0), (1, 0)}),
    ]
    result = hits_and_error(records)
    assert result.hits == pytest.approx(0.5)


def test_error_literal_form():
    records = [
        # hit with extra citation: counted in both tallies
        rec("a", cited={(0, 0), (0, 1)}, gold={(0, 0)}),
        # exact match: hit, subset, clean
        rec("b", cited={(0, 0)}, gold={(0, 0)}),
        # subset but not superset: in neither tally
        rec("c", cited={(0, 0)}, gold={(0, 0), (1, 0)}),
    ]
    result = hits_and_error(records)
    assert result.hits == pytest.approx(2 / 3)
    # numerator 1 (record a), denominator 2 + 1
    assert result.error == pytest.approx(1 / 3)


def test_error_undefined_is_none_not_zero():
    records = [rec("a", cited={(0, 0)}, gold={(0, 0), (1, 0)})]
    result = hits_and_error(records)
    assert result.hits == 0.0
    assert result.error is None


def test_error_undefined_raises_under_strict():
    records = [rec("a", cited=set(), gold={(0, 0)})]
    with pytest.raises(ZeroDenominator) as info:
        hits_and_error(records, strict=True)
    assert info.value.hits == 0.0


def test_hits_requires_annotations_and_records():
    with pytest.raises(ValueError, match="^no records$"):
        hits_and_error([])
    with pytest.raises(ValueError):
        hits_and_error([rec("a", cited={(0, 0)}, gold=None)])


def test_retrace_on_repeated_markers():
    text = "<answer>Paris</answer> hold on <answer>Paris</answer>"
    assert detect_retrace(text, CUES) is True


def test_retrace_on_cue_with_changed_answer():
    text = "So the answer is Paris. Wait, that is wrong. The answer is Lyon."
    assert detect_retrace(text, CUES) is True


def test_no_retrace_when_cue_confirms_same_answer():
    text = "The answer is Paris. Actually, yes, the answer is Paris."
    assert detect_retrace(text, CUES) is False


def test_no_retrace_without_cue_or_markers():
    text = "The answer is Paris. On reflection the answer is Lyon."
    assert detect_retrace(text, CUES) is False


def test_cue_matching_respects_word_boundaries():
    # "await" must not read as the cue "wait"
    text = "The answer is Paris. We await confirmation. The answer is Lyon."
    assert detect_retrace(text, CUES) is False


def test_retrace_positions_survive_characters_that_grow_under_casefold():
    # "ß" casefolds to "ss": cue and answer positions must come from one string
    text = "The answer is A. " + "\u00df" * 40 + " Wait, the answer is B."
    assert detect_retrace(text, CUES) is True
    assert detect_retrace(text.replace("\u00df" * 40, ""), CUES) is True


def test_single_marker_is_not_a_retrace():
    assert detect_retrace("Reasoning. <answer>Paris</answer>", CUES) is False


def test_retrace_rate_over_records():
    records = [
        rec("a", chain_text="<answer>x</answer> then <answer>y</answer>"),
        rec("b", chain_text="<answer>x</answer>"),
    ]
    assert retrace_rate(records, CUES) == pytest.approx(0.5)
    with pytest.raises(ValueError, match="^no records$"):
        retrace_rate([], CUES)


def test_token_stats_and_reduction():
    records = [
        rec("a", usage=TokenUsage.of(100, 400), latency_ms=10.0),
        rec("b", usage=TokenUsage.of(200, 300), latency_ms=30.0),
    ]
    stats = token_stats(records)
    assert stats.token_mean == pytest.approx(500.0)
    assert stats.time_mean_ms == pytest.approx(20.0)
    assert stats.reduction_vs(1000.0) == pytest.approx(0.5)


def test_attribution_threshold_boundary():
    doc = "The tower was finished in 1889. It is made of iron."
    # first sentence verbatim: all 6 distinct tokens present
    cited = attribute_citations("The tower was finished in 1889.", [doc])
    assert cited == {(0, 0)}
    # 4 of 6 distinct tokens falls below 0.8 * 6 = 4.8
    cited = attribute_citations("The tower was finished early.", [doc])
    assert cited == set()
    # 5 of 6 clears the bar even with extra words around it
    cited = attribute_citations("the tower was finished in some year thing", [doc])
    assert cited == {(0, 0)}


def test_attribution_spans_multiple_documents():
    docs = ["Alpha beta gamma. Delta epsilon.", "Zeta eta theta."]
    chain = "We note alpha beta gamma here. Also zeta eta theta."
    assert attribute_citations(chain, docs) == {(0, 0), (1, 0)}


# ------------------------------------------------ reference attribution
# The per-sentence attribution that sentence_token_sets replaced, kept as
# an oracle: every sentence of the chain and of each document is split,
# then tokenized on its own.

def reference_attribute_citations(chain_text, documents):
    model_token_sets = [set(norm_tokens(s)) for s in split_sentences(chain_text)]
    cited = set()
    for d, doc in enumerate(documents):
        for j, sentence in enumerate(split_sentences(doc)):
            doc_tokens = set(norm_tokens(sentence))
            if not doc_tokens:
                continue
            needed = CITATION_CONTAINMENT * len(doc_tokens)
            if any(len(doc_tokens & mt) >= needed for mt in model_token_sets):
                cited.add((d, j))
    return cited


# sentences and halves of one that chain and documents share, so some
# sentences are cited and some are cited only by a chain sentence's union
_SHARED = st.sampled_from([
    "The Tower stands ",
    "330 metres tall. ",
    "It opened in 1889!\n",
    "Stra\u00dfe 9 is in \u0130stanbul? ",
    "\"(The \u212aelvin) scale.\" ",
])
_PIECES = st.lists(_SHARED | TRICKY | st.characters(), max_size=20).map("".join)
_ATTRIBUTION = st.tuples(_PIECES, st.lists(_PIECES, max_size=4))


@given(_ATTRIBUTION)
@example(("The Tower stands. 330 metres tall.", ["The Tower stands 330 metres tall.\nIt opened."]))
def test_attribute_citations_equals_the_per_sentence_reference(case):
    chain, docs = case
    assert attribute_citations(chain, docs) == reference_attribute_citations(chain, docs)


def test_the_attribution_strategy_draws_cited_sentences():
    find(_ATTRIBUTION, lambda case: reference_attribute_citations(*case))


def test_evaluate_records_aggregates_everything():
    usage = TokenUsage.of(10, 10)
    records = [
        EvalRecord(
            question_id="a",
            prediction="Paris",
            gold_answers=["Paris"],
            cited_sentences={(0, 0)},
            gold_sentences={(0, 0)},
            chain_text="<answer>Paris</answer>",
            usage=usage,
            latency_ms=5.0,
        ),
        EvalRecord(
            question_id="b",
            prediction="Lyon",
            gold_answers=["Marseille"],
            cited_sentences=None,
            gold_sentences=None,
            chain_text="<answer>Lyon</answer>",
            usage=usage,
            latency_ms=15.0,
        ),
    ]
    report, rows = evaluate_records(records, CUES)
    assert [row["question_id"] for row in rows] == ["a", "b"]
    assert report.n == 2
    assert report.em_mean == pytest.approx(0.5)
    # hits and error computed over the annotated subset only
    assert report.hits == pytest.approx(1.0)
    assert report.error == pytest.approx(0.0)
    assert report.retrace_rate == 0.0
    assert report.token_mean == pytest.approx(20.0)
    assert report.time_mean_ms == pytest.approx(10.0)


def test_evaluate_records_without_annotations():
    records = [rec("a", chain_text="<answer>x</answer>", usage=TokenUsage.of(1, 1))]
    report, _ = evaluate_records(records, CUES)
    assert report.hits is None
    assert report.error is None


def test_evaluate_records_scores_rows_with_the_given_cues():
    records = [
        rec(
            "a",
            chain_text="The answer is Paris. On reflection the answer is Lyon.",
            usage=TokenUsage.of(1, 1),
        )
    ]
    report, rows = evaluate_records(records, ["on reflection"])
    assert rows[0]["retrace"] == 1
    assert report.retrace_rate == 1.0
    report, rows = evaluate_records(records, CUES)
    assert rows[0]["retrace"] == 0
    assert report.retrace_rate == 0.0


def test_per_record_rows_shape():
    records = [
        rec(
            "a",
            cited={(0, 0)},
            gold={(0, 0)},
            chain_text="<answer>x</answer>",
            usage=TokenUsage.of(3, 4),
            latency_ms=2.0,
        )
    ]
    rows = per_record_rows(records)
    assert rows[0]["question_id"] == "a"
    assert rows[0]["em"] == 1
    assert rows[0]["hit"] == 1
    assert rows[0]["tokens"] == 7
