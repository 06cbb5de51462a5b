from __future__ import annotations

import ast
import inspect
import re
import sys

from hypothesis import example, given, settings
from hypothesis import strategies as st

from skillpath import textutil
from skillpath.textutil import (
    Passage,
    count_ws_tokens,
    detokenize,
    first_sentence,
    norm_tokens,
    normalize_answer,
    normalize_ws,
    sentence_key,
    sentence_token_sets,
    split_sentences,
    squeeze_punct,
    texts_match,
    tokenize,
)

from conftest import TRICKY


def test_tokenize_detaches_edge_punctuation():
    assert tokenize("Which is taller, the Eiffel Tower?") == [
        "Which", "is", "taller", ",", "the", "Eiffel", "Tower", "?",
    ]


def test_tokenize_keeps_internal_apostrophes_and_hyphens():
    assert tokenize("don't use a well-known trick.") == [
        "don't", "use", "a", "well-known", "trick", ".",
    ]


def test_detokenize_round_trip():
    text = "Which is taller, the Eiffel Tower or the Empire State Building?"
    assert detokenize(tokenize(text)) == text


# detokenize(tokenize(s)) need not give s back ("!a" comes back as "! a"),
# but tokenizing that text again gives the same tokens
_PUNCT_TEXT = st.text(alphabet=st.sampled_from(list(",.?!;:\"()[]{}'-a \n")), max_size=40)


@given(st.text() | _PUNCT_TEXT)
@example("!a")
@example("(a) [b], {c}.")
def test_tokenize_is_stable_through_detokenize(text):
    tokens = tokenize(text)
    assert tokenize(detokenize(tokens)) == tokens


def test_split_sentences_on_terminators_and_newlines():
    text = "First fact here. Second fact follows!\nThird on a new line."
    assert split_sentences(text) == [
        "First fact here.",
        "Second fact follows!",
        "Third on a new line.",
    ]


def test_split_sentences_ignores_blank_lines():
    assert split_sentences("One.\n\n\nTwo.") == ["One.", "Two."]


def test_a_boundary_never_spans_a_line_break():
    # a cut inside a line drops the closing quote after its terminator; one
    # at a line break keeps it, as the line break alone ends the sentence
    text = 'He left.)\nThen "Go." Now.\'\n(9 more'
    assert split_sentences(text) == ["He left.)", 'Then "Go.', "Now.'", "(9 more"]


def test_norm_tokens_strips_punct_and_lowercases():
    assert norm_tokens("The World's Fair, 1889!") == ["the", "world", "s", "fair", "1889"]


def test_normalize_answer():
    assert normalize_answer("  The Paris.  ") == "paris"
    assert normalize_answer("a dog") == "dog"
    assert normalize_answer("1889") == "1889"


def test_sentence_key_collapses_case_and_spacing():
    assert sentence_key("The  Tower\tstands.") == sentence_key("the tower stands.")


def test_squeeze_punct_and_texts_match():
    assert squeeze_punct("Which is taller , the tower ?") == "Which is taller, the tower?"
    assert texts_match("A, b?", "A , b ?")
    assert not texts_match("A, b?", "A, c?")


# ---------------------------------------------------------------- properties

_REGEX_SPACE = re.compile(r"\s")
# every code point Python treats as whitespace, by either rule
_WHITESPACE = sorted(
    c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace() or _REGEX_SPACE.match(c)
)


def test_regex_and_str_whitespace_agree_on_every_code_point():
    assert all(c.isspace() and _REGEX_SPACE.match(c) for c in _WHITESPACE)


@given(st.text(alphabet=st.sampled_from(_WHITESPACE) | st.characters(), max_size=40))
def test_sentence_key_equals_the_regex_form(text):
    assert normalize_ws(text) == re.sub(r"\s+", " ", text).strip()
    assert sentence_key(text) == re.sub(r"\s+", " ", text.casefold()).strip()


def test_casefold_neither_makes_nor_changes_whitespace():
    # Passage.sentence finds sentence keys in one casefold of the text
    made = [c for c in map(chr, range(sys.maxunicode + 1))
            if not c.isspace() and any(map(str.isspace, c.casefold()))]
    assert made == []
    assert [c.casefold() for c in _WHITESPACE] == _WHITESPACE


def test_the_irregular_whitespace_is_written_out_and_is_every_other_space():
    # a literal, so importing textutil does not scan every code point
    [assigned] = [node.value for node in ast.parse(inspect.getsource(textutil)).body
                  if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "_IRREGULAR_WS"]
    assert ast.literal_eval(assigned) == textutil._IRREGULAR_WS
    assert sorted(textutil._IRREGULAR_WS) == [c for c in _WHITESPACE if c not in " \n"]


_WORDS = st.sampled_from(["Tower", "tower", "TOWER", "stands", "Stands", "tall", "\u039f\u03a3"])
# TRICKY's characters whose casefold grows or leaves ASCII
_FOLDING = ["\u00df", "\u0130", "\u212a"]
# between words: a space only, or also every whitespace character and a run of spaces
_GAPS = [st.sampled_from([" ", *_FOLDING]), st.sampled_from([*_WHITESPACE, "  ", *_FOLDING])]


@st.composite
def _sentence(draw, gaps):
    words = draw(st.lists(_WORDS, min_size=1, max_size=3))
    return "".join(w + draw(gaps) for w in words[:-1]) + words[-1] + "."


@st.composite
def _lines(draw):
    """Lines of one to three sentences, some ending in "\r", so joined with "\n" some break at "\r\n"."""
    gaps = draw(st.sampled_from(_GAPS))
    line = st.builds(lambda sentences, end: " ".join(sentences) + end,
                     st.lists(_sentence(gaps), min_size=1, max_size=3), st.sampled_from(["", "", "\r"]))
    return draw(st.lists(line, min_size=1, max_size=4))


@given(_lines())
@example(["Tower stands.", "tower  stands."])
@example(["TOWER\u3000STANDS.", "Tower stands."])
@example(["Stra\u00dfe \u0130 \u212a.", "STRASSE i\u0307 k.", "\u039f\u03a3."])
@example(["Tower stands. TOWER STANDS.", "Tall. tower stands. Tower stands."])
@example(["Tall.", "Tower stands. TOWER STANDS. Tall."])
@example(["Tower stands.", "Tall tower stands. Tower. Stands tall."])
@example(["Tower stands. Tall.\r", "TOWER STANDS.\r", "Tall tower."])
def test_passage_finds_the_last_sentence_of_each_key(lines):
    text = "\n".join(lines)
    passage = Passage.of(text)
    assert passage.text == text
    split = split_sentences(text)
    reference = {sentence_key(s): s for s in split}  # the last sentence of a key wins
    for key, kept in reference.items():
        assert passage.sentence(key) == kept
    keys = [sentence_key(s) for s in split]
    # every sentence ends in ".": a prefix, a span of two sentences, another terminator
    probes = [k[:-1] for k in keys] + [a + " " + b for a, b in zip(keys, keys[1:])]
    for probe in probes:
        assert passage.sentence(probe) == reference.get(probe)
    assert [passage.sentence(k[:-1] + "?") for k in keys] == [None] * len(keys)


def test_a_key_that_ends_a_sentence_of_every_line_is_found_where_it_is_a_whole_sentence():
    # "yes." ends a sentence of every line and is a whole sentence of the first only
    text = "\n".join(["Yes."] + [f"We said yes. Line {i} said yes." for i in range(3000)])
    passage = Passage.of(text)
    assert passage.sentence("yes.") == "Yes."
    assert passage.sentence("said yes.") is None
    assert passage.sentence("line 2999 said yes.") == "Line 2999 said yes."
    assert passage.sentence("we said yes.") == "We said yes."


_DOC_TEXT = st.text(
    alphabet=st.sampled_from(list("aZ7.?!\"')( \n\t\r") + ["\u2029", "\u00a0", "\x1c"]),
    max_size=30,
)


@given(st.lists(_DOC_TEXT, max_size=4))
def test_split_sentences_invariants(docs):
    per_doc = [split_sentences(d) for d in docs]
    for sentences in per_doc:
        assert all(s and s == s.strip() for s in sentences)
    assert split_sentences("\n\n".join(docs)) == [s for sentences in per_doc for s in sentences]


@given(st.lists(_DOC_TEXT, max_size=4), st.sampled_from(["", "\n", "\n\n \n", " \t\n\n"]))
def test_first_sentence_is_the_first_split_sentence(docs, leading):
    text = leading + "\n\n".join(docs)
    sentences = split_sentences(text)
    assert first_sentence(text) == (sentences[0] if sentences else None)


def test_first_sentence_skips_leading_blank_lines():
    assert first_sentence("\n\n  \nThe tower. It stands.\nMore.") == "The tower."
    assert first_sentence(" \n\t\n") is None


# ------------------------------------------------------- reference kernels
# The lookbehind boundary, newline-run split and regex tokenizer that
# split_sentences and norm_tokens replaced, kept as oracles.

_WORD = re.compile(r"[a-z0-9]+")
# boundary after ., ? or ! (plus closing quotes/brackets) before a capital or digit
_SENT_BOUNDARY = re.compile(r"(?<=[.?!])[\)\"\']*\s+(?=[\"\'(]?[A-Z0-9])")


def reference_split_sentences(text: str) -> list[str]:
    sentences: list[str] = []
    for line in re.split(r"\n+", text):
        for part in _SENT_BOUNDARY.split(line):
            part = part.strip()
            if part:
                sentences.append(part)
    return sentences


def reference_norm_tokens(text: str) -> list[str]:
    return _WORD.findall(text.lower())


_ANY_TEXT = st.lists(TRICKY | st.characters(), max_size=60).map("".join)


@given(_ANY_TEXT)
@example("Ends here.) \"Next one. (3 more!'\u2028Last")
@example("a.\r\nB.\n\n\n\x85C?  \u0130D")
def test_split_sentences_equals_the_lookbehind_reference(text):
    assert split_sentences(text) == reference_split_sentences(text)


@given(_ANY_TEXT)
@example("a\ud800b")
@example("\u0130stanbul \u212aelvin, Stra\u00dfe 9")
def test_norm_tokens_equals_the_regex_reference(text):
    assert norm_tokens(text) == reference_norm_tokens(text)


@given(_ANY_TEXT)
def test_first_sentence_equals_the_first_reference_sentence(text):
    sentences = reference_split_sentences(text)
    assert first_sentence(text) == (sentences[0] if sentences else None)


@given(_ANY_TEXT)
@example("\u039f\u03a3\nA. \u0130\u03a3 b? ")  # final sigma before the joining newline
@example("a.\n\n")
def test_sentence_token_sets_equals_the_per_sentence_reference(text):
    expected = [set(reference_norm_tokens(s)) for s in reference_split_sentences(text)]
    assert sentence_token_sets(text) == expected


# every ASCII byte str.split splits at, "\x1c"-"\x1f" among them, and
# Unicode spaces that only str.split knows
_WS_TEXT = st.lists(
    st.sampled_from([" ", "\t", "\n", "\x0b", "\x0c", "\r", "\x1c", "\x1d", "\x1e", "\x1f",
                     "\x85", "\xa0", "\u2028", "\u3000", "\ud800", "\udfff", "a", "Z", "9", ".", "\x00"])
    | st.characters(),
    max_size=40,
).map("".join)


@settings(derandomize=True, database=None)
@given(_WS_TEXT)
@example("")
@example(" ")
@example("a")
@example(" \t a b\x1cc\x1fd \n")
@example("\x1c\x1d\x1e\x1f")
@example("a\x85b\xa0c\u2028d\u3000e")
@example("\ud800 \udfff")
def test_count_ws_tokens_equals_str_split(text):
    count = count_ws_tokens(text)
    assert count == len(text.split())
    assert type(count) is int
