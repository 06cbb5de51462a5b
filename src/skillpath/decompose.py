"""Question decomposition into typed templates.

A question is tokenized, a rule-based tagger gives each token an entity
type or None for a structural token, adjacent entity tokens of one type
merge into multiword entities, and the entities become typed bracket
slots. The resulting template regenerates the original question when
filled with its own substitutions, which is the invariant the whole
synthesis pipeline leans on.

A leading article is absorbed into the entity span it precedes: the slot
then stands for "the Eiffel Tower" while the entity text stays article
free. Templates therefore read "Which is [adj], [place 1] or [place 2]?"
rather than keeping a dangling "the" in front of each slot.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .errors import EmptyQuestion
from .resources import load_entity_pool
from .textutil import ARTICLES, detokenize, tokenize


class Token(NamedTuple):
    """One template token. Multiword entities are a single Token.

    entity_type is None exactly for structural tokens. article holds a
    leading article absorbed from the surface text; it is empty for
    structural tokens and for entities with no article.
    """

    text: str
    entity_type: str | None = None
    article: str = ""

    @property
    def surface(self) -> str:
        """The span as it appeared in the question, article included."""
        return f"{self.article} {self.text}" if self.article else self.text


class Placeholder(NamedTuple):
    entity_text: str
    entity_type: str
    article: str
    slot: str

    def spell(self, value: str) -> str:
        """value as this slot's fill: after the slot's article, if it has one."""
        return f"{self.article} {value}" if self.article else value


class QuestionTemplate(NamedTuple):
    original: str
    placeholders: list[Placeholder]
    template_text: str

    def original_substitutions(self) -> dict[str, str]:
        """Slot values that regenerate the original question."""
        return {p.slot: p.spell(p.entity_text) for p in self.placeholders}


# suffix cue words for typing capitalized spans the gazetteer does not know
_PLACE_CUES = {
    "tower", "building", "bridge", "river", "lake", "mount", "mountain",
    "desert", "wall", "city", "park", "square", "palace", "museum",
    "cathedral", "island", "castle", "street", "avenue", "canyon", "falls",
}
_ORG_CUES = {
    "university", "corporation", "organization", "institute", "company",
    "agency", "committee", "council", "nations", "cross", "society",
    "foundation", "association",
}
_MONTHS = {
    "january", "february", "march", "april", "may", "june", "july",
    "august", "september", "october", "november", "december",
}
_FIRST_NAMES = {
    "marie", "isaac", "ada", "alexander", "john", "albert", "grace",
    "leonardo", "charles", "rosalind", "mary", "james", "emma", "william",
    "elizabeth", "thomas", "margaret", "george", "jane", "robert",
}
# frequent -er/-est words that are not comparatives
_NOT_COMPARATIVE = {
    "other", "another", "whether", "either", "neither", "rather", "never",
    "ever", "over", "under", "after", "number", "order", "matter", "water",
    "paper", "summer", "winter", "river", "super", "corner", "together",
    "answer", "offer", "remember", "consider", "per", "her", "best",
    "west", "east", "rest", "test", "first", "latest", "earliest",
}
_STOP_CAPS = {"I"}


def _is_year(token: str) -> bool:
    return token.isdigit() and len(token) == 4 and 1200 <= int(token) <= 2199


def _is_capitalized(token: str) -> bool:
    return bool(token) and token[0].isupper() and any(c.isalpha() for c in token)


# first casefolded token -> [(rank, phrase tokens, type)]; rank 0 is the longest phrase
_PhraseIndex = dict[str, list[tuple[int, list[str], str]]]


def _phrase_table(pairs) -> _PhraseIndex:
    """Index (phrase, type) pairs by first casefolded token, ranked longest first.

    Phrases of equal length keep their input order, so a phrase listed
    under two types keeps the first type.
    """
    table = [([p.casefold() for p in tokenize(phrase)], etype) for phrase, etype in pairs]
    ranked = sorted((row for row in table if row[0]), key=lambda row: len(row[0]), reverse=True)
    index: _PhraseIndex = {}
    for rank, (parts, etype) in enumerate(ranked):
        index.setdefault(parts[0], []).append((rank, parts, etype))
    return index


def _scan_phrases(index: _PhraseIndex, folded: list[str], types: list[str | None]) -> None:
    """Type every untyped token run that spells a phrase, longest phrase first.

    Matching windows are applied by (phrase rank, start), the order of a
    scan of every phrase over every position; a window is typed only when
    none of its tokens already is.
    """
    hits = []
    for start, word in enumerate(folded):
        for rank, parts, etype in index.get(word, ()):
            if folded[start : start + len(parts)] == parts:
                hits.append((rank, start, len(parts), etype))
    hits.sort()
    for _, start, width, etype in hits:
        if all(t is None for t in types[start : start + width]):
            types[start : start + width] = [etype] * width


class RuleBasedTagger:
    """Deterministic tagger built on a gazetteer plus heuristics.

    tag() receives the token sequence of one question and returns one
    entity type per token, None for a structural token. It is called from
    worker threads and keeps no state between calls.

    Typing precedence: exact gazetteer phrase match, then capitalized-run
    heuristics (suffix cues for place and organization, month names for
    date, a first-name list for person, object otherwise), then digit and
    comparative-adjective rules. A capitalized run may not start at token
    0, so sentence-initial words are not mistaken for entities; known
    gazetteer phrases still match in that position.
    """

    def __init__(self):
        self._phrases = _phrase_table(
            (name, etype) for etype, names in load_entity_pool().items() for name in names
        )

    def tag(self, tokens: list[str]) -> list[str | None]:
        n = len(tokens)
        types: list[str | None] = [None] * n
        folded = [t.casefold() for t in tokens]

        # pass 1: gazetteer phrases, longest first
        _scan_phrases(self._phrases, folded, types)

        # pass 2: capitalized runs not anchored at token 0
        i = 1
        while i < n:
            if types[i] is None and _is_capitalized(tokens[i]) and tokens[i] not in _STOP_CAPS:
                j = i
                while j + 1 < n and types[j + 1] is None and (
                    _is_capitalized(tokens[j + 1])
                    or (
                        folded[j + 1] in {"of", "the"}
                        and j + 2 < n
                        and types[j + 2] is None
                        and _is_capitalized(tokens[j + 2])
                    )
                ):
                    j += 1
                etype = self._type_for_run(folded[i : j + 1])
                for k in range(i, j + 1):
                    types[k] = etype
                i = j + 1
            else:
                i += 1

        # pass 3: single-token rules
        for i, tok in enumerate(tokens):
            if types[i] is not None:
                continue
            if tok.isdigit():
                types[i] = "date" if _is_year(tok) else "number"
            elif self._is_comparative(folded[i]):
                types[i] = "adj"

        return types

    def _type_for_run(self, words: list[str]) -> str:
        if any(w in _PLACE_CUES for w in words):
            return "place"
        if any(w in _ORG_CUES for w in words):
            return "organization"
        if all(w in _MONTHS or w.isdigit() for w in words):
            return "date"
        if words[0] in _FIRST_NAMES:
            return "person"
        return "object"

    @staticmethod
    def _is_comparative(word: str) -> bool:
        if not word.isalpha() or len(word) < 5 or word in _NOT_COMPARATIVE:
            return False
        return word.endswith("er") or word.endswith("est")


@lru_cache(maxsize=None)
def default_tagger() -> RuleBasedTagger:
    return RuleBasedTagger()


def classify_tokens(question: str) -> list[Token]:
    """Tokenize a question and type every token.

    Adjacent entity tokens with the same type merge into one multiword
    Token; an article directly before an entity is absorbed into it.
    """
    if not question or not question.strip():
        raise EmptyQuestion("question is empty")
    words = tokenize(question)
    if not any(any(ch.isalnum() for ch in w) for w in words):
        raise EmptyQuestion("question contains no word tokens")

    types = default_tagger().tag(words)

    tokens: list[Token] = []
    i = 0
    while i < len(words):
        etype = types[i]
        if etype is not None:
            j = i
            while j + 1 < len(words) and types[j + 1] == etype:
                j += 1
            text = " ".join(words[i : j + 1])
            article = ""
            if tokens and tokens[-1].entity_type is None and tokens[-1].text.lower() in ARTICLES:
                article = tokens.pop().text
            tokens.append(Token(text, etype, article))
            i = j + 1
        else:
            tokens.append(Token(words[i]))
            i += 1

    return tokens


def build_template(tokens: list[Token]) -> QuestionTemplate:
    """Turn a typed token list into a template.

    Entities become bracket slots named by type; the ordinal is appended
    only when a type occurs more than once, so a lone adjective renders as
    [adj] while two places render as [place 1] and [place 2].
    """
    per_type: dict[str, int] = {}
    for t in tokens:
        if t.entity_type is not None:
            per_type[t.entity_type] = per_type.get(t.entity_type, 0) + 1

    placeholders: list[Placeholder] = []
    counters: dict[str, int] = {}
    rendered: list[str] = []
    for t in tokens:
        if t.entity_type is not None:
            ordinal = counters.get(t.entity_type, 0) + 1
            counters[t.entity_type] = ordinal
            if per_type[t.entity_type] > 1:
                slot = f"{t.entity_type} {ordinal}"
            else:
                slot = t.entity_type
            placeholders.append(Placeholder(t.text, t.entity_type, t.article, slot))
            rendered.append(f"[{slot}]")
        else:
            rendered.append(t.text)

    original_parts = [t.surface for t in tokens]
    return QuestionTemplate(
        original=detokenize(original_parts),
        placeholders=placeholders,
        template_text=detokenize(rendered),
    )


def render_template(template: QuestionTemplate, substitutions: dict[str, str]) -> str:
    """Fill every slot of a template and return the question text.

    Keys must cover the slots exactly: a missing slot or an extra key
    raises ValueError. Each slot label is substituted once, left to right,
    at its place in template_text; a filled value is never searched again,
    so a value that holds another slot's label stays as written.
    """
    slots = [p.slot for p in template.placeholders]
    for s in slots:
        if s not in substitutions:
            raise ValueError(f"no substitution provided for slot {s!r}")
    for key in substitutions:
        if key not in slots:
            raise ValueError(f"substitution key {key!r} matches no template slot")
    template_text = template.template_text
    parts: list[str] = []
    end = 0
    for p in template.placeholders:
        label = f"[{p.slot}]"
        pos = template_text.find(label, end)
        parts += (template_text[end:pos], substitutions[p.slot])
        end = pos + len(label)
    parts.append(template_text[end:])
    return "".join(parts)


def decompose_question(question: str) -> QuestionTemplate:
    """classify_tokens followed by build_template."""
    return build_template(classify_tokens(question))
