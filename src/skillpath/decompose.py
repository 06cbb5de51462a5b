"""Question decomposition into typed templates.

A question is tokenized, each token is labeled Structural or Entity by a
rule-based tagger, adjacent entity tokens of one type merge into multiword
entities, and the entities become typed bracket slots. The resulting
template regenerates the original question when filled with its own
substitutions, which is the invariant the whole synthesis pipeline leans
on.

A leading article is absorbed into the entity span it precedes: the slot
then stands for "the Eiffel Tower" while the entity text stays article
free. Templates therefore read "Which is [adj], [place 1] or [place 2]?"
rather than keeping a dangling "the" in front of each slot.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import EmptyQuestion, MissingSubstitution, UnknownPlaceholder
from .resources import load_entity_pool
from .textutil import ARTICLES, detokenize, tokenize


class TokenLabel(Enum):
    STRUCTURAL = "structural"
    ENTITY = "entity"


@dataclass(frozen=True)
class Token:
    """One template token. Multiword entities are a single Token.

    article holds a leading article absorbed from the surface text; it is
    empty for structural tokens and for entities with no article.
    """

    text: str
    index: int
    label: TokenLabel
    entity_type: str | None = None
    article: str = ""

    @property
    def surface(self) -> str:
        """The span as it appeared in the question, article included."""
        return f"{self.article} {self.text}" if self.article else self.text


@dataclass(frozen=True)
class Placeholder:
    entity_text: str
    entity_type: str
    ordinal: int
    article: str
    slot: str


@dataclass
class QuestionTemplate:
    original: str
    tokens: list[Token]
    placeholders: list[Placeholder]
    template_text: str

    def original_substitutions(self) -> dict[str, str]:
        """Slot values that regenerate the original question."""
        out: dict[str, str] = {}
        for p in self.placeholders:
            out[p.slot] = f"{p.article} {p.entity_text}" if p.article else p.entity_text
        return out


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
    (label, entity_type) pair per token, entity_type being None exactly for
    structural tokens. It is called from worker threads and keeps no state
    between calls.

    Typing precedence: exact gazetteer phrase match, then capitalized-run
    heuristics (suffix cues for place and organization, month names for
    date, a first-name list for person, object otherwise), then digit and
    comparative-adjective rules. A capitalized run may not start at token
    0, so sentence-initial words are not mistaken for entities; known
    gazetteer phrases still match in that position.
    """

    def __init__(self, pool: dict[str, list[str]] | None = None):
        self.pool = pool if pool is not None else load_entity_pool()
        self._phrases = _phrase_table(
            (name, etype) for etype, names in self.pool.items() for name in names
        )

    def tag(self, tokens: list[str]) -> list[tuple[TokenLabel, str | None]]:
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

        return [
            (TokenLabel.ENTITY, t) if t is not None else (TokenLabel.STRUCTURAL, None)
            for t in types
        ]

    def _type_for_run(self, words: list[str]) -> str:
        if words[-1] in _PLACE_CUES or any(w in _PLACE_CUES for w in words):
            return "place"
        if words[-1] in _ORG_CUES or any(w in _ORG_CUES for w in words):
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


_DEFAULT_TAGGER: RuleBasedTagger | None = None


def default_tagger() -> RuleBasedTagger:
    global _DEFAULT_TAGGER
    if _DEFAULT_TAGGER is None:
        _DEFAULT_TAGGER = RuleBasedTagger()
    return _DEFAULT_TAGGER


def classify_tokens(question: str) -> list[Token]:
    """Tokenize a question and label every token.

    Adjacent entity tokens with the same type merge into one multiword
    Token; an article directly before an entity is absorbed into it. Token
    indices are contiguous from 0 in the returned list.
    """
    if not question or not question.strip():
        raise EmptyQuestion("question is empty")
    words = tokenize(question)
    if not any(any(ch.isalnum() for ch in w) for w in words):
        raise EmptyQuestion("question contains no word tokens")

    pairs = default_tagger().tag(words)

    tokens: list[Token] = []
    i = 0
    while i < len(words):
        label, etype = pairs[i]
        if label is TokenLabel.ENTITY:
            j = i
            while j + 1 < len(words) and pairs[j + 1] == (TokenLabel.ENTITY, etype):
                j += 1
            text = " ".join(words[i : j + 1])
            article = ""
            if tokens and tokens[-1].label is TokenLabel.STRUCTURAL and tokens[-1].text.lower() in ARTICLES:
                article = tokens.pop().text
            tokens.append(Token(text, 0, TokenLabel.ENTITY, etype, article))
            i = j + 1
        else:
            tokens.append(Token(words[i], 0, TokenLabel.STRUCTURAL))
            i += 1

    return [
        Token(t.text, idx, t.label, t.entity_type, t.article)
        for idx, t in enumerate(tokens)
    ]


def build_template(tokens: list[Token]) -> QuestionTemplate:
    """Turn a labeled token list into a typed template.

    Entities become bracket slots named by type; the ordinal is appended
    only when a type occurs more than once, so a lone adjective renders as
    [adj] while two places render as [place 1] and [place 2].
    """
    per_type: dict[str, int] = {}
    for t in tokens:
        if t.label is TokenLabel.ENTITY:
            per_type[t.entity_type] = per_type.get(t.entity_type, 0) + 1

    placeholders: list[Placeholder] = []
    counters: dict[str, int] = {}
    rendered: list[str] = []
    for t in tokens:
        if t.label is TokenLabel.ENTITY:
            ordinal = counters.get(t.entity_type, 0) + 1
            counters[t.entity_type] = ordinal
            if per_type[t.entity_type] > 1:
                slot = f"{t.entity_type} {ordinal}"
            else:
                slot = t.entity_type
            placeholders.append(Placeholder(t.text, t.entity_type, ordinal, t.article, slot))
            rendered.append(f"[{slot}]")
        else:
            rendered.append(t.text)

    original_parts = [t.surface if t.label is TokenLabel.ENTITY else t.text for t in tokens]
    return QuestionTemplate(
        original=detokenize(original_parts),
        tokens=list(tokens),
        placeholders=placeholders,
        template_text=detokenize(rendered),
    )


def render_template(template: QuestionTemplate, substitutions: dict[str, str]) -> str:
    """Fill every slot of a template and return the question text.

    Keys must cover the slots exactly: a missing slot raises
    MissingSubstitution and an extra key raises UnknownPlaceholder. Each
    slot label is substituted once, left to right.
    """
    slots = [p.slot for p in template.placeholders]
    for s in slots:
        if s not in substitutions:
            raise MissingSubstitution(s)
    for key in substitutions:
        if key not in slots:
            raise UnknownPlaceholder(key)
    text = template.template_text
    for p in template.placeholders:
        label = f"[{p.slot}]"
        pos = text.find(label)
        text = text[:pos] + substitutions[p.slot] + text[pos + len(label) :]
    return text


def decompose_question(question: str) -> QuestionTemplate:
    """classify_tokens followed by build_template."""
    return build_template(classify_tokens(question))
