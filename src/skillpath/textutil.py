"""Shared text helpers: tokenization, sentence splitting, normalization.

Sentence splitting lives here on purpose. The answerer checks extraction
replies against document sentences, the corpus loader bounds-checks gold
sentence ids, and the evaluator attributes citations; all three must see
the same sentence boundaries or the ids stop lining up.

Where documents are split:

- at corpus validation, to bounds-check gold sentence ids: only the
  documents those ids reference are split, each once;
- in the answerer, only the lines that hold an extraction reply's
  sentences: Passage.of casefolds a question's joined documents once, and
  Passage.sentence finds a sentence key in that casefold and splits the
  line it lands on, each line at most once per question. A text holding
  a run of spaces or whitespace other than " " and "\n" has each line of
  its casefold whitespace-normalized too, so that its sentence keys occur
  in it;
- once per record at citation attribution, through sentence_token_sets,
  which tokenizes all of a document's sentences in one pass.

split_sentences and sentence_token_sets each make a few C-level passes
over the whole text (one regex substitution per terminator, one byte
table) rather than a Python call per line or per sentence; hypothesis
tests hold their outputs to the older per-sentence kernels.

The split is not kept for the whole corpus. Holding every record's
sentences from load to exit raised the peak memory of a long-document
run by about 6 %, while each consumer needs the split of only the
question it is working on.
"""

from __future__ import annotations

import re
from typing import NamedTuple

# punctuation detached into standalone tokens at word edges
_PUNCT = set(",.?!;:\"()[]{}")

_LINE = re.compile(r"[^\n]+")
# A sentence ends at ., ? or ! plus any closing quotes or brackets, where
# whitespace follows before a capital or digit. _GAP is the part after the
# terminator. Its whitespace excludes "\n", so a boundary never spans a
# line break and every cut stays inside one line, as newline breaks already
# separate sentences. split_sentences uses one pattern per terminator, each
# starting with that literal: CPython's re finds a leading literal with a
# fast search but tests every character against a leading class, so three
# literal scans of a text beat one [.?!] scan. first_sentence searches a
# line at a time and stops at its first boundary, so it keeps the class.
_GAP = r"[\)\"\']*[^\S\n]+(?=[\"\'(]?[A-Z0-9])"
_TERMINATOR_GAPS = tuple((re.compile(re.escape(t) + _GAP), t + "\n") for t in ".?!")
_SENT_BOUNDARY = re.compile(r"[.?!]" + _GAP)
# byte tables: ASCII 0-9 and a-z kept, every other byte a space; the
# second also keeps "\n", which separates sentences in sentence_token_sets
_NON_WORD = bytes(c if 48 <= c <= 57 or 97 <= c <= 122 else 32 for c in range(256))
_NON_WORD_BUT_NL = _NON_WORD[:10] + b"\n" + _NON_WORD[11:]
# every character str.isspace accepts except " " and "\n", written out: a
# scan of every code point at import would cost each command about 0.1 s
_IRREGULAR_WS = (
    "\t", "\x0b", "\x0c", "\r", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0", "\u1680",
    "\u2000", "\u2001", "\u2002", "\u2003", "\u2004", "\u2005", "\u2006", "\u2007", "\u2008",
    "\u2009", "\u200a", "\u2028", "\u2029", "\u202f", "\u205f", "\u3000",
)

# every ASCII byte str.split treats as whitespace a space, every other byte an "x"
_WS_MARKS = bytes(32 if c in b" \t\n\x0b\x0c\r\x1c\x1d\x1e\x1f" else 120 for c in range(256))

ARTICLES = ("a", "an", "the")

# the final answer a completion marks up, <answer>...</answer>
ANSWER_SPAN = re.compile(r"<answer>(.*?)</answer>", re.DOTALL | re.IGNORECASE)


def tokenize(text: str) -> list[str]:
    """Split text on whitespace, detaching edge punctuation as its own tokens.

    Internal apostrophes and hyphens stay inside the word, so "don't" and
    "well-known" are single tokens while "Paris," becomes ["Paris", ","].
    """
    tokens: list[str] = []
    for chunk in text.split():
        lead: list[str] = []
        tail: list[str] = []
        while chunk and chunk[0] in _PUNCT:
            lead.append(chunk[0])
            chunk = chunk[1:]
        while chunk and chunk[-1] in _PUNCT:
            tail.append(chunk[-1])
            chunk = chunk[:-1]
        tokens.extend(lead)
        if chunk:
            tokens.append(chunk)
        tokens.extend(reversed(tail))
    return tokens


def detokenize(tokens: list[str]) -> str:
    """Join tokens back into text with conventional punctuation spacing."""
    out: list[str] = []
    for tok in tokens:
        if out and tok in {",", ".", "?", "!", ";", ":", ")", "]", "}"}:
            out[-1] = out[-1] + tok
        elif out and out[-1] and out[-1][-1] in "([{":
            out[-1] = out[-1] + tok
        else:
            out.append(tok)
    return " ".join(out)


def split_sentences(text: str) -> list[str]:
    """Split text into sentences with a deterministic rule-based boundary.

    Blank-line and newline breaks always separate sentences; within a line a
    sentence ends at ., ? or ! followed by whitespace and a capital or digit.
    Each terminator's boundaries become line breaks in one C-level pass, then
    the text splits at every line break.
    """
    for boundary, cut in _TERMINATOR_GAPS:
        text = boundary.sub(cut, text)
    return [s for s in map(str.strip, text.split("\n")) if s]


def first_sentence(text: str) -> str | None:
    """split_sentences(text)[0] without splitting the rest; None if text has none."""
    for line in _LINE.finditer(text):
        boundary = _SENT_BOUNDARY.search(text, line.start(), line.end())
        part = text[line.start() : boundary.start() + 1 if boundary else line.end()].strip()
        if part:
            return part
    return None


def norm_tokens(text: str) -> list[str]:
    """Lowercase word tokens for overlap metrics.

    A word is a run of ASCII [a-z0-9] after str.lower(); any other
    character separates words. UTF-8 encodes every non-ASCII character as
    bytes of 0x80 and above only, so one byte-table pass over the encoded
    text finds the same words; surrogatepass keeps lone surrogates, which
    JSON input can carry, as separators.
    """
    return text.lower().encode("utf-8", "surrogatepass").translate(_NON_WORD).decode("ascii").split()


def sentence_token_sets(text: str) -> list[set[str]]:
    """[set(norm_tokens(s)) for s in split_sentences(text)], in one pass.

    The sentences are joined with line feeds and tokenized together by a
    byte table that keeps the line feed. That finds the same words as
    norm_tokens per sentence: no sentence holds a line feed, str.lower()
    makes none and maps each character alone (the final-sigma rule aside,
    whose results are non-ASCII either way), and UTF-8 encodes no
    non-ASCII character as an ASCII byte.
    """
    sentences = split_sentences(text)
    if not sentences:
        return []
    joined = "\n".join(sentences).lower().encode("utf-8", "surrogatepass")
    return [set(part.split()) for part in joined.translate(_NON_WORD_BUT_NL).decode("ascii").split("\n")]


def normalize_ws(text: str) -> str:
    """Whitespace runs collapsed to one space, ends trimmed."""
    return " ".join(text.split())


def _fold_lines(text: str) -> str:
    """text casefolded, each line whitespace-normalized if any holds irregular whitespace.

    Irregular whitespace is a run of spaces or any whitespace other than
    " " and "\n". Without it a stripped line's casefold is already its
    sentence_key, so a text of stripped sentences joined by line feeds
    folds to their keys joined by line feeds.
    """
    folded = text.casefold()
    if "  " in folded or any(c in folded for c in _IRREGULAR_WS):
        return "\n".join(map(normalize_ws, folded.split("\n")))
    return folded


def sentence_key(text: str) -> str:
    """Casefolded, whitespace-collapsed form used for sentence matching."""
    return normalize_ws(text.casefold())


class Passage(NamedTuple):
    """A document, and what finds its sentences by sentence_key.

    folded is _fold_lines(text) and lines are the text's lines.
    sentence() splits only the lines its key occurs in, each at most once,
    keeping each such line's sentences in split by line number, keyed by
    sentence_key, the last one winning among sentences of a line sharing
    a key.
    """

    text: str
    folded: str
    lines: list[str]
    split: dict[int, dict[str, str]]

    @classmethod
    def of(cls, text: str) -> Passage:
        """The passage of text, casefolded once, splitting nothing."""
        return cls(text, _fold_lines(text), text.split("\n"), {})

    def sentence(self, key: str) -> str | None:
        """The last sentence whose sentence_key is key; None if no sentence has it.

        A sentence never crosses a line feed, and casefold maps each
        character alone, never making or dropping whitespace. A stripped
        sentence is a piece of its line that starts and ends with a
        non-space, so each whitespace run inside it is a whole run of the
        line, and its key occurs inside its own line of folded. The search
        starts at the last occurrence and moves to earlier lines while the
        line it lands on holds no sentence keyed key, scanning the text
        once in all.
        """
        folded = self.folded
        at = folded.rfind(key)
        if at < 0:
            return None
        line = folded.count("\n", 0, at)
        while True:
            keyed = self.split.get(line)
            if keyed is None:
                sentences = split_sentences(self.lines[line])
                keys = _fold_lines("\n".join(sentences)).split("\n")
                keyed = self.split[line] = dict(zip(keys, sentences))
            if key in keyed:
                return keyed[key]
            end = folded.rfind("\n", 0, at)  # the line feed that ends the line before
            if end < 0:
                return None
            at = folded.rfind(key, 0, end)
            if at < 0:
                return None
            line -= 1 + folded.count("\n", at, end)


def squeeze_punct(text: str) -> str:
    """Whitespace-insensitive canonical form for round-trip comparison.

    Collapses whitespace and deletes spaces adjacent to punctuation so that
    detokenizer output compares equal to the original surface string.
    """
    text = normalize_ws(text)
    text = re.sub(r"\s*([,.?!;:)\]}])", r"\1", text)
    text = re.sub(r"([(\[{])\s*", r"\1", text)
    text = re.sub(r"\s*\"\s*", '"', text)
    return text


def texts_match(a: str, b: str) -> bool:
    """True when two strings are equal up to whitespace around punctuation."""
    return squeeze_punct(a) == squeeze_punct(b)


def normalize_answer(text: str) -> str:
    """Normalization applied to both sides of an exact-match comparison.

    Lowercases, trims, strips terminal punctuation, drops article tokens
    and collapses whitespace runs.
    """
    t = text.strip().lower()
    t = t.rstrip(".?!,;:")
    words = [w for w in t.split() if w not in ARTICLES]
    return " ".join(words)


def count_ws_tokens(text: str) -> int:
    """Whitespace token count, len(text.split()): the accounting rule for mock completions.

    An ASCII text is translated through _WS_MARKS and its word starts
    counted, each "x" that begins the text or follows a space: a few
    C-level passes, without a string per word. _WS_MARKS maps to a space
    the ten bytes str.split splits at, "\\x1c"-"\\x1f" among them, which
    bytes.split would miss. A text that is not ASCII keeps str.split, the
    only rule that knows every Unicode space.
    """
    if not text.isascii():
        return len(text.split())
    marks = text.encode("ascii").translate(_WS_MARKS)
    return marks.count(b" x") + (marks[:1] == b"x")
