"""Seeded synthetic QA corpus for the benchmark.

Questions are filled from the package's bundled entity pool, so the
default tagger finds their slots and guided fill has something to
rewrite. A fixed share of questions carries no entity at all; those fail
generation with NoCandidates, as questions of a real corpus do, and the
generator reports their ids so the benchmark can tell an expected
failure from a regression.

Gold data is drawn from the documents. The offline mock answers with the
first sentence of the first document, so a fixed share of questions puts
its answer sentence there: exact match and hits then land strictly
between 0 and 1, and every share is an exact count rather than a random
draw, which keeps the quality metrics steady from seed to seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

# share of questions with no entity; each one fails generate and answer
FAIL_SHARE = 0.02
# answer sentence is document 0, sentence 0 and it is the only gold id
FIRST_ONLY_SHARE = 0.20
# answer sentence is document 0, sentence 0 with a supporting sentence elsewhere
FIRST_SUPPORTED_SHARE = 0.10

SOURCES = [
    "atlas", "survey", "census", "journal", "almanac", "diary", "guide",
    "archive", "catalog", "memoir", "study", "record", "gazette", "bulletin",
]
QUESTION_TEMPLATES = [
    "Which is {adj}, {place} or {place}, according to the {source}?",
    "Which is {adj}, {person} or {person}, in the {source}?",
    "When did {person} first visit {place}, according to the {source}?",
    "Who led {organization} in {date}, according to the {source}?",
    "Did {person} use the {object} in {place}, according to the {source}?",
    "How did {organization} use the {object}, according to the {source}?",
    "Was the {object} {adj} than the {object}, according to the {source}?",
]
# entity-free questions: lowercase, no digits, no -er/-est words the tagger reads as adjectives
TOPICS = ["soil", "roads", "canal", "schools", "mills", "harbor", "market", "trade", "climate", "music"]
OPENERS = ["What did the {source} say about the {topic}", "What does the {source} note about the {topic}",
           "How does the {source} describe the {topic}"]

NOUNS = ["archive", "bridge", "harbor", "market", "library", "garden", "station", "factory",
         "museum", "school", "canal", "mill", "workshop", "observatory", "chapel", "granary"]
VERBS = ["restored", "funded", "described", "mapped", "visited", "studied", "recorded", "built",
         "moved", "praised", "opened", "closed", "expanded", "measured", "photographed", "sketched"]
ADJECTIVES = ["old", "small", "busy", "quiet", "famous", "modern", "royal", "public", "coastal",
              "northern", "wooden", "narrow", "ancient", "crowded"]
SENTENCE_TEMPLATES = [
    "{person} {verb} the {adjective} {noun} in {place} in {year}.",
    "The {adjective} {noun} near {place} was {verb} by {organization}.",
    "In {year}, {organization} {verb} a {noun} for the {object}.",
    "{person} kept a {object} at the {adjective} {noun} in {place}.",
    "The {noun} of {place} held {number} copies of the {source}.",
    "{organization} {verb} the {noun} where {person} first saw the {object}.",
]


@dataclass(frozen=True)
class Shape:
    questions: int
    docs: tuple[int, int]
    sentences: tuple[int, int]


@dataclass
class Corpus:
    rows: list[dict]
    expected_failures: list[str]

    @property
    def sentences_per_question(self) -> float:
        return sum(sum(len(d) for d in row["_sentences"]) for row in self.rows) / len(self.rows)

    def write(self, path: str, rows: list[dict] | None = None) -> None:
        """The corpus file the program reads: all rows, or the given ones."""
        with open(path, "w", encoding="utf-8") as fh:
            for row in self.rows if rows is None else rows:
                doc = {k: v for k, v in row.items() if not k.startswith("_")}
                fh.write(json.dumps(doc, sort_keys=True) + "\n")


def _balanced(rng: random.Random, values: list, n: int) -> list:
    """n values cycling through `values`, shuffled: counts differ by at most one."""
    out = [values[i % len(values)] for i in range(n)]
    rng.shuffle(out)
    return out


def _fill(rng: random.Random, template: str, pool: dict[str, list[str]], extra: dict[str, list]) -> tuple[str, str]:
    """Fill each {slot} independently, distinct values for repeated slots.

    Returns the text and the first pool entity used, a short gold answer.
    """
    used: dict[str, set] = {}
    first_entity = ""
    parts = template.split("{")
    out = [parts[0]]
    for part in parts[1:]:
        slot, _, rest = part.partition("}")
        if slot in pool:
            options = [e for e in pool[slot] if e not in used.get(slot, set())]
            value = rng.choice(options)
            used.setdefault(slot, set()).add(value)
            first_entity = first_entity or value
        else:
            value = str(rng.choice(extra[slot]))
        out.append(value + rest)
    return "".join(out), first_entity


def generate(seed: int, shape: Shape, pool: dict[str, list[str]]) -> Corpus:
    """A deterministic corpus: the same seed and shape give the same rows."""
    rng = random.Random(seed)
    n = shape.questions
    n_fail = max(1, round(n * FAIL_SHARE))
    n_first = round(n * FIRST_ONLY_SHARE)
    n_supported = round(n * FIRST_SUPPORTED_SHARE)
    kinds = ["fail"] * n_fail + ["first"] * n_first + ["supported"] * n_supported
    # answer elsewhere, half of them with a supporting sentence
    n_rest = n - len(kinds)
    kinds += ["elsewhere"] * (n_rest - n_rest // 2) + ["elsewhere-supported"] * (n_rest // 2)
    rng.shuffle(kinds)
    templates = iter(_balanced(rng, QUESTION_TEMPLATES, n - n_fail))
    doc_counts = _balanced(rng, list(range(shape.docs[0], shape.docs[1] + 1)), n)
    sentence_counts = iter(_balanced(rng, list(range(shape.sentences[0], shape.sentences[1] + 1)),
                                     sum(doc_counts)))
    sentence_words = {
        "noun": NOUNS, "verb": VERBS, "adjective": ADJECTIVES, "source": SOURCES,
        "year": list(range(1850, 1990)), "number": list(range(2, 90)),
    }
    doc_entities = {k: pool[k] for k in ("person", "place", "organization", "object")}

    rows: list[dict] = []
    seen_questions: set[str] = set()
    failures: list[str] = []
    for i in range(n):
        qid = f"q{i:05d}"
        kind = kinds[i]
        template = None if kind == "fail" else next(templates)
        while True:
            if kind == "fail":
                opener = rng.choice(OPENERS).format(source=rng.choice(SOURCES), topic=rng.choice(TOPICS))
                question = f"{opener} and the {rng.choice(TOPICS)}?"
            else:
                question, _ = _fill(rng, template, pool, {"source": SOURCES})
            if question not in seen_questions:
                seen_questions.add(question)
                break
        if kind == "fail":
            failures.append(qid)

        # (template index, text, first entity) per sentence, per document
        sentences = []
        for _ in range(doc_counts[i]):
            doc = []
            for _ in range(next(sentence_counts)):
                t = rng.randrange(len(SENTENCE_TEMPLATES))
                doc.append((t, *_fill(rng, SENTENCE_TEMPLATES[t], doc_entities, sentence_words)))
            sentences.append(doc)
        if not kind.startswith("elsewhere"):
            answer_at = (0, 0)
        else:
            # another template than the mock's answer: its ROUGE-L against the
            # answer then varies little, and so does the corpus mean
            while True:
                d = rng.randrange(len(sentences))
                s = rng.randrange(len(sentences[d]))
                if sentences[d][s][0] != sentences[0][0][0]:
                    answer_at = (d, s)
                    break
        gold_ids = {answer_at}
        if kind.endswith("supported"):
            while len(gold_ids) < 2:
                d = rng.randrange(len(sentences))
                gold_ids.add((d, rng.randrange(len(sentences[d]))))
        _, answer_sentence, answer_entity = sentences[answer_at[0]][answer_at[1]]
        texts = [[text for _, text, _ in doc] for doc in sentences]
        rows.append({
            "question_id": qid,
            "question": question,
            "documents": [" ".join(doc) for doc in texts],
            "gold_answers": [answer_sentence, answer_entity],
            "gold_sentence_ids": [list(p) for p in sorted(gold_ids)],
            "_sentences": texts,
        })
    return Corpus(rows=rows, expected_failures=failures)
