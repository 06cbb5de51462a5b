"""Evaluation metrics: overlap scores, retrieval rates, token accounting.

The error rate follows the printed formula literally: its numerator counts
records whose prediction set is not a subset of gold, and its denominator
sums the superset indicator plus the not-a-subset indicator, so one
record can feed the numerator once and the denominator twice. When that
denominator sums to zero the rate is undefined, reported as None and
never as 0.
"""

from __future__ import annotations

import re
from collections.abc import Sequence, Set
from typing import NamedTuple

from .errors import ZeroDenominator
from .providers import TokenUsage
from .resources import load_repair_cues
from .textutil import ANSWER_SPAN, norm_tokens, normalize_answer, sentence_token_sets

CITATION_CONTAINMENT = 0.8

SentenceId = tuple[int, int]


class EvalRecord(NamedTuple):
    """One scored response joined with its gold data."""

    question_id: str
    prediction: str
    gold_answers: Sequence[str]
    cited_sentences: Set[SentenceId] | None = None
    gold_sentences: Set[SentenceId] | None = None
    chain_text: str = ""
    usage: TokenUsage | None = None
    latency_ms: float = 0.0


class EvalReport(NamedTuple):
    rouge_l_mean: float
    em_mean: float
    hits: float | None
    error: float | None
    retrace_rate: float
    token_mean: float
    time_mean_ms: float
    n: int

    def to_record(self) -> dict:
        return self._asdict()


def _lcs_length(a: list[str], b: list[str]) -> int:
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for i in range(1, len(a) + 1):
        cur = [0] * (len(b) + 1)
        ai = a[i - 1]
        for j in range(1, len(b) + 1):
            if ai == b[j - 1]:
                cur[j] = prev[j - 1] + 1
            else:
                cur[j] = cur[j - 1] if cur[j - 1] >= prev[j] else prev[j]
        prev = cur
    return prev[len(b)]


def rouge_l(candidate: str, reference: str) -> float:
    """LCS F-measure with beta 1 over lowercased, punctuation-free tokens."""
    ref_tokens = norm_tokens(reference)
    if not ref_tokens:
        raise ValueError("reference has no word tokens")
    cand_tokens = norm_tokens(candidate)
    if not cand_tokens:
        return 0.0
    lcs = _lcs_length(cand_tokens, ref_tokens)
    if lcs == 0:
        return 0.0
    precision = lcs / len(cand_tokens)
    recall = lcs / len(ref_tokens)
    return 2 * precision * recall / (precision + recall)


def exact_match(prediction: str, gold_answers: list[str]) -> int:
    """1 iff the normalized prediction equals any normalized gold answer."""
    if not gold_answers:
        raise ValueError("gold_answers must be non-empty")
    pred = normalize_answer(prediction)
    return int(any(pred == normalize_answer(g) for g in gold_answers))


class HitsError(NamedTuple):
    hits: float
    error: float | None


def hits_and_error(records: list[EvalRecord], *, strict: bool = False) -> HitsError:
    """Hits and the error rate over records with gold sentence sets.

    Hits is the fraction of records whose cited set contains every gold
    sentence; the error rate is the literal printed form. An undefined
    rate comes back as error=None, or raises ZeroDenominator (still
    carrying hits) when strict is set.
    """
    if not records:
        raise ValueError("no records")
    for r in records:
        if r.gold_sentences is None:
            raise ValueError(f"record {r.question_id!r} has no gold_sentences")

    n = len(records)
    hit_count = 0
    not_subset_count = 0
    for r in records:
        cited = r.cited_sentences or set()
        gold = r.gold_sentences or set()
        if cited >= gold:
            hit_count += 1
        if not cited <= gold:
            not_subset_count += 1

    hits = hit_count / n
    denominator = hit_count + not_subset_count
    if denominator == 0:
        if strict:
            raise ZeroDenominator(hits)
        return HitsError(hits=hits, error=None)
    return HitsError(hits=hits, error=not_subset_count / denominator)


_ANSWER_MARKER = re.compile(r"<answer\b", re.IGNORECASE)
# prose statements like "the answer is X" or "final answer: X"
_ANSWER_STATEMENT = re.compile(
    r"(?:final\s+answer\s*:?|answer\s+is\s*:?)\s*(.+?)(?=[.?!\n…]|$)",
    re.IGNORECASE,
)


def _answer_assertions(text: str) -> list[tuple[int, str]]:
    """Positions and contents of every stated answer, marked or in prose."""
    spans = [(m.start(), m.end(), m.group(1).strip()) for m in ANSWER_SPAN.finditer(text)]
    found = [(start, answer) for start, _, answer in spans]
    for m in _ANSWER_STATEMENT.finditer(text):
        if not any(start <= m.start() < end for start, end, _ in spans):
            found.append((m.start(), m.group(1).strip()))
    found.sort(key=lambda pair: pair[0])
    return found


def detect_retrace(chain_text: str, cues: list[str] | None = None) -> bool:
    """True when the output revises its own answer.

    Fires on more than one <answer> marker, or on a repair cue with a
    stated answer before it and a different stated answer after it.
    Cues and stated answers are both found in the casefolded text, so
    their positions compare even where casefolding changes the length
    ("ß" becomes "ss").
    """
    if len(_ANSWER_MARKER.findall(chain_text)) > 1:
        return True
    cues = cues if cues is not None else load_repair_cues()
    folded = chain_text.casefold()
    assertions = _answer_assertions(folded)
    if len(assertions) < 2:
        return False
    for cue in cues:
        for m in re.finditer(r"\b" + re.escape(cue.casefold()) + r"\b", folded):
            before = [a for a in assertions if a[0] < m.start()]
            after = [a for a in assertions if a[0] >= m.end()]
            if not before or not after:
                continue
            if normalize_answer(before[-1][1]) != normalize_answer(after[0][1]):
                return True
    return False


def retrace_rate(records: list[EvalRecord], cues: list[str] | None = None) -> float:
    """Fraction of records whose chain text shows a retrace."""
    if not records:
        raise ValueError("no records")
    flags = [detect_retrace(r.chain_text, cues) for r in records]
    return sum(flags) / len(flags)


class TokenStats(NamedTuple):
    token_mean: float
    time_mean_ms: float

    def reduction_vs(self, baseline_mean: float) -> float:
        """(baseline - mean) / baseline, the relative token saving."""
        if baseline_mean == 0:
            raise ValueError("baseline mean must be non-zero")
        return (baseline_mean - self.token_mean) / baseline_mean


def token_stats(records: list[EvalRecord]) -> TokenStats:
    """Mean total tokens and mean latency across records."""
    if not records:
        raise ValueError("no records")
    for r in records:
        if r.usage is None:
            raise ValueError(f"record {r.question_id!r} carries no usage")
    n = len(records)
    return TokenStats(
        token_mean=sum(r.usage.total_tokens for r in records) / n,
        time_mean_ms=sum(r.latency_ms for r in records) / n,
    )


def attribute_citations(chain_text: str, documents: list[str]) -> set[SentenceId]:
    """Which document sentences the chain text cites.

    A model sentence cites document sentence (d, j) when it contains at
    least CITATION_CONTAINMENT of that sentence's distinct normalized tokens.
    """
    model_token_sets = sentence_token_sets(chain_text)
    cited: set[SentenceId] = set()
    for d, doc in enumerate(documents):
        for j, doc_tokens in enumerate(sentence_token_sets(doc)):
            if not doc_tokens:
                continue
            needed = CITATION_CONTAINMENT * len(doc_tokens)
            for mt in model_token_sets:
                if len(doc_tokens & mt) >= needed:
                    cited.add((d, j))
                    break
    return cited


def evaluate_records(
    records: list[EvalRecord], cues: list[str] | None = None
) -> tuple[EvalReport, list[dict]]:
    """Aggregate every metric over a record batch into one report.

    Returns the report and the per-record rows it averages, so each
    record is scored once. Hits and error cover only the records that
    carry gold sentence sets; with no such records both come back None.
    """
    if not records:
        raise ValueError("no records")
    rows = per_record_rows(records, cues)
    annotated = [r for r in records if r.gold_sentences is not None]
    if annotated:
        he = hits_and_error(annotated)
        hits, error = he.hits, he.error
    else:
        hits, error = None, None
    stats = token_stats(records)
    n = len(records)
    report = EvalReport(
        rouge_l_mean=sum(row["rouge_l"] for row in rows) / n,
        em_mean=sum(row["em"] for row in rows) / n,
        hits=hits,
        error=error,
        retrace_rate=sum(row["retrace"] for row in rows) / n,
        token_mean=stats.token_mean,
        time_mean_ms=stats.time_mean_ms,
        n=n,
    )
    return report, rows


def per_record_rows(records: list[EvalRecord], cues: list[str] | None = None) -> list[dict]:
    """Per-record metric rows; the best gold answer wins ROUGE-L and EM."""
    rows = []
    for r in records:
        cited = sorted(r.cited_sentences) if r.cited_sentences is not None else None
        gold = sorted(r.gold_sentences) if r.gold_sentences is not None else None
        hit = None
        if r.gold_sentences is not None:
            hit = int((r.cited_sentences or set()) >= r.gold_sentences)
        rows.append(
            {
                "question_id": r.question_id,
                "rouge_l": max(rouge_l(r.prediction, g) for g in r.gold_answers),
                "em": exact_match(r.prediction, r.gold_answers),
                "retrace": int(detect_retrace(r.chain_text, cues)),
                "hit": hit,
                "cited": cited,
                "gold": gold,
                "tokens": r.usage.total_tokens if r.usage else None,
                "latency_ms": r.latency_ms,
            }
        )
    return rows
