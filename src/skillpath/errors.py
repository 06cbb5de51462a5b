"""Exception types for the failures that input can cause.

Each SkillPathError subclass names one failure that a question, a reply,
a file or a setting can bring about; the CLI prints a question's error as
raised and fails that question only, or exits 2. A prompt template is an
input file, so a fault in one is a StorageError naming the file. A call
that breaks a caller contract (fills that do not match a question
template's slots, parallel sequences of different lengths, aggregating
over no records) raises ValueError instead, as it is a bug. Provider
transport problems, replay misses and unparseable replies share the
ProviderError base because they all mean "the completion backend did not
give us a usable reply"; one a backend raises for a request names the
request's stage tag.
"""

from __future__ import annotations


class SkillPathError(Exception):
    """Base class for the failures that input can cause."""


class UnknownSkill(SkillPathError):
    """A skill label could not be mapped to the taxonomy."""

    def __init__(self, label: str):
        super().__init__(f"unknown reasoning skill label: {label!r}")


class EmptyQuestion(SkillPathError):
    """The question is empty or contains no word tokens."""


class ProviderError(SkillPathError):
    """A completion backend failed to produce a usable reply."""


class TransportError(ProviderError):
    """The live backend stayed unreachable or kept failing after retries."""


class ReplayMiss(ProviderError):
    """A replayed run issued a request absent from the transcript."""


class StorageError(SkillPathError):
    """A file could not be read, written, or parsed as the expected format."""


class UnparseableScore(ProviderError):
    """A similarity reply carried no usable integer score."""


class UnparseableStrategy(ProviderError):
    """A strategy reply had no recognizable numbered steps with skills."""


class NoCandidates(SkillPathError):
    """Every candidate question fell below the similarity threshold."""

    def __init__(self, question_id: str):
        super().__init__(f"no candidate survived the similarity filter for question {question_id!r}")


class EmptyAnswer(SkillPathError):
    """An example or reply is missing its answer text."""


class SegmentNotInDocument(SkillPathError):
    """The extraction reply was not made of document sentences, twice."""


class ZeroDenominator(SkillPathError):
    """The error-rate denominator summed to zero, so the rate is undefined."""

    def __init__(self, hits: float):
        super().__init__("error rate undefined: denominator sum is 0")
        self.hits = hits


class ValidationError(StorageError):
    """An input file is not valid JSON, or a parsed line violates its schema; names the line if known."""

    def __init__(self, path: str, line: int | None, detail: str):
        super().__init__(f"{path}:{line}: {detail}" if line else f"{path}: {detail}")
        self.path = path
        self.line = line


class UnmatchedQuestionId(SkillPathError):
    """A question id in one input has no counterpart in the input it is matched against."""

