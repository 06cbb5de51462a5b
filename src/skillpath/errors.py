"""Exception types shared across the package.

Every error raised by this package derives from SkillPathError so callers
can catch the whole family with one clause. Provider transport problems,
replay misses and unparseable replies share the ProviderError base because
they all mean "the completion backend did not give us a usable reply".
"""

from __future__ import annotations


class SkillPathError(Exception):
    """Base class for all errors raised by this package."""


class UnknownSkill(SkillPathError):
    """A skill label could not be mapped to the taxonomy."""

    def __init__(self, label: str):
        super().__init__(f"unknown reasoning skill label: {label!r}")
        self.label = label


class EmptyQuestion(SkillPathError):
    """The question is empty or contains no word tokens."""


class MissingSubstitution(SkillPathError):
    """A template slot has no value in the substitution mapping."""

    def __init__(self, slot: str):
        super().__init__(f"no substitution provided for slot {slot!r}")
        self.slot = slot


class UnknownPlaceholder(SkillPathError):
    """A substitution key does not match any slot in the template."""

    def __init__(self, slot: str):
        super().__init__(f"substitution key {slot!r} matches no template slot")
        self.slot = slot


class ProviderError(SkillPathError):
    """A completion backend failed to produce a usable reply."""


class TransportError(ProviderError):
    """The live backend stayed unreachable or kept failing after retries."""


class ReplayMiss(ProviderError):
    """A replayed run issued a request absent from the transcript."""

    def __init__(self, fingerprint: str, tag: str = ""):
        detail = f" (tag {tag!r})" if tag else ""
        super().__init__(f"no transcript entry for request fingerprint {fingerprint}{detail}")
        self.fingerprint = fingerprint
        self.tag = tag


class StorageError(SkillPathError):
    """A file could not be read, written, or parsed as the expected format."""


class UnparseableScore(ProviderError):
    """A similarity reply carried no usable integer score."""


class UnparseableStrategy(ProviderError):
    """A strategy reply had no recognizable numbered steps with skills."""


class NoCandidates(SkillPathError):
    """Every candidate question fell below the similarity threshold."""

    def __init__(self, question_id: str = ""):
        detail = f" for question {question_id!r}" if question_id else ""
        super().__init__(f"no candidate survived the similarity filter{detail}")
        self.question_id = question_id


class LengthMismatch(SkillPathError):
    """Parallel sequences that must align have different lengths."""


class EmptyAnswer(SkillPathError):
    """An example or reply is missing its answer text."""


class EmptyCollection(SkillPathError):
    """An example collection has no examples."""


class CorruptCollection(StorageError):
    """A stored collection fails validation against its own contents."""


class SegmentNotInDocument(SkillPathError):
    """The extraction reply was not made of document sentences, twice."""


class TemplateSlotMissing(SkillPathError):
    """A prompt template references a slot the caller did not supply."""

    def __init__(self, slot: str):
        super().__init__(f"prompt template slot {slot!r} was not supplied")
        self.slot = slot


class EmptyInput(SkillPathError):
    """A metric was asked to aggregate over zero records."""


class EmptyReference(SkillPathError):
    """A similarity score was requested against an empty reference text."""


class ZeroDenominator(SkillPathError):
    """The error-rate denominator summed to zero, so the rate is undefined."""

    def __init__(self, hits: float):
        super().__init__("error rate undefined: denominator sum is 0")
        self.hits = hits


class ParseError(StorageError):
    """A line of an input file is not valid JSON."""

    def __init__(self, path: str, line: int, detail: str):
        super().__init__(f"{path}:{line}: {detail}")
        self.path = path
        self.line = line


class ValidationError(StorageError):
    """A parsed line of a corpus or run log violates its schema."""

    def __init__(self, path: str, line: int, detail: str):
        super().__init__(f"{path}:{line}: {detail}")
        self.path = path
        self.line = line


class UnmatchedQuestionId(SkillPathError):
    """A run-log entry references a question id absent from the corpus."""

    def __init__(self, question_id: str):
        super().__init__(f"run log references unknown question id {question_id!r}")
        self.question_id = question_id


class PipelineStageError(SkillPathError):
    """Wraps an error from one stage of a multi-stage run with its label."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"[{stage}] {cause}")
        self.stage = stage
        self.__cause__ = cause
