"""Adaptive reasoning-path selection for contextual question answering.

The pipeline in one breath: decompose a question into a typed template,
synthesize similar worked examples with a completion backend, keep the
ones scored similar enough, select the example whose skill path covers
the taxonomy best while using rare skills, then answer the real question
guided by that path, and finally score the run.
"""

from __future__ import annotations

from .answerer import AnswerTrace, answer, extract_relevant_segment, format_prompt
from .collection import ExampleCollection, build_collection
from .decompose import (
    QuestionTemplate,
    RuleBasedTagger,
    Token,
    TokenLabel,
    build_template,
    classify_tokens,
    decompose_question,
    render_template,
)
from .errors import SkillPathError
from .examplegen import (
    CandidateQuestion,
    ConstructionMode,
    ReasoningStrategy,
    SimilarExample,
    build_reference_docs,
    build_strategy,
    filter_candidates,
    generate_candidates,
    score_similarity,
)
from .matcher import (
    MatchResult,
    ScoreBreakdown,
    SelectionMode,
    coverage,
    select_best,
    selection_score,
    uniqueness,
)
from .metrics import (
    EvalRecord,
    EvalReport,
    attribute_citations,
    detect_retrace,
    evaluate_records,
    exact_match,
    hits_and_error,
    retrace_rate,
    rouge_l,
    token_stats,
)
from .providers import (
    CompletionRequest,
    CompletionResult,
    LiveProvider,
    MockProvider,
    Provider,
    RecordingProvider,
    ReplayProvider,
    TokenUsage,
    Transcript,
)
from .skills import ReasoningSkill, all_skills, parse_skill
from .textutil import Passage

__version__ = "0.1.0"

__all__ = [
    "AnswerTrace",
    "CandidateQuestion",
    "CompletionRequest",
    "CompletionResult",
    "ConstructionMode",
    "EvalRecord",
    "EvalReport",
    "ExampleCollection",
    "LiveProvider",
    "MatchResult",
    "MockProvider",
    "Passage",
    "Provider",
    "QuestionTemplate",
    "ReasoningSkill",
    "ReasoningStrategy",
    "RecordingProvider",
    "ReplayProvider",
    "RuleBasedTagger",
    "ScoreBreakdown",
    "SelectionMode",
    "SimilarExample",
    "SkillPathError",
    "Token",
    "TokenLabel",
    "TokenUsage",
    "Transcript",
    "all_skills",
    "answer",
    "attribute_citations",
    "build_collection",
    "build_reference_docs",
    "build_strategy",
    "build_template",
    "classify_tokens",
    "coverage",
    "decompose_question",
    "detect_retrace",
    "evaluate_records",
    "exact_match",
    "extract_relevant_segment",
    "filter_candidates",
    "format_prompt",
    "generate_candidates",
    "hits_and_error",
    "parse_skill",
    "render_template",
    "retrace_rate",
    "rouge_l",
    "score_similarity",
    "select_best",
    "selection_score",
    "token_stats",
    "uniqueness",
]
