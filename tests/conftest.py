from __future__ import annotations

import os

import pytest
from hypothesis import strategies as st

from skillpath.collection import build_collection
from skillpath.examplegen import ConstructionMode, ReasoningStrategy, SimilarExample
from skillpath.skills import ReasoningSkill

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

# characters where a byte-level or punctuation-first rewrite could diverge:
# case mappings that change length or leave ASCII (İ, the Kelvin sign),
# whitespace that is not a newline, lone surrogates, and the quotes and
# brackets the boundary rule looks at
TRICKY = st.sampled_from(
    list("aZz09 .?!\"')(\n\t\r\x0b\x0c\x1c") + ["\x85", "\u2028", "\u00a0", "\u0130", "\u212a",
                                               "\u00df", "\ud800", "\udfff", "\n\n\n"]
)


def make_example(skills, question="What is the answer?", answer="the answer"):
    """A structurally valid example whose only interesting part is its skills."""
    n = len(skills)
    return SimilarExample(
        question=question,
        strategy=ReasoningStrategy(
            tuple(f"step {i + 1}" for i in range(n)), tuple(skills)
        ),
        reference_docs=tuple(f"reference {i + 1}" for i in range(n)),
        answer=answer,
        construction_mode=ConstructionMode.GUIDED_FILL,
    )


@pytest.fixture
def worked_collection():
    """Three examples: [Ded], [Ded, Ana], [Ind, Ind]."""
    S = ReasoningSkill
    return build_collection(
        [
            make_example([S.DEDUCTIVE]),
            make_example([S.DEDUCTIVE, S.ANALOGICAL]),
            make_example([S.INDUCTIVE, S.INDUCTIVE]),
        ]
    )


@pytest.fixture
def fixtures_dir():
    return FIXTURES


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One PASS/FAIL line per acceptance criterion at the end of a run."""
    rows = {}
    for outcome in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(report, "nodeid", "")
            if "test_acceptance.py" not in nodeid:
                continue
            name = nodeid.split("::")[-1]
            ok = rows.get(name, True) and report.outcome == "passed"
            rows[name] = ok
    if rows:
        terminalreporter.write_line("")
        terminalreporter.write_line("acceptance criteria:")
        for name in sorted(rows):
            verdict = "PASS" if rows[name] else "FAIL"
            terminalreporter.write_line(f"  [acceptance] {name}: {verdict}")
