"""Score a small example collection and watch the selection play out.

Each example earns coverage (distinct skills / 7) plus a uniqueness
bonus per skill occurrence, ln((N + 1) / (freq + 1)), where freq counts
how many examples in the collection use that skill at all. Rare skills
are worth more; a skill used by every example is worth almost nothing.
"""
from skillpath.collection import build_collection
from skillpath.examplegen import ReasoningStrategy, SimilarExample
from skillpath.matcher import SelectionMode, select_best
from skillpath.skills import ReasoningSkill

S = ReasoningSkill


def example(skills, label):
    n = len(skills)
    return SimilarExample(
        question=label,
        strategy=ReasoningStrategy(
            tuple(f"step {i + 1}" for i in range(n)), tuple(skills)
        ),
        reference_docs=tuple(f"doc {i + 1}" for i in range(n)),
        answer="n/a",
    )


collection = build_collection(
    [
        example([S.DEDUCTIVE], "deduction only"),
        example([S.DEDUCTIVE, S.ANALOGICAL], "deduction plus analogy"),
        example([S.INDUCTIVE, S.INDUCTIVE], "double induction"),
    ]
)

for mode in (SelectionMode.FULL, SelectionMode.COVERAGE_ONLY, SelectionMode.UNIQUENESS_ONLY):
    result = select_best(collection, mode)
    print(f"mode {mode.value}")
    for i, b in enumerate(result.per_example):
        marker = " <-- selected" if i == result.selected_index else ""
        print(
            f"  {collection.examples[i].question:24s}"
            f" coverage={b.coverage:.6f} uniqueness={b.uniqueness_sum:.6f}"
            f" total={b.total:.6f}{marker}"
        )
    print()

# random mode is for ablations and insists on a seed
result = select_best(collection, SelectionMode.RANDOM, seed=4)
print("mode random (seed 4) picked index", result.selected_index)
