"""Build similar worked examples for a question, fully offline.

The pipeline: propose candidate questions from the template, score them
all for similarity in one call, keep the ones at or above the threshold,
then ask in one call for a step-by-step strategy (one reasoning skill per
step) and the answer of every kept candidate, and in one more for a short
reference doc per step of each. The canned provider stands in for a model.
"""
from skillpath.canned import CannedProvider
from skillpath.decompose import decompose_question
from skillpath.examplegen import (
    ConstructionMode,
    filter_candidates,
    generate_candidates,
    score_candidates,
    synthesize_example,
)

QUESTION = "Which is taller, the Eiffel Tower or the Empire State Building?"
provider = CannedProvider()

template = decompose_question(QUESTION)
candidates = generate_candidates(
    template, ConstructionMode.GUIDED_FILL, count=4, provider=provider
)
print(f"{len(candidates)} candidate(s):")
for c in candidates:
    print(" -", c.text)

scored = score_candidates(QUESTION, candidates, provider)
kept = filter_candidates(scored, delta=7)
print(f"\nkept {len(kept)} of {len(scored)} at delta=7")

examples = synthesize_example([c.text for c in kept], provider)
for example in examples:
    print("\nsynthesized example")
    print("question:", example.question)
    for i, (subq, skill) in enumerate(zip(example.strategy.subquestions, example.strategy.skills)):
        print(f"  step {i + 1}: {subq}  [{skill.display_name}]")
        print(f"          doc: {example.reference_docs[i]}")
    print("answer:", example.answer)
