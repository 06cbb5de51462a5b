"""Record a provider session to a transcript, then replay it offline.

Every completion request gets a fingerprint from its prompt, scope and
occurrence index. The scope is the id of the question the request was
sent for (empty here, outside any question: the commands run each
question in providers.question_scope); a question sends its requests in
program order, so a repeated prompt's occurrence index is the same on
replay at any parallelism, whichever other questions are replayed.
Replays answer only requests that were recorded, byte for byte, so
downstream runs are reproducible without touching a model endpoint.
"""
import os
import tempfile

from skillpath.errors import ReplayMiss
from skillpath.providers import (
    CompletionRequest,
    MockProvider,
    RecordingProvider,
    ReplayProvider,
)

# the mock answers each request with its reply function; this one reads a script in order
script = iter(["Paris", "1889", "Paris again"])
recorder = RecordingProvider(MockProvider(lambda request: next(script)))

for prompt in ["Capital of France?", "Year the tower opened?", "Capital of France?"]:
    result = recorder.complete(CompletionRequest(prompt))
    print(f"{prompt!r} -> {result.text!r}  ({result.usage.total_tokens} tokens)")

path = os.path.join(tempfile.mkdtemp(), "session.jsonl")
recorder.transcript.save(path)
print(f"\nsaved {len(recorder.transcript.entries)} entries to {path}")

# the repeated prompt got its own occurrence index, so both replays work
replay = ReplayProvider.from_file(path)
print("replay 1:", replay.complete(CompletionRequest("Capital of France?")).text)
print("replay 2:", replay.complete(CompletionRequest("Year the tower opened?")).text)
print("replay 3:", replay.complete(CompletionRequest("Capital of France?")).text)

try:
    replay.complete(CompletionRequest("Something never asked"))
except ReplayMiss as exc:
    print("off-script request refused:", type(exc).__name__)
