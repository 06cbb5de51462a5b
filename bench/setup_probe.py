"""Set-up cost of a fresh interpreter: import skillpath, run one question.

    python3 bench/setup_probe.py CORPUS OUT_DIR

The one-question generate, answer and eval pay every first-use load (the
default tagger and its entity pool, the prompt templates, the repair
cues). Prints the seconds from before the import to the end of eval,
rescaled to nominal machine speed by calibration slices timed afterwards
in the same process.
"""

import contextlib
import io
import os
import sys
import time

started = time.perf_counter()
import skillpath.cli  # noqa: E402

corpus, out = sys.argv[1], sys.argv[2]
bundle, run_log, report = (os.path.join(out, name) for name in ("bundle.json", "run.jsonl", "report.json"))
steps = [
    ["generate", "--provider", "mock", "--corpus", corpus, "--collection", bundle,
     "--gen-mode", "guided-fill", "--count", "5", "--delta", "7"],
    ["answer", "--provider", "mock", "--corpus", corpus, "--collection", bundle, "--run-log", run_log],
    ["eval", "--corpus", corpus, "--run-log", run_log, "--report", report],
]
with contextlib.redirect_stdout(io.StringIO()):
    for argv in steps:
        if skillpath.cli.main(argv) != 0:
            sys.exit(f"set-up probe: {argv[0]} failed")
seconds = time.perf_counter() - started

import calibrate  # noqa: E402  (imported late: its modules must not leave the measured import)

slices = sorted(calibrate.slice_seconds() for _ in range(3))
print(calibrate.nominal_seconds(seconds, seconds, slices[1], slices[1]))
