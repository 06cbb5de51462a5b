"""Adaptive reasoning-path selection for contextual question answering.

The pipeline in one breath: decompose a question into a typed template,
synthesize similar worked examples with a completion backend, keep the
ones scored similar enough, select the example whose skill path covers
the taxonomy best while using rare skills, then answer the real question
guided by that path, and finally score the run.

The package root re-exports nothing: every name is imported from its
module, e.g. skillpath.cli.main or skillpath.providers.ReplayProvider.
"""

__version__ = "0.1.0"
