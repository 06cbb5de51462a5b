"""Prompt template loading and rendering.

Templates are plain text files with $name slots, bundled with the package
and overridable through SKILLPATH_PROMPT_DIR so deployments can edit them
without touching code. Rendering is strict: referencing a slot the caller
did not supply raises TemplateSlotMissing.
"""

from __future__ import annotations

import string
from functools import lru_cache

from .errors import StorageError, TemplateSlotMissing
from .resources import read_bundled

PROMPT_DIR_ENV = "SKILLPATH_PROMPT_DIR"


@lru_cache(maxsize=None)
def load_prompt(name: str) -> str:
    """Raw template text for prompts/<name>.txt, honoring the override dir."""
    try:
        return read_bundled("prompts", f"{name}.txt", PROMPT_DIR_ENV, "prompt")
    except OSError as exc:
        raise StorageError(f"no prompt template named {name!r}") from exc


def render_prompt(name: str, **slots: str) -> str:
    try:
        return string.Template(load_prompt(name)).substitute(**slots)
    except KeyError as exc:
        raise TemplateSlotMissing(str(exc.args[0])) from exc
