"""tools/make_acceptance_fixtures.py must reproduce tests/fixtures/ exactly.

The fixtures are regenerated by that script, so a change to the library
calls it makes would otherwise only show when someone reruns it and
inspects the diff by hand.
"""

from __future__ import annotations

import importlib.util
import os

from conftest import FIXTURES

SCRIPT = os.path.join(os.path.dirname(__file__), "..", "tools", "make_acceptance_fixtures.py")


def test_fixture_regeneration_is_byte_identical(tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("make_acceptance_fixtures", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(script, "FIXTURES", str(tmp_path))
    script.main()
    written = sorted(os.listdir(tmp_path))
    assert written == sorted(os.listdir(FIXTURES))
    for name in written:
        with open(tmp_path / name, "rb") as fresh, open(os.path.join(FIXTURES, name), "rb") as kept:
            assert fresh.read() == kept.read(), name
