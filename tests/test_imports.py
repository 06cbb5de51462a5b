"""The package runs on the standard library alone, defines no exception it never raises, judges
every input line in one module, tags every request with a stage the mock backend answers, reads
exactly the environment variables its README names, keeps one store of replies by fingerprint, keeps
its immutable records immutable, and reads no clock but the live backend's timer."""

from __future__ import annotations

import ast
import builtins
import glob
import os
import re
import subprocess
import sys

import pytest

from skillpath import canned
from skillpath.collection import build_collection
from skillpath.corpus import QARecord
from skillpath.decompose import classify_tokens, decompose_question
from skillpath.examplegen import CandidateQuestion, ConstructionMode, ReasoningStrategy
from skillpath.matcher import ScoreBreakdown, select_best
from skillpath.metrics import EvalRecord, HitsError, TokenStats
from skillpath.providers import CompletionRequest, CompletionResult, TokenUsage, TranscriptEntry
from skillpath.skills import ReasoningSkill, SkillDetail
from skillpath.textutil import Passage

from conftest import make_example

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
MODULES = sorted(glob.glob(os.path.join(SRC, "skillpath", "*.py")))


def nodes(path):
    """Every node of the syntax tree of the module at `path`."""
    with open(path, encoding="utf-8") as fh:
        return ast.walk(ast.parse(fh.read(), path))


def imported_names(path):
    """The top-level name of every absolute import in the module at `path`."""
    for node in nodes(path):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


# ast.walk reaches imports inside functions too, such as LiveProvider's deferred HTTP stack
@pytest.mark.parametrize("path", MODULES, ids=os.path.basename)
def test_every_import_is_the_standard_library_or_the_package(path):
    foreign = {name for name in imported_names(path)
               if name not in sys.stdlib_module_names and name != "skillpath"}
    assert foreign == set()


def run_fresh(probe, *args, **env):
    """What `probe` prints, run with `args` in a fresh interpreter that finds the package."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, **env}
    return subprocess.run([sys.executable, "-c", probe, *args], env=env, capture_output=True, text=True,
                          timeout=60, check=True).stdout


def test_the_cli_loads_no_http_client_library():
    out = run_fresh("import sys, skillpath.cli; print('requests' in sys.modules)")
    assert out.strip() == "False"


HTTP_STACK = ("http.client", "urllib.request", "ssl", "email")

COLD_START = """
import contextlib, io, os, sys
from skillpath import cli
from skillpath.providers import LiveProvider

fixtures, out, then, *names = sys.argv[1:]
corpus = os.path.join(fixtures, "corpus.jsonl")
bundle, run_log = os.path.join(out, "bundle.json"), os.path.join(out, "run.jsonl")
steps = [
    ["generate", "--provider", "mock", "--corpus", corpus, "--collection", bundle],
    ["answer", "--provider", "mock", "--corpus", corpus, "--collection", bundle, "--run-log", run_log],
    ["eval", "--corpus", corpus, "--run-log", run_log, "--report", os.path.join(out, "report.json")],
]
replay = ["answer", "--provider", "replay", "--transcript", os.path.join(fixtures, "transcript.jsonl"),
          "--corpus", corpus, "--collection", os.path.join(fixtures, "collection.json"), "--run-log", run_log]
with contextlib.redirect_stdout(io.StringIO()):
    assert [cli.main(argv) for argv in steps] == [0, 0, 0]
print(sorted(name for name in names if name in sys.modules))
if then == "live":
    LiveProvider()
else:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(replay) == 0
print(sorted(name for name in names if name in sys.modules))
"""


def test_only_a_live_provider_loads_the_http_stack(tmp_path, fixtures_dir):
    out = run_fresh(COLD_START, fixtures_dir, str(tmp_path), "live", *HTTP_STACK,
                    SKILLPATH_API_BASE="http://127.0.0.1:9", SKILLPATH_MODEL="m")
    assert out.splitlines() == ["[]", str(sorted(HTTP_STACK))]


def test_a_cold_start_builds_no_dataclass_and_only_record_or_replay_loads_hashlib(tmp_path, fixtures_dir):
    # dataclasses pulls in inspect, and hashlib loads OpenSSL: work no mock command or eval needs
    out = run_fresh(COLD_START, fixtures_dir, str(tmp_path), "replay", "dataclasses", "hashlib", "inspect")
    assert out.splitlines() == ["[]", "['hashlib']"]


def test_every_exception_class_is_raised_or_is_the_base_of_one_that_is():
    bases, raised = {}, set()
    for path in MODULES:
        for node in nodes(path):
            if isinstance(node, ast.ClassDef):
                bases[node.name] = [ast.unparse(base) for base in node.bases]
            elif isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)

    def ancestors(name):
        for base in bases.get(name, ()):
            yield base
            yield from ancestors(base)

    builtin = {name for name, value in vars(builtins).items()
               if isinstance(value, type) and issubclass(value, BaseException)}
    defined = {name for name in bases if builtin & set(ancestors(name))}
    covered = raised | {base for name in raised for base in ancestors(name)}
    assert "SkillPathError" in defined
    assert defined - covered == set()


def test_only_resources_constructs_a_validation_error():
    # one module judges every input line, so every path:line error reads alike
    constructed = {f"{os.path.basename(path)}:{node.lineno}" for path in MODULES for node in nodes(path)
                   if isinstance(node, ast.Call) and ast.unparse(node.func).endswith("ValidationError")}
    assert any(where.startswith("resources.py:") for where in constructed)
    assert {where for where in constructed if not where.startswith("resources.py:")} == set()


def test_only_resources_reads_a_whole_file():
    # every other input is read a line at a time through resources.read_lines
    calls = {f"{os.path.basename(path)}:{node.lineno}" for path in MODULES for node in nodes(path)
             if isinstance(node, ast.Call) and ast.unparse(node.func).rpartition(".")[2] == "read_text"}
    assert any(where.startswith("resources.py:") for where in calls)
    assert {where for where in calls if not where.startswith("resources.py:")} == set()


def provider_classes():
    """The names of Provider and of every class in the package that derives from it."""
    bases = {node.name: [ast.unparse(base).rpartition(".")[2] for base in node.bases]
             for path in MODULES for node in nodes(path) if isinstance(node, ast.ClassDef)}

    def derives(name):
        return name == "Provider" or any(derives(base) for base in bases.get(name, ()))

    return {name for name in bases if derives(name)}


def test_no_module_but_providers_asks_which_backend_it_holds():
    # a backend names what makes its replies differ in Provider.identity, so callers need not tell them apart
    classes = provider_classes()
    assert {"Provider", "LiveProvider", "ReplayProvider", "MockProvider", "CannedProvider"} <= classes
    found = set()
    for path in MODULES:
        if os.path.basename(path) == "providers.py":
            continue
        for node in nodes(path):
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "isinstance" and len(node.args) == 2:
                named = {ast.unparse(part).rpartition(".")[2] for part in ast.walk(node.args[1])}
                if named & classes:
                    found.add(f"{os.path.basename(path)}:{node.lineno}")
    assert found == set()


def test_replay_recording_and_the_journal_are_one_store():
    # one occurrence counter and one lookup, so a reply is keyed alike wherever it is stored or served
    with open(os.path.join(SRC, "skillpath", "providers.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    found, defined = {"_OccurrenceCounter()": [], "fingerprint(request)": []}, set()
    for top in tree.body:  # each place is named by its class and method, or by its module-level def
        parts = ([(f"{top.name}.{getattr(part, 'name', '<body>')}", part) for part in top.body]
                 if isinstance(top, ast.ClassDef) else [(getattr(top, "name", "<module>"), top)])
        for place, part in parts:
            if isinstance(part, ast.FunctionDef):
                defined.add(place)
            for node in ast.walk(part):
                call = ast.unparse(node).rpartition(".")[2] if isinstance(node, ast.Call) else ""
                if call in found:
                    found[call].append(place)
    assert found == {"_OccurrenceCounter()": ["ReplayProvider.__init__"],
                     "fingerprint(request)": ["ReplayProvider._complete"]}
    stores = ("ReplayProvider", "RecordingProvider", "JournalProvider")
    assert defined & {f"{store}._complete" for store in stores} == {"ReplayProvider._complete"}


def test_every_request_names_a_stage_the_mock_answers():
    tags = set()
    for path in MODULES:
        for node in nodes(path):
            if not (isinstance(node, ast.Call) and ast.unparse(node.func) == "CompletionRequest"):
                continue
            keywords = {keyword.arg: keyword.value for keyword in node.keywords}
            if None in keywords:
                continue  # CompletionRequest(**fields) rebuilds a recorded request
            tag = keywords.get("tag")
            where = f"{os.path.basename(path)}:{node.lineno}"
            assert isinstance(tag, ast.Constant) and isinstance(tag.value, str), f"{where} has no literal tag="
            tags.add(tag.value)
    assert tags == set(canned._HANDLERS)


ENV_NAME = re.compile(r"SKILLPATH_[A-Z0-9_]*[A-Z0-9]")


def test_the_readme_names_exactly_the_environment_variables_the_code_reads():
    # a name is a whole string constant; a docstring that mentions one is not counted
    in_code = {node.value for path in MODULES for node in nodes(path)
               if isinstance(node, ast.Constant) and ENV_NAME.fullmatch(str(node.value))}
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        in_readme = set(ENV_NAME.findall(fh.read()))
    assert in_code == in_readme


# each record the package builds and never changes, made by a call that makes a new one
IMMUTABLE = {
    "TokenUsage": lambda: TokenUsage.of(2, 1),
    "CompletionRequest": lambda: CompletionRequest("prompt", "answer"),
    "CompletionResult": lambda: CompletionResult("reply", TokenUsage.of(2, 1), 1.5),
    "TranscriptEntry": lambda: TranscriptEntry("f", CompletionRequest("p"), CompletionResult("r", TokenUsage.zero())),
    "CandidateQuestion": lambda: CandidateQuestion("Q?", ConstructionMode.RANDOM_FILL, 7),
    "ReasoningStrategy": lambda: ReasoningStrategy(("step 1",), (ReasoningSkill.DEDUCTIVE,)),
    "SimilarExample": lambda: make_example([ReasoningSkill.DEDUCTIVE, ReasoningSkill.ANALOGICAL]),
    "Token": lambda: classify_tokens("Who built the Eiffel Tower?")[-2],
    "Placeholder": lambda: decompose_question("Who built the Eiffel Tower?").placeholders[0],
    "QARecord": lambda: QARecord("q", "Q?", ("Doc.",), ("A",), frozenset({(0, 0)})),
    "ScoreBreakdown": lambda: ScoreBreakdown(0.25, 1.5, 1.75),
    "MatchResult": lambda: select_best(build_collection([make_example([ReasoningSkill.DEDUCTIVE])])),
    "HitsError": lambda: HitsError(0.5, None),
    "EvalRecord": lambda: EvalRecord("q", "x", ("x",), frozenset({(0, 0)}), frozenset({(0, 0)}), "<answer>x</answer>",
                                     TokenUsage.of(2, 1), 1.5),
    "TokenStats": lambda: TokenStats(3.0, 1.5),
    "SkillDetail": lambda: SkillDetail("Deductive", "From a rule.", "All A are B."),
    "Passage": lambda: Passage.of("One. Two."),
}


@pytest.mark.parametrize("name", IMMUTABLE)
def test_an_immutable_record_refuses_assignment_and_equals_one_of_the_same_fields(name):
    record, same = IMMUTABLE[name](), IMMUTABLE[name]()
    assert type(record).__name__ == name
    assert record == same and record is not same
    if name != "Passage":  # its sentence index is a dict
        assert hash(record) == hash(same)
    for field in record._fields if isinstance(record, tuple) else record.__slots__:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))



def starts_threads(node):
    """Whether the node names a Thread, or imports a module that starts threads or processes."""
    if isinstance(node, ast.Import | ast.ImportFrom):
        modules = [alias.name for alias in node.names] + [getattr(node, "module", None) or ""]
        return any(name.partition(".")[0] in ("_thread", "concurrent", "multiprocessing") for name in modules)
    named = {ast.Attribute: "attr", ast.Name: "id", ast.alias: "name"}.get(type(node))
    return named is not None and getattr(node, named) == "Thread"


def test_only_the_question_lanes_of_the_cli_build_a_thread():
    # cli._run_questions is the one scheduler; a thread built anywhere else would be a second one
    found = set()
    for path in MODULES:
        module = os.path.basename(path).removesuffix(".py")
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        for top in tree.body:  # named by the module-level def or class it is in
            if any(starts_threads(node) for node in ast.walk(top)):
                found.add(f"{module}.{getattr(top, 'name', '<module>')}")
    assert found == {"cli._run_questions"}


CLOCKS = ("time", "datetime")


def clock_uses(node):
    """The use of the time or datetime module that node makes, or None: an attribute, or an import that hides one."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in CLOCKS:
        return ast.unparse(node)
    hidden = (isinstance(node, ast.ImportFrom) and node.module in CLOCKS
              or isinstance(node, ast.Import) and any(alias.name == "datetime" or alias.name == "time" and alias.asname
                                                      for alias in node.names))
    return ast.unparse(node) if hidden else None


def test_no_module_reads_the_wall_clock():
    # every output is the same bytes for the same inputs; only the live backend times its calls and waits
    found = set()
    for path in MODULES:
        module = os.path.basename(path).removesuffix(".py")
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        for top in tree.body:  # named by the module-level def or class it is in
            for node in ast.walk(top):
                if (use := clock_uses(node)) is not None:
                    found.add(f"{module}.{getattr(top, 'name', '<module>')}: {use}")
    assert found == {"providers.LiveProvider: time.monotonic", "providers.LiveProvider: time.sleep"}
