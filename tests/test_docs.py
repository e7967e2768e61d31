"""Documentation-rot protection.

The docs embed spec-language sources; if the grammar or validator
changes, these tests force the docs to move in lockstep.  The tests they
name by ``tests/<file>.py::Class::test`` must exist.
"""

import ast
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.spec.builder import build_network
from repro.spec.parser import parse_spec
from repro.spec.validate import validate_spec

DOCS = Path(__file__).resolve().parent.parent / "docs"
README = Path(__file__).resolve().parent.parent / "README.md"
EXAMPLES = sorted((README.parent / "examples").glob("*.py"))
TESTS = README.parent / "tests"
#: What names tests: the docs, the README, EXPERIMENTS.md, the verify
#: recipe and the CI steps.  (ROADMAP.md is left out: it names tests still
#: to be written.)
REFERRING = [
    *sorted(DOCS.glob("*.md")), README, README.parent / "EXPERIMENTS.md",
    README.parent / ".claude" / "skills" / "verify" / "SKILL.md",
    *sorted((README.parent / ".github" / "workflows").glob("*.yml")),
]
#: ``tests/<file>.py``, then any ``::Class`` or ``::test``; a Markdown
#: line may wrap after the ``::``.
TEST_REFERENCE = re.compile(r"tests/([\w/]+\.py)((?:::\s*\w+)*)")


def extract_specs(text: str):
    """Every fenced block containing a spec source (comments allowed)."""
    fenced = re.findall(r"```\n(.*?)\n```", text, re.S)
    return [b for b in fenced if "network topology" in b]


class TestTutorialSpecs:
    def test_tutorial_lan_builds(self):
        text = (DOCS / "tutorial.md").read_text()
        specs = extract_specs(text)
        assert specs, "tutorial must contain at least one spec source"
        spec = parse_spec(specs[0])
        build = build_network(spec)
        assert "ctrl" in build.network.hosts
        assert "core" in build.network.switches
        # Hub leg negotiates down to 10 Mb/s, as the prose claims.
        assert build.network.host("viz").interfaces[0].link.bandwidth_bps == 10e6

    def test_tutorial_application_snippet_parses(self):
        """The application block shown in step 5 must stay grammatical."""
        text = (DOCS / "tutorial.md").read_text()
        specs = extract_specs(text)
        base = specs[0].rstrip()
        assert base.endswith("}")
        snippet = (
            base[:-1]
            + """
    application feed    { on cam1; sends to display rate 2400 Kbps; }
    application display { on viz; }
}
"""
        )
        spec = parse_spec(snippet)
        assert spec.application("feed").flows[0].rate_bps == 2400e3

    def test_spec_language_doc_example_validates(self):
        text = (DOCS / "spec_language.md").read_text()
        specs = extract_specs(text)
        assert specs, "spec_language.md must contain the full example"
        spec = parse_spec(specs[0])
        issues = validate_spec(spec, strict=True)
        assert not any(i.severity == "error" for i in issues)
        assert spec.application("sensor").name == "sensor"

    def test_readme_quickstart_spec_parses(self):
        text = README.read_text()
        match = re.search(r'parse_spec\("""\n(network topology .*?)"""', text, re.S)
        assert match, "README quickstart must embed a spec"
        spec = parse_spec(match.group(1))
        assert {n.name for n in spec.hosts()} == {"alice", "bob"}


def extract_python_blocks(text: str, marker: str):
    """Fenced ```python blocks whose source mentions ``marker``."""
    fenced = re.findall(r"```python\n(.*?)\n```", text, re.S)
    return [b for b in fenced if marker in b]


class TestStreamingSnippets:
    """The streaming snippets in README and docs must stay runnable."""

    def _run(self, source: str) -> dict:
        namespace: dict = {}
        exec(compile(source, "<doc-snippet>", "exec"), namespace)
        return namespace

    def test_readme_streaming_snippet_runs(self, capsys):
        blocks = extract_python_blocks(README.read_text(), "enable_streaming")
        assert blocks, "README must embed the streaming quick-start"
        namespace = self._run(blocks[0])
        publisher = namespace["monitor"].stream
        assert publisher is not None and publisher.cycles > 0
        assert len(publisher.queries()) == 1
        # The conflated subscription drained real events to stdout.
        assert "<->" in capsys.readouterr().out

    def test_architecture_streaming_snippet_runs(self, capsys):
        text = (DOCS / "architecture.md").read_text()
        blocks = extract_python_blocks(text, "enable_streaming")
        assert blocks, "architecture.md must embed the streaming example"
        namespace = self._run(blocks[0])
        publisher = namespace["publisher"]
        assert publisher.cycles > 0
        assert {q.name for q in publisher.queries()} == {"n1-low", "p90-util"}
        assert "<->" in capsys.readouterr().out

    def test_architecture_documents_stream_stats_keys(self):
        text = (DOCS / "architecture.md").read_text()
        assert "## Streaming subscriptions & continuous queries" in text
        for key in (
            "stream_subscribers",
            "stream_events_delivered",
            "stream_events_suppressed",
            "stream_events_dropped",
        ):
            assert key in text


class TestProbingSnippets:
    """The active-probing snippets in README and docs must stay runnable."""

    def _run(self, source: str) -> dict:
        namespace: dict = {}
        exec(compile(source, "<doc-snippet>", "exec"), namespace)
        return namespace

    def test_readme_probing_snippet_runs(self, capsys):
        blocks = extract_python_blocks(README.read_text(), "enable_probing")
        assert blocks, "README must embed the probing quick-start"
        namespace = self._run(blocks[0])
        prober = namespace["prober"]
        assert prober.stats()["trains_started"] > 0
        assert prober.reports["S1<->N1"].delivered
        out = capsys.readouterr().out
        assert "probe achievable" in out
        # The snippet runs fault-free: the planes must agree.
        assert "\n0 disagreements" in out

    def test_architecture_probing_snippet_runs(self, capsys):
        text = (DOCS / "architecture.md").read_text()
        blocks = extract_python_blocks(text, "enable_probing")
        assert blocks, "architecture.md must embed the probing example"
        namespace = self._run(blocks[0])
        prober = namespace["prober"]
        assert prober.stats()["trains_started"] > 0
        assert prober.findings() == []
        assert "probe achievable" in capsys.readouterr().out

class TestSelfHealingTopologyDocs:
    """The failover quick-start and example must stay runnable."""

    def test_readme_failover_snippet_runs(self, capsys):
        blocks = extract_python_blocks(
            README.read_text(), "enable_topology_sync"
        )
        assert blocks, "README must embed the self-healing quick-start"
        namespace: dict = {}
        exec(compile(blocks[0], "<doc-snippet>", "exec"), namespace)
        monitor = namespace["monitor"]
        assert monitor.stats()["path_reroutes"] == 1
        assert namespace["report"].status == "fresh"
        assert "1 reroute(s)" in capsys.readouterr().out

    def test_uplink_failover_example_runs(self, capsys):
        import runpy

        path = README.parent / "examples" / "uplink_failover.py"
        runpy.run_path(str(path), run_name="__main__")
        out = capsys.readouterr().out
        assert "REROUTED" in out  # the typed stream event printed itself
        assert "status=fresh" in out
        assert "1 reroute(s)" in out

    def test_architecture_documents_topology_stats_keys(self):
        text = (DOCS / "architecture.md").read_text()
        assert "## Self-healing topology" in text
        for key in (
            "topology_rounds",
            "topology_full_rounds",
            "topology_changes",
            "path_reroutes",
            "blocked_connections",
        ):
            assert key in text


class TestProbeDocsContract:
    def test_architecture_documents_probe_stats_keys(self):
        text = (DOCS / "architecture.md").read_text()
        assert "## Active probing & cross-validation" in text
        for key in (
            "probe_trains",
            "probe_packets_sent",
            "probe_packets_lost",
            "probe_bytes_sent",
            "probe_disagreements",
            "probe_recoveries",
            "probe_active_disagreements",
        ):
            assert key in text
        # The three localization causes are part of the documented contract.
        for cause in (
            "unmetered_segment",
            "stale_counter",
            "quarantine_candidate_agent",
        ):
            assert cause in text


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.stem)
def test_every_example_runs(script):
    """Each example is a product caller of what it uses, so each runs."""
    src = str(README.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))
    ))
    done = subprocess.run(
        [sys.executable, str(script)], env=env, capture_output=True, text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]


def _definition(module: ast.Module, owner, name: str):
    """The class or function ``name`` that ``owner`` (``module`` or a class
    or function in it) defines, or a class inherits from a base defined
    in ``module``; None if there is none."""
    for node in owner.body:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name == name:
                return node
    for base in getattr(owner, "bases", ()):
        parent = isinstance(base, ast.Name) and _definition(module, module, base.id)
        found = parent and _definition(module, parent, name)
        if found:
            return found
    return None


def unresolved_test_references(text: str) -> list:
    """Each ``tests/<file>.py[::Class[::test]]`` in ``text`` whose file or
    definition does not exist."""
    unresolved = []
    for match in TEST_REFERENCE.finditer(text):
        path = TESTS / match.group(1)
        module = node = ast.parse(path.read_text()) if path.is_file() else None
        for name in re.findall(r"\w+", match.group(2)):
            node = node and _definition(module, node, name)
        if node is None:
            unresolved.append(re.sub(r"\s+", "", match.group(0)))
    return unresolved


class TestTheRecordStaysSmall:
    """The docs say how a mechanism works and name the test that pins its
    cost; CHANGES.md says what each PR claimed and changed.  Neither
    restates what a test already holds, so both stay short."""

    ARCHITECTURE_LINES = 900
    ENTRY_LINES, COLUMNS = 40, 100

    def test_the_architecture_doc_is_short(self):
        lines = (DOCS / "architecture.md").read_text().splitlines()
        assert len(lines) <= self.ARCHITECTURE_LINES

    def test_every_changes_entry_is_one_short_pr_bullet(self):
        """After the title, an entry is an unindented line and what
        follows it up to the next one (a ``FOUND:`` or ``MENDED:`` line
        belongs to the entry above); each starts ``- **PR N`` and wraps
        to at most 40 lines."""
        text = (README.parent / "CHANGES.md").read_text()
        entries = []
        for line in text.splitlines()[1:]:
            if line[:1].strip() and not line.startswith(("FOUND:", "MENDED:")):
                entries.append([])
            if entries:
                entries[-1].append(line)
        assert entries
        for entry in entries:
            assert re.match(r"- \*\*PR \d+", entry[0]), entry[0][:60]
            wrapped = sum(len(textwrap.wrap(line, self.COLUMNS)) or 1 for line in entry)
            assert wrapped <= self.ENTRY_LINES, (entry[0][:60], wrapped)


class TestTestReferences:
    @pytest.mark.parametrize("doc", REFERRING, ids=lambda path: path.name)
    def test_every_test_a_doc_names_exists(self, doc):
        assert unresolved_test_references(doc.read_text()) == []

    def test_a_renamed_test_is_caught(self):
        text = """`tests/test_docs.py::TestTestReferences::test_a_renamed_test_is_caught`,
        `tests/test_docs.py::\n  TestTestReferences::test_renamed`, `tests/test_docs.py`,
        `tests/costs.py::per_exchange`, `tests/test_gone.py` and `tests/costs.py::gone`"""
        assert unresolved_test_references(text) == [
            "tests/test_docs.py::TestTestReferences::test_renamed",
            "tests/test_gone.py",
            "tests/costs.py::gone",
        ]
