"""Documentation-integrity tests: DESIGN.md's experiment index and module
inventory must reference things that actually exist, and the metric
catalogue in docs/observability.md must match what the code registers."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def read(name):
    return (ROOT / name).read_text(encoding="utf-8")


class TestDesignDoc:
    def test_every_bench_target_exists(self):
        targets = re.findall(r"`(benchmarks/test_[a-z0-9_]+\.py)`",
                             read("DESIGN.md"))
        assert targets, "DESIGN.md lists no bench targets?"
        for target in targets:
            assert (ROOT / target).exists(), target

    def test_every_bench_file_is_indexed(self):
        design = read("DESIGN.md")
        for path in sorted((ROOT / "benchmarks").glob("test_e*.py")):
            assert f"benchmarks/{path.name}" in design, path.name

    def test_module_paths_exist(self):
        design = read("DESIGN.md")
        for mod in re.findall(r"`repro/([a-z_/]+\.py)`", design):
            assert (ROOT / "src" / "repro" / mod).exists(), mod
        for pkg in re.findall(r"`repro/([a-z_]+)/`", design):
            assert (ROOT / "src" / "repro" / pkg).is_dir(), pkg

    def test_experiment_ids_continuous(self):
        design = read("DESIGN.md")
        ids = sorted({int(m) for m in re.findall(r"\| E(\d+) \|", design)})
        assert ids == list(range(1, ids[-1] + 1))


class TestExperimentsDoc:
    def test_every_design_experiment_has_a_record(self):
        design = read("DESIGN.md")
        experiments = read("EXPERIMENTS.md")
        ids = {int(m) for m in re.findall(r"\| E(\d+) \|", design)}
        for exp_id in ids:
            assert f"## E{exp_id} " in experiments, f"E{exp_id}"

    def test_verdict_per_experiment(self):
        experiments = read("EXPERIMENTS.md")
        sections = re.split(r"^## ", experiments, flags=re.M)[1:]
        for section in sections:
            if section.startswith("E"):
                assert "Verdict" in section, section.splitlines()[0]


class TestReadme:
    def test_architecture_listing_matches_packages(self):
        readme = read("README.md")
        pkg_dir = ROOT / "src" / "repro"
        for pkg in sorted(p.name for p in pkg_dir.iterdir()
                          if p.is_dir() and p.name != "__pycache__"):
            assert f"{pkg}/" in readme, pkg

    def test_examples_exist(self):
        readme = read("README.md")
        for example in re.findall(r"`examples/([a-z_]+\.py)`", readme):
            assert (ROOT / "examples" / example).exists(), example

    def test_docs_exist(self):
        for doc in ("architecture.md", "protocol.md", "query_language.md",
                    "extending.md"):
            assert (ROOT / "docs" / doc).exists(), doc


#: MetricsRegistry methods whose first argument is a metric name
REGISTRY_METHODS = {"counter", "gauge", "histogram", "count", "observe",
                    "set_gauge", "gauge_fn", "time", "bind_counter",
                    "bind_histogram"}


def registered_metric_names():
    """Metric-name literals passed to registry methods in src/repro.

    Parsed with :mod:`ast`, so calls split over several lines count; a
    call counts when its receiver expression names the registry
    (``self.metrics``, ``meta.metrics``, ``metrics``, ...).
    """
    names = set()
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in REGISTRY_METHODS
                    and "metrics" in ast.unparse(node.func.value)
                    and node.args
                    and isinstance(node.args[0], ast.Constant)
                    and isinstance(node.args[0].value, str)):
                names.add(node.args[0].value)
    return names


def catalogued_metric_names():
    """First-column names of the tables headed ``| name | kind | ...``."""
    names = set()
    in_table = False
    for line in read("docs/observability.md").splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if not line.startswith("|"):
            in_table = False
        elif cells[:2] == ["name", "kind"]:
            in_table = True
        elif in_table and not set(cells[0]) <= set("-"):
            names.add(cells[0].strip("`"))
    return names


class TestMetricCatalogue:
    def test_catalogue_matches_registered_metrics(self):
        registered = registered_metric_names()
        catalogued = catalogued_metric_names()
        # both sides are non-trivial, so a parser regression cannot pass
        assert {"enactor_step_seconds",
                "enactor_unacked_creates_reaped_total",
                "federation_shard_members"} <= registered
        assert "sim_events_processed" in catalogued
        assert sorted(registered - catalogued) == [], "not catalogued"
        assert sorted(catalogued - registered) == [], "not registered"


#: ``meta.<name>(`` calls and ``Metasystem.<name>`` references
META_REF = re.compile(r"\bmeta\.([A-Za-z_]\w*)\(|\bMetasystem\.([A-Za-z_]\w*)")


def source_docstrings():
    """(path, docstring) for every module/class/function in src/repro."""
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
                doc = ast.get_docstring(node)
                if doc:
                    yield path.relative_to(ROOT), doc


def metasystem_references():
    """(where, name) for every Metasystem member the prose names."""
    texts = [(f"docs/{p.name}", p.read_text(encoding="utf-8"))
             for p in sorted((ROOT / "docs").glob("*.md"))]
    texts.append(("README.md", read("README.md")))
    texts.extend((str(path), doc) for path, doc in source_docstrings())
    for where, text in texts:
        for match in META_REF.finditer(text):
            yield where, match.group(1) or match.group(2)


class TestMetasystemReferences:
    def test_docs_name_existing_metasystem_members(self):
        from repro.metasystem import Metasystem
        meta = Metasystem(seed=0)
        refs = list(metasystem_references())
        # the scan sees both spellings, so a regex regression cannot pass
        names = {name for _where, name in refs}
        assert {"install", "make_scheduler"} <= names
        missing = sorted({f"{where}: {name}" for where, name in refs
                          if not hasattr(meta, name)})
        assert missing == []


def scenario_table_names():
    """First-column names of the table headed ``| scenario | driver |``
    in docs/architecture.md."""
    names, in_table = set(), False
    for line in read("docs/architecture.md").splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if not line.startswith("|"):
            in_table = False
        elif cells[:2] == ["scenario", "driver"]:
            in_table = True
        elif in_table and not set(cells[0]) <= set("-"):
            names.add(cells[0].strip("`"))
    return names


class TestScenarioCatalogue:
    def test_every_scenario_has_a_subcommand_and_a_table_row(self):
        from repro.scenario import SCENARIOS
        from repro.tools.cli import CAMPAIGNS, build_parser

        subcommands = set(build_parser()._subparsers._group_actions[0]
                          .choices)
        # a campaign subcommand runs its scenario; scale has its own
        run_by = {entry.scenario for entry in CAMPAIGNS.values()}
        assert set(CAMPAIGNS) <= subcommands
        missing = [name for name in SCENARIOS
                   if name not in run_by and name not in subcommands]
        assert missing == []
        assert scenario_table_names() == set(SCENARIOS)
