"""The documented public surface stays importable.

docs/API.md promises that the public surface is exactly
``repro.__all__`` plus the documented package namespaces
(``repro.plan`` / ``repro.runtime`` / ``repro.obs``).  These tests
import every promised name so a refactor that drops or renames one
fails here, with the docs as the source of truth, before any user
notices.
"""

import importlib
import re
from pathlib import Path

import pytest

import repro


# The names docs/API.md calls out explicitly, per stability tier.
STABLE = [
    # engine surface
    "StreamEngine",
    "PreparedQuery",
    "ExecutionConfig",
    "RetryPolicy",
    # explain API
    "EXPLAIN_MODES",
    "parse_explain",
    "render_explain",
    # fault tolerance
    "FaultPlan",
    "FaultSpec",
    "RecoveryStats",
    # observability
    "MetricsReport",
    "RunTelemetry",
    "TraceCollector",
    # errors
    "ReproError",
    "SqlError",
    "ExecutionError",
    "SchemaError",
    "WatermarkError",
]

PROVISIONAL = [
    "PhysicalDecision",
    "TwoPhaseSplit",
    "plan_physical",
    "split_eligibility",
    "MIN_COMBINE_FANIN",
]

PACKAGE_SURFACES = {
    "repro.plan": [
        "LogicalNode",
        "AggregateNode",
        "PartialAggregateNode",
        "plan_fingerprint",
        "PhysicalDecision",
        "TwoPhaseSplit",
        "plan_physical",
        "split_eligibility",
        "MIN_COMBINE_FANIN",
    ],
    "repro.runtime": [
        "ShardedDataflow",
        "CombineStage",
        "WatermarkFrontier",
        "RetryPolicy",
        "FaultPlan",
    ],
    "repro.obs": [
        "MetricsReport",
        "RunTelemetry",
        "RecoveryStats",
        "TraceCollector",
        "LineageRecorder",
    ],
}


class TestTopLevelSurface:
    def test_all_names_resolve(self):
        missing = [n for n in repro.__all__ if not hasattr(repro, n)]
        assert missing == []

    def test_no_duplicates_in_all(self):
        assert len(repro.__all__) == len(set(repro.__all__))

    @pytest.mark.parametrize("name", STABLE + PROVISIONAL)
    def test_documented_name_is_exported(self, name):
        assert name in repro.__all__
        assert getattr(repro, name) is not None

    def test_version_is_pep440_ish(self):
        major, minor, patch = repro.__version__.split(".")
        assert all(part.isdigit() for part in (major, minor, patch))

    def test_version_matches_packaging_metadata(self):
        # A regex, not tomllib: the suite also runs on Python 3.10.
        root = Path(__file__).resolve().parents[1]
        pyproject = (root / "pyproject.toml").read_text()
        project = re.search(r"^\[project\]$(.*?)^\[", pyproject, re.M | re.S)
        assert project is not None
        version = re.search(r'^version\s*=\s*"([^"]+)"', project.group(1), re.M)
        assert version is not None
        assert repro.__version__ == version.group(1)
        setup_py = (root / "setup.py").read_text()
        assert f'version="{repro.__version__}"' in setup_py


class TestPackageSurfaces:
    @pytest.mark.parametrize("package", sorted(PACKAGE_SURFACES))
    def test_package_all_resolves(self, package):
        mod = importlib.import_module(package)
        missing = [n for n in mod.__all__ if not hasattr(mod, n)]
        assert missing == []

    @pytest.mark.parametrize(
        "package,name",
        [(p, n) for p, names in PACKAGE_SURFACES.items() for n in names],
    )
    def test_documented_package_name(self, package, name):
        mod = importlib.import_module(package)
        assert name in mod.__all__
        assert getattr(mod, name) is not None


class TestFacadeCoherence:
    def test_top_level_reexports_are_the_same_objects(self):
        import repro.plan
        import repro.runtime

        assert repro.PhysicalDecision is repro.plan.PhysicalDecision
        assert repro.plan_physical is repro.plan.plan_physical
        assert repro.split_eligibility is repro.plan.split_eligibility
        assert repro.RetryPolicy is repro.runtime.RetryPolicy
        assert repro.FaultPlan is repro.runtime.FaultPlan

    def test_explain_modes_is_the_renderers_contract(self):
        assert repro.EXPLAIN_MODES == ("logical", "physical", "costs", "analyze")
        parsed = repro.parse_explain("EXPLAIN (COSTS) SELECT 1")
        assert parsed == ("costs", "SELECT 1")
        assert repro.parse_explain("SELECT 1") is None
