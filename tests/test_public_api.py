"""Public-API surface tests: everything the README advertises imports.

A release whose documented imports break is dead on arrival; this module
pins the package-level exports (and that ``__all__`` names exist).
"""

import importlib

import pytest


PACKAGES = [
    "repro",
    "repro.nn",
    "repro.graph",
    "repro.data",
    "repro.eval",
    "repro.core",
    "repro.baselines",
    "repro.training",
    "repro.analysis",
    "repro.utils",
    "repro.plan",
    "repro.serving",
    "repro.store",
]


class TestImports:
    @pytest.mark.parametrize("name", PACKAGES)
    def test_package_imports(self, name):
        importlib.import_module(name)

    @pytest.mark.parametrize("name", PACKAGES)
    def test_all_names_resolve(self, name):
        module = importlib.import_module(name)
        for symbol in getattr(module, "__all__", []):
            assert hasattr(module, symbol), f"{name}.__all__ lists missing {symbol}"


class TestReadmeSnippets:
    def test_quickstart_imports(self):
        from repro.core import MGBR, MGBRConfig          # noqa: F401
        from repro.data import SyntheticConfig, generate_dataset  # noqa: F401
        from repro.eval import evaluate_model            # noqa: F401
        from repro.training import TrainConfig, Trainer  # noqa: F401

    def test_version_string(self):
        import repro

        assert repro.__version__.count(".") == 2

    def test_config_paper_profile_matches_table2(self):
        from repro.core import MGBRConfig

        cfg = MGBRConfig.paper()
        assert (cfg.d, cfg.n_experts, cfg.mtl_layers) == (128, 6, 2)
