"""The demo configs and scripts stay in step with the program: every config
passes validation and every script imports, without running its main."""

import importlib.util
import pathlib

import pytest

from bgs import cli

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"
CONFIGS = sorted(DEMOS.glob("configs/*.json"))
SCRIPTS = sorted(DEMOS.glob("*.py"))


def test_demos_are_found():
    assert CONFIGS and SCRIPTS


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
def test_demo_config_validates(path):
    cfg = cli.load_config(str(path))
    assert cfg["_constants_given"] is False


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_demo_script_imports_without_running(path):
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
