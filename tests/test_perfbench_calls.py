"""The benchmark under perfbench/ calls edgecache by name.  A renamed
function or a call form its signature no longer takes would end a
benchmark run as run_failed, so these checks read perfbench's sources
(parsed, never imported) against the package."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

from edgecache import baselines, harness, pel

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
MODULES = (
    "baselines", "cnn", "cost", "encoder", "harness", "instance", "pel", "solver", "topology",
)


def _traced() -> dict:
    for node in ast.parse((PERFBENCH / "tracing.py").read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py defines no TRACED")


def test_every_traced_name_resolves_in_its_module():
    traced = _traced()
    assert "harness" in traced
    for layer, names in traced.items():
        module = importlib.import_module(f"edgecache.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"edgecache.{layer}.{name}"


def test_every_package_attribute_perfbench_reads_resolves():
    modules = {name: importlib.import_module(f"edgecache.{name}") for name in MODULES}
    seen = 0
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules
            ):
                seen += 1
                assert hasattr(modules[node.value.id], node.attr), (
                    f"{path.name}: {node.value.id}.{node.attr}"
                )
    assert seen > 0


@pytest.mark.parametrize(
    "fn, positional, keywords",
    [
        (harness.predict_with_enhancement, ("models", "inst", "norm"), ()),
        (harness.recursive_allocate, ("models", "inst", 5, "norm"), ()),
        (pel.enhance, ("inst", "O"), ("trace_path",)),
        (baselines.rgc, ("inst", "cfg"), ("trace",)),
    ],
    ids=["predict_with_enhancement", "recursive_allocate", "enhance", "rgc"],
)
def test_perfbench_call_forms_bind(fn, positional, keywords):
    bound = inspect.signature(fn).bind(*positional, **dict.fromkeys(keywords))
    assert list(bound.arguments.values())[: len(positional)] == list(positional)
