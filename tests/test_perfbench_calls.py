"""The benchmark under perfbench/ calls edgecache by name.  A renamed
function or a call form its signature no longer takes would end a
benchmark run as run_failed, so these checks read perfbench's sources
(parsed, never imported) against the package."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

from edgecache import baselines, cnn, harness, pel
from edgecache.topology import TopologyConfig, build_topology

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


def _sources():
    for path in sorted(PERFBENCH.glob("*.py")):
        yield path.name, ast.walk(ast.parse(path.read_text()))


def _chain(node) -> tuple[str, ...] | None:
    """("cost", "network_tables", "cache_clear") for the expression
    cost.network_tables.cache_clear; None unless it starts at a name."""
    attrs = []
    while isinstance(node, ast.Attribute):
        attrs.append(node.attr)
        node = node.value
    return (node.id, *reversed(attrs)) if isinstance(node, ast.Name) else None


def test_every_package_attribute_perfbench_reads_resolves():
    # Whole chains: perfbench calls cost.network_tables.cache_clear(),
    # which only an lru_cache-wrapped network_tables has.
    modules = {name: importlib.import_module(f"edgecache.{name}") for name in MODULES}
    chains = set()
    for name, nodes in _sources():
        for node in nodes:
            chain = _chain(node) if isinstance(node, ast.Attribute) else None
            if chain and chain[0] in modules:
                chains.add((name, chain))
    assert any(len(chain) > 2 for _, chain in chains)
    for name, (module, *attrs) in sorted(chains):
        target = modules[module]
        for depth, attr in enumerate(attrs, 2):
            assert hasattr(target, attr), f"{name}: {'.'.join((module, *attrs)[:depth])}"
            target = getattr(target, attr)


def test_every_module_call_in_perfbench_binds():
    # <module>.<name>(...) against name's signature: the positional count
    # and the keyword names.  A call that unpacks * or ** arguments may
    # fill any parameter, so it is bound partially, without them.
    modules = {name: importlib.import_module(f"edgecache.{name}") for name in MODULES}
    seen = 0
    for name, nodes in _sources():
        for node in nodes:
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            chain = _chain(node.func)
            if not (chain and len(chain) == 2 and chain[0] in modules):
                continue
            positional = [a for a in node.args if not isinstance(a, ast.Starred)]
            keywords = [k.arg for k in node.keywords if k.arg is not None]
            unpacks = len(positional) < len(node.args) or len(keywords) < len(node.keywords)
            signature = inspect.signature(getattr(modules[chain[0]], chain[1]))
            bind = signature.bind_partial if unpacks else signature.bind
            try:
                bind(*positional, **dict.fromkeys(keywords))
            except TypeError as exc:
                raise AssertionError(f"{name}:{node.lineno}: {ast.unparse(node)}: {exc}") from None
            seen += 1
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


def test_train_models_trains_each_slot_through_cnn_train(tmp_path, monkeypatch):
    # perfbench's tracer books training under cnn by wrapping cnn.train.
    # Were train_models to train a slot any other way, its time would
    # count as harness self time and cnn.self_share would read near 0.
    assert "train" in _traced()["cnn"]
    topo = build_topology(TopologyConfig(branching=2, depth=2, ec_rule="internal"))
    corpus = harness.build_dataset(topo, n=10, flows=3, seed=5, out_dir=tmp_path)
    calls = []
    train = cnn.train

    def counting(samples, cfg):
        calls.append(cfg.request_index)
        return train(samples, cfg)

    monkeypatch.setattr(cnn, "train", counting)
    models, _ = harness.train_models(corpus, epochs=1, workers=2)
    assert sorted(calls) == list(range(corpus.flows)) == [m.request_index for m in models]
