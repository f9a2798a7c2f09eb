import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

import edgecache
from edgecache.baselines import RgcConfig
from edgecache.cnn import CnnError, CnnModel, TrainConfig, load_model, save_model
from edgecache.cost import assignment_from_classes, load_assignment, save_assignment
from edgecache.encoder import EncodingError, NormConfig, encode, split_subimages
from edgecache.formats import integer
from edgecache.harness import (
    build_dataset,
    generate_instances,
    load_corpus,
    recursive_allocate,
    train_models,
)
from edgecache.instance import (
    InstanceError,
    ParameterRanges,
    check_generation,
    generate_instance,
    load_instance,
    save_instance,
)
from edgecache.solver import check_budget, solve_exact
from edgecache.topology import (
    Topology,
    TopologyConfig,
    TopologyError,
    build_topology,
    load_topology,
    save_topology,
)

TOPO = build_topology(TopologyConfig(branching=2, depth=2))


def _topology(tmp_path):
    path = tmp_path / "topo.json"
    save_topology(TOPO, path)
    return path, lambda: load_topology(path)


def _instance(tmp_path):
    path = tmp_path / "inst.json"
    save_instance(generate_instance(TOPO, 3, seed=1), path)
    return path, lambda: load_instance(path)


def _assignment(tmp_path):
    path = tmp_path / "asg.json"
    inst = generate_instance(TOPO, 3, seed=1)
    save_assignment(assignment_from_classes(inst, [0, 1, TOPO.num_edge_clouds]), path)
    return path, lambda: load_assignment(path)


def _corpus(tmp_path):
    build_dataset(TOPO, n=1, flows=2, seed=0, out_dir=tmp_path)
    return tmp_path / "manifest.json", lambda: load_corpus(tmp_path)


def _model(tmp_path):
    save_model(CnnModel(input_shape=(2, 4), num_classes=3, filters=(2,)), tmp_path / "model_0")
    return tmp_path / "model_0.manifest.json", lambda: load_model(tmp_path / "model_0")


def test_saved_instance_file_is_byte_stable(tmp_path):
    # Recorded while write_json still called json.dump: the C encoder
    # must write the same bytes.
    path, _ = _instance(tmp_path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "45a7bf4245c31e321e661e27617937beb64895f10d0dae04a08e4c697dac65cb"


# (file kind, keys leading to the envelope inside the file, expected error)
CASES = [
    (_topology, (), TopologyError),
    (_instance, (), InstanceError),
    (_instance, ("topology",), InstanceError),
    (_assignment, (), ValueError),
    (_corpus, (), ValueError),
    (_model, (), CnnError),
]


@pytest.mark.parametrize("field,bad", [("format", "edgecache-other"), ("version", 2)])
@pytest.mark.parametrize(
    "write,keys,error", CASES,
    ids=["topology", "instance", "instance-inline-topology", "assignment", "corpus", "model"],
)
def test_loader_rejects_wrong_envelope(tmp_path, write, keys, error, field, bad):
    path, load = write(tmp_path)
    load()  # the untouched file reads back
    payload = json.loads(path.read_text())
    envelope = payload
    for key in keys:
        envelope = envelope[key]
    if envelope[field] == bad:  # the model reader is at version 2 already
        bad += 1
    envelope[field] = bad
    path.write_text(json.dumps(payload))
    with pytest.raises(error):
        load()


def _drop(key):
    def edit(payload):
        del payload[key]
    return edit


def _set(key, value):
    def edit(payload):
        payload[key] = value
    return edit


def _drop_sample_labels(payload):
    del payload["samples"][0]["labels"]


def _set_sample_labels(labels):
    def edit(payload):
        payload["samples"][0]["labels"] = labels
    return edit


# (file kind, edit past the envelope, expected error, field the message names)
FIELD_CASES = [
    (_topology, _set("links", [[0]]), TopologyError, "links"),
    (_instance, _drop("mobility"), InstanceError, "mobility"),
    (_instance, _set("mobility", [0.5, 0.5]), InstanceError, "mobility"),
    (_assignment, _set("z", [[0, 1]]), ValueError, "'z'"),
    (_corpus, _drop_sample_labels, ValueError, "samples"),
    (_corpus, _set_sample_labels([1.5, 0]), ValueError, "'samples'.* integer"),
    (_corpus, _set_sample_labels([0]), ValueError, "'samples': expected 2 integers, got 1"),
    (_corpus, _set("norm", {"q_max": 0.0, "r_max": 0.2}), ValueError, "norm"),
    (_model, _drop("num_classes"), CnnError, "num_classes"),
]


@pytest.mark.parametrize(
    "write,edit,error,field", FIELD_CASES,
    ids=["topology", "instance-missing", "instance-flat", "assignment", "corpus",
         "corpus-fractional-label", "corpus-short-labels", "corpus-norm", "model"],
)
def test_loader_names_malformed_field(tmp_path, write, edit, error, field):
    path, load = write(tmp_path)
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))
    with pytest.raises(error, match=field):
        load()


@pytest.mark.parametrize(
    "write,field,error", [(_model, "norm_digest", CnnError), (_corpus, "excluded", ValueError)],
    ids=["model", "corpus"],
)
def test_loader_requires_field_its_writer_always_writes(tmp_path, write, field, error):
    path, load = write(tmp_path)
    payload = json.loads(path.read_text())
    del payload[field]
    path.write_text(json.dumps(payload))
    with pytest.raises(error, match=field):
        load()


class SettingError(ValueError):
    pass


def test_integer_accepts_python_and_numpy_integers():
    assert integer(3, "count", SettingError) == 3
    out = integer(np.int64(3), "count", SettingError, minimum=3)
    assert out == 3 and type(out) is int


@pytest.mark.parametrize("value", [2.5, "3", None, np.float64(3.0)])
def test_integer_refuses_what_is_not_an_integer(value):
    with pytest.raises(SettingError, match=re.escape(f"count must be an integer, got {value!r}")):
        integer(value, "count", SettingError)


def test_integer_checks_the_minimum_at_its_boundary():
    assert integer(1, "count", SettingError, minimum=1) == 1
    assert integer(-5, "count", SettingError) == -5  # no minimum, no bound
    with pytest.raises(SettingError, match="count must be >= 1, got 0"):
        integer(0, "count", SettingError, minimum=1)
    with pytest.raises(SettingError, match="count must be >= 1, got 0"):
        integer(np.int64(0), "count", SettingError, minimum=1)


def _image():
    inst = generate_instance(TOPO, 3, seed=1)
    return encode(inst, NormConfig.from_ranges(ParameterRanges()))


# (error, setting the message names, call with the bad value and an
# output directory that must stay uncreated)
SITES = {
    "train_config-epochs": (CnnError, "epochs", lambda v, out: TrainConfig(epochs=v)),
    "train_config-batch_size": (CnnError, "batch_size", lambda v, out: TrainConfig(batch_size=v)),
    "train_config-seed": (CnnError, "seed", lambda v, out: TrainConfig(seed=v)),
    "train_config-request_index": (
        CnnError, "request_index", lambda v, out: TrainConfig(request_index=v)
    ),
    "train_config-num_classes": (CnnError, "num_classes", lambda v, out: TrainConfig(num_classes=v)),
    "rgc-epochs": (ValueError, "epochs", lambda v, out: RgcConfig(epochs=v)),
    "rgc-seed": (ValueError, "seed", lambda v, out: RgcConfig(seed=v)),
    "build_dataset-n": (ValueError, "n", lambda v, out: build_dataset(TOPO, v, 2, 0, out)),
    "build_dataset-seed": (ValueError, "seed", lambda v, out: build_dataset(TOPO, 1, 2, v, out)),
    "build_dataset-flows": (
        InstanceError, "num_flows", lambda v, out: build_dataset(TOPO, 1, v, 0, out)
    ),
    "train_models-workers": (ValueError, "workers", lambda v, out: train_models(None, workers=v)),
    "recursive_allocate-block": (
        ValueError, "block", lambda v, out: recursive_allocate((), None, v, None)
    ),
    "generate_instances-count": (
        ValueError, "count", lambda v, out: generate_instances(TOPO, v, 2, 0, out)
    ),
    "generate_instances-seed": (
        ValueError, "seed", lambda v, out: generate_instances(TOPO, 1, 2, v, out)
    ),
    "generate_instances-flows": (
        InstanceError, "num_flows", lambda v, out: generate_instances(TOPO, 1, v, 0, out)
    ),
    "check_budget": (ValueError, "budget", lambda v, out: check_budget(v)),
    "solve_exact-budget": (
        ValueError, "budget", lambda v, out: solve_exact(generate_instance(TOPO, 2), budget=v)
    ),
    "check_generation": (
        InstanceError, "num_flows", lambda v, out: check_generation(v, ParameterRanges())
    ),
    "generate_instance": (InstanceError, "num_flows", lambda v, out: generate_instance(TOPO, v)),
    "mobility_support-lo": (
        InstanceError, "mobility_support lo",
        lambda v, out: ParameterRanges(mobility_support=(v, 3)).validate(),
    ),
    "mobility_support-hi": (
        InstanceError, "mobility_support hi",
        lambda v, out: ParameterRanges(mobility_support=(1, v)).validate(),
    ),
    "split_subimages": (
        EncodingError, "rows_per_block", lambda v, out: split_subimages(_image(), v)
    ),
    "topology_config-depth": (TopologyError, "depth", lambda v, out: TopologyConfig(depth=v)),
    "topology_config-mesh_links": (
        TopologyError, "mesh_links", lambda v, out: TopologyConfig(mesh_links=v)
    ),
    "topology_config-datacenter_hops": (
        TopologyError, "datacenter_hops", lambda v, out: TopologyConfig(datacenter_hops=v)
    ),
    "topology_config-seed": (TopologyError, "seed", lambda v, out: TopologyConfig(seed=v)),
    "topology_config-ec_count": (
        TopologyError, "ec_count", lambda v, out: TopologyConfig(ec_rule="random", ec_count=v)
    ),
    "topology-datacenter_hops": (
        TopologyError, "datacenter_hops",
        lambda v, out: Topology(nodes=(0, 1), links=((0, 1),), access_routers=(1,),
                                edge_clouds=(0,), datacenter_hops=v),
    ),
    "branching-uniform": (
        TopologyError, "branching", lambda v, out: build_topology(TopologyConfig(branching=v))
    ),
    "branching-per_level": (
        TopologyError, "branching factor",
        lambda v, out: build_topology(TopologyConfig(branching=(2, v, 2))),
    ),
}


@pytest.mark.parametrize("site", list(SITES))
def test_every_integer_setting_refuses_a_fraction_by_name(tmp_path, site):
    error, setting, call = SITES[site]
    out = tmp_path / "out"
    with pytest.raises(error, match=rf"\b{setting} must be an integer, got 2\.5"):
        call(2.5, out)
    assert not out.exists()


def test_only_formats_checks_integer_settings():
    # operator.index passed uncalled, as a read_fields converter, is allowed.
    for path in sorted(Path(edgecache.__file__).parent.glob("*.py")):
        if path.name == "formats.py":
            continue
        text = path.read_text()
        assert "operator.index(" not in text, path.name
        assert not re.search(r"^\s*(import|from)\s+numbers\b", text, re.MULTILINE), path.name
