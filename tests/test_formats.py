import hashlib
import json

import pytest

from edgecache.cnn import CnnError, CnnModel, load_model, save_model
from edgecache.cost import assignment_from_classes, load_assignment, save_assignment
from edgecache.harness import build_dataset, load_corpus
from edgecache.instance import InstanceError, generate_instance, load_instance, save_instance
from edgecache.topology import (
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


# (file kind, edit past the envelope, expected error, field the message names)
FIELD_CASES = [
    (_topology, _set("links", [[0]]), TopologyError, "links"),
    (_instance, _drop("mobility"), InstanceError, "mobility"),
    (_instance, _set("mobility", [0.5, 0.5]), InstanceError, "mobility"),
    (_assignment, _set("z", [[0, 1]]), ValueError, "'z'"),
    (_corpus, _drop_sample_labels, ValueError, "samples"),
    (_corpus, _set("norm", {"q_max": 0.0, "r_max": 0.2}), ValueError, "norm"),
    (_model, _drop("num_classes"), CnnError, "num_classes"),
]


@pytest.mark.parametrize(
    "write,edit,error,field", FIELD_CASES,
    ids=["topology", "instance-missing", "instance-flat", "assignment", "corpus", "corpus-norm",
         "model"],
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
