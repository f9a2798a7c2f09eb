import hashlib
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from edgecache.harness import DATASET_RANGES, evaluation_topology
from edgecache.instance import (
    Instance,
    InstanceError,
    ParameterRanges,
    _sample_without_replacement,
    generate_instance,
    load_instance,
    ratios,
    save_instance,
)
from edgecache.topology import TopologyConfig, build_topology


@pytest.fixture(scope="module")
def topo():
    return build_topology(TopologyConfig(branching=2, depth=3))


def test_defaults_respect_table_ranges(topo):
    inst = generate_instance(topo, 5, seed=0)
    assert ((inst.content_size >= 10) & (inst.content_size <= 50)).all()
    assert ((inst.link_capacity >= 50) & (inst.link_capacity <= 100)).all()
    assert ((inst.ec_space >= 100) & (inst.ec_space <= 500)).all()
    assert ((inst.bandwidth >= 1) & (inst.bandwidth <= 10)).all()


def test_same_seed_same_instance(topo):
    a = generate_instance(topo, 7, seed=123)
    b = generate_instance(topo, 7, seed=123)
    assert (a.mobility == b.mobility).all()
    assert (a.content_size == b.content_size).all()
    assert (a.link_capacity == b.link_capacity).all()
    assert a.alpha == b.alpha and a.beta == b.beta


def test_corpus_scan_stays_in_range(topo):
    # Brute-force scan over a generated corpus: every sampled parameter
    # must stay inside its configured interval.
    lo = {"s": np.inf, "w": np.inf, "b": np.inf, "c": np.inf}
    hi = {"s": -np.inf, "w": -np.inf, "b": -np.inf, "c": -np.inf}
    for seed in range(1000):
        inst = generate_instance(topo, 5, seed=seed)
        lo["s"], hi["s"] = min(lo["s"], inst.content_size.min()), max(hi["s"], inst.content_size.max())
        lo["w"], hi["w"] = min(lo["w"], inst.ec_space.min()), max(hi["w"], inst.ec_space.max())
        lo["b"], hi["b"] = min(lo["b"], inst.bandwidth.min()), max(hi["b"], inst.bandwidth.max())
        lo["c"], hi["c"] = min(lo["c"], inst.link_capacity.min()), max(hi["c"], inst.link_capacity.max())
        assert inst.mobility.sum(axis=1).max() <= 1 + 1e-9
    assert lo["s"] >= 10 and hi["s"] <= 50
    assert lo["w"] >= 100 and hi["w"] <= 500
    assert lo["b"] >= 1 and hi["b"] <= 10
    assert lo["c"] >= 50 and hi["c"] <= 100


def test_sampler_matches_numpy_weighted_choice():
    # The sampler must return numpy's indices from numpy's draws: the
    # same ARs, and the generator left where rng.choice leaves it.
    cases = np.random.default_rng(2024)
    for case in range(10_000):
        A = int(cases.integers(2, 13))
        size = int(cases.integers(1, A + 1))
        if case % 10 == 0:  # ar_crowding=None
            popularity = np.full(A, 1.0 / A)
        else:
            concentration = float(np.exp(cases.uniform(np.log(0.05), np.log(5.0))))
            popularity = cases.dirichlet(np.full(A, concentration)) + 1e-9
        p = popularity / popularity.sum()
        ours, theirs = np.random.default_rng([case, 1]), np.random.default_rng([case, 1])
        want = theirs.choice(A, size=size, replace=False, p=p).tolist()
        assert _sample_without_replacement(ours, p.tolist(), size) == want, case
        assert ours.random() == theirs.random(), case


def _instance_digest(topo, flows: int, seed: int, count: int) -> str:
    h = hashlib.sha256()
    for j in range(count):
        inst = generate_instance(topo, flows, ranges=DATASET_RANGES, seed=[seed, j])
        for name in ("mobility", "content_size", "bandwidth", "ec_space", "link_capacity"):
            arr = getattr(inst, name)
            h.update(arr.dtype.str.encode())
            h.update(arr.tobytes())
        h.update(float(inst.alpha).hex().encode() + float(inst.beta).hex().encode())
    return h.hexdigest()


def test_benchmark_instance_sets_match_the_recorded_digests():
    # The benchmark's and the acceptance suite's instance sets, hashed
    # array by array as recorded before the in-package sampler: any
    # drift in generation shows here (see the fixture's note).
    ref = json.loads((Path(__file__).parent / "data" / "instance_digests.json").read_text())
    topo = evaluation_topology()
    assert len(ref["sets"]) == 6
    for entry in ref["sets"]:
        got = _instance_digest(topo, entry["flows"], entry["seed"], entry["count"])
        assert got == entry["sha256"], entry["name"]


def test_rejects_zero_flows(topo):
    with pytest.raises(InstanceError):
        generate_instance(topo, 0, seed=0)


@pytest.mark.parametrize(
    "field,value,message",
    [("content_size", (1.0, np.inf), "range content_size must satisfy 0 < lo <= hi < inf"),
     ("link_capacity", (np.inf, np.inf), "range link_capacity must satisfy"),
     ("ar_crowding", np.inf, "ar_crowding must be positive and finite")],
)
def test_ranges_refuse_infinite_bounds(field, value, message):
    with pytest.raises(InstanceError, match=message):
        ParameterRanges(**{field: value}).validate()


SUPPORT_REFUSALS = {
    (2.5, 3): "lo must be an integer, got 2.5",
    (2, np.inf): "hi must be an integer, got inf",
    (2, 3.0): "hi must be an integer, got 3.0",
    (0, 3): "lo must be >= 1, got 0",
    (3, 2): "hi must be >= 3, got 2",
}


@pytest.mark.parametrize("bounds", list(SUPPORT_REFUSALS))
def test_ranges_refuse_a_mobility_support_that_is_not_an_integer_range(bounds):
    ParameterRanges(mobility_support=(np.int64(2), 3)).validate()
    with pytest.raises(InstanceError, match=f"mobility_support {SUPPORT_REFUSALS[bounds]}"):
        ParameterRanges(mobility_support=bounds).validate()


def test_ratio_arithmetic(topo):
    inst = generate_instance(topo, 3, seed=1)
    inst = Instance(
        topology=inst.topology,
        mobility=inst.mobility,
        content_size=np.array([50.0, 20.0, 30.0]),
        bandwidth=np.array([10.0, 5.0, 2.0]),
        ec_space=np.full(topo.num_edge_clouds, 100.0),
        link_capacity=np.full(topo.num_links, 50.0),
        alpha=0.5,
        beta=0.5,
    )
    q, r = ratios(inst)
    assert q[0, 0] == pytest.approx(0.5)
    assert r[0, 0] == pytest.approx(0.2)


def test_ratios_match_cell_by_cell_oracle(topo):
    inst = generate_instance(topo, 5, seed=11)
    q, r = ratios(inst)
    for k in range(5):
        for e in range(topo.num_edge_clouds):
            assert q[k, e] == pytest.approx(inst.content_size[k] / inst.ec_space[e], abs=1e-15)
        for l in range(topo.num_links):
            assert r[k, l] == pytest.approx(inst.bandwidth[k] / inst.link_capacity[l], abs=1e-15)
    # exact arithmetic: q * w recovers s to floating tolerance
    assert np.abs(q * inst.ec_space[None, :] - inst.content_size[:, None]).max() < 1e-12 * 500


def test_default_ranges_bound_the_ratios(topo):
    for seed in range(50):
        q, r = ratios(generate_instance(topo, 5, seed=seed))
        assert q.max() <= 0.5 + 1e-12
        assert r.max() <= 0.2 + 1e-12


def test_mobility_rows_have_sparse_support(topo):
    inst = generate_instance(topo, 50, seed=3)
    support = (inst.mobility > 0).sum(axis=1)
    assert ((support >= 2) & (support <= 4)).all()
    sums = inst.mobility.sum(axis=1)
    assert ((sums >= 0.8 - 1e-12) & (sums <= 1.0 + 1e-12)).all()


def test_validation_rejects_bad_values(topo):
    inst = generate_instance(topo, 2, seed=0)
    with pytest.raises(InstanceError):
        Instance(
            topology=inst.topology,
            mobility=np.full((2, topo.num_access_routers), 0.9),  # rows sum > 1
            content_size=inst.content_size,
            bandwidth=inst.bandwidth,
            ec_space=inst.ec_space,
            link_capacity=inst.link_capacity,
            alpha=0.5,
            beta=0.5,
        )
    with pytest.raises(InstanceError):
        Instance(
            topology=inst.topology,
            mobility=inst.mobility,
            content_size=np.array([0.0, 10.0]),
            bandwidth=inst.bandwidth,
            ec_space=inst.ec_space,
            link_capacity=inst.link_capacity,
            alpha=0.5,
            beta=0.5,
        )


FIELDS = ("mobility", "content_size", "bandwidth", "ec_space", "link_capacity")


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("field", FIELDS)
def test_validation_rejects_non_finite_entries(topo, field, bad):
    # NaN fails every comparison the other checks make, so without this
    # one a NaN entry passed them all.
    inst = generate_instance(topo, 3, seed=1)
    values = getattr(inst, field).copy()
    values.flat[1] = bad
    with pytest.raises(InstanceError, match=f"{field} entries must be finite"):
        replace(inst, **{field: values})


@pytest.mark.parametrize("field", FIELDS)
def test_load_refuses_a_nan_literal(tmp_path, topo, field):
    # json reads (and writes) the non-standard NaN literal as a float.
    inst = generate_instance(topo, 3, seed=1)
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    payload = json.loads(path.read_text())
    values = np.array(payload[field])
    values.flat[1] = np.nan
    payload[field] = values.tolist()
    path.write_text(json.dumps(payload))
    assert "NaN" in path.read_text()
    with pytest.raises(InstanceError, match=f"{field} entries must be finite"):
        load_instance(path)


def test_instance_round_trip(tmp_path, topo):
    inst = generate_instance(topo, 4, seed=8)
    save_instance(inst, tmp_path / "inst.json")
    back = load_instance(tmp_path / "inst.json")
    assert back.topology == inst.topology
    assert np.allclose(back.mobility, inst.mobility)
    assert np.allclose(back.content_size, inst.content_size)
    assert back.alpha == inst.alpha
