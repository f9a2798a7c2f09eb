import dataclasses

import numpy as np
import pytest

from edgecache import baselines
from edgecache.baselines import RgcConfig, _ec_neighborhoods, expected_hops, gca, rgc
from edgecache.cost import check_feasibility, penalized_cost
from edgecache.harness import DATASET_RANGES, evaluation_topology
from edgecache.instance import Instance, generate_instance
from edgecache.topology import Topology, TopologyConfig, build_topology, hop_matrix

from conftest import manual_instance
from oracles import rgc_reference


@pytest.fixture(scope="module")
def escape_topology():
    # EC 0 is nearest to both ARs; EC 1 sits one hop behind it.
    return Topology(
        nodes=(0, 1, 2, 3),
        links=((0, 1), (0, 2), (0, 3)),
        access_routers=(2, 3),
        edge_clouds=(0, 1),
        datacenter_hops=12,
    )


def test_gca_picks_nearest_ec(path_topology):
    # ECs at 1 hop (node 3) and 3 hops (node 1) from the single AR.
    inst = manual_instance(path_topology, [[1.0]], content_size=[10.0])
    asg = gca(inst)
    assert asg.x[0, 1] == 1  # edge_clouds order is (1, 3); node 3 has index 1
    assert asg.x[0, 0] == 0


def test_gca_is_capacity_blind(escape_topology):
    inst = manual_instance(
        escape_topology,
        [[1.0, 0.0], [0.0, 1.0]],
        content_size=[300.0, 300.0],
        ec_space=[500.0, 500.0],
    )
    asg = gca(inst)
    assert (asg.x[:, 0] == 1).all()  # both land on the shared nearest EC
    assert not check_feasibility(inst, asg).ec_capacity


def test_gca_matches_argmin_oracle(tree_topology):
    hops = hop_matrix(tree_topology)
    for seed in range(20):
        inst = generate_instance(tree_topology, 5, seed=seed)
        asg = gca(inst)
        scores = expected_hops(inst)
        for k in range(5):
            expected = sum(
                inst.mobility[k, a] * hops[a, :]
                for a in range(tree_topology.num_access_routers)
            )
            assert np.allclose(scores[k], expected)
            assert asg.x[k].argmax() == int(np.argmin(scores[k]))


def test_gca_invariant_to_capacities(tree_topology):
    inst = generate_instance(tree_topology, 5, seed=7)
    shrunk = Instance(
        topology=inst.topology,
        mobility=inst.mobility,
        content_size=inst.content_size,
        bandwidth=inst.bandwidth,
        ec_space=inst.ec_space * 0.25,
        link_capacity=inst.link_capacity * 0.25,
        alpha=inst.alpha,
        beta=inst.beta,
    )
    assert (gca(inst).x == gca(shrunk).x).all()


def test_rgc_rejects_zero_epochs():
    with pytest.raises(ValueError):
        RgcConfig(epochs=0)


@pytest.mark.parametrize("field,value", [("epochs", 2.5), ("epochs", "10"), ("seed", 1.0)])
def test_rgc_rejects_non_integer_settings(field, value):
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        RgcConfig(**{field: value})


def test_rgc_rejects_a_negative_seed():
    # np.random.default_rng would refuse it only at rgc's first draw.
    with pytest.raises(ValueError, match="seed must be >= 0"):
        RgcConfig(seed=-1)


def test_rgc_accepts_numpy_integers():
    cfg = RgcConfig(epochs=np.int64(3), seed=np.int32(2))
    assert cfg.epochs == 3 and cfg.seed == 2


@pytest.mark.parametrize("gamma", [0.0, -1.0, float("nan"), float("inf"), -float("inf")])
def test_rgc_rejects_non_positive_gamma(gamma):
    with pytest.raises(ValueError, match="gamma"):
        RgcConfig(gamma=gamma)


def draft_blocks(epochs, accepted_at):
    """(size, accepted epoch or None) of each block rgc drafts, walking
    its schedule over the accepts of a one-draft-per-epoch run: 32
    epochs at first, twice the last size (up to 1024) after a block with
    no accept, the same size after one with an accept."""
    blocks, done, size = [], 0, 32
    while done < epochs:
        end = done + min(size, epochs - done)
        accept = next((e for e in accepted_at if done < e <= end), None)
        blocks.append((size, accept))
        done, size = (accept, size) if accept else (end, min(2 * size, 1024))
    return blocks


def assert_same_rgc(inst, cfg):
    """rgc leaves the classes and trace of the per-flow reference, and its
    counters are the ones that walk implies: its accepts, its changed
    drafts at or above the floor, and one price call per draft block.
    Returns the draft blocks."""
    expected_trace, trace, ref_stats, stats = [], [], {}, {}
    ref = rgc_reference(inst, cfg, trace=expected_trace, stats=ref_stats)
    out = rgc(inst, cfg, trace=trace, stats=stats)
    assert (out.x == ref.x).all() and (out.z == ref.z).all() and (out.y == ref.y).all()
    assert trace == expected_trace
    blocks = draft_blocks(cfg.epochs, ref_stats["accepted_at"])
    assert stats == {
        "accepted": ref_stats["accepted"],
        "floor_skipped": ref_stats["floor_skipped"],
        "price_calls": len(blocks),
    }
    return blocks


@pytest.mark.parametrize("flows,epochs", [(5, 300), (8, 200), (15, 200)])
def test_rgc_matches_per_flow_reference(flows, epochs):
    # Same drafts, same accepts, same trace as one scalar draw per flow
    # with every changed draft priced.  The alpha = 0.01 twins are
    # transmission-dominated, so accepted drafts sit close to the
    # transmission floor and a floor that skips too much shows up.
    topo = evaluation_topology()
    for seed in range(4):
        base = generate_instance(topo, flows, ranges=DATASET_RANGES, seed=[flows, seed])
        for inst in (base, dataclasses.replace(base, alpha=0.01)):
            for gamma in (20.0, 3.5):
                assert_same_rgc(inst, RgcConfig(epochs=epochs, seed=seed, gamma=gamma))


@pytest.mark.parametrize(
    "epochs", [1, 31, 32, 33, 63, 64, 65, 95, 96, 97, 129, 223, 224, 225, 479, 480, 481, 500]
)
def test_rgc_matches_reference_across_block_boundaries(epochs):
    # Without accepts the blocks end at epochs 32, 96, 224 and 480 (32,
    # 64, 128 and 256 epochs); runs that end just before, on and just
    # after each, and accepts that land anywhere inside a block, leave
    # the same classes, trace and generator position as one draft per
    # epoch.  Every class has at least two move options (stay, and drop
    # out or enter), so no flow here draws nothing; the broadcast pin
    # below covers bound 1.
    topo = evaluation_topology()
    for flows in (1, 5, 15):
        for seed in range(3):
            inst = generate_instance(topo, flows, ranges=DATASET_RANGES, seed=[flows, seed])
            assert_same_rgc(inst, RgcConfig(epochs=epochs, seed=seed))


def test_rgc_accepts_inside_grown_blocks():
    # The schedule doubles a block after one with no accept and keeps its
    # size after an accept; accepts that land inside a block of 64 or
    # more epochs must rewind the generator just as early ones do.  The
    # alpha = 0.01 twin of seed [15, 2] accepts at epoch 125 of a
    # 128-epoch block, and seed [15, 3] at gamma 20 accepts four times in
    # a row inside kept 64-epoch blocks.
    topo = evaluation_topology()
    grown = []
    for seed in (2, 3):
        base = generate_instance(topo, 15, ranges=DATASET_RANGES, seed=[15, seed])
        for inst in (base, dataclasses.replace(base, alpha=0.01)):
            for gamma in (20.0, 3.5):
                blocks = assert_same_rgc(inst, RgcConfig(epochs=200, seed=seed, gamma=gamma))
                grown += [size for size, accept in blocks if accept and size >= 64]
    assert len(grown) >= 3 and 128 in grown


def test_rgc_block_size_stops_at_its_cap():
    # After 2,016 epochs without an accept the blocks reach 1,024 epochs
    # and stay there; the price calls count them.
    topo = evaluation_topology()
    capped = 0
    for seed in range(3):
        inst = generate_instance(topo, 1, ranges=DATASET_RANGES, seed=[1, seed])
        blocks = assert_same_rgc(inst, RgcConfig(epochs=4100, seed=seed))
        capped += sum(size == 1024 for size, _ in blocks)
    assert capped >= 2


def test_rgc_stats_add_up_and_leave_the_result_alone():
    inst = generate_instance(evaluation_topology(), 15, ranges=DATASET_RANGES, seed=[15, 3])
    cfg = RgcConfig(epochs=200, seed=3)
    once, twice = {}, {}
    plain = rgc(inst, cfg)
    counted = rgc(inst, cfg, stats=once)
    rgc(inst, cfg, stats=twice)
    rgc(inst, cfg, stats=twice)
    assert set(once) == set(baselines.RGC_COUNTERS)
    assert twice == {name: 2 * value for name, value in once.items()}
    assert once["accepted"] > 0 and once["floor_skipped"] > 0
    assert (plain.x == counted.x).all() and (plain.y == counted.y).all()


def test_broadcast_draw_equals_successive_row_draws():
    # rgc drafts a block of epochs in one rng.integers call over a
    # broadcast (n, K) bound.  That is exact only while numpy consumes a
    # broadcast bound element by element, as n successive (K,) calls
    # would, and leaves the generator in the same state.  A bound of 1
    # draws nothing.
    bounds = np.array([3, 1, 7, 2, 1, 9, 4])
    for seed in range(5):
        block, rows = np.random.default_rng(seed), np.random.default_rng(seed)
        drawn = block.integers(0, np.broadcast_to(bounds, (65, bounds.size)))
        expected = np.stack([rows.integers(0, bounds) for _ in range(65)])
        assert (drawn == expected).all()
        assert block.bit_generator.state == rows.bit_generator.state
        assert (drawn[:, bounds == 1] == 0).all()
        before = block.bit_generator.state
        block.integers(0, np.broadcast_to(np.ones(4, dtype=int), (3, 4)))
        assert block.bit_generator.state == before


def test_rgc_matches_reference_with_uncached_flows(escape_topology):
    crowded = manual_instance(
        escape_topology,
        [[1.0, 0.0], [0.3, 0.7], [0.0, 0.9]],
        content_size=[60.0, 45.0, 30.0],
        ec_space=[100.0, 110.0],
        alpha=0.8,
        beta=0.3,
    )
    storage_only = manual_instance(
        escape_topology, [[1.0, 0.0]], content_size=[60.0], ec_space=[60.5, 61.0],
        alpha=1.0, beta=0.0,
    )
    for seed in range(4):
        assert_same_rgc(crowded, RgcConfig(epochs=300, seed=seed))
        assert_same_rgc(storage_only, RgcConfig(epochs=100, seed=seed))


def test_rgc_matches_reference_without_ec_neighbours():
    # Leaf ECs are never adjacent, so every EC takes its two nearest
    # fellow ECs as neighbours.
    topo = build_topology(TopologyConfig(branching=2, depth=3, ec_rule="leaves"))
    for seed in range(4):
        inst = generate_instance(topo, 6, ranges=DATASET_RANGES, seed=[6, seed])
        assert all(len(n) == 2 for n in _ec_neighborhoods(topo))
        for gamma in (20.0, 3.5):
            assert_same_rgc(inst, RgcConfig(epochs=300, seed=seed, gamma=gamma))


def test_rgc_single_bad_proposal_returns_gca(escape_topology):
    # A feasible, already-optimal-for-GCA setup: one flow, plenty of room.
    inst = manual_instance(
        escape_topology, [[1.0, 0.0]], content_size=[10.0], ec_space=[500.0, 500.0]
    )
    start = gca(inst)
    for seed in range(5):
        out = rgc(inst, RgcConfig(epochs=1, seed=seed))
        tc_start = penalized_cost(inst, start)
        tc_out = penalized_cost(inst, out)
        assert tc_out <= tc_start
    # seed 0's single proposal does not improve; assignment is unchanged
    out = rgc(inst, RgcConfig(epochs=1, seed=0))
    assert (out.x == start.x).all()


def test_rgc_escapes_overfilled_ec(escape_topology):
    inst = manual_instance(
        escape_topology,
        [[1.0, 0.0], [0.0, 1.0]],
        content_size=[60.0, 60.0],
        ec_space=[100.0, 400.0],
    )
    start = gca(inst)
    assert not check_feasibility(inst, start).feasible  # GCA overfills EC 0
    out = rgc(inst, RgcConfig(epochs=500, seed=0))
    assert check_feasibility(inst, out).feasible
    # frozen from the seeded run: one flow moved to EC 1 (caching
    # 0.5 * (2.5 + 1/0.85) plus transmission 0.5 * 3)
    tc = penalized_cost(inst, out)
    assert tc == pytest.approx(3.338235294117647, abs=1e-9)


def test_rgc_never_worse_than_gca(tree_topology):
    for seed in range(10):
        inst = generate_instance(tree_topology, 5, seed=seed)
        tc_gca = penalized_cost(inst, gca(inst))
        tc_rgc = penalized_cost(inst, rgc(inst, RgcConfig(epochs=100, seed=seed)))
        assert tc_rgc <= tc_gca + 1e-12


def test_rgc_trace_is_non_increasing(tree_topology):
    inst = generate_instance(tree_topology, 5, seed=3)
    trace: list = []
    rgc(inst, RgcConfig(epochs=200, seed=1), trace=trace)
    assert len(trace) == 200
    assert all(b <= a + 1e-15 for a, b in zip(trace, trace[1:]))


def test_rgc_is_bit_reproducible(tree_topology):
    inst = generate_instance(tree_topology, 5, seed=9)
    a = rgc(inst, RgcConfig(epochs=150, seed=42))
    b = rgc(inst, RgcConfig(epochs=150, seed=42))
    assert (a.x == b.x).all() and (a.z == b.z).all() and (a.y == b.y).all()


def test_rgc_uncached_flow_can_reenter(escape_topology):
    # Start a flow uncached by making every EC terrible, then check the
    # proposal machinery still explores re-entry without crashing.
    inst = manual_instance(
        escape_topology,
        [[1.0, 0.0]],
        content_size=[60.0],
        ec_space=[60.5, 61.0],
        alpha=1.0,
        beta=0.0,
    )
    out = rgc(inst, RgcConfig(epochs=50, seed=2))
    # with beta=0 any caching only costs; the search must drop the flow
    assert out.x.sum() == 0
