import numpy as np
import pytest

from edgecache.cost import derive_routing
from edgecache.encoder import (
    EncodingError,
    FeatureImage,
    NormConfig,
    encode,
    read_pgm,
    split_subimages,
    to_grayscale,
    update_residual,
    write_pgm,
)
from edgecache.instance import Instance, ParameterRanges, generate_instance
from edgecache.topology import TopologyConfig, build_topology

from conftest import manual_instance
from oracles import subset_flows


@pytest.fixture(scope="module")
def norm():
    return NormConfig.from_ranges()  # q_max = 50/100, r_max = 10/50


def test_fig_style_dimensions(norm):
    # 8 ARs, 7 ECs, 9 links: a 10-flow image is 10 x 24.
    t = build_topology(
        TopologyConfig(branching=(1, 8), depth=2, ec_rule="random", ec_count=7, seed=4)
    )
    inst = generate_instance(t, 10, seed=0)
    img = encode(inst, norm)
    assert img.matrix.shape == (10, 24)
    assert img.block_bounds == {"P": (0, 8), "Q": (8, 15), "R": (15, 24)}
    assert ((img.matrix >= 0) & (img.matrix <= 1)).all()


def test_zero_mobility_row_keeps_positive_ratios(tree_topology, norm):
    mobility = np.zeros((2, tree_topology.num_access_routers))
    mobility[1, 0] = 0.9
    inst = manual_instance(tree_topology, mobility, content_size=[20.0, 30.0],
                           ec_space=[200.0] * tree_topology.num_edge_clouds)
    img = encode(inst, norm)
    first = {name: img.matrix[0, lo:hi] for name, (lo, hi) in img.block_bounds.items()}
    assert (first["P"] == 0).all()
    assert (first["Q"] > 0).all()
    assert (first["R"] > 0).all()


def test_normalization_endpoint_hits_one(tree_topology):
    ranges = ParameterRanges()
    norm = NormConfig.from_ranges(ranges)
    # recompute the endpoint independently from the configured ranges
    assert norm.q_max == ranges.content_size[1] / ranges.ec_space[0]
    inst = manual_instance(
        tree_topology,
        np.eye(1, tree_topology.num_access_routers),
        content_size=[50.0],
        ec_space=[100.0] * tree_topology.num_edge_clouds,
    )
    img = encode(inst, norm)
    lo, hi = img.block_bounds["Q"]
    assert img.matrix[:, lo:hi].max() == pytest.approx(1.0)


def test_encode_rejects_off_range_values(tree_topology, norm):
    inst = manual_instance(
        tree_topology,
        np.eye(1, tree_topology.num_access_routers),
        content_size=[80.0],  # q = 0.8 > q_max = 0.5
        ec_space=[100.0] * tree_topology.num_edge_clouds,
    )
    with pytest.raises(EncodingError, match=r"Q\[0,"):
        encode(inst, norm)
    clipped = encode(inst, NormConfig(q_max=norm.q_max, r_max=norm.r_max, clip=True))
    lo, hi = clipped.block_bounds["Q"]
    assert clipped.matrix[:, lo:hi].max() == 1.0


@pytest.mark.parametrize(
    "q_max,r_max", [(0.0, 0.2), (-1.0, 0.2), (0.5, float("nan")), (0.5, float("inf"))]
)
def test_norm_config_rejects_bad_maxima(q_max, r_max):
    with pytest.raises(EncodingError, match="finite and > 0"):
        NormConfig(q_max=q_max, r_max=r_max)


def test_norm_record_round_trips_and_keeps_the_digest(norm):
    assert norm.record() == {"q_max": 0.5, "r_max": 0.2}
    assert NormConfig(**norm.record()) == norm
    assert norm.digest() == "b598a46c8d3d8351"  # the digest saved models and corpora carry


def test_encode_is_deterministic_and_injective(tree_topology, norm):
    a = generate_instance(tree_topology, 5, seed=21)
    img1 = encode(a, norm)
    img2 = encode(a, norm)
    assert (img1.matrix == img2.matrix).all()
    # perturb one q value beyond quantization epsilon: matrices differ
    b = Instance(
        topology=a.topology,
        mobility=a.mobility,
        content_size=a.content_size + np.array([1.0, 0, 0, 0, 0]),
        bandwidth=a.bandwidth,
        ec_space=a.ec_space,
        link_capacity=a.link_capacity,
        alpha=a.alpha,
        beta=a.beta,
    )
    assert (encode(b, norm).matrix != img1.matrix).any()


def test_grayscale_polarity_endpoints(norm):
    img = FeatureImage(
        matrix=np.array([[0.0, 1.0, 0.5]]),
        block_bounds={"P": (0, 1), "Q": (1, 2), "R": (2, 3)},
        norm_meta=norm,
    )
    pixels = to_grayscale(img)
    assert pixels[0, 0] == 255  # empty -> white
    assert pixels[0, 1] == 0    # full  -> black
    assert pixels[0, 2] == 128


def test_grayscale_round_trip_quantization_bound(norm):
    rng = np.random.default_rng(0)
    for _ in range(20):
        matrix = rng.uniform(0, 1, size=(6, 11))
        img = FeatureImage(
            matrix=matrix,
            block_bounds={"P": (0, 4), "Q": (4, 7), "R": (7, 11)},
            norm_meta=norm,
        )
        back = 1.0 - to_grayscale(img).astype(np.float64) / 255.0
        assert np.abs(back - matrix).max() <= 1 / 510 + 1e-12


def test_pgm_round_trip(tmp_path, tree_topology, norm):
    inst = generate_instance(tree_topology, 5, seed=3)
    pixels = to_grayscale(encode(inst, norm))
    write_pgm(tmp_path / "img.pgm", pixels)
    assert (read_pgm(tmp_path / "img.pgm") == pixels).all()
    raw = (tmp_path / "img.pgm").read_bytes()
    assert raw.startswith(b"P5\n")


def test_feature_csv_round_trip(tmp_path, tree_topology, norm):
    from edgecache.encoder import read_feature_csv, write_feature_csv

    inst = generate_instance(tree_topology, 5, seed=4)
    img = encode(inst, norm)
    write_feature_csv(img, tmp_path / "features.csv")
    back = read_feature_csv(tmp_path / "features.csv")
    assert (back.matrix == img.matrix).all()
    assert back.block_bounds == img.block_bounds
    assert back.norm_meta.q_max == norm.q_max


@pytest.mark.parametrize(
    "data",
    [b"P5\nabc 2\n255\n\x00\x00", b"P5\n4", b"P5\n4 2\n", b"P5\n4 2 2x5\n"],
    ids=["non-numeric", "truncated", "no-maxval", "bad-maxval"],
)
def test_read_pgm_names_file_on_malformed_header(tmp_path, data):
    path = tmp_path / "bad.pgm"
    path.write_bytes(data)
    with pytest.raises(EncodingError, match="bad.pgm"):
        read_pgm(path)


@pytest.mark.parametrize(
    "header",
    [
        "# blocks P=0:4 Q=4:7 q_max=0.5 r_max=0.5 phantom=0",
        "# blocks P=0:4 Q=4:7 R=7 q_max=0.5 r_max=0.5 phantom=0",
        "# blocks P=0:4 Q=4:7 R=7:11 r_max=0.5 phantom=0",
        "# blocks P=0:4 Q=4:7 R=7:11 q_max=half r_max=0.5 phantom=0",
    ],
    ids=["missing-R", "malformed-R", "missing-q_max", "non-numeric-q_max"],
)
def test_read_feature_csv_names_file_on_malformed_header(tmp_path, header):
    from edgecache.encoder import read_feature_csv

    path = tmp_path / "bad.csv"
    path.write_text(header + "\n" + ",".join(["0.5"] * 11) + "\n")
    with pytest.raises(EncodingError, match="bad.csv"):
        read_feature_csv(path)


def test_split_multiples(tree_topology, norm):
    inst = generate_instance(tree_topology, 20, seed=5)
    img = encode(inst, norm)
    blocks = split_subimages(img, 5)
    assert len(blocks) == 4
    assert all(b.matrix.shape[0] == 5 for b in blocks)
    assert all(b.phantom_rows == 0 for b in blocks)
    reassembled = np.vstack([b.matrix for b in blocks])
    assert (reassembled == img.matrix).all()


def test_split_identity(tree_topology, norm):
    inst = generate_instance(tree_topology, 5, seed=6)
    img = encode(inst, norm)
    (block,) = split_subimages(img, 5)
    assert (block.matrix == img.matrix).all()
    assert block.phantom_rows == 0


def test_split_pads_with_phantom_rows(tree_topology, norm):
    inst = generate_instance(tree_topology, 13, seed=7)
    img = encode(inst, norm)
    blocks = split_subimages(img, 5)
    assert [b.phantom_rows for b in blocks] == [0, 0, 2]
    assert (blocks[2].matrix[3:] == 0).all()
    reassembled = np.vstack([b.matrix for b in blocks])[:13]
    assert (reassembled == img.matrix).all()


def test_update_residual_simple_commit(tree_topology):
    inst = manual_instance(
        tree_topology,
        np.eye(1, tree_topology.num_access_routers),
        content_size=[50.0],
        ec_space=[500.0] * tree_topology.num_edge_clouds,
    )
    x = np.zeros((1, tree_topology.num_edge_clouds), dtype=np.int8)
    x[0, 2] = 1
    residual = update_residual(inst, derive_routing(inst, x))
    assert residual.ec_space[2] == pytest.approx(450.0)
    assert residual.ec_space[0] == pytest.approx(500.0)


def test_update_residual_identity_on_empty_commit(tree_topology):
    from edgecache.cost import assignment_from_classes

    inst = generate_instance(tree_topology, 3, seed=8)
    empty = assignment_from_classes(inst, [tree_topology.num_edge_clouds] * 3)
    residual = update_residual(inst, empty)
    assert (residual.ec_space == inst.ec_space).all()
    assert (residual.link_capacity == inst.link_capacity).all()


def test_update_residual_shared_link(tree_topology):
    # Two flows at the same AR retrieving from the same EC share links.
    A = tree_topology.num_access_routers
    mobility = np.zeros((2, A))
    mobility[:, 0] = 1.0
    inst = manual_instance(
        tree_topology, mobility, content_size=[10.0, 10.0], bandwidth=[4.0, 6.0]
    )
    x = np.zeros((2, tree_topology.num_edge_clouds), dtype=np.int8)
    x[:, 0] = 1
    asg = derive_routing(inst, x)
    residual = update_residual(inst, asg)
    # recompute loads from scratch off the y rows
    for l in range(tree_topology.num_links):
        used = sum(inst.bandwidth[k] * asg.y[k, l] for k in range(2))
        assert residual.link_capacity[l] == pytest.approx(inst.link_capacity[l] - used)
        if asg.y[:, l].all():
            assert used == pytest.approx(10.0)
    assert (asg.y.sum(axis=1) > 0).all()


def test_update_residual_rejects_overcommit(tree_topology):
    inst = manual_instance(
        tree_topology,
        np.eye(2, tree_topology.num_access_routers),
        content_size=[300.0, 300.0],
        ec_space=[500.0] * tree_topology.num_edge_clouds,
    )
    x = np.zeros((2, tree_topology.num_edge_clouds), dtype=np.int8)
    x[:, 0] = 1
    asg = derive_routing(inst, x)
    with pytest.raises(EncodingError):
        update_residual(inst, asg)
    clamped = update_residual(inst, asg, clamp=True)
    assert clamped.ec_space[0] == pytest.approx(1e-9)


def test_split_residual_reencode_compositionality(tree_topology, norm):
    # Processing the first block and re-encoding the remainder must equal
    # encoding a manually built residual instance of the remaining flows.
    inst = generate_instance(tree_topology, 10, seed=9)
    first = subset_flows(inst, range(5))
    rest = subset_flows(inst, range(5, 10))
    x = np.zeros((5, tree_topology.num_edge_clouds), dtype=np.int8)
    x[0, 0] = 1
    x[2, 3] = 1
    committed = derive_routing(first, x)
    residual = update_residual(first, committed)

    manual = Instance(
        topology=inst.topology,
        mobility=rest.mobility,
        content_size=rest.content_size,
        bandwidth=rest.bandwidth,
        ec_space=residual.ec_space,
        link_capacity=residual.link_capacity,
        alpha=inst.alpha,
        beta=inst.beta,
    )
    clip_norm = NormConfig(q_max=norm.q_max, r_max=norm.r_max, clip=True)
    via_pipeline = encode(
        Instance(
            topology=inst.topology,
            mobility=rest.mobility,
            content_size=rest.content_size,
            bandwidth=rest.bandwidth,
            ec_space=residual.ec_space,
            link_capacity=residual.link_capacity,
            alpha=inst.alpha,
            beta=inst.beta,
        ),
        clip_norm,
    )
    assert (via_pipeline.matrix == encode(manual, clip_norm).matrix).all()
