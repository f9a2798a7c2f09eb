import functools
import json
import re

import numpy as np
import pytest

from edgecache import cnn
from edgecache.cnn import (
    BatchNorm,
    CnnError,
    CnnModel,
    Conv3x3,
    TrainConfig,
    TrainingDivergedError,
    TrainingSample,
    forward,
    gradient_check,
    load_model,
    predict_all,
    save_model,
    softmax,
    softmax_cross_entropy,
    train,
)
from edgecache.encoder import NormConfig, encode, split_subimages
from edgecache.harness import evaluation_topology
from edgecache.instance import generate_instance
from edgecache.topology import TopologyConfig, build_topology

import oracles
from oracles import im2col_reference


@pytest.fixture(scope="module")
def norm():
    return NormConfig.from_ranges()


@pytest.fixture(scope="module")
def image(norm):
    t = build_topology(TopologyConfig(branching=2, depth=3))
    return encode(generate_instance(t, 5, seed=0), norm)


# CnnModel builds one conv stage by default.  The tests of gradients,
# stacked inference and training through stages pin three, so a conv
# input gradient and batch norm between stages stay covered.
MULTI_STAGE = (16, 32, 64)


@pytest.fixture
def multi_stage_training(monkeypatch):
    """train() builds its models with MULTI_STAGE filters."""
    monkeypatch.setattr(cnn, "CnnModel", functools.partial(CnnModel, filters=MULTI_STAGE))


def zeroed(model: CnnModel) -> CnnModel:
    for _, _, param, _ in model.param_items():
        param[...] = 0.0
    return model


# --- forward ----------------------------------------------------------------


def test_zero_weights_give_uniform_distribution(image):
    m = zeroed(CnnModel(input_shape=image.matrix.shape, num_classes=8, seed=0))
    p = forward(m, image)
    assert np.allclose(p, 1 / 8, atol=1e-12)


def test_forward_sums_to_one(image):
    m = CnnModel(input_shape=image.matrix.shape, num_classes=8, seed=3)
    p = forward(m, image)
    assert p.shape == (8,)
    assert abs(p.sum() - 1.0) < 1e-6
    assert (p >= 0).all()


def test_forward_rejects_shape_mismatch(image):
    m = CnnModel(input_shape=(4, 10), num_classes=5, seed=0)
    with pytest.raises(CnnError):
        forward(m, image)


def test_forward_scores_exactly_one_image(image):
    m = CnnModel(input_shape=image.matrix.shape, num_classes=8, seed=2)
    single = image.matrix[None]
    assert (forward(m, single) == forward(m, image)).all()
    with pytest.raises(CnnError, match="batch of 2"):
        forward(m, np.concatenate([single, single]))


def test_inference_is_pure(image):
    m = CnnModel(input_shape=image.matrix.shape, num_classes=8, seed=1)
    a = forward(m, image)
    b = forward(m, image)
    assert (a == b).all()


def test_convolution_matches_hand_loop():
    rng = np.random.default_rng(2)
    conv = Conv3x3(1, 1, rng)
    kernel = rng.normal(size=(3, 3))
    conv.params["w"][..., 0, 0] = kernel
    conv.params["b"][:] = 0.25
    x = rng.normal(size=(5, 5))
    out = conv.forward(x[None, :, :, None], train=False)[0, :, :, 0]

    padded = np.zeros((7, 7))
    padded[1:6, 1:6] = x
    expected = np.zeros((5, 5))
    for i in range(5):
        for j in range(5):
            acc = 0.0
            for di in range(3):
                for dj in range(3):
                    acc += padded[i + di, j + dj] * kernel[di, dj]
            expected[i, j] = acc + 0.25
    assert np.allclose(out, expected, atol=1e-12)


@pytest.mark.parametrize(
    "shape",
    [(1, 5, 28, 1), (32, 5, 28, 16), (5, 5, 28, 32), (3, 4, 12, 32), (32, 5, 28, 1),
     (4, 5, 28, 2), (2, 1, 6, 1), (2, 1, 6, 16), (3, 4, 1, 2), (3, 4, 1, 32), (2, 1, 1, 1)],
)
def test_im2col_matches_nine_slice_reference(shape):
    x = np.random.default_rng(sum(shape)).normal(size=shape)
    cols = cnn._im2col(x)
    assert cols.dtype == x.dtype and np.array_equal(cols, im2col_reference(x))
    x32 = x.astype(np.float32)
    assert np.array_equal(cnn._im2col(x32), im2col_reference(x32))


def test_im2col_shares_one_read_only_tap_index_per_shape():
    index = cnn._tap_rows(5, 28)
    assert cnn._tap_rows(5, 28) is index and not index.flags.writeable
    assert index.shape == (5 * 28 * 9,)
    assert index.min() == 0 and index.max() == 6 * 30 + 29  # pixel rows of the 7 x 30 pad


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_einsum_channel_sums_equal_reduce_over_rows(dtype):
    # cnn._channel_sums takes batch norm's statistics and sums and the
    # conv bias gradient by np.einsum over (R, C) rows.  That is exact
    # only while einsum adds the rows in order, as np.add.reduce(axis=0)
    # does when its inner loop runs over the C channels.  One channel is
    # the exception: reduce sums a contiguous column pairwise, einsum in
    # order, so _channel_sums keeps the reduce at that width.
    rng = np.random.default_rng(35)
    for width in (2, 3, 5, 9, 16, 32, 64):
        for rows in (1, 2, 7, 130, 4480, 20000):
            a, b = rng.normal(size=(2, rows, width)).astype(dtype)
            assert np.array_equal(np.einsum("rc->c", a), np.add.reduce(a, axis=0))
            assert np.array_equal(np.einsum("rc,rc->c", a, b), np.add.reduce(a * b, axis=0))
            assert np.array_equal(cnn._channel_sums(a, b), np.add.reduce(a * b, axis=0))
    columns = rng.normal(size=(8, 2, 20000, 1)).astype(dtype)
    assert any(not np.array_equal(np.einsum("rc->c", a), np.add.reduce(a, axis=0)) for a, _ in columns)
    for a, b in columns:
        assert np.array_equal(cnn._channel_sums(a), np.add.reduce(a, axis=0))
        assert np.array_equal(cnn._channel_sums(a, b), np.add.reduce(a * b, axis=0))


@pytest.mark.parametrize("n", [1, 4])
@pytest.mark.parametrize("width", [1, 2, 3])
def test_im2col_returns_a_writeable_array_of_its_own(n, width):
    # Conv3x3.backward computes dcols into the patches in place: a view
    # (a plain reshape of the window view is one at width 1) would take
    # the write into a copy, or refuse it, and dx would read stale taps.
    x = np.random.default_rng(width).normal(size=(n, 3, width, 2)).astype(np.float32)
    cols = cnn._im2col(x)
    assert cols.flags.c_contiguous and cols.flags.writeable
    assert not np.shares_memory(cols, x)
    assert np.array_equal(cols, im2col_reference(x))


def test_training_with_reference_im2col_is_bit_equal(image, norm, monkeypatch, multi_stage_training):
    t = build_topology(TopologyConfig(branching=2, depth=3))
    samples = [
        TrainingSample(image=encode(generate_instance(t, 5, seed=s), norm), labels=(s % 8,) * 5)
        for s in range(12)
    ]
    cfg = TrainConfig(epochs=2, batch_size=4, num_classes=8, request_index=1, seed=3)
    model, losses = train(samples, cfg)
    monkeypatch.setattr(cnn, "_im2col", im2col_reference)
    ref_model, ref_losses = train(samples, cfg)
    assert losses == ref_losses
    for (_, _, p, _), (_, _, q, _) in zip(model.param_items(), ref_model.param_items()):
        assert np.array_equal(p, q)


@pytest.mark.parametrize(
    "ec_rule,n,batch_size,filters",
    [("internal", 13, 5, MULTI_STAGE), ("leaves", 14, 4, MULTI_STAGE),
     ("internal", 13, 5, (1,)), ("internal", 13, 5, (16,))],
    ids=["width29-n13-batch5", "width30-n14-batch4",
         "width29-n13-batch5-filters1", "width29-n13-batch5-filters16"],
)
def test_training_with_reference_kernels_is_bit_equal(
    norm, monkeypatch, ec_rule, n, batch_size, filters
):
    # The padded conv input gradient, two-pass batch norm, and the
    # out-of-place dense input gradient and ReLU of tests/oracles.py
    # against the in-place kernels: same loss trace, parameters and
    # running statistics, and the same inference-mode gradients after
    # training.  One filter takes the one-channel sums, the others the
    # einsum sums.
    monkeypatch.setattr(cnn, "CnnModel", functools.partial(CnnModel, filters=filters))
    t = build_topology(TopologyConfig(branching=2, depth=3, ec_rule=ec_rule))
    samples = [
        TrainingSample(image=encode(generate_instance(t, 5, seed=s), norm), labels=(s % 8,) * 5)
        for s in range(n)
    ]
    cfg = TrainConfig(epochs=2, batch_size=batch_size, num_classes=9, request_index=2, seed=1)
    probe = samples[0].image.matrix[None, ..., None]

    def fit():
        model, losses = train(samples, cfg)
        logits = model.logits(probe, train=False)
        model.backward(softmax_cross_entropy(logits, np.array([3]))[2])
        return model, losses

    model, losses = fit()
    for cls, method, reference in [
        (Conv3x3, "backward", oracles.conv3x3_backward_reference),
        (BatchNorm, "forward", oracles.batchnorm_forward_reference),
        (BatchNorm, "backward", oracles.batchnorm_backward_reference),
        (cnn.Dense, "backward", oracles.dense_backward_reference),
        (cnn.ReLU, "forward", oracles.relu_forward_reference),
        (cnn.ReLU, "backward", oracles.relu_backward_reference),
    ]:
        monkeypatch.setattr(cls, method, reference)
    ref_model, ref_losses = fit()
    assert probe.shape[2] == {"internal": 29, "leaves": 30}[ec_rule] and n % batch_size
    assert model.filters == ref_model.filters == filters
    assert losses == ref_losses
    for (_, _, p, g), (_, _, q, h) in zip(model.param_items(), ref_model.param_items()):
        assert np.array_equal(p, q) and np.array_equal(g, h)
    for layer, ref in zip(model.layers, ref_model.layers):
        if isinstance(layer, BatchNorm):
            assert np.array_equal(layer.running_mean, ref.running_mean)
            assert np.array_equal(layer.running_var, ref.running_var)


def test_interleaved_training_passes_keep_their_own_patches(image):
    # Train-mode passes of two models interleaved on one thread (forward
    # a, forward b, backward a, backward b): each backward reads its own
    # im2col patches, so every gradient equals that of the pass alone.
    rng = np.random.default_rng(9)
    batch = rng.uniform(0, 1, size=(3, *image.matrix.shape, 1))
    labels = np.array([1, 4, 6])

    def grads_after(models):
        dlogits = [softmax_cross_entropy(m.logits(batch, train=True), labels)[2] for m in models]
        for m, d in zip(models, dlogits):
            m.backward(d)
        return [[g.copy() for *_, g in m.param_items()] for m in models]

    def pair():
        return [
            CnnModel(input_shape=image.matrix.shape, num_classes=8, filters=MULTI_STAGE, seed=s)
            for s in (2, 3)
        ]

    alone = [grads_after([m])[0] for m in pair()]
    for got, want in zip(grads_after(pair()), alone):
        assert all(np.array_equal(g, h) for g, h in zip(got, want))


# --- gradients ---------------------------------------------------------------


def test_logit_gradient_matches_closed_form():
    rng = np.random.default_rng(4)
    logits = rng.normal(size=(6, 9))
    labels = rng.integers(0, 9, size=6)
    _, probs, grad = softmax_cross_entropy(logits, labels)
    onehot = np.zeros_like(probs)
    onehot[np.arange(6), labels] = 1.0
    assert np.abs(grad - (probs - onehot) / 6).max() < 1e-12


def test_cross_entropy_of_an_underflowed_probability_is_finite():
    # exp(-120) is below float32's smallest subnormal, so the picked
    # probability rounds to 0; the floor is float32's tiny, not a 1e-300
    # that float32 rounds to 0 as well.
    logits = np.array([[0.0, 120.0], [3.0, 1.0]], dtype=np.float32)
    loss, probs, grad = softmax_cross_entropy(logits, np.array([0, 0]))
    assert probs[0, 0] == 0.0 and probs.dtype == grad.dtype == np.float32
    assert np.isfinite(loss)
    assert loss == pytest.approx(-(np.log(np.finfo(np.float32).tiny) + np.log(probs[1, 0])) / 2)


def test_gradient_check_dense_only(image):
    m = CnnModel(input_shape=image.matrix.shape, num_classes=8, filters=(), seed=5)
    assert gradient_check(m, image, 3, sample_fraction=0.05) < 1e-7


def test_gradient_check_full_model(image):
    m = CnnModel(input_shape=image.matrix.shape, num_classes=8, filters=MULTI_STAGE, seed=5)
    assert gradient_check(m, image, 2, sample_fraction=0.01) < 1e-4


def test_gradient_check_full_model_training_mode(image):
    m = CnnModel(input_shape=image.matrix.shape, num_classes=8, filters=MULTI_STAGE, seed=6)
    rng = np.random.default_rng(0)
    batch = rng.uniform(0, 1, size=(4, *image.matrix.shape))
    labels = np.array([0, 2, 5, 7])
    assert gradient_check(m, batch, labels, train_mode=True, sample_fraction=0.01) < 1e-4


@pytest.mark.parametrize("train_mode", [False, True])
def test_float32_gradients_match_a_float64_copy(image, train_mode):
    # gradient_check checks the gradients of a float64 copy; this ties
    # the float32 model's own gradients to that copy's, to within 1e-5 of
    # each array's largest entry (about 80 float32 ulps).  In train mode
    # a conv bias ahead of batch norm has a true gradient of zero, so
    # both copies hold rounding noise there, and it is left out.
    m = CnnModel(input_shape=image.matrix.shape, num_classes=8, filters=MULTI_STAGE, seed=6)
    batch, labels = image, [2]
    if train_mode:
        batch = np.random.default_rng(0).uniform(0, 1, size=(4, *image.matrix.shape))
        labels = [0, 2, 5, 7]
    x = m._as_batch(batch)

    def grads(model, x):
        logits = model.logits(x, train=train_mode)
        masks = [layer._mask.copy() for layer in model.layers if isinstance(layer, cnn.ReLU)]
        model.backward(softmax_cross_entropy(logits, np.array(labels))[2])
        return masks, [(li, key, g.copy()) for li, key, _, g in model.param_items()]

    masks64, grads64 = grads(m.astype(np.float64), x.astype(np.float64))
    masks32, grads32 = grads(m, x)
    assert all(np.array_equal(a, b) for a, b in zip(masks32, masks64))  # no activation on a kink
    for (li, key, g32), (_, _, g64) in zip(grads32, grads64):
        assert g32.dtype == np.float32 and g64.dtype == np.float64
        if train_mode and isinstance(m.layers[li], Conv3x3) and key == "b":
            continue
        assert np.abs(g32 - g64).max() <= 1e-5 * np.abs(g64).max(), (li, key)


def test_gradient_check_leaves_the_model_as_it_was(image):
    m = CnnModel(input_shape=image.matrix.shape, num_classes=8, filters=MULTI_STAGE, seed=6)
    before = {name: a.copy() for name, a in cnn._named_arrays(m).items()}
    batch = np.random.default_rng(0).uniform(0, 1, size=(4, *image.matrix.shape))
    gradient_check(m, batch, np.array([0, 2, 5, 7]), train_mode=True, sample_fraction=0.01)
    for name, a in cnn._named_arrays(m).items():
        assert a.dtype == cnn.DTYPE and np.array_equal(a, before[name]), name
    assert all(not g.any() for *_, g in m.param_items())


def test_zero_input_zeroes_first_conv_weight_gradient(image):
    m = CnnModel(input_shape=image.matrix.shape, num_classes=8, seed=7)
    x = np.zeros((1, *image.matrix.shape, 1))
    logits = m.logits(x, train=False)
    _, _, dlogits = softmax_cross_entropy(logits, np.array([0]))
    m.backward(dlogits)
    assert np.abs(m.layers[0].grads["w"]).max() == 0.0


def test_batchnorm_normalizes_batch_statistics():
    rng = np.random.default_rng(8)
    bn = BatchNorm(6)  # fresh scale=1, shift=0: output is the normalized value
    x = rng.normal(loc=2.0, scale=3.0, size=(16, 5, 7, 6))
    out = bn.forward(x, train=True)
    mean = out.mean(axis=(0, 1, 2))
    var = out.var(axis=(0, 1, 2))
    assert np.abs(mean).max() < 1e-6
    assert np.abs(var - 1).max() < 1e-3


# --- training ----------------------------------------------------------------


def test_single_sample_overfit(image):
    sample = TrainingSample(image=image, labels=(2, 0, 1, 5, 7))
    model, losses = train(
        [sample],
        TrainConfig(epochs=300, batch_size=1, num_classes=8, request_index=0, seed=0),
    )
    p = forward(model, image)
    assert p[2] > 0.99
    assert losses[-1] < losses[0]


def test_duplicated_dataset_equals_doubled_batch(image, norm, monkeypatch):
    # A float64 identity.  A conv bias ahead of batch norm has a true
    # gradient of zero, so its computed gradient is rounding noise, which
    # Adam divides by its own size: in float32 the two runs' biases part
    # by ~1e-3.
    monkeypatch.setattr(cnn, "DTYPE", np.float64)
    t = build_topology(TopologyConfig(branching=2, depth=3))
    other = encode(generate_instance(t, 5, seed=1), norm)
    a = TrainingSample(image=image, labels=(1, 1, 1, 1, 1))
    b = TrainingSample(image=other, labels=(4, 4, 4, 4, 4))
    cfg_small = TrainConfig(epochs=15, batch_size=2, num_classes=8, request_index=0, seed=9)
    cfg_big = TrainConfig(epochs=15, batch_size=4, num_classes=8, request_index=0, seed=9)
    m1, _ = train([a, b], cfg_small)
    m2, _ = train([a, b, a, b], cfg_big)
    for (l1, k1, p1, _), (l2, k2, p2, _) in zip(m1.param_items(), m2.param_items()):
        assert (l1, k1) == (l2, k2)
        assert np.allclose(p1, p2, atol=1e-10), f"layer {l1} {k1} differs"


def test_a_training_step_keeps_every_array_in_dtype(image, norm, monkeypatch):
    # No float64 scalar or buffer may widen a step: parameters, their
    # gradients, Adam's moments and the batch-norm statistics all stay
    # DTYPE, and so does inference.
    t = build_topology(TopologyConfig(branching=2, depth=3))
    samples = [
        TrainingSample(image=encode(generate_instance(t, 5, seed=s), norm), labels=(s % 8,) * 5)
        for s in range(4)
    ]
    # Training stops right after its first optimizer step, which hands
    # over the model and its Adam state.
    first_step = cnn.Adam.step

    class FirstStep(Exception):
        pass

    def step_once(opt):
        first_step(opt)
        raise FirstStep(opt)

    monkeypatch.setattr(cnn.Adam, "step", step_once)
    with pytest.raises(FirstStep) as stopped:
        train(samples, TrainConfig(epochs=1, batch_size=3, num_classes=8))
    opt = stopped.value.args[0]
    model = opt.model
    assert opt.t == 1
    arrays = [a for *_, p, g in model.param_items() for a in (p, g)]
    arrays += [*opt.m.values(), *opt.v.values(), *cnn._named_arrays(model).values()]
    assert {a.dtype for a in arrays} == {np.dtype(cnn.DTYPE)}
    assert predict_all([model] * 5, image).dtype == cnn.DTYPE


def test_training_loss_halves_on_small_corpus(norm):
    t = build_topology(TopologyConfig(branching=2, depth=3))
    rng = np.random.default_rng(10)
    samples = []
    for seed in range(60):
        inst = generate_instance(t, 5, seed=seed)
        img = encode(inst, norm)
        # synthetic but input-dependent label: argmax mobility bucket
        lo, hi = img.block_bounds["P"]
        label = int(img.matrix[0, lo:hi].argmax() % 8)
        labels = (label, 0, 0, 0, 0)
        samples.append(TrainingSample(image=img, labels=labels))
    _, losses = train(
        samples, TrainConfig(epochs=40, batch_size=16, num_classes=8, request_index=0, seed=1)
    )
    assert losses[-1] < 0.5 * losses[0]


def test_training_rejects_mixed_shapes(image, norm):
    t = build_topology(TopologyConfig(branching=2, depth=2))
    other = encode(generate_instance(t, 3, seed=0), norm)
    with pytest.raises(CnnError):
        train(
            [TrainingSample(image, (0,) * 5), TrainingSample(other, (0,) * 3)],
            TrainConfig(epochs=1, num_classes=8),
        )


@pytest.mark.parametrize(
    "field,value",
    [("epochs", 0), ("batch_size", 0), ("batch_size", -1), ("learning_rate", 0.0),
     ("learning_rate", -1e-3), ("learning_rate", float("nan")), ("learning_rate", float("inf")),
     ("seed", -1), ("request_index", -1), ("epochs", 2.5), ("batch_size", 1.5),
     ("seed", 1.5), ("request_index", 0.5), ("num_classes", 8.5)],
)
def test_train_config_rejects_bad_numbers(field, value):
    TrainConfig(epochs=1, batch_size=1, learning_rate=1e-3, num_classes=8)
    with pytest.raises(CnnError, match=rf"{field} (must be .*, got )?{re.escape(str(value))}"):
        TrainConfig(**{"num_classes": 8, field: value})


@pytest.mark.parametrize("slot", [-1, 2])
def test_model_refuses_a_slot_outside_the_image(slot):
    CnnModel(input_shape=(2, 4), num_classes=3, request_index=1)
    with pytest.raises(CnnError, match=f"request_index {slot} is outside the 2 image rows"):
        CnnModel(input_shape=(2, 4), num_classes=3, request_index=slot)


def test_training_refuses_a_slot_past_the_flows_before_the_first_step(image, monkeypatch):
    # The first step's forward pass fails, so a refusal that reaches the
    # caller was made before any step ran.
    class StepRan(Exception):
        pass

    def no_step(*args, **kwargs):
        raise StepRan

    monkeypatch.setattr(cnn.CnnModel, "logits", no_step)
    samples = [TrainingSample(image, (0,) * 5)]
    with pytest.raises(StepRan):
        train(samples, TrainConfig(epochs=1, num_classes=8, request_index=4))
    with pytest.raises(CnnError, match="request_index 5 is past the samples' 5 flows"):
        train(samples, TrainConfig(epochs=1, num_classes=8, request_index=5))


def test_training_divergence_raises_with_epoch(image):
    poisoned = TrainingSample(
        image=type(image)(
            matrix=np.full_like(image.matrix, np.nan),
            block_bounds=image.block_bounds,
            norm_meta=image.norm_meta,
        ),
        labels=(0, 0, 0, 0, 0),
    )
    with pytest.raises(TrainingDivergedError) as err:
        train([poisoned], TrainConfig(epochs=3, num_classes=8, seed=0))
    assert err.value.epoch == 0


# --- predict_all -------------------------------------------------------------


def test_predict_all_shape_three_requests_four_ecs():
    rng = np.random.default_rng(11)
    img_matrix = rng.uniform(0, 1, size=(3, 12))
    models = [
        CnnModel(input_shape=(3, 12), num_classes=5, request_index=k, seed=k)
        for k in range(3)
    ]
    O = predict_all(models, img_matrix)
    assert O.shape == (3, 5)
    assert np.allclose(O.sum(axis=1), 1.0, atol=1e-6)


def test_predict_all_identical_models_identical_rows():
    rng = np.random.default_rng(12)
    img_matrix = rng.uniform(0, 1, size=(3, 12))
    model = CnnModel(input_shape=(3, 12), num_classes=5, seed=4)
    O = predict_all([model, model, model], img_matrix)
    assert (O[0] == O[1]).all() and (O[1] == O[2]).all()


def test_predict_all_is_equivariant_to_model_order():
    rng = np.random.default_rng(13)
    img_matrix = rng.uniform(0, 1, size=(4, 12))
    models = [CnnModel(input_shape=(4, 12), num_classes=5, seed=k) for k in range(4)]
    O = predict_all(models, img_matrix)
    perm = [2, 0, 3, 1]
    O_perm = predict_all([models[j] for j in perm], img_matrix)
    assert (O_perm == O[perm]).all()


def _per_model_rows(models, img):
    return np.stack([softmax(m.logits(m._as_batch(img), train=False))[0] for m in models])


def test_predict_all_matches_per_model_layers(image, norm, multi_stage_training):
    # Each row of the stacked pass equals its own model's layer-by-layer
    # inference bit for bit.
    K, E1 = image.matrix.shape[0], 8
    t = build_topology(TopologyConfig(branching=2, depth=3))
    samples = [
        TrainingSample(
            image=encode(generate_instance(t, 5, seed=s), norm),
            labels=tuple((s + k) % E1 for k in range(K)),
        )
        for s in range(8)
    ]
    trained = [
        train(samples, TrainConfig(epochs=2, batch_size=4, num_classes=E1, request_index=k, seed=k))[0]
        for k in range(K)
    ]
    untrained = [
        CnnModel(image.matrix.shape, E1, request_index=k, filters=MULTI_STAGE, seed=40 + k)
        for k in range(K)
    ]
    dense_only = [
        CnnModel(image.matrix.shape, E1, request_index=k, filters=(), seed=k) for k in range(K)
    ]
    short = encode(generate_instance(t, 3, seed=5), norm)
    padded = split_subimages(short, K)[0]
    integer = np.random.default_rng(15).integers(0, 4, size=image.matrix.shape)
    for models, img in (
        (trained, image.matrix),
        (untrained, image.matrix),
        (dense_only, image.matrix),
        (trained, padded),
        (trained, integer),
    ):
        assert (predict_all(models, img) == _per_model_rows(models, img)).all()


def _randomized(model: CnnModel, rng) -> CnnModel:
    """model with every parameter and batch-norm statistic drawn at
    random (variances positive), so each stacked array is exercised."""
    for _, _, param, _ in model.param_items():
        param[...] = rng.normal(scale=0.5, size=param.shape)
    for layer in model.layers:
        if isinstance(layer, BatchNorm):
            shape = layer.running_mean.shape
            layer.running_mean = rng.normal(scale=0.3, size=shape).astype(cnn.DTYPE)
            layer.running_var = rng.uniform(0.2, 2.0, size=shape).astype(cnn.DTYPE)
    return model


@pytest.mark.parametrize("K", [1, 3, 5])
@pytest.mark.parametrize(
    "network,width",
    [("evaluation", 28), ("internal", 29), ("leaves", 30)],
)
def test_slot_models_inference_matches_references(norm, network, width, K):
    # The stacked pass over a SlotModels against the per-call stacking
    # oracle and against each model's own layers, bit for bit, on a
    # full block and on a block padded with phantom rows, for models of
    # one stage and of three.
    if network == "evaluation":
        t = evaluation_topology()
    else:
        t = build_topology(TopologyConfig(branching=2, depth=3, ec_rule=network))
    rng = np.random.default_rng([width, K])
    E1 = t.num_edge_clouds + 1
    full = encode(generate_instance(t, K, seed=K), norm)
    padded = split_subimages(encode(generate_instance(t, max(K - 2, 1), seed=K), norm), K)[0]
    assert full.matrix.shape == (K, width) and padded.matrix.shape == (K, width)
    assert K < 3 or padded.phantom_rows == 2
    for filters in ((16,), MULTI_STAGE):
        models = [
            _randomized(CnnModel((K, width), E1, request_index=k, filters=filters, seed=k), rng)
            for k in range(K)
        ]
        slots = cnn.SlotModels(models)
        for img in (full.matrix, padded.matrix):
            O = predict_all(slots, img)
            assert O.dtype == cnn.DTYPE
            assert np.array_equal(O, oracles.infer_reference(models, models[0]._as_batch(img)))
            assert np.array_equal(O, _per_model_rows(models, img))
            assert np.array_equal(O, predict_all(models, img))
            for m, row in zip(models, O):
                assert np.array_equal(forward(m, img), row)


def test_slot_models_are_a_tuple_of_their_models(image):
    models = [CnnModel(image.matrix.shape, 8, request_index=k, seed=k) for k in range(5)]
    slots = cnn.SlotModels(models)
    assert isinstance(slots, tuple) and len(slots) == 5
    assert list(slots) == models and slots[2] is models[2]
    with pytest.raises(CnnError):
        cnn.SlotModels([])


def test_slot_models_stack_once_and_a_list_on_every_call(image, monkeypatch):
    builds = []
    stack = cnn._stack_inference

    def counted(models):
        builds.append(len(models))
        return stack(models)

    monkeypatch.setattr(cnn, "_stack_inference", counted)
    models = [CnnModel(image.matrix.shape, 8, request_index=k, seed=k) for k in range(5)]
    slots = cnn.SlotModels(models)
    first = predict_all(slots, image)
    for _ in range(9):
        assert np.array_equal(predict_all(slots, image), first)
    assert builds == [5]
    for _ in range(3):
        assert np.array_equal(predict_all(models, image), first)
    assert builds == [5] * 4


def test_predict_all_rejects_mixed_architectures():
    img_matrix = np.random.default_rng(16).uniform(0, 1, size=(3, 12))
    base = dict(input_shape=(3, 12), num_classes=5)
    for odd in (
        dict(base, filters=(16, 32)),
        dict(base, input_shape=(3, 11)),
        dict(base, num_classes=6),
    ):
        models = [CnnModel(**base, seed=0), CnnModel(**odd, seed=1), CnnModel(**base, seed=2)]
        with pytest.raises(CnnError):
            predict_all(models, img_matrix)


def test_predict_all_rejects_wrong_model_count():
    rng = np.random.default_rng(14)
    img_matrix = rng.uniform(0, 1, size=(4, 12))
    models = [CnnModel(input_shape=(4, 12), num_classes=5, seed=k) for k in range(3)]
    with pytest.raises(CnnError):
        predict_all(models, img_matrix)


# --- persistence -------------------------------------------------------------


def test_model_round_trip(tmp_path, image, monkeypatch):
    # A trained model of one stage or of three comes back with its own
    # filters, every array byte-equal, and the same inference bytes.
    sample = TrainingSample(image=image, labels=(3, 0, 0, 0, 0))
    for filters in ((16,), MULTI_STAGE):
        with monkeypatch.context() as patch:
            patch.setattr(cnn, "CnnModel", functools.partial(CnnModel, filters=filters))
            model, _ = train(
                [sample], TrainConfig(epochs=5, batch_size=1, num_classes=8, seed=2)
            )
        before = predict_all([model] * 5, image).tobytes()
        path = tmp_path / f"model_{len(filters)}"
        save_model(model, path)
        back = load_model(path)
        assert back.filters == model.filters == filters
        assert predict_all([back] * 5, image).tobytes() == before
        assert (forward(back, image) == forward(model, image)).all()
        assert back.request_index == model.request_index
        assert back.norm_digest == model.norm_digest
        saved, loaded = cnn._named_arrays(model), cnn._named_arrays(back)
        assert list(loaded) == list(saved)
        for name, array in loaded.items():
            assert array.tobytes() == saved[name].tobytes(), name
            assert array.dtype == cnn.DTYPE and array.shape == saved[name].shape, name


def test_load_refuses_a_negative_seed(tmp_path):
    save_model(CnnModel(input_shape=(2, 4), num_classes=3, filters=(2,)), tmp_path / "model_0")
    where = tmp_path / "model_0.manifest.json"
    manifest = json.loads(where.read_text())
    where.write_text(json.dumps({**manifest, "seed": -1}))
    with pytest.raises(CnnError, match="seed must be >= 0, got -1"):
        load_model(tmp_path / "model_0")


@pytest.mark.parametrize("filters", [(0,), (16, 0), (-3,)])
def test_model_refuses_a_filter_count_below_one(filters):
    with pytest.raises(CnnError, match=re.escape(f"filters {filters} must all be >= 1")):
        CnnModel(input_shape=(2, 4), num_classes=3, filters=filters)


def test_load_refuses_a_filter_count_below_one(tmp_path):
    save_model(CnnModel(input_shape=(2, 4), num_classes=3, filters=(2,)), tmp_path / "model_0")
    where = tmp_path / "model_0.manifest.json"
    manifest = json.loads(where.read_text())
    where.write_text(json.dumps({**manifest, "filters": [0]}))
    with pytest.raises(CnnError, match=r"filters \(0,\) must all be >= 1"):
        load_model(tmp_path / "model_0")


def test_load_refuses_a_slot_outside_the_image(tmp_path):
    save_model(CnnModel(input_shape=(2, 4), num_classes=3, filters=(2,)), tmp_path / "model_0")
    where = tmp_path / "model_0.manifest.json"
    manifest = json.loads(where.read_text())
    where.write_text(json.dumps({**manifest, "request_index": 2}))
    with pytest.raises(CnnError, match="request_index 2 is outside the 2 image rows"):
        load_model(tmp_path / "model_0")


@pytest.mark.parametrize(
    "field,value",
    [("request_index", 1.5), ("seed", 1.5), ("num_classes", 2.5), ("filters", (1.5,)),
     ("filters", 16), ("input_shape", (5.0, 28)), ("input_shape", (5,))],
)
def test_model_refuses_a_setting_load_model_would_refuse(field, value):
    # A model that save_model writes must be one load_model reads back.
    CnnModel(input_shape=(5, 28), num_classes=7, request_index=1)
    with pytest.raises(CnnError, match=f"malformed field '{field}'"):
        CnnModel(**{"input_shape": (5, 28), "num_classes": 7, field: value})


def test_a_model_of_numpy_integer_settings_saves_and_loads(tmp_path):
    model = CnnModel(
        input_shape=np.array([5, 28]),
        num_classes=np.int64(7),
        request_index=np.int32(1),
        filters=np.array([2, 3]),
        seed=np.uint8(3),
    )
    assert (model.input_shape, model.filters) == ((5, 28), (2, 3))
    save_model(model, tmp_path / "model_1")
    back = load_model(tmp_path / "model_1")
    for name in ("input_shape", "num_classes", "request_index", "filters", "seed"):
        assert getattr(back, name) == getattr(model, name), name
        assert type(getattr(back, name)) is type(getattr(model, name)), name
    saved, loaded = cnn._named_arrays(model), cnn._named_arrays(back)
    for name, array in loaded.items():
        assert array.tobytes() == saved[name].tobytes(), name


def test_load_refuses_arrays_of_another_dtype(tmp_path, image):
    model = CnnModel(input_shape=image.matrix.shape, num_classes=8, seed=2)
    save_model(model, tmp_path / "model_0")
    arrays = {name: a.astype(np.float64) for name, a in cnn._named_arrays(model).items()}
    np.savez(tmp_path / "model_0", **arrays)
    with pytest.raises(CnnError, match="mistyped array 'layer0_w'"):
        load_model(tmp_path / "model_0")
