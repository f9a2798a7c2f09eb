"""Per-request convolutional classifiers, implemented from scratch.

Each flow row of the feature image gets its own small network (the
multi-label problem is decomposed into independent per-request
classifiers).  Every network sees the whole image and outputs a
probability distribution over |E|+1 classes: one per EC plus an
explicit "uncached" class, since the optimum often leaves a flow
unplaced.

Architecture: by default one conv stage of 16 filters of 3x3 (stride
1, same padding), followed by batch normalization and ReLU, then a
dense layer to class logits and softmax.  `filters` sets the stages,
one entry each, so `(16, 32, 64)` builds three and `()` none (softmax
regression on the pixels); a saved model records its own.  One stage
was chosen over three by a sweep of training seeds on the desk
pipeline: it matched the three-stage cost and precision at 5 flows,
placed 15 flows below randomized greedy at every seed (three stages at
half of them), and needs about 1% of the three stages' multiply-adds
per image.  No pooling; spatial size is preserved until the dense
layer.  Training is mini-batch gradient descent with adaptive
per-parameter steps (Adam) on the cross-entropy.
A step's per-channel sums (batch-norm statistics and backward sums,
scale, shift and conv bias gradients) are one np.einsum each over the
(R, C) rows (`_channel_sums`), bit-equal to np.add.reduce(axis=0)
because both add the rows in order; at one channel reduce sums the
contiguous column pairwise, so a one-filter stage keeps it.  Channel
vectors are laid out over a whole image (`_over_image`), so an
elementwise op runs an h*w*C-float inner loop, not a C-float one.
Batch norm centres its input in place, and the dense input gradient
overwrites the dense layer's cached input: fewer fresh arrays, so
fewer page faults per step.
`harness.train_models` runs `train` once per slot on its `workers`
threads, each thread training whole slots; a slot's error cancels the
slots not yet started and reaches the caller once the running slots
finish.  A model's seed, shuffle stream and Adam state are its own, so
results do not depend on `workers`.  Each layer drops its forward
cache in backward, so a trained model holds no activations.

Inference (`predict_all`, and `forward` for one model) is one stacked
pass over the slot models: the image's im2col is built once and each
conv stage is one batched GEMM over a leading model axis, bit-equal to
running each model's layers on its own.  The stacked weights and
batch-norm statistics are taken once per slot set, when its
`SlotModels` is built, not on every call, and batch norm and ReLU run
in place on rows of w*C floats (a whole image row of every channel)
rather than on C-float pixels.

Parameters, activations, gradients and Adam state are float32
(`DTYPE`), and nothing in a training step or in inference promotes to
float64; `predict_all` returns float32 probabilities, which PEL widens
to float64.  `gradient_check` alone runs on a float64 copy of a model,
since a central difference of step 1e-5 is noise in float32.  All
randomness flows from explicit seeds (weights are drawn in float64 and
rounded), so training and inference are bit-reproducible.
"""

from __future__ import annotations

import copy
import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .encoder import FeatureImage
from .formats import int_tuple, integer, read_fields, read_json, write_json

MODEL_FORMAT = "edgecache-cnn"
MODEL_FORMAT_VERSION = 2  # 2: float32 arrays
DTYPE = np.float32  # of every parameter, activation, gradient and Adam moment


class CnnError(ValueError):
    pass


@dataclass(frozen=True)
class TrainingSample:
    """A labelled image: per-flow optimal classes (|E| means uncached)."""

    image: FeatureImage
    labels: tuple[int, ...]


class TrainingDivergedError(RuntimeError):
    def __init__(self, epoch: int):
        super().__init__(f"training loss became non-finite at epoch {epoch}")
        self.epoch = epoch


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def softmax_cross_entropy(
    logits: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean cross-entropy over the batch.

    Returns (loss, probabilities, dloss/dlogits).  The logit gradient is
    the closed form (probabilities - one_hot) / batch_size.
    """
    probs = softmax(logits)
    n = logits.shape[0]
    picked = probs[np.arange(n), labels]
    loss = float(-np.log(np.maximum(picked, np.finfo(logits.dtype).tiny)).mean())
    grad = probs.copy()
    grad[np.arange(n), labels] -= 1.0
    return loss, probs, grad / n


@functools.lru_cache(maxsize=64)
def _tap_rows(h: int, w: int) -> np.ndarray:
    """The pixel row each 3x3 tap of an (h, w) image reads in its
    zero-padded (h+2)*(w+2) pixel rows, flat in im2col order: output
    pixel, then tap row offset, then tap column offset.  Read-only, as
    every call for that shape shares it."""
    rows = np.arange(h)[:, None, None, None] + np.arange(3)[:, None]  # (h, 1, 3, 1)
    cols = np.arange(w)[:, None, None] + np.arange(3)  # (w, 1, 3)
    index = (rows * (w + 2) + cols).reshape(-1)
    index.flags.writeable = False
    return index


def _im2col(x: np.ndarray) -> np.ndarray:
    """Patches of a 3x3 same-padded convolution: (n, h, w, cin) ->
    (n, h, w, 9*cin), tap (row offset, column offset) major, channel
    minor.  One padded copy, then one take of its pixel rows (cin floats
    each) through the shape's cached tap index: the same code for any
    cin, in training and in the stacked inference pass.  The take makes
    a new C-contiguous array, which Conv3x3.backward overwrites in
    place."""
    n, h, w, cin = x.shape
    xp = np.zeros((n, h + 2, w + 2, cin), x.dtype)
    xp[:, 1 : h + 1, 1 : w + 1, :] = x
    return xp.reshape(n, -1, cin).take(_tap_rows(h, w), axis=1).reshape(n, h, w, 9 * cin)


def _channel_sums(a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """Per-channel sums of a, or of a * b, over every axis but the last,
    bit-equal to np.add.reduce over the (R, C) rows: from two channels
    one np.einsum, with no product temporary, which adds the rows in
    order as reduce does there (and runs its C-float loop R times at a
    fifth of reduce's cost).  A single channel is one contiguous column,
    which reduce sums pairwise and einsum does not, so it keeps reduce."""
    c = a.shape[-1]
    rows = a.reshape(-1, c)
    if c == 1:
        return (rows if b is None else rows * b.reshape(-1, c)).sum(axis=0)
    if b is None:
        return np.einsum("rc->c", rows)
    return np.einsum("rc,rc->c", rows, b.reshape(-1, c))


def _over_image(v: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Per-channel vector v laid out over one image of x, (h, w, C): an
    elementwise op of x with it runs an h*w*C-float inner loop per image,
    where v itself would run a C-float loop per pixel.  The layout leaves
    each element's arithmetic as it is, so results are bit-equal."""
    image = np.empty(x.shape[1:], v.dtype)
    image[...] = v
    return image


# Tap offset d in 0..2 reads input pixel i + d - 1 for output pixel i:
# (input span, output span) of the pixels inside the image.
_TAP_SPANS = (
    (slice(0, -1), slice(1, None)),
    (slice(None), slice(None)),
    (slice(1, None), slice(0, -1)),
)


class Conv3x3:
    """3x3 convolution, stride 1, same padding (via zero pad of 1)."""

    def __init__(self, in_channels: int, out_channels: int, rng: np.random.Generator):
        limit = 1.0 / np.sqrt(9 * in_channels)
        self.params = {
            "w": rng.uniform(-limit, limit, size=(3, 3, in_channels, out_channels)).astype(DTYPE),
            "b": np.zeros(out_channels, DTYPE),
        }
        self.grads = {k: np.zeros_like(v) for k, v in self.params.items()}
        self._cache = None

    def forward(self, x: np.ndarray, train: bool) -> np.ndarray:
        n, h, w, cin = x.shape
        cols = _im2col(x)
        wmat = self.params["w"].reshape(9 * cin, -1)
        out = (cols.reshape(-1, 9 * cin) @ wmat).reshape(n, h, w, -1)
        out += _over_image(self.params["b"], out)
        self._cache = (cols, x.shape)
        return out

    def backward(self, dout: np.ndarray, input_grad: bool = True):
        """Fill grads and drop the forward cache; return dL/dx, or None
        when input_grad is false.  dcols is computed into the patches,
        which the weight gradient was the last to read.  Tap t of dcols
        is added into the gradient at the input pixels it read, taps in
        im2col order from a zero start: the order of summing into the
        padded gradient."""
        cols, (n, h, w, cin) = self._cache
        self._cache = None
        cout = dout.shape[-1]
        dflat = dout.reshape(-1, cout)
        cols2 = cols.reshape(-1, 9 * cin)
        self.grads["w"][...] = (cols2.T @ dflat).reshape(self.params["w"].shape)
        self.grads["b"][...] = _channel_sums(dflat)
        dx = None
        if input_grad:
            np.matmul(dflat, self.params["w"].reshape(9 * cin, cout).T, out=cols2)
            dx = np.zeros((n, h, w, cin), dout.dtype)
            for t, ((xi, oi), (xj, oj)) in enumerate(itertools.product(_TAP_SPANS, repeat=2)):
                dx[:, xi, xj] += cols[:, oi, oj, t * cin : (t + 1) * cin]
        return dx


class BatchNorm:
    """Per-channel normalization over the batch and spatial axes."""

    momentum = 0.9  # decay of the running statistics
    eps = 1e-5

    def __init__(self, channels: int):
        self.params = {"scale": np.ones(channels, DTYPE), "shift": np.zeros(channels, DTYPE)}
        self.grads = {k: np.zeros_like(v) for k, v in self.params.items()}
        self.running_mean = np.zeros(channels, DTYPE)
        self.running_var = np.ones(channels, DTYPE)
        self._cache = None
        self._train_mode = False

    def forward(self, x: np.ndarray, train: bool) -> np.ndarray:
        """Overwrites x with xhat, which it caches, and returns a new
        array.  In train mode the mean and variance are np.mean's and
        np.var's, the variance the mean of the squared centred copy,
        which is then scaled in place into xhat."""
        self._train_mode = train
        if train:
            n_eff = x.size // x.shape[-1]
            mean = _channel_sums(x) / n_eff
            xhat = np.subtract(x, _over_image(mean, x), out=x)
            var = _channel_sums(xhat, xhat) / n_eff
            self.running_mean = self.momentum * self.running_mean + (1 - self.momentum) * mean
            self.running_var = self.momentum * self.running_var + (1 - self.momentum) * var
        else:
            mean, var = self.running_mean, self.running_var
            xhat = np.subtract(x, _over_image(mean, x), out=x)
        ivar = 1.0 / np.sqrt(var + self.eps)
        xhat *= _over_image(ivar, x)
        self._cache = (xhat, ivar)
        out = _over_image(self.params["scale"], x) * xhat
        out += _over_image(self.params["shift"], x)
        return out

    def backward(self, dout: np.ndarray) -> np.ndarray:
        """Fill grads, drop the forward cache and return dL/dx, computed
        in dout's own buffer, with the cached xhat's as scratch: both are
        overwritten."""
        xhat, ivar = self._cache
        self._cache = None
        self.grads["scale"][...] = _channel_sums(dout, xhat)
        self.grads["shift"][...] = _channel_sums(dout)
        dxhat = dout
        dxhat *= _over_image(self.params["scale"], dout)
        if not self._train_mode:
            dxhat *= _over_image(ivar, dout)
            return dxhat
        n_eff = xhat.size // xhat.shape[-1]
        sum_dxhat = _channel_sums(dxhat)
        sum_dxhat_xhat = _channel_sums(dxhat, xhat)
        # (ivar / n) * (n * dxhat - sum_dxhat - xhat * sum_dxhat_xhat)
        dxhat *= n_eff
        dxhat -= _over_image(sum_dxhat, dout)
        dxhat -= np.multiply(xhat, _over_image(sum_dxhat_xhat, dout), out=xhat)
        dxhat *= _over_image(ivar / n_eff, dout)
        return dxhat


class ReLU:
    """Rectifier, in place: forward overwrites its input and backward
    its upstream gradient."""

    def __init__(self):
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        self._mask = None

    def forward(self, x: np.ndarray, train: bool) -> np.ndarray:
        self._mask = x > 0
        x *= self._mask
        return x

    def backward(self, dout: np.ndarray) -> np.ndarray:
        dout *= self._mask
        self._mask = None
        return dout


class Dense:
    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator):
        limit = 1.0 / np.sqrt(in_features)
        self.params = {
            "w": rng.uniform(-limit, limit, size=(in_features, out_features)).astype(DTYPE),
            "b": np.zeros(out_features, DTYPE),
        }
        self.grads = {k: np.zeros_like(v) for k, v in self.params.items()}
        self._cache = None

    def forward(self, x: np.ndarray, train: bool) -> np.ndarray:
        flat = x.reshape(x.shape[0], -1)
        self._cache = (flat, x.shape)
        return flat @ self.params["w"] + self.params["b"]

    def backward(self, dout: np.ndarray, input_grad: bool = True):
        """Fill grads and drop the forward cache; return dL/dx, computed
        into the cached input, which the weight gradient was the last to
        read, or None when input_grad is false."""
        flat, shape = self._cache
        self._cache = None
        self.grads["w"][...] = flat.T @ dout
        self.grads["b"][...] = dout.sum(axis=0)
        return np.matmul(dout, self.params["w"].T, out=flat).reshape(shape) if input_grad else None


@dataclass
class TrainConfig:
    epochs: int = 200
    batch_size: int = 32
    learning_rate: float = 1e-3
    seed: int = 0
    request_index: int = 0
    num_classes: int = 0  # |E| + 1; required

    def __post_init__(self):
        for name, minimum in (("epochs", 1), ("batch_size", 1), ("seed", 0), ("request_index", 0),
                              ("num_classes", None)):
            integer(getattr(self, name), name, CnnError, minimum)
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise CnnError(f"learning_rate {self.learning_rate} must be finite and positive")


# The integer settings of a CnnModel, in its argument order, and how
# each is read; CnnModel and load_model refuse what these refuse.
_MODEL_FIELDS = {
    "input_shape": lambda shape: int_tuple(shape, 2),
    "num_classes": operator.index,
    "request_index": operator.index,
    "filters": int_tuple,
    "seed": operator.index,
}


class CnnModel:
    """One per-request classifier: image in, class probabilities out."""

    def __init__(
        self,
        input_shape: tuple[int, int],
        num_classes: int,
        request_index: int = 0,
        filters: tuple[int, ...] = (16,),
        seed: int = 0,
        norm_digest: str = "",
    ):
        given = dict(input_shape=input_shape, num_classes=num_classes,
                     request_index=request_index, filters=filters, seed=seed)
        input_shape, num_classes, request_index, filters, seed = read_fields(
            given, _MODEL_FIELDS, CnnError, "CnnModel"
        ).values()
        integer(num_classes, "num_classes", CnnError, 2)
        integer(seed, "seed", CnnError, 0)
        if any(f < 1 for f in filters):
            raise CnnError(f"filters {filters} must all be >= 1")
        self.input_shape = input_shape
        rows = self.input_shape[0]
        if not 0 <= request_index < rows:
            raise CnnError(f"request_index {request_index} is outside the {rows} image rows")
        self.num_classes = num_classes
        self.request_index = request_index
        self.filters = filters
        self.seed = seed
        self.norm_digest = norm_digest
        rng = np.random.default_rng([seed, 0])
        h, w = self.input_shape
        self.layers: list = []
        cin = 1
        for cout in self.filters:
            self.layers.append(Conv3x3(cin, cout, rng))
            self.layers.append(BatchNorm(cout))
            self.layers.append(ReLU())
            cin = cout
        self.layers.append(Dense(h * w * cin, num_classes, rng))

    def logits(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x, train)
        return x

    def backward(self, dlogits: np.ndarray) -> None:
        """Fill every layer's grads from dL/dlogits and drop the forward
        caches.  The first layer's input gradient is not computed:
        nothing reads it, so this returns None."""
        first, *rest = self.layers
        d = dlogits
        for layer in reversed(rest):
            d = layer.backward(d)
        first.backward(d, input_grad=False)

    def param_items(self):
        for li, layer in enumerate(self.layers):
            for key in layer.params:
                yield li, key, layer.params[key], layer.grads[key]

    def astype(self, dtype) -> CnnModel:
        """A copy whose parameters, gradients and batch-norm statistics
        are cast to dtype; its layers then compute in dtype."""
        twin = copy.deepcopy(self)
        for layer in twin.layers:
            for arrays in (layer.params, layer.grads):
                arrays.update((key, a.astype(dtype)) for key, a in arrays.items())
            if isinstance(layer, BatchNorm):
                layer.running_mean = layer.running_mean.astype(dtype)
                layer.running_var = layer.running_var.astype(dtype)
        return twin

    def _as_batch(self, img) -> np.ndarray:
        matrix = img.matrix if isinstance(img, FeatureImage) else np.asarray(img)
        if matrix.ndim == 2:
            matrix = matrix[None]
        if matrix.shape[1:] != self.input_shape:
            raise CnnError(
                f"input shape {matrix.shape[1:]} != model input {self.input_shape}"
            )
        return matrix[..., None].astype(DTYPE)


def forward(m: CnnModel, img) -> np.ndarray:
    """Inference: class probabilities for one image (batch norm uses the
    running statistics, so repeated calls are bit-identical)."""
    x = m._as_batch(img)
    if len(x) != 1:
        raise CnnError(f"forward scores one image, got a batch of {len(x)}")
    return _infer(SlotModels([m]), x)[0]


class SlotModels(tuple):
    """The per-slot models of one architecture, stacked for inference.

    A tuple of CnnModel (len, indexing and iteration are the tuple's)
    that also holds every array inference reads, taken once when it is
    built: per conv stage the (K, 9*cin, cout) weights, and the bias,
    running mean, inverse standard deviation, scale and shift, each
    tiled over the image width into a (K, 1, w*cout) row; then the
    (K, F, C) dense weights and (K, 1, C) bias.  So it is a snapshot:
    a model changed after the SlotModels is built is not seen by it.
    `harness.train_models` and `harness.load_models` return one, and
    nothing changes a model after that.
    """

    def __new__(cls, models):
        self = super().__new__(cls, models)
        if not self:
            raise CnnError("no models to stack")
        archs = {(m.input_shape, m.filters, m.num_classes) for m in self}
        if len(archs) > 1:
            raise CnnError(
                f"models disagree on (input_shape, filters, num_classes): {sorted(archs)}"
            )
        self._convs, self._dense = _stack_inference(self)
        return self


def _stack_inference(models):
    """The inference arrays of SlotModels, in the layout it documents."""
    K, width = len(models), models[0].input_shape[1]
    convs = []
    for li in range(0, len(models[0].layers) - 1, 3):
        conv = [m.layers[li].params for m in models]
        bn = [m.layers[li + 1] for m in models]
        # (K, 5, cout): bias, running mean, variance (then ivar), scale, shift
        channels = np.array([
            (c["b"], b.running_mean, b.running_var, b.params["scale"], b.params["shift"])
            for c, b in zip(conv, bn)
        ])
        channels[:, 2] = 1.0 / np.sqrt(channels[:, 2] + BatchNorm.eps)
        cout = channels.shape[-1]
        rows = np.broadcast_to(channels[:, :, None, None, :], (K, 5, 1, width, cout))
        rows = rows.reshape(K, 5, 1, width * cout).transpose(1, 0, 2, 3)
        convs.append((np.stack([c["w"].reshape(-1, cout) for c in conv]), *rows))
    dense = [m.layers[-1].params for m in models]
    return convs, (np.stack([d["w"] for d in dense]), np.stack([d["b"] for d in dense])[:, None, :])


def _infer(models: SlotModels, x: np.ndarray) -> np.ndarray:
    """One inference pass of the slot models over one image x
    (1, h, w, 1); row k is models[k]'s class probabilities.

    Every layer runs over a leading model axis: the input's im2col is
    built once, each conv stage is one np.matmul over the stacked
    (K, 9*cin, cout) weights (one GEMM per model on the operands its
    own Conv3x3 would use), batch norm and ReLU work in place on
    (K, h, w*cout) rows in the layers' own order, and the dense layer
    is one batched matmul.  So each row is bit-equal to that model's
    logits(x, train=False).
    """
    K = len(models)
    for weights, bias, mean, ivar, scale, shift in models._convs:
        n, h, w, cin = x.shape
        x = np.matmul(_im2col(x).reshape(n, h * w, 9 * cin), weights).reshape(K, h, -1)
        x += bias
        x -= mean
        x *= ivar
        np.multiply(scale, x, out=x)
        x += shift
        x *= x > 0
        x = x.reshape(K, h, w, -1)
    weights, bias = models._dense
    return softmax((x.reshape(x.shape[0], 1, -1) @ weights + bias)[:, 0])


def _slot_labels(samples, cfg: TrainConfig) -> np.ndarray:
    """cfg's slot labels of samples, once samples and cfg are checked
    to train a model: at least one sample, one image shape, a class
    count, a slot inside every sample's flows, labels in class range.
    `harness.train_models` calls it per slot before its threads start."""
    if not samples:
        raise CnnError("training needs at least one sample")
    shapes = {s.image.matrix.shape for s in samples}
    if len(shapes) != 1:
        raise CnnError(f"images disagree on shape: {sorted(shapes)}")
    if cfg.num_classes < 2:
        raise CnnError("cfg.num_classes must be set to |E| + 1")
    flows = min(len(s.labels) for s in samples)
    if cfg.request_index >= flows:
        raise CnnError(f"request_index {cfg.request_index} is past the samples' {flows} flows")
    labels = np.array([int(s.labels[cfg.request_index]) for s in samples])
    if (labels < 0).any() or (labels >= cfg.num_classes).any():
        raise CnnError("a label falls outside the configured class range")
    return labels


def train(samples, cfg: TrainConfig):
    """Fit one per-request model; returns (model, per-epoch loss trace).
    The inputs are checked before the first step.  The model's seed,
    shuffle stream and Adam state are its own, so the result does not
    depend on what else runs meanwhile."""
    labels = _slot_labels(samples, cfg)
    images = np.stack([s.image.matrix for s in samples], dtype=DTYPE)[..., None]
    model = CnnModel(
        input_shape=images.shape[1:3],
        num_classes=cfg.num_classes,
        request_index=cfg.request_index,
        seed=cfg.seed,
        norm_digest=samples[0].image.norm_meta.digest(),
    )
    opt = Adam(model, cfg.learning_rate)
    shuffle_rng = np.random.default_rng([cfg.seed, 1])
    n = images.shape[0]
    losses = []
    for epoch in range(cfg.epochs):
        perm = shuffle_rng.permutation(n)
        epoch_loss = 0.0
        batches = 0
        for start in range(0, n, cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            logits = model.logits(images[idx], train=True)
            loss, _, dlogits = softmax_cross_entropy(logits, labels[idx])
            model.backward(dlogits)
            opt.step()
            epoch_loss += loss
            batches += 1
        mean_loss = epoch_loss / batches
        if not np.isfinite(mean_loss):
            raise TrainingDivergedError(epoch)
        losses.append(mean_loss)
    return model, losses


class Adam:
    """Adaptive moment estimation over all model parameters."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, model: CnnModel, lr: float):
        self.model = model
        self.lr = lr
        self.t = 0
        self.m = {
            (li, key): np.zeros_like(p) for li, key, p, _ in model.param_items()
        }
        self.v = {
            (li, key): np.zeros_like(p) for li, key, p, _ in model.param_items()
        }

    def step(self):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        # A Python float: an np.float64 here would widen every update.
        correction = math.sqrt(1 - b2 ** self.t) / (1 - b1 ** self.t)
        for li, key, param, grad in self.model.param_items():
            m = self.m[(li, key)]
            v = self.v[(li, key)]
            m *= b1
            m += (1 - b1) * grad
            v *= b2
            v += (1 - b2) * grad * grad
            param -= self.lr * correction * m / (np.sqrt(v) + self.eps)


def gradient_check(
    m: CnnModel,
    img,
    label,
    train_mode: bool = False,
    sample_fraction: float = 0.01,
) -> float:
    """Max relative error between analytic and central-difference grads.

    Accepts a single image (spec case, checked in inference mode by
    default) or a batch; train_mode=True exercises the batch-statistics
    path of batch norm, which needs a batch of more than one image to be
    meaningful.  A seeded random subset of parameters is probed with
    central differences of step 1e-5.  Both gradients are taken on a
    float64 copy of m, at the float32 input m sees (in float32 the
    loss's rounding would swamp a difference over a 1e-5 step), so m
    itself is left as it was.
    """
    m = m.astype(np.float64)
    x = m._as_batch(img).astype(np.float64)
    labels = np.asarray(label, dtype=int).reshape(-1)

    relus = [layer for layer in m.layers if isinstance(layer, ReLU)]

    def loss_and_masks():
        logits = m.logits(x, train=train_mode)
        loss, _, _ = softmax_cross_entropy(logits, labels)
        return loss, [r._mask for r in relus]

    logits = m.logits(x, train=train_mode)
    _, _, dlogits = softmax_cross_entropy(logits, labels)
    m.backward(dlogits)

    step = 1e-5
    rng = np.random.default_rng(0)
    worst = 0.0
    for _, _, param, grad in m.param_items():
        size = param.size
        take = max(1, int(np.ceil(size * sample_fraction)))
        take = min(take, size)
        picks = rng.choice(size, size=take, replace=False)
        flat_p = param.reshape(-1)
        flat_g = grad.reshape(-1)
        for j in picks:
            orig = flat_p[j]
            flat_p[j] = orig + step
            up, masks_up = loss_and_masks()
            up_masks = [mk.copy() for mk in masks_up]
            flat_p[j] = orig - step
            down, masks_down = loss_and_masks()
            flat_p[j] = orig
            # The loss is piecewise smooth; a probe that flips a ReLU
            # sign straddles a kink where the derivative is undefined,
            # so the comparison is only meaningful elsewhere.
            if any(
                not np.array_equal(a, b) for a, b in zip(up_masks, masks_down)
            ):
                continue
            numeric = (up - down) / (2 * step)
            analytic = flat_g[j]
            denom = max(abs(numeric), abs(analytic))
            if denom < 1e-8:
                continue
            worst = max(worst, abs(numeric - analytic) / denom)
    return worst


def predict_all(models, img) -> np.ndarray:
    """Stack per-request predictions into the probability matrix O.

    Row k comes from models[k], in one inference pass over all models;
    the models are independent, so rows are unaffected by one another.
    models is a SlotModels, or a sequence that is stacked into one for
    this call.
    """
    matrix = img.matrix if isinstance(img, FeatureImage) else np.asarray(img)
    if len(models) != matrix.shape[0]:
        raise CnnError(
            f"{len(models)} models for {matrix.shape[0]} flow rows"
        )
    if not isinstance(models, SlotModels):
        models = SlotModels(models)
    return _infer(models, models[0]._as_batch(matrix))


def _named_arrays(m: CnnModel) -> dict[str, np.ndarray]:
    """Every array a saved model holds, keyed by its .npz name: the
    parameters, then each BatchNorm's running statistics."""
    arrays = {f"layer{li}_{key}": param for li, key, param, _ in m.param_items()}
    for li, layer in enumerate(m.layers):
        if isinstance(layer, BatchNorm):
            arrays[f"layer{li}_running_mean"] = layer.running_mean
            arrays[f"layer{li}_running_var"] = layer.running_var
    return arrays


def save_model(m: CnnModel, path) -> None:
    """Versioned binary weights plus a small text manifest."""
    np.savez(path, **_named_arrays(m))
    manifest = {
        "format": MODEL_FORMAT,
        "version": MODEL_FORMAT_VERSION,
        "input_shape": list(m.input_shape),
        "num_classes": m.num_classes,
        "request_index": m.request_index,
        "filters": list(m.filters),
        "seed": m.seed,
        "norm_digest": m.norm_digest,
    }
    write_json(str(path) + ".manifest.json", manifest)


def load_model(path) -> CnnModel:
    where = str(path) + ".manifest.json"
    manifest = read_json(where, MODEL_FORMAT, MODEL_FORMAT_VERSION, CnnError)
    fields = {**_MODEL_FIELDS, "norm_digest": str}
    m = CnnModel(**read_fields(manifest, fields, CnnError, where))
    npz_path = str(path) if str(path).endswith(".npz") else str(path) + ".npz"
    with np.load(npz_path) as data:
        for name, target in _named_arrays(m).items():
            value = data[name] if name in data else None
            if value is None or value.shape != target.shape or value.dtype != target.dtype:
                raise CnnError(f"{npz_path}: missing, misshapen or mistyped array {name!r}")
            target[...] = value
    return m
