"""Feature encoding: instance -> normalized matrix -> grayscale image.

One instance becomes a |K| x (|A|+|E|+|L|) matrix laid out as three
blocks: mobility probabilities P (already in [0,1]), storage ratios Q
and bandwidth ratios R, each scaled by fixed constants derived from the
generation ranges.  Using fixed constants rather than per-image min-max
keeps the same physical value at the same gray level across the whole
corpus, which is what lets a trained model transfer between images.
Larger values render darker.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace

import numpy as np

from .cost import Assignment
from .formats import integer
from .instance import Instance, ParameterRanges, ratios

# The positive floor on residual capacities, so that a clamped residual
# network still has finite utilization ratios.
RESIDUAL_FLOOR = 1e-9


class EncodingError(ValueError):
    """A value fell outside the configured normalization range."""


@dataclass(frozen=True)
class NormConfig:
    """Fixed affine normalization constants shared by train and test."""

    q_max: float
    r_max: float
    clip: bool = False

    def __post_init__(self):
        if not all(np.isfinite(v) and v > 0 for v in (self.q_max, self.r_max)):
            raise EncodingError(f"q_max {self.q_max} and r_max {self.r_max} must be finite and > 0")

    @classmethod
    def from_ranges(cls, ranges: ParameterRanges = ParameterRanges()):
        s_lo, s_hi = ranges.content_size
        w_lo, w_hi = ranges.ec_space
        b_lo, b_hi = ranges.bandwidth
        c_lo, c_hi = ranges.link_capacity
        return cls(q_max=s_hi / w_lo, r_max=b_hi / c_lo)

    def record(self) -> dict:
        """The maxima as manifests store them (not clip); NormConfig(**record) reads them back."""
        return {"q_max": self.q_max, "r_max": self.r_max}

    def digest(self) -> str:
        """Stable hash for train/test compatibility checks."""
        blob = json.dumps(self.record(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


@dataclass(frozen=True)
class FeatureImage:
    """Normalized [P | Q | R] matrix plus block and padding metadata."""

    matrix: np.ndarray
    block_bounds: dict[str, tuple[int, int]]
    norm_meta: NormConfig
    phantom_rows: int = 0

    @property
    def num_flows(self) -> int:
        return self.matrix.shape[0] - self.phantom_rows


def encode(i: Instance, norm: NormConfig) -> FeatureImage:
    """Build the normalized feature matrix for one instance.

    Raises EncodingError (naming the offending cell) when a ratio
    exceeds its configured maximum, unless norm.clip is set; clipping is
    meant for residual-capacity re-encoding, where ratios legitimately
    drift above the generation range.
    """
    rat = ratios(i)
    A = i.topology.num_access_routers
    E = i.topology.num_edge_clouds
    L = i.topology.num_links
    return FeatureImage(
        matrix=feature_matrix(i.mobility, rat.q, rat.r, norm),
        block_bounds={"P": (0, A), "Q": (A, A + E), "R": (A + E, A + E + L)},
        norm_meta=norm,
    )


def feature_matrix(p: np.ndarray, q: np.ndarray, r: np.ndarray, norm: NormConfig) -> np.ndarray:
    """The [P | Q | R] rows of mobility p, storage ratios q and bandwidth
    ratios r, normalized as encode does; each row depends on its own
    flow's values only, so a block of rows encodes as it does in the
    whole image."""

    def scaled(block: np.ndarray, maximum: float, name: str) -> np.ndarray:
        out = block / maximum
        if norm.clip:
            return np.clip(out, 0.0, 1.0)
        if (out > 1.0 + 1e-12).any():
            k, j = np.unravel_index(np.argmax(out), out.shape)
            raise EncodingError(
                f"{name}[{k},{j}] = {block[k, j]:.6g} exceeds the configured "
                f"maximum {maximum:.6g}; refusing to encode off-range data"
            )
        return np.minimum(out, 1.0)

    if (p < -1e-12).any() or (p > 1 + 1e-12).any():
        raise EncodingError("P block holds a probability outside [0,1]")

    return np.concatenate(
        [np.clip(p, 0.0, 1.0), scaled(q, norm.q_max, "Q"), scaled(r, norm.r_max, "R")],
        axis=1,
    )


def to_grayscale(f: FeatureImage) -> np.ndarray:
    """8-bit rendering: larger values map to darker pixels."""
    return np.round(255.0 * (1.0 - f.matrix)).astype(np.uint8)


def write_pgm(path, pixels: np.ndarray) -> None:
    """Binary PGM (P5, maxval 255)."""
    if pixels.dtype != np.uint8 or pixels.ndim != 2:
        raise EncodingError("PGM writer expects a 2-D uint8 array")
    h, w = pixels.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes())


def read_pgm(path) -> np.ndarray:
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(b"P5"):
        raise EncodingError(f"{path}: not a binary PGM file")
    # Header: magic, width, height, maxval; '#' comments allowed between.
    fields: list[int] = []
    pos = 2
    while len(fields) < 3:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        if not data[start:pos].isdigit():
            raise EncodingError(f"{path}: malformed or truncated PGM header")
        fields.append(int(data[start:pos]))
    pos += 1  # single whitespace after maxval
    w, h, maxval = fields
    if maxval != 255:
        raise EncodingError(f"{path}: unsupported maxval {maxval}")
    pixels = np.frombuffer(data[pos : pos + w * h], dtype=np.uint8)
    if pixels.size != w * h:
        raise EncodingError(f"{path}: truncated pixel data")
    return pixels.reshape(h, w).copy()


def write_feature_csv(f: FeatureImage, path) -> None:
    """Feature matrix as CSV, led by a block-bounds header comment."""
    bounds = " ".join(f"{name}={lo}:{hi}" for name, (lo, hi) in f.block_bounds.items())
    with open(path, "w") as fh:
        fh.write(f"# blocks {bounds} q_max={f.norm_meta.q_max:.12g} "
                 f"r_max={f.norm_meta.r_max:.12g} phantom={f.phantom_rows}\n")
        for row in f.matrix:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def read_feature_csv(path) -> FeatureImage:
    with open(path) as fh:
        header = fh.readline()
        if not header.startswith("# blocks "):
            raise EncodingError(f"{path}: missing block-bounds header")
        try:
            fields = dict(part.split("=", 1) for part in header[9:].split())
            bounds = {}
            for name in ("P", "Q", "R"):
                lo, hi = fields[name].split(":")
                bounds[name] = (int(lo), int(hi))
            norm = NormConfig(q_max=float(fields["q_max"]), r_max=float(fields["r_max"]))
            phantom = int(fields.get("phantom", 0))
            matrix = np.array(
                [[float(v) for v in line.split(",")] for line in fh if line.strip()]
            )
        except KeyError as exc:
            raise EncodingError(f"{path}: header lacks {exc.args[0]!r}") from exc
        except ValueError as exc:
            raise EncodingError(f"{path}: malformed feature CSV: {exc}") from exc
    return FeatureImage(matrix=matrix, block_bounds=bounds, norm_meta=norm, phantom_rows=phantom)


def split_subimages(f: FeatureImage, rows_per_block: int) -> list[FeatureImage]:
    """Cut the image into row-contiguous blocks of a fixed height.

    When the row count is not a multiple of the block height, the last
    block is padded with all-zero phantom rows (flows with no demand);
    the padding count is recorded on that block.
    """
    integer(rows_per_block, "rows_per_block", EncodingError, 1)
    rows, width = f.matrix.shape
    blocks = []
    for start in range(0, rows, rows_per_block):
        chunk = f.matrix[start : start + rows_per_block]
        phantom = rows_per_block - chunk.shape[0]
        if phantom:
            chunk = np.vstack([chunk, np.zeros((phantom, width))])
        blocks.append(
            FeatureImage(
                matrix=chunk,
                block_bounds=dict(f.block_bounds),
                norm_meta=f.norm_meta,
                phantom_rows=phantom,
            )
        )
    return blocks


def update_residual(
    i: Instance, committed: Assignment, clamp: bool = False
) -> Instance:
    """Capacities left after honoring an already-committed assignment.

    EC space shrinks by the cached content sizes, link capacity by the
    bandwidth of flows routed across each link.  Raises when the commit
    exceeds a capacity; clamp=True instead floors the residual at a tiny
    positive value (used when heuristic commits may be infeasible and
    the caller wants the pipeline to continue).
    """
    used_space = (i.content_size[:, None] * committed.x).sum(axis=0)
    used_bw = (i.bandwidth[:, None] * committed.y).sum(axis=0)
    res_space = i.ec_space - used_space
    res_bw = i.link_capacity - used_bw
    if not clamp:
        if (res_space < -1e-9).any():
            e = int(np.argmin(res_space))
            raise EncodingError(
                f"committed content overfills EC index {e} by {-res_space[e]:.6g} MB"
            )
        if (res_bw < -1e-9).any():
            l = int(np.argmin(res_bw))
            raise EncodingError(
                f"committed bandwidth overloads link index {l} by {-res_bw[l]:.6g} Mbps"
            )
    return replace(
        i,
        ec_space=np.maximum(res_space, RESIDUAL_FLOOR),
        link_capacity=np.maximum(res_bw, RESIDUAL_FLOOR),
    )
