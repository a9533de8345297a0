"""Seeded synthetic embedding generator for desk-scale benchmarks.

Identity centers are drawn uniformly on the unit sphere, each camera
contributes a fixed offset vector, and each sample is the normalized sum
of its identity center, its camera offset, and per-coordinate Gaussian
noise. Camera ids are assigned so that every query has at least one
same-identity, different-camera gallery sample.

All randomness comes from numpy's PCG64 generator seeded with
SynthSpec.seed, so outputs are bit-identical across runs and platforms.
"""

import math
from dataclasses import dataclass

import numpy as np

from .matrix_ops import l2_normalize_rows
from .metrics import SampleLabels


@dataclass(frozen=True)
class SynthSpec:
    """Parameters of a synthetic query/gallery split.

    Attributes:
        num_ids: number of identities (>= 2).
        imgs_per_id: samples per identity (>= 2).
        dim: embedding dimension.
        num_cams: number of cameras (>= 2, needed for cross-camera queries).
        intra_noise: per-coordinate Gaussian noise std.
        cam_offset_scale: norm of each camera's offset vector.
        query_fraction: fraction of each identity's samples used as
            queries, in (0, 1); at least one gallery sample per identity
            is always retained.
        seed: PCG64 seed.
    """

    num_ids: int = 50
    imgs_per_id: int = 10
    dim: int = 64
    num_cams: int = 4
    intra_noise: float = 0.35
    cam_offset_scale: float = 0.25
    query_fraction: float = 0.2
    seed: int = 7

    def __post_init__(self):
        if self.num_ids < 2:
            raise ValueError(f"num_ids must be >= 2, got {self.num_ids}")
        if self.imgs_per_id < 2:
            raise ValueError(f"imgs_per_id must be >= 2, got {self.imgs_per_id}")
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if self.num_cams < 2:
            raise ValueError(
                f"num_cams must be >= 2 (no cross-camera queries otherwise), got {self.num_cams}"
            )
        if not 0.0 <= self.intra_noise < math.inf:
            raise ValueError(f"intra_noise must be finite and >= 0, got {self.intra_noise}")
        if not 0.0 <= self.cam_offset_scale < math.inf:
            raise ValueError(
                f"cam_offset_scale must be finite and >= 0, got {self.cam_offset_scale}"
            )
        if not 0.0 < self.query_fraction < 1.0:
            raise ValueError(
                f"query_fraction must lie in (0, 1), got {self.query_fraction}"
            )

    @property
    def queries_per_id(self) -> int:
        return min(math.ceil(self.query_fraction * self.imgs_per_id), self.imgs_per_id - 1)


def _camera_plan(spec: SynthSpec) -> tuple[np.ndarray, np.ndarray]:
    """Camera ids for one identity's query and gallery samples.

    Gallery samples cycle through cameras starting at 0. When only one
    gallery sample remains (camera 0), queries are confined to cameras
    1..C-1 so each query still has a different-camera positive.
    """
    nq = spec.queries_per_id
    ng = spec.imgs_per_id - nq
    gallery_cams = np.arange(ng, dtype=np.int64) % spec.num_cams
    if ng >= 2:
        query_cams = np.arange(nq, dtype=np.int64) % spec.num_cams
    else:
        query_cams = 1 + np.arange(nq, dtype=np.int64) % (spec.num_cams - 1)
    return query_cams, gallery_cams


def generate(spec: SynthSpec):
    """Draw a synthetic query/gallery split.

    Returns:
        (query_feats, query_labels, gallery_feats, gallery_labels) where
        the feature matrices are float64 with unit-norm rows.
    """
    rng = np.random.default_rng(spec.seed)
    centers = l2_normalize_rows(rng.standard_normal((spec.num_ids, spec.dim)))
    cam_offsets = l2_normalize_rows(rng.standard_normal((spec.num_cams, spec.dim)))
    cam_offsets = cam_offsets * spec.cam_offset_scale

    query_cams, gallery_cams = _camera_plan(spec)
    nq = query_cams.size
    noise = rng.normal(0.0, spec.intra_noise, size=(spec.num_ids, spec.imgs_per_id, spec.dim))
    cams = np.concatenate([query_cams, gallery_cams])
    samples = centers[:, None, :] + cam_offsets[cams] + noise
    query_feats = l2_normalize_rows(samples[:, :nq].reshape(-1, spec.dim))
    gallery_feats = l2_normalize_rows(samples[:, nq:].reshape(-1, spec.dim))
    pids = np.arange(spec.num_ids)
    query_labels = SampleLabels(np.repeat(pids, nq), np.tile(query_cams, spec.num_ids))
    gallery_labels = SampleLabels(
        np.repeat(pids, gallery_cams.size), np.tile(gallery_cams, spec.num_ids)
    )
    return query_feats, query_labels, gallery_feats, gallery_labels
