"""Axis-aligned box values and their distance functions.

A box is a (center, offset) pair in R^d with offset >= 0 elementwise; its
corners are center - offset and center + offset. All functions are pure.
The distances and their gradients reduce over the last axis, so each takes
either one point of shape (d,) or a block of points of shape (n, d) and
returns one value, or gradient row, per point.

Subgradient convention at kinks: Max(x, 0) uses derivative 0 at x = 0, the
corner clamp uses the interior branch at boundary equality, and sign(0) = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class Box:
    center: np.ndarray
    offset: np.ndarray

    def __post_init__(self):
        if self.center.shape != self.offset.shape or self.center.ndim != 1:
            raise ValueError(
                f"center and offset must be equal-length vectors, got "
                f"{self.center.shape} and {self.offset.shape}"
            )
        if not np.all(self.offset >= 0):
            raise ValueError("box offset must be elementwise nonnegative")

    @property
    def dim(self) -> int:
        return self.center.shape[0]

    @property
    def upper(self) -> np.ndarray:
        return self.center + self.offset

    @property
    def lower(self) -> np.ndarray:
        return self.center - self.offset

    def contains(self, v: np.ndarray) -> bool:
        return bool(np.all(self.lower <= v) and np.all(v <= self.upper))


# Relation embeddings are boxes under the same nonnegativity constraint.
RelationBox = Box


def project(p: Box, r: RelationBox) -> Box:
    """Translate the center and grow the offset by the relation's box."""
    if p.dim != r.dim:
        raise ValueError(f"dimension mismatch: {p.dim} vs {r.dim}")
    return Box(p.center + r.center, p.offset + r.offset)


def intersect(
    boxes: Sequence[Box], attn_weights: Sequence[np.ndarray], shrink: np.ndarray
) -> Box:
    """Combine boxes: attention-weighted center, shrunken minimum offset.

    `attn_weights` holds one nonnegative d-vector per box, summing to one
    per dimension; `shrink` lies in (0, 1)^d. Both are produced by the
    learnable networks; this is only the geometric combination.
    """
    if not boxes:
        raise ValueError("intersect requires at least one box")
    if len(attn_weights) != len(boxes):
        raise ValueError("need one weight vector per box")
    center = np.zeros(boxes[0].dim)
    for box, a in zip(boxes, attn_weights):
        center = center + a * box.center
    min_offset = np.min(np.stack([b.offset for b in boxes]), axis=0)
    return Box(center, min_offset * shrink)


def dist_outside(v: np.ndarray, p: Box) -> float | np.ndarray:
    """L1 distance from each point to the box hull; zero inside."""
    _check_dim(v, p)
    return np.sum(
        np.maximum(v - p.upper, 0.0) + np.maximum(p.lower - v, 0.0), axis=-1
    )


def dist_inside(v: np.ndarray, p: Box) -> float | np.ndarray:
    """L1 distance from the center to each point clamped onto the box."""
    _check_dim(v, p)
    clamped = np.minimum(p.upper, np.maximum(p.lower, v))
    return np.sum(np.abs(p.center - clamped), axis=-1)


def dist_box(v: np.ndarray, p: Box, alpha: float) -> float | np.ndarray:
    """Outside distance plus alpha-downweighted inside distance.

    With alpha = 1 this is the plain L1 distance to the center.
    """
    return dist_outside(v, p) + alpha * dist_inside(v, p)


def dist_agg(v: np.ndarray, boxes: Sequence[Box], alpha: float) -> float | np.ndarray:
    """Minimum box distance over a set of boxes (one per DNF branch)."""
    if not boxes:
        raise ValueError("dist_agg requires at least one box")
    return np.min([dist_box(v, p, alpha) for p in boxes], axis=0)


def grad_dist_box(
    v: np.ndarray, p: Box, alpha: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact subgradients of dist_box with respect to (v, center, offset),
    one row per point of `v`."""
    _check_dim(v, p)
    upper = p.upper
    lower = p.lower
    above = v > upper
    below = v < lower
    # outside term
    dv = above.astype(float) - below.astype(float)
    dc = -dv
    do = -(above.astype(float) + below.astype(float))
    # inside term: |center - clamp(v)|
    clamped = np.minimum(upper, np.maximum(lower, v))
    s = np.sign(p.center - clamped)
    inside = ~(above | below)
    dv = dv + alpha * (-s * inside)
    dc = dc + alpha * (s * inside)  # outside dims: d(center - clamp)/dcenter = 0
    do = do + alpha * (np.abs(s) * ~inside)  # |center - corner| grows with offset
    return dv, dc, do


def _check_dim(v: np.ndarray, p: Box) -> None:
    if v.shape[-1:] != p.center.shape:
        raise ValueError(f"dimension mismatch: {v.shape} vs {p.center.shape}")
