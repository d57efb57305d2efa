"""Axis-aligned box values and their distance functions.

A box is a (center, offset) pair in R^d with offset >= 0 elementwise; its
corners are center - offset and center + offset. All functions are pure.
The distances and their gradients reduce over the last axis, so each takes
either one point of shape (d,) or a block of points of shape (n, d) and
returns one value, or gradient row, per point. A box may also be a stack of
B boxes, center and offset of shape (B, d); its points then have shape
(B, ..., d), and the points v[b] are measured against box b.

The distances use the |v - c| form (outside = sum max(|v - c| - o, 0),
inside = sum min(|v - c|, o)) and score the points in fixed-size row blocks
of one scratch buffer; grad_dist_box keeps the corner form. Subgradient
convention at kinks: Max(x, 0) uses derivative 0 at x = 0, the corner
clamp uses the interior branch at boundary equality, and sign(0) = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

# Points per distance block times d: 256 KB of float64, so the scratch
# buffer stays in a core's L2 cache while a block meets every box.
_BLOCK_ELEMENTS = 1 << 15


@dataclass(frozen=True)
class Box:
    center: np.ndarray
    offset: np.ndarray

    def __post_init__(self):
        if self.center.shape != self.offset.shape or self.center.ndim not in (1, 2):
            raise ValueError(
                f"center and offset must be equal-shape vectors or (B, d) stacks, got "
                f"{self.center.shape} and {self.offset.shape}"
            )
        if not np.all(self.offset >= 0):
            raise ValueError("box offset must be elementwise nonnegative")

    @property
    def dim(self) -> int:
        return self.center.shape[-1]

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


def dist_outside(v: np.ndarray, p: Box) -> float | np.ndarray:
    """L1 distance from each point to the box hull; zero inside."""
    return _box_reduce(v, [p], lambda l1, out: out)


def dist_inside(v: np.ndarray, p: Box) -> float | np.ndarray:
    """L1 distance from the center to each point clamped onto the box."""
    return _box_reduce(v, [p], lambda l1, out: l1 - out)


def dist_box(v: np.ndarray, p: Box, alpha: float) -> float | np.ndarray:
    """Outside distance plus alpha-downweighted inside distance.

    With alpha = 1 this is the plain L1 distance to the center.
    """
    return dist_agg(v, [p], alpha)


def dist_agg(v: np.ndarray, boxes: Sequence[Box], alpha: float) -> float | np.ndarray:
    """Minimum box distance over a set of boxes (one per DNF branch)."""
    if not boxes:
        raise ValueError("dist_agg requires at least one box")
    return _box_reduce(v, boxes, lambda l1, out: out + alpha * (l1 - out))


def grad_dist_box(
    v: np.ndarray, p: Box, alpha: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact subgradients of dist_box with respect to (v, center, offset),
    one row per point of `v`."""
    _check_dim(v, p)
    # a stack of boxes gets an axis per extra axis of its points
    shape = p.center.shape[:-1] + (1,) * (v.ndim - p.center.ndim) + p.center.shape[-1:]
    center, offset = p.center.reshape(shape), p.offset.reshape(shape)
    upper = center + offset
    lower = center - offset
    above = v > upper
    below = v < lower
    inside = ~(above | below)
    # sign of the inside term |center - clamp(v)|
    s = np.sign(center - np.minimum(upper, np.maximum(lower, v)))
    # outside, |center - corner| grows with the offset and the overshoot shrinks
    do = np.where(inside, 0.0, np.add(alpha * np.abs(s), -1.0, dtype=float))
    s *= alpha * inside  # outside dims: d(center - clamp)/dcenter = 0
    outside = np.subtract(above, below, dtype=float)  # gradient of the outside term in v
    dc = s - outside
    return np.subtract(outside, s, out=outside), dc, do


def _box_reduce(v: np.ndarray, boxes: Sequence[Box], combine) -> float | np.ndarray:
    """Minimum over `boxes` of `combine(l1, outside)` for each point of `v`.

    A block of rows meets every box before the next block is read."""
    for p in boxes:
        _check_dim(v, p)
    d = v.shape[-1]
    rows = v.reshape(-1, d)
    dtype = np.result_type(v, *(p.center for p in boxes), *(p.offset for p in boxes), 0.0)
    # a stack of boxes is repeated row by row, box b once for each of its points
    stacked = boxes[0].center.ndim == 2
    repeats = len(rows) // max(1, len(boxes[0].center)) if stacked else 1
    planes = [(np.repeat(p.center, repeats, 0), np.repeat(p.offset, repeats, 0)) if stacked
              else (p.center, p.offset) for p in boxes]
    result = np.full(len(rows), np.inf, dtype)
    block = max(1, _BLOCK_ELEMENTS // max(d, 1))
    scratch = np.empty((min(block, len(rows)), d), dtype)
    for start in range(0, len(rows), block):
        v_block = rows[start : start + block]
        t = scratch[: len(v_block)]
        at = slice(start, start + block) if stacked else ...
        for center, offset in planes:
            np.subtract(v_block, center[at], out=t)
            np.abs(t, out=t)
            l1 = t.sum(axis=1)
            t -= offset[at]
            np.maximum(t, 0.0, out=t)
            res = result[start : start + block]
            np.minimum(res, combine(l1, t.sum(axis=1)), out=res)
    return result.reshape(v.shape[:-1])[()]


def _check_dim(v: np.ndarray, p: Box) -> None:
    lead = p.center.ndim - 1  # the axes of a stack of boxes
    if v.ndim <= lead or v.shape[:lead] + v.shape[-1:] != p.center.shape:
        raise ValueError(f"dimension mismatch: {v.shape} vs {p.center.shape}")
