"""Axis-aligned box values and their distance functions.

A box is a (center, offset) pair in R^d with offset >= 0 elementwise; its
corners are center - offset and center + offset. All functions are pure.

One kernel measures points against boxes, in one of two uses chosen by the
boxes' shape. Single boxes, center and offset of shape (d,): the points v
are one point (d,) or a block (..., d), and each point gets one value.
Stacks of B boxes, center and offset of shape (B, d): the points are one
(N, d) block shared by all boxes, and `dist_agg` returns a (B, N) table
whose row b measures every point against box b of each stack, as
evaluation scores B queries against all entities. Mixing the two raises
ValueError.

The distances use the |v - c| form: with t = |v - c|, outside = sum
max(t - o, 0), inside = sum t - outside and dist_box = outside + alpha *
inside. The kernel scores the points in fixed-size row blocks of one
scratch buffer. Training calls `dist_box_grad` instead, one fused pass
over the (q, m, d) candidates of q boxes that returns the distances, in
the kernel's operation order, together with their subgradients; its
distances alone are `dist_box_rows`. The gradients are products of the
outside mask and per-box factors, with no masked select, and they go
into buffers the caller may supply and reuse from call to call. A
coordinate is outside when |v - c| > o, the kernel's own test, so the
distance and its gradient always agree on the side of a kink; at |v - c|
== o the inside branch is taken, and sign(0) = 0.
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
    """Minimum box distance over a set of boxes (one per DNF branch); for
    (B, d) stacks, a (B, N) table over the points of an (N, d) block."""
    if not boxes:
        raise ValueError("dist_agg requires at least one box")
    return _box_reduce(v, boxes, lambda l1, out: out + alpha * (l1 - out))


def dist_box_rows(v: np.ndarray, center: np.ndarray, offset: np.ndarray, alpha: float,
                  scratch=None) -> np.ndarray:
    """dist_box of the points v[i] of a (q, m, d) block to box i of the (q, d)
    center and offset stacks, in the points' dtype: the distances of
    `dist_box_grad`, in the kernel's operation order. `scratch`, a pair of
    arrays of v's shape in that dtype, allocated if None, is left holding
    v - c and max(|v - c| - o, 0)."""
    if scratch is None:
        dtype = np.result_type(v, center, offset, 0.0)
        scratch = (np.empty(v.shape, dtype), np.empty(v.shape, dtype))
    t, a = scratch
    np.subtract(v, center[:, None], out=t, dtype=t.dtype)
    np.abs(t, out=a)
    l1 = a.sum(axis=-1)
    a -= offset[:, None]
    np.maximum(a, 0.0, out=a)
    out = a.sum(axis=-1)
    return (out + alpha * (l1 - out)).astype(t.dtype, copy=False)


def dist_box_grad(
    v: np.ndarray, center: np.ndarray, offset: np.ndarray, alpha: float, out=None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """dist_box of the points v[i] of a (q, m, d) block to box i of the (q, d)
    center and offset stacks, with its subgradients dv in v and do in the
    offset; the subgradient in the center is -dv.

    Each distance row equals `dist_box` of its points. The slope inside the
    box is alpha, in [0, 1], rounded to the points' dtype. The gradients are
    float64; with `out`, a (dv, do) pair of float64 arrays of v's shape,
    they are written there, and what the pair held before is never read."""
    dv, do = (np.empty(v.shape), np.empty(v.shape)) if out is None else out
    dtype = np.result_type(v, center, offset, 0.0)
    # float64 points form v - c and |v - c| - o in the gradient buffers
    t = dv if dtype == dv.dtype else np.empty(v.shape, dtype)
    a = do if dtype == do.dtype else np.empty(v.shape, dtype)
    dist = dist_box_rows(v, center, offset, alpha, scratch=(t, a))
    outside = a > 0
    slope = float(t.dtype.type(alpha))
    # 1 outside and the slope inside, times sign(t); maximum selects exactly
    # while 0 <= slope <= 1
    np.multiply(np.sign(t, out=t), np.maximum(outside, slope, out=do), out=dv)
    # outside, the overshoot shrinks as the offset grows while the inside
    # term, alpha * o, grows unless the box is a point; inside, do is -0.0
    np.copyto(do, outside)
    do *= np.where(offset > 0, slope, 0.0)[:, None] - 1.0
    return dist, dv, do


def _box_reduce(v: np.ndarray, boxes: Sequence[Box], combine):
    """Minimum over `boxes` of `combine(l1, outside)` for each point of `v`,
    or for (B, d) stacks, for each (box b of the stacks, point) pair.

    A block of rows meets every box before the next block is read."""
    shape = boxes[0].center.shape
    if (any(p.center.shape != shape for p in boxes) or v.shape[-1:] != shape[-1:]
            or (len(shape) == 2 and v.ndim != 2)):
        raise ValueError(
            f"dimension mismatch: points {v.shape} vs boxes {[p.center.shape for p in boxes]}")
    d = shape[-1]
    rows = v.reshape(-1, d)
    dtype = np.result_type(v, *(p.center for p in boxes), *(p.offset for p in boxes), 0.0)
    # one group of boxes per output row, box b of every stack; a single box
    # is a stack of one
    stacks = [(np.atleast_2d(p.center), np.atleast_2d(p.offset)) for p in boxes]
    groups = [[(c[i], o[i]) for c, o in stacks] for i in range(len(stacks[0][0]))]
    result = np.full((len(groups), len(rows)), np.inf, dtype)
    block = max(1, _BLOCK_ELEMENTS // max(d, 1))
    scratch = np.empty((min(block, len(rows)), d), dtype)
    for start in range(0, len(rows), block):
        v_block = rows[start : start + block]
        t = scratch[: len(v_block)]
        for res, group in zip(result[:, start : start + block], groups):
            for center, offset in group:
                np.subtract(v_block, center, out=t)
                np.abs(t, out=t)
                l1 = t.sum(axis=1)
                t -= offset
                np.maximum(t, 0.0, out=t)
                np.minimum(res, combine(l1, t.sum(axis=1)), out=res)
    return result if len(shape) == 2 else result[0].reshape(v.shape[:-1])[()]
