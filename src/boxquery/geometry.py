"""Box distances for the two uses the system has.

A box is a (center, offset) pair in R^d with offset >= 0 elementwise; its
corners are center - offset and center + offset. The boxes of B queries
come as (B, d) center and offset stacks, one pair per DNF branch. All
functions are pure.

Evaluation calls `dist_agg`: the points are one (N, d) block shared by all
boxes, and the result is a (B, N) table whose row b measures every point
against box b of each branch and keeps the minimum, as evaluation scores B
queries against all entities. Training calls `dist_box_grad`, one fused
pass over the (q, m, d) candidates of q boxes that returns the distances,
in `dist_agg`'s operation order, together with their subgradients; its
distances alone are `dist_box_rows`.

The distances use the |v - c| form: with t = |v - c|, outside = sum
max(t - o, 0), inside = sum t - outside and dist_box = outside + alpha *
inside. `dist_agg` scores the points in fixed-size row blocks of one
scratch buffer. The gradients are products of the outside mask and
per-box factors, with no masked select, and they go into buffers the
caller may supply and reuse from call to call. A coordinate is outside
when |v - c| > o, the distance's own test, so the distance and its
gradient always agree on the side of a kink; at |v - c| == o the inside
branch is taken, and sign(0) = 0.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

# Points per distance block times d: 256 KB of float64, so the scratch
# buffer stays in a core's L2 cache while a block meets every box.
_BLOCK_ELEMENTS = 1 << 15


def dist_agg(v: np.ndarray, boxes: Sequence[tuple[np.ndarray, np.ndarray]],
             alpha: float) -> np.ndarray:
    """(B, N) table of the minimum box distance over the DNF branches: entry
    (b, n) measures point n of the (N, d) block `v` against box b of each
    branch's (B, d) (center, offset) stacks in `boxes`.

    A block of rows meets every box before the next block is read."""
    if not boxes:
        raise ValueError("dist_agg requires at least one box")
    shape = boxes[0][0].shape
    if (len(shape) != 2 or v.ndim != 2 or v.shape[1] != shape[1]
            or any(c.shape != shape or o.shape != shape for c, o in boxes)):
        raise ValueError(f"dimension mismatch: points {v.shape} vs boxes "
                         f"{[(c.shape, o.shape) for c, o in boxes]}")
    d = shape[1]
    dtype = np.result_type(v, *(x for box in boxes for x in box), 0.0)
    # one group of boxes per output row, box b of every branch
    groups = [[(c[i], o[i]) for c, o in boxes] for i in range(shape[0])]
    result = np.full((len(groups), len(v)), np.inf, dtype)
    block = max(1, _BLOCK_ELEMENTS // max(d, 1))
    scratch = np.empty((min(block, len(v)), d), dtype)
    for start in range(0, len(v), block):
        v_block = v[start : start + block]
        t = scratch[: len(v_block)]
        for res, group in zip(result[:, start : start + block], groups):
            for center, offset in group:
                np.subtract(v_block, center, out=t)
                np.abs(t, out=t)
                l1 = t.sum(axis=1)
                t -= offset
                np.maximum(t, 0.0, out=t)
                out = t.sum(axis=1)
                np.minimum(res, out + alpha * (l1 - out), out=res)
    return result


def dist_box_rows(v: np.ndarray, center: np.ndarray, offset: np.ndarray, alpha: float,
                  scratch=None) -> np.ndarray:
    """dist_box of the points v[i] of a (q, m, d) block to box i of the (q, d)
    center and offset stacks, in the points' dtype: the distances of
    `dist_box_grad`, in `dist_agg`'s operation order. `scratch`, a pair of
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

    Each distance equals `dist_agg`'s for its point and box. The slope
    inside the box is alpha, in [0, 1], rounded to the points' dtype. The
    gradients are float64; with `out`, a (dv, do) pair of float64 arrays of
    v's shape, they are written there, and what the pair held before is
    never read."""
    dv, do = (np.empty(v.shape), np.empty(v.shape)) if out is None else out
    dtype = np.result_type(v, center, offset, 0.0)
    # float64 points form v - c and |v - c| - o in the gradient buffers
    t = dv if dtype == dv.dtype else np.empty(v.shape, dtype)
    a = do if dtype == do.dtype else np.empty(v.shape, dtype)
    dist = dist_box_rows(v, center, offset, alpha, scratch=(t, a))
    outside = a > 0
    slope = float(t.dtype.type(alpha))
    # 1 outside and the slope inside, times sign(t); maximum selects exactly
    # while 0 <= slope <= 1. sign goes out of place, into do: numpy's
    # in-place sign is several times slower
    np.multiply(np.sign(t, out=do), np.maximum(outside, slope, out=dv), out=dv)
    # outside, the overshoot shrinks as the offset grows while the inside
    # term, alpha * o, grows unless the box is a point; inside, do is -0.0
    np.copyto(do, outside)
    do *= np.where(offset > 0, slope, 0.0)[:, None] - 1.0
    return dist, dv, do
