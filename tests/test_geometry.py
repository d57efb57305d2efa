import tracemalloc

import numpy as np
import pytest

from boxquery import geometry
from boxquery.geometry import dist_box_grad, dist_box_rows

from oracles import (
    Box,
    dist_agg,
    dist_agg_corner,
    dist_box_corner,
    dist_box,
    dist_box_grad_select,
    dist_inside,
    dist_inside_corner,
    dist_outside,
    dist_outside_corner,
    grad_dist_box,
    intersect,
    project,
)


def box(center, offset):
    return Box(np.asarray(center, dtype=float), np.asarray(offset, dtype=float))


def random_box(rng, d=5, scale=2.0):
    return Box(rng.uniform(-scale, scale, d), rng.uniform(0, scale, d))


def fused_grads(v, p, alpha):
    """(dv, dc, do) of one point (d,) or block (n, d) against one box, by
    the fused pass over a (1, n, d) candidate block."""
    _, dv, do = dist_box_grad(v.reshape(1, -1, p.dim), p.center[None], p.offset[None], alpha)
    return dv.reshape(v.shape), -dv.reshape(v.shape), do.reshape(v.shape)


class TestBoxInvariants:
    def test_negative_offset_rejected(self):
        with pytest.raises(ValueError):
            box([0.0, 0.0], [1.0, -0.1])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            box([0.0, 0.0], [1.0])

    def test_corners(self):
        b = box([1.0, -1.0], [0.5, 2.0])
        assert np.allclose(b.upper, [1.5, 1.0])
        assert np.allclose(b.lower, [0.5, -3.0])


class TestProject:
    def test_componentwise_sums(self):
        p = box([1.0, 1.0], [0.0, 0.0])
        r = box([2.0, -1.0], [0.5, 0.5])
        out = project(p, r)
        assert np.allclose(out.center, [3.0, 0.0])
        assert np.allclose(out.offset, [0.5, 0.5])

    def test_zero_relation_is_identity(self):
        p = box([1.0, 2.0], [0.3, 0.4])
        out = project(p, box([0.0, 0.0], [0.0, 0.0]))
        assert np.allclose(out.center, p.center)
        assert np.allclose(out.offset, p.offset)

    def test_offset_never_shrinks(self, rng):
        for _ in range(200):
            p = random_box(rng)
            r = random_box(rng)
            out = project(p, r)
            assert np.all(out.offset >= p.offset)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            project(box([0.0], [0.0]), box([0.0, 0.0], [0.0, 0.0]))


class TestIntersect:
    def test_singleton_with_shrink(self):
        b = box([1.0, 2.0], [0.4, 0.8])
        out = intersect([b], [np.ones(2)], np.full(2, 0.5))
        assert np.allclose(out.center, b.center)
        assert np.allclose(out.offset, [0.2, 0.4])

    def test_two_boxes_hand_arithmetic(self):
        b1 = box([0.0, 0.0], [1.0, 1.0])
        b2 = box([2.0, 2.0], [3.0, 3.0])
        weights = [np.full(2, 0.5), np.full(2, 0.5)]
        out = intersect([b1, b2], weights, np.full(2, 0.5))
        assert np.allclose(out.center, [1.0, 1.0])
        assert np.allclose(out.offset, [0.5, 0.5])

    def test_output_strictly_smaller_than_min(self, rng):
        for _ in range(100):
            boxes = [random_box(rng) for _ in range(3)]
            weights = rng.uniform(0.1, 1.0, (3, 5))
            weights /= weights.sum(axis=0)
            shrink = rng.uniform(0.05, 0.95, 5)
            out = intersect(boxes, list(weights), shrink)
            min_offset = np.min(np.stack([b.offset for b in boxes]), axis=0)
            assert np.all(out.offset <= min_offset)
            assert np.all(out.offset[min_offset > 0] < min_offset[min_offset > 0])

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            intersect([], [], np.ones(2))


class TestDistances:
    unit = staticmethod(lambda: box([0.0, 0.0], [1.0, 1.0]))

    def test_outside_zero_inside(self):
        assert dist_outside(np.array([0.5, 0.5]), self.unit()) == 0.0

    def test_outside_one_dim(self):
        assert dist_outside(np.array([2.0, 0.0]), self.unit()) == 1.0

    def test_outside_two_dims(self):
        assert dist_outside(np.array([2.0, 3.0]), self.unit()) == 3.0

    def test_inside_values(self):
        assert dist_inside(np.array([0.5, 0.5]), self.unit()) == 1.0
        assert dist_inside(np.array([2.0, 0.0]), self.unit()) == 1.0
        assert dist_inside(np.array([0.0, 0.0]), self.unit()) == 0.0

    def test_dist_box_values(self):
        b = self.unit()
        assert dist_box(np.array([0.5, 0.5]), b, 0.2) == pytest.approx(0.2)
        assert dist_box(np.array([2.0, 0.0]), b, 0.2) == pytest.approx(1.2)

    def test_alpha_one_is_l1_to_center(self, rng):
        for _ in range(10_000):
            b = random_box(rng)
            v = rng.uniform(-4, 4, 5)
            expected = float(np.sum(np.abs(b.center - v)))
            assert abs(dist_box(v, b, 1.0) - expected) < 1e-12

    def test_outside_zero_iff_contained(self, rng):
        for _ in range(2000):
            b = random_box(rng)
            v = rng.uniform(-4, 4, 5)
            assert (dist_outside(v, b) == 0.0) == b.contains(v)

    def test_zero_only_at_center(self, rng):
        for _ in range(200):
            b = random_box(rng)
            assert dist_box(b.center.copy(), b, 0.3) == 0.0
            v = b.center + rng.uniform(0.01, 1.0, 5)
            assert dist_box(v, b, 0.3) > 0.0

    def test_translation_equivariance(self, rng):
        for _ in range(200):
            b = random_box(rng)
            v = rng.uniform(-4, 4, 5)
            shift = rng.uniform(-3, 3, 5)
            shifted = Box(b.center + shift, b.offset)
            assert dist_outside(v, b) == pytest.approx(dist_outside(v + shift, shifted))
            assert dist_inside(v, b) == pytest.approx(dist_inside(v + shift, shifted))
            assert dist_box(v, b, 0.2) == pytest.approx(dist_box(v + shift, shifted, 0.2))

    def test_membership_bound(self, rng):
        # anywhere inside the box, dist_box is at most alpha * |offset|_1
        for _ in range(500):
            b = random_box(rng)
            u = rng.uniform(-1, 1, 5)
            v = b.center + u * b.offset
            assert dist_box(v, b, 0.2) <= 0.2 * np.sum(b.offset) + 1e-12


class TestDistAgg:
    def test_min_of_distances(self):
        b1 = box([0.0, 0.0], [1.0, 1.0])
        b2 = box([5.0, 5.0], [1.0, 1.0])
        v = np.array([0.2, 0.1])
        assert dist_agg(v, [b1, b2], 0.2) == dist_box(v, b1, 0.2)

    def test_singleton_unchanged(self, rng):
        b = random_box(rng)
        v = rng.uniform(-3, 3, 5)
        assert dist_agg(v, [b], 0.2) == dist_box(v, b, 0.2)

    def test_monotone_in_box_count(self, rng):
        for _ in range(100):
            boxes = [random_box(rng) for _ in range(4)]
            v = rng.uniform(-3, 3, 5)
            prev = np.inf
            for i in range(1, 5):
                cur = dist_agg(v, boxes[:i], 0.2)
                assert cur <= prev + 1e-15
                prev = cur

    def test_containment_bound(self, rng):
        for _ in range(100):
            boxes = [random_box(rng) for _ in range(3)]
            i = int(rng.integers(3))
            u = rng.uniform(-1, 1, 5)
            v = boxes[i].center + u * boxes[i].offset
            assert dist_agg(v, boxes, 0.2) <= 0.2 * dist_inside(v, boxes[i]) + 1e-12

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            dist_agg(np.zeros(2), [], 0.2)


class TestVectorizedForms:
    def test_match_scalar_forms(self, rng):
        boxes = [random_box(rng) for _ in range(3)]
        vs = rng.uniform(-4, 4, (50, 5))
        agg = dist_agg(vs, boxes, 0.2)
        out = dist_outside(vs, boxes[0])
        inside = dist_inside(vs, boxes[0])
        per_box = dist_box(vs, boxes[0], 0.2)
        grads = fused_grads(vs, boxes[0], 0.2)
        assert agg.shape == out.shape == inside.shape == per_box.shape == (50,)
        for i in range(50):
            assert agg[i] == dist_agg(vs[i], boxes, 0.2)
            assert out[i] == dist_outside(vs[i], boxes[0])
            assert inside[i] == dist_inside(vs[i], boxes[0])
            assert per_box[i] == dist_box(vs[i], boxes[0], 0.2)
            for block, point in zip(grads, fused_grads(vs[i], boxes[0], 0.2)):
                assert np.array_equal(block[i], point)

    def test_block_dimension_mismatch(self, rng):
        with pytest.raises(ValueError):
            dist_box(np.zeros((4, 3)), random_box(rng), 0.2)
        p = random_box(rng)
        with pytest.raises(ValueError):
            dist_box_grad(np.zeros((1, 4, 3)), p.center[None], p.offset[None], 0.2)


class TestKernelMatchesCornerForm:
    """The blocked |v - c| kernel against the corner-form reference, on
    block-boundary row counts, point boxes and points on the center and
    the corners, in the per-point and the shared-points forms."""

    @staticmethod
    def close(new, ref):
        assert np.all(np.abs(new - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))

    @staticmethod
    def points(rng, boxes, n, d):
        vs = rng.uniform(-4, 4, (n, d))
        first = boxes[0]
        vs[0] = first.center
        if n > 2:
            vs[1] = first.upper
            vs[2] = first.lower
        if n > 3:
            corner = rng.integers(0, 3, d)
            vs[3] = np.choose(corner, [first.lower, first.center, first.upper])
        return vs

    @pytest.mark.parametrize("d", [1, 4, 64, 400])
    def test_block_boundaries(self, rng, d):
        block = max(1, geometry._BLOCK_ELEMENTS // d)
        for n in sorted({1, block - 1, block, block + 1, 999} - {0}):
            for n_boxes in (1, 2, 3):
                boxes = [random_box(rng, d) for _ in range(n_boxes)]
                boxes[-1] = Box(boxes[-1].center, np.zeros(d))  # point geometry
                vs = self.points(rng, boxes, n, d)
                for p in boxes:
                    self.close(dist_outside(vs, p), dist_outside_corner(vs, p))
                    self.close(dist_inside(vs, p), dist_inside_corner(vs, p))
                    self.close(dist_box(vs, p, 0.2), dist_box_corner(vs, p, 0.2))
                agg = dist_agg(vs, boxes, 0.2)
                assert agg.shape == (n,) and np.all(agg >= 0)
                self.close(agg, dist_agg_corner(vs, boxes, 0.2))

    @pytest.mark.parametrize("d", [1, 4, 64, 400])
    def test_shared_points(self, rng, d):
        # (N, d) points against (B, d) stacks: entry (b, n) is the distance
        # of point n to the boxes b of the stacks, and row b is exactly the
        # per-point form's result for those boxes
        block = max(1, geometry._BLOCK_ELEMENTS // d)
        b = 3
        for n in sorted({1, block - 1, block, block + 1, 999} - {0}):
            for n_stacks in (1, 2, 3):
                stacks = [(rng.uniform(-2, 2, (b, d)), rng.uniform(0, 2, (b, d)))
                          for _ in range(n_stacks)]
                stacks[-1] = (stacks[-1][0], np.zeros((b, d)))  # point geometry
                vs = self.points(rng, [Box(stacks[0][0][1], stacks[0][1][1])], n, d)
                table = geometry.dist_agg(vs, stacks, 0.2)
                assert table.shape == (b, n) and np.all(table >= 0)
                for i in range(b):
                    boxes = [Box(center[i], offset[i]) for center, offset in stacks]
                    self.close(table[i], dist_agg_corner(vs, boxes, 0.2))
                    assert np.array_equal(table[i], dist_agg(vs, boxes, 0.2))

    def test_shared_points_shapes_checked(self, rng):
        # stacks take one (N, d) block; stacks and single boxes do not mix,
        # and the library takes no single box or single point at all
        stack = (rng.uniform(-2, 2, (3, 4)), rng.uniform(0, 2, (3, 4)))
        other = (rng.uniform(-2, 2, (2, 4)), rng.uniform(0, 2, (2, 4)))
        single = (rng.uniform(-2, 2, 4), rng.uniform(0, 2, 4))
        with pytest.raises(ValueError):
            geometry.dist_agg(np.zeros((5, 3)), [stack], 0.2)
        with pytest.raises(ValueError):
            geometry.dist_agg(np.zeros((3, 5, 4)), [stack], 0.2)
        with pytest.raises(ValueError):
            geometry.dist_agg(np.zeros(4), [stack], 0.2)
        with pytest.raises(ValueError):
            geometry.dist_agg(np.zeros((5, 4)), [stack, other], 0.2)
        with pytest.raises(ValueError):
            geometry.dist_agg(np.zeros((5, 4)), [stack, single], 0.2)
        with pytest.raises(ValueError):
            geometry.dist_agg(np.zeros((5, 4)), [single, stack], 0.2)
        with pytest.raises(ValueError):
            geometry.dist_agg(np.zeros((5, 4)), [single, single], 0.2)
        with pytest.raises(ValueError):
            geometry.dist_agg(np.zeros(4), [single], 0.2)

    def test_nonnegative_and_dtype_kept(self, rng):
        d = 64
        boxes = [random_box(rng, d) for _ in range(2)]
        vs = self.points(rng, boxes, 300, d)
        boxes32 = [Box(p.center.astype(np.float32), p.offset.astype(np.float32)) for p in boxes]
        vs32 = vs.astype(np.float32)
        for f in (dist_outside, dist_inside):
            for p, p32 in zip(boxes, boxes32):
                assert np.all(f(vs, p) >= 0)
                assert f(vs32, p32).dtype == np.float32
                assert np.ndim(f(vs32[0], p32)) == 0
        for alpha in (0.0, 0.2, 1.0):
            assert np.all(dist_agg(vs, boxes, alpha) >= 0)
            assert dist_agg(vs32, boxes32, alpha).dtype == np.float32
            assert dist_box(vs32, boxes32[0], alpha).dtype == np.float32
            assert np.ndim(dist_agg(vs32[0], boxes32, alpha)) == 0
            stack32 = (np.stack([p.center for p in boxes32]), np.stack([p.offset for p in boxes32]))
            assert geometry.dist_agg(vs32, [stack32], alpha).dtype == np.float32

    def test_one_block_of_scratch(self, rng):
        # the only (n, d)-scale allocation is the block-sized scratch buffer
        d = 400
        boxes = [random_box(rng, d) for _ in range(3)]
        vs = rng.uniform(-4, 4, (999, d))
        dist_agg(vs, boxes, 0.2)
        tracemalloc.start()
        try:
            dist_agg(vs, boxes, 0.2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * geometry._BLOCK_ELEMENTS * vs.itemsize


class TestGradDistBox:
    """The subgradients of the fused pass, point by point."""

    def test_outside_above_partial(self):
        b = box([0.0, 0.0], [1.0, 1.0])
        v = np.array([2.0, 0.0])
        dv, dc, do = fused_grads(v, b, 0.2)
        assert dv[0] == 1.0  # outside term active, clamp saturated
        assert dv[1] == 0.0

    def test_inside_center_partial(self):
        b = box([0.0, 0.0], [1.0, 1.0])
        v = np.array([0.5, -0.25])
        _, dc, _ = fused_grads(v, b, 0.2)
        assert np.allclose(dc, [0.2 * np.sign(-0.5), 0.2 * np.sign(0.25)])

    def test_matches_finite_differences(self, rng):
        eps = 1e-6
        alpha = 0.2
        checked = 0
        for _ in range(300):
            b = random_box(rng)
            v = rng.uniform(-4, 4, 5)
            # skip kink neighborhoods: any coordinate near a face or the center
            margin = 1e-3
            near_kink = (
                np.any(np.abs(v - b.upper) < margin)
                or np.any(np.abs(v - b.lower) < margin)
                or np.any(np.abs(v - b.center) < margin)
                or np.any(b.offset < margin)
            )
            if near_kink:
                continue
            dv, dc, do = fused_grads(v, b, alpha)
            for vec, grad, make in (
                (v, dv, lambda x: dist_box(x, b, alpha)),
                (b.center, dc, lambda x: dist_box(v, Box(x, b.offset), alpha)),
                (b.offset, do, lambda x: dist_box(v, Box(b.center, x), alpha)),
            ):
                for j in range(5):
                    plus = vec.copy()
                    plus[j] += eps
                    minus = vec.copy()
                    minus[j] -= eps
                    fd = (make(plus) - make(minus)) / (2 * eps)
                    assert abs(fd - grad[j]) <= 1e-5 * max(1.0, abs(fd), abs(grad[j]))
            checked += 1
        assert checked > 150


class TestFusedPassMatchesCornerForm:
    """`dist_box_grad` over (q, m, d) candidate blocks against the corner-form
    gradient oracle and the distance kernel: integer-lattice points on the
    faces, corners and centers of integer boxes, so that coordinates sit on
    every kink; zero-offset (point-geometry) boxes; random points."""

    q, m = 3, 5

    def lattice(self, rng, d):
        center = rng.integers(-2, 3, (self.q, d)).astype(float)
        offset = rng.integers(0, 3, (self.q, d)).astype(float)
        offset[-1] = 0.0  # point geometry
        choices = np.stack([center - offset, center, center + offset,
                            rng.integers(-4, 5, (self.q, d)).astype(float)])
        pick = rng.integers(0, 4, (self.q, self.m, d))
        v = np.take_along_axis(choices[:, :, None], pick[None], axis=0)[0]
        v[:, 0] = center  # every box's own center
        return v, center, offset

    def random(self, rng, d):
        center = rng.uniform(-2, 2, (self.q, d))
        offset = rng.uniform(0, 2, (self.q, d))
        offset[-1] = 0.0
        return rng.uniform(-4, 4, (self.q, self.m, d)), center, offset

    @staticmethod
    def check(v, center, offset, alpha):
        dist, dv, do = dist_box_grad(v, center, offset, alpha)
        assert dist.shape == v.shape[:2] and dv.shape == do.shape == v.shape
        assert dist.dtype == v.dtype and dv.dtype == do.dtype == np.float64
        for i in range(len(v)):
            p = Box(center[i], offset[i])
            ref_dv, ref_dc, ref_do = grad_dist_box(v[i], p, alpha)
            assert np.array_equal(dv[i], ref_dv)
            assert np.array_equal(-dv[i], ref_dc)
            assert np.array_equal(do[i], ref_do)
            for j, point in enumerate(v[i]):
                assert dist[i, j] == dist_box(point, p, alpha)

    @pytest.mark.parametrize("d", [1, 5, 64, 400])
    def test_lattice_and_random(self, rng, d):
        for _ in range(25):
            for make in (self.lattice, self.random):
                self.check(*make(rng, d), 0.2)

    @pytest.mark.parametrize("d", [1, 5, 64])
    def test_float32_in_float32_distance(self, rng, d):
        for _ in range(10):
            for make in (self.lattice, self.random):
                v, center, offset = (a.astype(np.float32) for a in make(rng, d))
                self.check(v, center, offset, 0.2)


class TestFusedPassBuffers:
    """`dist_box_grad` writing into NaN-filled caller buffers gives the bytes
    of a call that allocates them, and `dist_box_rows` its distances; against
    the masked-select form, only the sign of zero in do may differ."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_stale_buffers_and_distances_alone(self, rng, dtype):
        blocks = TestFusedPassMatchesCornerForm()
        for d in (1, 5, 64):
            for make in (blocks.lattice, blocks.random):
                v, center, offset = (a.astype(dtype) for a in make(rng, d))
                fresh = dist_box_grad(v, center, offset, 0.2)
                out = (np.full(v.shape, np.nan), np.full(v.shape, np.nan))
                got = dist_box_grad(v, center, offset, 0.2, out=out)
                assert got[1] is out[0] and got[2] is out[1]
                for a, b in zip(got, fresh):
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
                rows = dist_box_rows(v, center, offset, 0.2)
                assert rows.dtype == dtype and rows.tobytes() == fresh[0].tobytes()
                dist, dv, do = dist_box_grad_select(v, center, offset, 0.2)
                assert dist.tobytes() == got[0].tobytes() and dv.tobytes() == got[1].tobytes()
                assert np.array_equal(do, got[2])
