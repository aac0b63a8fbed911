"""Engine-level tests: primitives, accumulation, the tape, and grad_check."""

import sys
import threading
import time

import numpy as np
import pytest

import shiftseq as ss
from shiftseq.errors import DimensionError, UsageError
from shiftseq.tensor_autograd import (
    GradCheckReport,
    Tensor,
    accumulate_grad,
    add,
    backward,
    grad_check,
    mul,
    no_grad,
    sum_all,
    track,
)
from shiftseq.tensor_autograd.engine import (
    concat,
    matmul,
    reduce_sum,
    reshape,
    scale,
    select_time,
    sigmoid,
    slice_channels,
    slice_rows,
    stack_time,
    tanh,
    transpose,
)
from shiftseq.tensor_autograd import engine
from shiftseq.train import collate


def rand(shape, seed=0, dtype=np.float64):
    return Tensor(np.random.default_rng(seed).standard_normal(shape), dtype=dtype)


class TestTensor:
    def test_defaults_to_float32(self):
        t = Tensor([[1, 2], [3, 4]])
        assert t.dtype == np.float32
        assert t.shape == (2, 2)
        assert not t.requires_grad
        for data in (np.arange(6), np.array([True, False]), np.float16([1.5])):
            np.testing.assert_array_equal(Tensor(data).data, data.astype(np.float32), strict=True)

    def test_float64_preserved(self):
        t = Tensor(np.zeros(3, dtype=np.float64))
        assert t.dtype == np.float64

    def test_rank_limit(self):
        with pytest.raises(DimensionError):
            Tensor(np.zeros((1, 1, 1, 1, 1)))

    @pytest.mark.parametrize("dtype", [np.int64, np.float16, bool, np.complex64])
    def test_rejects_a_dtype_other_than_float32_or_float64(self, dtype):
        with pytest.raises(DimensionError, match="float32 or float64"):
            Tensor(np.arange(6), dtype=dtype)

    @pytest.mark.parametrize("dtype", [None, np.float32, np.float64])
    @pytest.mark.parametrize("data", [np.array([1 + 2j]), None, ["a"], np.datetime64("2020-01-01")],
                             ids=["complex", "none", "text", "date"])
    def test_rejects_data_that_is_not_real_numbers(self, data, dtype):
        """A cast would drop the imaginary part with only a NumPy warning,
        read None as NaN and a date as its day count."""
        with pytest.raises(DimensionError, match="real numbers"):
            Tensor(data, dtype=dtype)

    def test_item_rejects_nonscalar(self):
        with pytest.raises(UsageError):
            Tensor([1.0, 2.0]).item()


class TestPrimitives:
    def test_add_mul_forward(self):
        a = Tensor([1.0, 2.0])
        b = Tensor([3.0, 5.0])
        assert np.array_equal(add(a, b).data, [4.0, 7.0])
        assert np.array_equal(mul(a, b).data, [3.0, 10.0])

    def test_add_broadcast_gradient(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=True)
        backward(sum_all(add(a, b)))
        assert np.array_equal(a.grad, np.ones((2, 3)))
        assert np.array_equal(b.grad, np.full(3, 2.0))

    def test_mixed_dtype_rejected(self):
        with pytest.raises(DimensionError):
            add(Tensor(np.zeros(2, np.float32)), Tensor(np.zeros(2, np.float64)))

    def test_scale_keeps_dtype(self):
        t = scale(Tensor(np.ones(2, np.float32)), 0.5)
        assert t.dtype == np.float32
        assert np.allclose(t.data, 0.5)

    def test_matmul_matches_numpy_batched(self):
        a = rand((2, 3, 4, 5), 1)
        b = rand((2, 3, 5, 6), 2)
        assert np.allclose(matmul(a, b).data, a.data @ b.data)

    def test_matmul_weight_gradient_sums_batches(self):
        x = Tensor(np.ones((2, 3, 4)), requires_grad=True)
        w = Tensor(np.ones((4, 5)), requires_grad=True)
        backward(sum_all(matmul(x, w)))
        assert w.grad.shape == (4, 5)
        assert np.allclose(w.grad, 6.0)

    def test_matmul_shape_errors(self):
        with pytest.raises(DimensionError):
            matmul(rand((2, 3)), rand((4, 5)))
        with pytest.raises(DimensionError):
            matmul(rand((2, 3, 4)), rand((3, 4, 5)))

    def test_transpose_roundtrip_gradient(self):
        x = Tensor(np.arange(24.0).reshape(2, 3, 4), requires_grad=True)
        y = transpose(x, (2, 0, 1))
        assert y.shape == (4, 2, 3)
        backward(sum_all(mul(y, y)))
        assert np.allclose(x.grad, 2 * x.data)

    def test_concat_and_slices(self):
        a = Tensor(np.ones((1, 2, 3)), requires_grad=True)
        b = Tensor(np.full((1, 2, 2), 2.0), requires_grad=True)
        c = concat([a, b], axis=2)
        assert c.shape == (1, 2, 5)
        left = slice_channels(c, 0, 3)
        backward(sum_all(left))
        assert np.allclose(a.grad, 1.0)
        assert np.allclose(b.grad, 0.0)

    def test_select_and_stack_time(self):
        x = Tensor(np.arange(12.0).reshape(2, 3, 2), requires_grad=True)
        frames = [select_time(x, t) for t in range(3)]
        y = stack_time(frames)
        assert np.array_equal(y.data, x.data)
        backward(sum_all(y))
        assert np.allclose(x.grad, 1.0)

    def test_slice_rows(self):
        x = Tensor(np.arange(10.0).reshape(5, 2), requires_grad=True)
        y = slice_rows(x, 3)
        assert np.array_equal(y.data, x.data[:3])
        backward(sum_all(y))
        assert np.allclose(x.grad[:3], 1.0)
        assert np.allclose(x.grad[3:], 0.0)

    def test_reduce_sum_axis(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        y = reduce_sum(x, axis=1)
        assert np.array_equal(y.data, [3.0, 12.0])
        backward(sum_all(y))
        assert np.allclose(x.grad, 1.0)

    def test_sigmoid_tanh_values(self):
        x = Tensor([0.0])
        assert np.allclose(sigmoid(x).data, 0.5)
        assert np.allclose(tanh(x).data, 0.0)


class TestBackward:
    def test_identity_loss_grad_is_one(self):
        x = Tensor(np.asarray(3.0), requires_grad=True)
        backward(scale(x, 1.0))
        assert np.allclose(x.grad, 1.0)

    def test_sum_of_squares_grad(self):
        x = Tensor([1.0, -2.0, 3.0], requires_grad=True)
        backward(sum_all(mul(x, x)))
        assert np.allclose(x.grad, 2 * x.data)

    def test_nonscalar_loss_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(UsageError):
            backward(mul(x, x))

    def test_reuse_accumulates_both_paths(self):
        # f(x) = sum(x*x) + sum(3*x) so df/dx = 2x + 3 through two uses of x.
        x = Tensor([1.0, -1.0, 2.0], requires_grad=True)
        backward(add(sum_all(mul(x, x)), sum_all(scale(x, 3.0))))
        assert np.allclose(x.grad, 2 * x.data + 3.0)

    def test_reuse_matches_finite_differences(self):
        def f(x):
            y = add(mul(x, x), scale(x, 0.5))
            return add(sum_all(y), sum_all(tanh(x)))

        report = grad_check(f, [rand((2, 3), 7)], tol=1e-5)
        assert report.passed, str(report)

    def test_tape_cleared_after_backward(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        mid = mul(x, x)
        loss = sum_all(mid)
        backward(loss)
        assert loss._parents == () and loss._backward is None
        assert mid._parents == () and mid._backward is None

    def test_graph_severed_when_a_closure_raises(self):
        x = Tensor([1.0, 2.0], requires_grad=True)

        def failing(t):
            def bwd(g):
                raise RuntimeError("backward failed")
            return track(t.data * 2.0, (t,), bwd)

        mid = mul(x, x)
        bad = failing(mid)
        top = scale(bad, 3.0)
        loss = sum_all(top)
        with pytest.raises(RuntimeError):
            backward(loss)
        for node in (loss, top, bad, mid, x):
            assert node._parents == () and node._backward is None
        assert x.grad is None
        backward(loss)  # nothing left to replay
        assert x.grad is None

    def test_no_graph_without_requires_grad(self):
        y = mul(Tensor([1.0]), Tensor([2.0]))
        assert y._parents == () and not y.requires_grad


class TestAccumulateGrad:
    def test_owned_buffer_is_stored_as_is(self):
        x = Tensor(np.zeros((2, 3)), requires_grad=True)
        g = np.ones((2, 3))
        accumulate_grad(x, g, owned=True)
        assert x.grad is g

    def test_unowned_buffer_is_copied(self):
        x = Tensor(np.zeros((2, 3)), requires_grad=True)
        g = np.ones((2, 3))
        accumulate_grad(x, g)
        assert x.grad is not g and not np.shares_memory(x.grad, g)
        g[0, 0] = 5.0
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_broadcast_view_is_copied_into_a_writable_buffer(self):
        x = Tensor(np.zeros((2, 3), np.float32), requires_grad=True)
        accumulate_grad(x, np.broadcast_to(np.float32(2.0), (2, 3)))
        assert x.grad.flags.writeable and x.grad.flags.c_contiguous
        accumulate_grad(x, np.ones((2, 3), np.float32))
        np.testing.assert_array_equal(x.grad, np.full((2, 3), 3.0))

    def test_cast_gradient_takes_the_tensor_dtype(self):
        x = Tensor(np.zeros(3, np.float32), requires_grad=True)
        g = np.full(3, 1.0 + 2.0 ** -40)  # rounds to 1 in float32
        accumulate_grad(x, g)
        accumulate_grad(x, g, owned=True)
        assert x.grad.dtype == np.float32
        np.testing.assert_array_equal(x.grad, np.full(3, 2.0, np.float32))

    def test_second_accumulation_adds_in_place(self):
        x = Tensor(np.zeros(4), requires_grad=True)
        first = np.arange(4.0)
        second = np.full(4, 0.5)
        accumulate_grad(x, first, owned=True)
        accumulate_grad(x, second)
        assert x.grad is first
        np.testing.assert_array_equal(x.grad, np.arange(4.0) + 0.5)
        np.testing.assert_array_equal(second, np.full(4, 0.5))

    def test_no_op_without_requires_grad(self):
        x = Tensor(np.zeros(2))
        accumulate_grad(x, np.ones(2), owned=True)
        assert x.grad is None

    def test_wrong_shape_rejected_on_first_use(self):
        x = Tensor(np.zeros((2, 3)), requires_grad=True)
        with pytest.raises(DimensionError):
            accumulate_grad(x, np.ones(3))
        assert x.grad is None

    def test_wrong_shape_rejected_on_later_use(self):
        x = Tensor(np.zeros((2, 3)), requires_grad=True)
        accumulate_grad(x, np.ones((2, 3)))
        with pytest.raises(DimensionError):
            accumulate_grad(x, np.ones((4, 2, 3)), owned=True)
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_add_of_a_tensor_with_itself(self):
        x = Tensor([1.0, -2.0, 3.0], requires_grad=True)
        backward(sum_all(mul(add(x, x), Tensor([1.0, 2.0, 3.0]))))
        np.testing.assert_array_equal(x.grad, [2.0, 4.0, 6.0])

    def test_residual_sum(self):
        # loss = sum(r * (x + x*x)): d/dx = r * (1 + 2x), summed over the skip and the branch
        x = Tensor([0.5, -1.0, 2.0], requires_grad=True)
        r = Tensor([1.0, 3.0, -2.0])
        backward(sum_all(mul(add(x, mul(x, x)), r)))
        np.testing.assert_array_equal(x.grad, r.data * (1.0 + 2.0 * x.data))

    def test_grad_persists_across_backward_calls_in_place(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        backward(sum_all(mul(w, Tensor([3.0, 4.0]))))
        held = w.grad
        backward(sum_all(mul(w, Tensor([1.0, 1.0]))))
        assert w.grad is held
        np.testing.assert_array_equal(held, [4.0, 5.0])

    @pytest.mark.parametrize("swap", [False, True])
    @pytest.mark.parametrize("op", ["add", "mul", "matmul"])
    def test_parent_without_requires_grad_gets_nothing(self, op, swap):
        tracked = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        free = Tensor(np.full((2, 3), 2.0))
        if op == "matmul":
            free = Tensor(np.arange(6.0).reshape(3, 2)) if not swap else Tensor(np.ones((4, 2)))
        fn = {"add": add, "mul": mul, "matmul": matmul}[op]
        out = fn(free, tracked) if swap else fn(tracked, free)
        g = np.random.default_rng(0).standard_normal(out.shape)
        backward(sum_all(mul(out, Tensor(g))))
        assert free.grad is None
        if op == "add":
            expected = g
        elif op == "mul":
            expected = g * free.data
        else:
            expected = free.data.T @ g if swap else g @ free.data.T
        np.testing.assert_array_equal(tracked.grad, expected)


class TestNoGrad:
    def test_records_nothing_inside_and_resumes_after(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with no_grad():
            y = mul(x, x)
        assert not y.requires_grad
        assert y._parents == () and y._backward is None
        np.testing.assert_array_equal(y.data, [1.0, 4.0])
        z = mul(x, x)
        assert z.requires_grad and z._parents == (x, x)

    def test_nests_and_restores_the_outer_mode(self):
        x = Tensor([3.0], requires_grad=True)
        with no_grad():
            with no_grad():
                assert not mul(x, x).requires_grad
            assert not mul(x, x).requires_grad
        assert mul(x, x).requires_grad

    def test_restores_after_an_exception(self):
        x = Tensor([3.0], requires_grad=True)
        with pytest.raises(DimensionError):
            with no_grad():
                add(x, Tensor(np.zeros(1, dtype=np.float32)))  # mixed dtypes
        loss = sum_all(mul(x, x))
        assert loss.requires_grad
        backward(loss)
        np.testing.assert_array_equal(x.grad, [6.0])

    def test_holds_for_the_calling_thread_only(self):
        x = Tensor([3.0], requires_grad=True)
        seen = []
        worker = threading.Thread(target=lambda: seen.append(mul(x, x).requires_grad))
        with no_grad():
            worker.start()
            worker.join(timeout=10)
            assert not mul(x, x).requires_grad
        assert not worker.is_alive()
        assert seen == [True]

    def test_grad_check_differences_build_no_graph(self):
        w = Tensor(np.random.default_rng(4).standard_normal((3, 3)), requires_grad=True)
        recorded = []

        def f(x):
            out = matmul(x, w)  # w requires grad, so only the grad mode decides
            recorded.append(out.requires_grad)
            return out

        report = grad_check(f, [rand((2, 3), 9)], tol=1e-5)
        assert report.passed, str(report)
        assert recorded[0] and len(recorded) == 1 + 2 * 6
        assert not any(recorded[1:])


class TestGradCheck:
    def test_linear_map_passes_tightly(self):
        w = np.random.default_rng(3).standard_normal((4, 4))

        def f(x):
            return matmul(x, Tensor(w))

        report = grad_check(f, [rand((2, 4), 11)], tol=1e-5)
        assert report.passed
        # A linear map's central difference is exact up to rounding.
        assert report.max_rel_err < 1e-7

    def test_corrupted_backward_rule_fails(self):
        def broken_double(x):
            out = x.data * 2.0

            def bwd(g):
                accumulate_grad(x, g * 3.0)  # wrong on purpose

            return track(out, (x,), bwd)

        report = grad_check(broken_double, [rand((3,), 5)], tol=1e-5)
        assert not report.passed

    def test_closure_tensor_with_wrong_backward_fails(self):
        w = rand((3,), 6)

        def broken_scale(x, _w):
            # reads w through the closure, not through its argument
            def bwd(g):
                accumulate_grad(x, g * w.data)
                accumulate_grad(w, g * x.data * 3.0)  # wrong on purpose

            return track(x.data * w.data, (x, w), bwd)

        report = grad_check(broken_scale, [rand((3,), 5), w], tol=1e-5)
        assert not report.passed
        assert report.per_input[0] < 1e-7 and report.per_input[1] > 0.5

    def test_inputs_are_restored_bit_for_bit(self):
        x = rand((2, 4), 12)
        x.data[0, :2] = [-0.0, 0.0]
        w = rand((4, 3), 13)
        w.data[1, 1] = -0.0
        before = [t.data.copy() for t in (x, w)]

        report = grad_check(lambda xx, _w: matmul(xx, w), [x, w], tol=1e-5)
        assert report.passed, str(report)
        for t, old in zip((x, w), before):
            np.testing.assert_array_equal(t.data.view(np.uint64), old.view(np.uint64))
            assert t.requires_grad and t.grad is not None

    def test_non_contiguous_input_is_rejected(self):
        x = Tensor(np.arange(12.0).reshape(3, 4).T)
        assert not x.data.flags.c_contiguous
        with pytest.raises(UsageError, match="contiguous"):
            grad_check(lambda t: mul(t, t), [x])
        assert not x.requires_grad and x.grad is None

    def test_report_formatting(self):
        report = GradCheckReport(tol=1e-5, step=1e-3, per_input=[1e-9])
        assert "pass" in str(report)


# ---------------------------------------------------------------------------
# recycled step buffers
# ---------------------------------------------------------------------------

POOLED = (128, 256)  # 128 KiB of float32, large enough to be pooled


def address(a: np.ndarray) -> int:
    return a.__array_interface__["data"][0]


def pool_bytes() -> int:
    return sum(a.nbytes for bufs in engine._pool.values() for a in bufs)


def hold_in_closure(a):
    x = Tensor(np.ones(1), requires_grad=True)
    return track(np.zeros(1), (x,), lambda g: accumulate_grad(x, g * a[0, 0]))


def hold_as_grad(a):
    t = Tensor(np.zeros(POOLED, np.float32), requires_grad=True)
    accumulate_grad(t, a, owned=True)
    return t


HOLDERS = {
    "data": Tensor,
    "reshape": lambda a: reshape(Tensor(a), (POOLED[1], POOLED[0])),
    "transpose": lambda a: transpose(Tensor(a), (1, 0)),
    "closure": hold_in_closure,
    "grad": hold_as_grad,
}


@pytest.fixture
def fresh_pool(monkeypatch):
    """An empty pool for one test, so that others' buffers do not count."""
    monkeypatch.setattr(engine, "_pool", {})
    monkeypatch.setattr(engine, "_requested", set())


class TestStepBuffers:
    @pytest.mark.parametrize("holder", sorted(HOLDERS))
    def test_a_held_buffer_is_never_handed_out_again(self, fresh_pool, holder):
        a = engine._empty(POOLED, np.float32)
        where = address(a)
        held = HOLDERS[holder](a)
        del a
        for _ in range(3):
            assert address(engine._empty(POOLED, np.float32)) != where
        del held
        assert address(engine._empty(POOLED, np.float32)) == where  # idle again, so recycled

    def test_threads_never_share_a_buffer(self, fresh_pool, monkeypatch):
        clashes = []
        count_refs = engine._refs

        def yielding_refs(bufs, i):
            n = count_refs(bufs, i)
            time.sleep(0)  # let another thread run between the check and the hand-out
            return n

        monkeypatch.setattr(engine, "_refs", yielding_refs)

        def work(tag: float):
            for _ in range(200):
                a = engine._empty(POOLED, np.float32)
                a.fill(tag)
                if not (a == tag).all():  # another thread wrote into it meanwhile
                    clashes.append(tag)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=work, args=(float(t),)) for t in range(6)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(w.is_alive() for w in workers)
        assert clashes == []

    @pytest.mark.parametrize("shape", [(4, 4), (1024, 1025)])  # 64 B, just over 4 MiB
    def test_small_and_large_arrays_bypass_the_pool(self, fresh_pool, shape):
        engine._empty(shape, np.float32)
        assert engine._pool == {}

    def test_a_no_grad_forward_never_grows_the_pool(self, fresh_pool):
        model = ss.build_model(ss.preset_config("shiftcnn", width=64, num_input_layers=2), seed=0)
        feats = Tensor(np.random.default_rng(0).standard_normal((32, 2, 50, 64)).astype(np.float32))
        with no_grad():
            model.forward(feats)
        assert engine._pool == {}
        model.forward(feats)  # a graph-building forward fills it
        grown = {key: len(bufs) for key, bufs in engine._pool.items()}
        assert pool_bytes() > 0
        with no_grad():
            for t in (50, 40):  # a known shape, then a new one
                model.forward(Tensor(feats.data[:, :, :t]))
        assert all(len(bufs) <= grown.get(key, 0) for key, bufs in engine._pool.items())

    def test_distinct_lengths_hold_one_length_set(self, fresh_pool):
        model = ss.build_model(ss.preset_config("shiftformer", width=64, num_input_layers=2), seed=0)
        rng = np.random.default_rng(1)
        sets = []
        for t in 2 * list(range(79, 59, -1)):  # 20 lengths, longest first, each visited twice
            loss, _ = model.loss(Tensor(rng.standard_normal((32, 2, t, 64)).astype(np.float32)),
                                 rng.integers(4, size=32))
            backward(loss)
            del loss
            sets.append(pool_bytes())
        # the longest length's set is the largest; 20 sets kept would be ~15x it
        assert 0 < sets[-1] <= sets[0]
        assert max(sets) <= sets[0]

    def test_a_new_length_releases_the_last_steps_buffers_mid_step(self, fresh_pool):
        """The release comes with the first new shape, not at the end of a step,
        so a step's peak never holds the last step's idle set beside its own."""
        model = ss.build_model(ss.preset_config("shiftformer", width=64, num_input_layers=2), seed=0)
        rng = np.random.default_rng(2)
        labels = rng.integers(4, size=32)
        loss, _ = model.loss(list(rng.standard_normal((32, 2, 60, 64), dtype=np.float32)), labels)
        backward(loss)
        del loss

        def bytes_at_60_frames():
            return sum(a.nbytes for (shape, _), bufs in engine._pool.items() if 60 in shape for a in bufs)

        assert bytes_at_60_frames() > 0
        loss, _ = model.loss(list(rng.standard_normal((32, 2, 40, 64), dtype=np.float32)), labels)
        assert bytes_at_60_frames() == 0  # 27.5 MB without the release


def _train_steps(preset: str, steps: int = 2):
    """Logits and parameter gradients of `steps` train steps at a pooled shape."""
    rng = np.random.default_rng(2)
    records = [ss.FeatureSequence(label=i % 4, group=0,
                                  data=rng.standard_normal((2, int(t), 64), dtype=np.float32))
               for i, t in enumerate(rng.integers(30, 51, size=32))]
    model = ss.build_model(ss.preset_config(preset, width=64, num_classes=4, num_input_layers=2),
                           seed=0)
    feats, lengths, labels = collate(records)
    out = []
    for _ in range(steps):
        for p in model.named_parameters().values():
            p.grad = None
        loss, logits = model.loss(Tensor(feats), labels, lengths=lengths)
        backward(loss)
        out.append(logits.data.copy())
        out.extend(p.grad.copy() for p in model.named_parameters().values())
    return out


def poison_step_buffers(monkeypatch):
    """Fill every buffer `_empty` hands out with NaN, so one read before it is written shows."""
    fresh = engine._empty

    def poisoned(shape, dtype):
        out = fresh(shape, dtype)
        out.fill(np.nan)
        return out

    for module in list(sys.modules.values()):
        if module.__name__.startswith("shiftseq") and vars(module).get("_empty") is fresh:
            monkeypatch.setattr(module, "_empty", poisoned)


@pytest.mark.parametrize("preset", ss.PRESETS)
def test_results_are_bit_equal_with_and_without_the_pool(monkeypatch, preset):
    with monkeypatch.context() as poisoned:
        poison_step_buffers(poisoned)
        with_pool = _train_steps(preset)
    assert all(np.isfinite(a).all() for a in with_pool)
    monkeypatch.setattr(engine, "_POOL_MIN_BYTES", float("inf"))
    without = _train_steps(preset)
    assert len(with_pool) == len(without)
    for got, want in zip(with_pool, without):
        assert np.array_equal(got.view(np.uint32), want.view(np.uint32))


@pytest.mark.parametrize("preset", ss.PRESETS)
def test_an_unrecorded_padded_forward_reads_no_buffer_before_writing_it(monkeypatch, preset):
    """Eval packs a padded batch's real frames; with every step buffer NaN
    when handed out, its logits are finite and bit-equal to the normal run."""
    rng = np.random.default_rng(4)
    records = [rng.standard_normal((2, t, 64), dtype=np.float32) for t in (1, 2, 9, 30, 50, 17, 4, 50)]
    model = ss.build_model(ss.preset_config(preset, width=64, num_classes=4, num_input_layers=2),
                           seed=0)
    with no_grad():
        want = model.forward(records).data
        with monkeypatch.context() as poisoned:
            poison_step_buffers(poisoned)
            got = model.forward(records).data
    assert np.isfinite(got).all()
    assert np.array_equal(got.view(np.uint32), want.view(np.uint32))
