import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from attnlab.attention import offset_map_2d
from attnlab.errors import ContractViolation, DegenerateRegion, NumericFault, ShapeMismatch
from attnlab.tensor import (
    GATHER_DOT_ROWS,
    MacCounter,
    Rng,
    Tensor,
    counting,
    finite_diff_check,
    gather_dot,
    no_grad,
)


def test_matmul_small_case():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = Tensor([[1.0], [1.0]])
    out = a @ b
    assert np.array_equal(out.data, [[3.0], [7.0]])


def test_matmul_matches_numpy_on_random_shapes():
    rng = Rng(11)
    for m, k, n in [(1, 1, 1), (3, 5, 2), (7, 4, 9), (2, 16, 2)]:
        a = rng.uniform(-2, 2, (m, k))
        b = rng.uniform(-2, 2, (k, n))
        out = Tensor(a) @ Tensor(b)
        assert np.allclose(out.data, a @ b, atol=1e-12)


def test_softmax_known_values():
    # exp(0) = 1, exp(ln 3) = 3, so the row normalizes to [0.25, 0.75]
    x = Tensor([0.0, math.log(3.0)])
    out = x.softmax(axis=-1)
    assert np.allclose(out.data, [0.25, 0.75], atol=1e-12)


def test_softmax_rows_sum_to_one():
    rng = Rng(5)
    for _ in range(50):
        x = Tensor(rng.uniform(-30, 30, (4, 9)))
        out = x.softmax(axis=-1)
        assert np.all(out.data >= 0) and np.all(out.data <= 1)
        assert np.allclose(out.data.sum(axis=-1), 1.0, atol=1e-12)


def test_softmax_mask_zeroes_entries_exactly():
    x = Tensor([[5.0, 1.0, -2.0], [0.5, 0.5, 0.5]])
    mask = np.array([[True, False, True], [True, True, False]])
    out = x.softmax(axis=-1, mask=mask)
    assert out.data[0, 1] == 0.0
    assert out.data[1, 2] == 0.0
    assert np.allclose(out.data.sum(axis=-1), 1.0, atol=1e-12)


def test_softmax_fully_masked_row_raises():
    x = Tensor([[1.0, 2.0], [3.0, 4.0]])
    mask = np.array([[False, False], [True, True]])
    with pytest.raises(DegenerateRegion):
        x.softmax(axis=-1, mask=mask)


def test_softmax_is_shift_stable():
    x = np.array([[1000.0, 1001.0, 999.0]])
    out = Tensor(x).softmax(axis=-1)
    ref = Tensor(x - 1000.0).softmax(axis=-1)
    assert np.allclose(out.data, ref.data, atol=1e-15)
    assert np.isfinite(out.data).all()


def test_backward_square_sum():
    x = Tensor([1.0, 2.0], requires_grad=True)
    loss = (x * x).sum()
    loss.backward()
    assert np.array_equal(x.grad, [2.0, 4.0])


def test_backward_requires_scalar():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ContractViolation):
        (x * x).backward()


def test_backward_accumulates_through_shared_nodes():
    x = Tensor([3.0], requires_grad=True)
    y = x * x  # used twice below
    loss = (y + y).sum()
    loss.backward()
    assert np.allclose(x.grad, [12.0])


def test_ops_do_not_mutate_operands():
    a = Tensor([[1.0, 2.0]])
    b = Tensor([[3.0, 4.0]])
    keep_a = a.data.copy()
    _ = a + b
    _ = a * b
    _ = a.softmax(axis=-1)
    _ = a.T
    assert np.array_equal(a.data, keep_a)


def test_finite_diff_accepts_correct_gradients():
    rng = Rng(7)
    w = Tensor(rng.uniform(-1, 1, (4, 3)), requires_grad=True)
    b = Tensor(rng.uniform(-1, 1, (1, 3)), requires_grad=True)
    x = Tensor(rng.uniform(-1, 1, (5, 4)))

    def f():
        return ((x @ w + b).sigmoid() * Tensor(np.arange(15.0).reshape(5, 3))).sum()

    assert finite_diff_check(f, [w, b]) <= 1e-6


def test_finite_diff_on_softmax_composite():
    rng = Rng(9)
    w = Tensor(rng.uniform(-1, 1, (6, 6)), requires_grad=True)
    x = Tensor(rng.uniform(-1, 1, (3, 6)))
    probe = Tensor(rng.uniform(-1, 1, (3, 6)))

    def f():
        return ((x @ w).softmax(axis=-1) * probe).sum()

    assert finite_diff_check(f, [w]) <= 1e-4


def test_finite_diff_flags_corrupted_gradient():
    w = Tensor([0.3, -0.8, 1.1], requires_grad=True)

    def f():
        out = Tensor(np.sin(w.data))

        def backward(g):
            w._accum(g * 0.9 * np.cos(w.data))  # deliberately off by 10%

        return Tensor._from_op(out.data, (w,), backward).sum()

    wrong = f  # keep the broken op out of the library proper
    assert finite_diff_check(wrong, [w]) > 1e-2


def test_finite_diff_rejects_non_finite_objective():
    w = Tensor([1.0], requires_grad=True)

    def f():
        return (w * np.inf).sum()

    with pytest.raises(NumericFault):
        finite_diff_check(f, [w])


def test_elementwise_grads():
    rng = Rng(13)
    for op in ["exp", "log", "sigmoid", "relu", "abs"]:
        base = rng.uniform(0.2, 2.0, (3, 4)) if op == "log" else rng.uniform(-2, 2, (3, 4)) + 0.05
        w = Tensor(base, requires_grad=True)
        probe = Tensor(rng.uniform(-1, 1, (3, 4)))

        def f(w=w, op=op, probe=probe):
            return (getattr(w, op)() * probe).sum()

        assert finite_diff_check(f, [w]) <= 1e-5, op



def test_reciprocal_gradient_and_count():
    rng = Rng(19)
    sign = np.where(rng.uniform(0, 1, (3, 4)) < 0.5, -1.0, 1.0)
    w = Tensor(sign * rng.uniform(0.5, 2.0, (3, 4)), requires_grad=True)
    probe = Tensor(rng.uniform(0.5, 1.5, (3, 4)))
    assert finite_diff_check(lambda: (w.reciprocal() * probe).sum(), [w]) <= 1e-6
    with counting() as got:
        w.reciprocal()
    assert (got.macs, got.exps, got.divs) == (0, 0, w.size)

def test_broadcast_add_and_mul_grads():
    rng = Rng(17)
    row = Tensor(rng.uniform(-1, 1, (1, 5)), requires_grad=True)
    col = Tensor(rng.uniform(-1, 1, (4, 1)), requires_grad=True)
    x = Tensor(rng.uniform(-1, 1, (4, 5)))

    def f():
        return ((x + row) * col).sum()

    assert finite_diff_check(f, [row, col]) <= 1e-6


def test_take_rows_gather_and_scatter():
    t = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
    idx = np.array([[0, 2], [2, 3]])
    out = t.take_rows(idx)
    assert out.shape == (2, 2, 3)
    assert np.array_equal(out.data[0, 1], [6.0, 7.0, 8.0])
    (out * out).sum().backward()
    # row 2 is read twice, so its gradient doubles relative to rows 0/3
    assert np.allclose(t.grad[2], 2 * 2 * t.data[2])
    assert np.allclose(t.grad[0], 2 * t.data[0])
    assert np.allclose(t.grad[1], 0.0)


def test_take_rows_oob_zero():
    t = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    out = t.take_rows(np.array([-1, 0, 2]), oob_zero=True)
    assert np.array_equal(out.data[0], [0.0, 0.0, 0.0])
    assert np.array_equal(out.data[2], [0.0, 0.0, 0.0])
    out.sum().backward()
    assert np.allclose(t.grad, [[1.0, 1.0, 1.0], [0.0, 0.0, 0.0]])


def test_take_rows_out_of_range_raises_without_flag():
    t = Tensor(np.zeros((2, 3)))
    with pytest.raises(ContractViolation):
        t.take_rows(np.array([2]))


def test_mac_counting_rules():
    a = Tensor(np.ones((3, 4)))
    b = Tensor(np.ones((4, 5)))
    with counting() as c:
        _ = a @ b
    assert c.macs == 3 * 4 * 5 and c.exps == 0 and c.divs == 0

    with counting() as c:
        _ = a * a
    assert c.macs == 12

    with counting() as c:
        _ = a + a
        _ = a - a
    assert c.macs == 0

    with counting() as c:
        _ = a.softmax(axis=-1)
    assert c.macs == 0 and c.exps == 12 and c.divs == 12

    with counting() as c:
        _ = a.sigmoid()
    assert c.exps == 12 and c.divs == 12


def test_counting_contexts_nest():
    a = Tensor(np.ones((2, 2)))
    with counting() as outer:
        _ = a * a
        with counting() as inner:
            _ = a * a
    assert inner.macs == 4
    assert outer.macs == 8


def test_backward_emits_no_counts():
    w = Tensor(np.ones((3, 3)), requires_grad=True)
    x = Tensor(np.ones((2, 3)))
    loss = (x @ w).softmax(axis=-1).sum()
    with counting() as c:
        loss.backward()
    assert c.macs == 0 and c.exps == 0 and c.divs == 0


def test_rng_is_deterministic():
    a = Rng(42).uniform(-1, 1, (4, 4))
    b = Rng(42).uniform(-1, 1, (4, 4))
    assert np.array_equal(a, b)
    c = Rng(42).child(1).uniform(-1, 1, 8)
    d = Rng(42).child(2).uniform(-1, 1, 8)
    assert not np.array_equal(c, d)


def test_param_init_bounds():
    rng = Rng(3)
    p = rng.param((64, 64), fan_in=64)
    bound = math.sqrt(1.0 / 64)
    assert p.requires_grad
    assert p.data.min() >= -bound and p.data.max() <= bound
    # the draw should actually fill the interval, not hug zero
    assert p.data.max() > 0.8 * bound and p.data.min() < -0.8 * bound


def test_counter_repr():
    c = MacCounter()
    assert "macs=0" in repr(c)


# -- gather_dot -----------------------------------------------------------------


@st.composite
def gather_dot_cases(draw, max_q=6):
    """Random shapes and index arrays; a small table forces duplicate indices."""
    n_q = draw(st.integers(1, max_q))
    n_k = draw(st.integers(1, 6))
    n_offsets = draw(st.integers(1, 8))
    d = draw(st.integers(1, 5))
    shared = draw(st.booleans())
    index = draw(st.lists(st.integers(0, n_offsets - 1),
                          min_size=n_q * n_k, max_size=n_q * n_k))
    seed = draw(st.integers(0, 2**16))
    return (n_q, n_k, n_offsets, d), shared, np.array(index).reshape(n_q, n_k), Rng(seed)


@settings(max_examples=60, deadline=None)
# past two query blocks, so the blocked forward is covered too
@given(gather_dot_cases(max_q=2 * GATHER_DOT_ROWS + 5))
def test_gather_dot_forward_matches_gather_multiply_sum(case):
    (n_q, n_k, n_offsets, d), shared, index, rng = case
    a = rng.uniform(-2, 2, (1 if shared else n_q, d))
    table = rng.uniform(-2, 2, (n_offsets, d))
    out = gather_dot(Tensor(a), Tensor(table), index)
    ref = (table[index] * a[:, None, :]).sum(-1)
    assert out.shape == (n_q, n_k)
    assert np.abs(out.data - ref).max() <= 1e-12


@settings(max_examples=60, deadline=None)
@given(gather_dot_cases())
def test_gather_dot_gradients_pass_finite_difference(case):
    (n_q, n_k, n_offsets, d), shared, index, rng = case
    # positive operands keep every non-zero gradient away from zero, where
    # central differences lose their relative accuracy
    a = Tensor(rng.uniform(0.5, 1.5, (1 if shared else n_q, d)), requires_grad=True)
    table = Tensor(rng.uniform(0.5, 1.5, (n_offsets, d)), requires_grad=True)
    probe = Tensor(rng.uniform(0.5, 1.5, (n_q, n_k)))

    def f():
        return gather_dot(a, table, index) * probe

    assert finite_diff_check(f, [a, table]) <= 1e-6


@settings(max_examples=60, deadline=None)
@given(gather_dot_cases())
def test_gather_dot_is_charged_per_pair(case):
    (n_q, n_k, n_offsets, d), shared, index, rng = case
    a = Tensor(rng.uniform(-1, 1, (1 if shared else n_q, d)))
    table = Tensor(rng.uniform(-1, 1, (n_offsets, d)))
    with counting() as c:
        gather_dot(a, table, index)
    assert (c.macs, c.exps, c.divs) == (n_q * n_k * d, 0, 0)


def test_gather_dot_rejects_bad_operands():
    a = Tensor(np.ones((2, 3)))
    table = Tensor(np.ones((4, 3)))
    with pytest.raises(ContractViolation):
        gather_dot(a, table, np.array([[0, 4], [1, 2]]))
    with pytest.raises(ContractViolation):
        gather_dot(a, table, np.array([[0, -1], [1, 2]]))
    with pytest.raises(ContractViolation):
        gather_dot(a, table, np.array([0, 1]))
    with pytest.raises(ShapeMismatch):
        gather_dot(a, Tensor(np.ones((4, 2))), np.zeros((2, 2), dtype=int))
    with pytest.raises(ShapeMismatch):
        gather_dot(a, table, np.zeros((3, 2), dtype=int))


@pytest.mark.parametrize("shared", [False, True])
def test_gather_dot_peak_memory_stays_below_one_pair_gather(shared):
    offsets = offset_map_2d(24, 24, 16)
    n_q, n_k = offsets.index.shape
    d = 8
    rng = Rng(23)
    a = Tensor(rng.uniform(-1, 1, (1 if shared else n_q, d)), requires_grad=True)
    table = Tensor(rng.uniform(-1, 1, (offsets.n_offsets, d)), requires_grad=True)
    one_gather = n_q * n_k * d * 8  # bytes of one (n_q, n_k, d) float64 array
    tracemalloc.start()
    try:
        gather_dot(a, table, offsets.index).sum().backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < one_gather
    assert a.grad.shape == a.shape and table.grad.shape == table.shape


# -- take_rows -------------------------------------------------------------------


@st.composite
def take_rows_cases(draw):
    """A source of n rows, an index array of 1-3 dimensions drawn from a
    narrow range so rows repeat, and whether off-edge reads are allowed."""
    n = draw(st.integers(1, 6))
    row_shape = tuple(draw(st.lists(st.integers(1, 3), max_size=2)))
    index_shape = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)))
    oob_zero = draw(st.booleans())
    low, high = (-2, n + 1) if oob_zero else (0, n - 1)
    index = draw(st.lists(st.integers(low, high), min_size=math.prod(index_shape),
                          max_size=math.prod(index_shape)))
    seed = draw(st.integers(0, 2**16))
    return (n, *row_shape), np.array(index).reshape(index_shape), oob_zero, Rng(seed)


def _take_rows_reference(x, index):
    """x[index] with off-edge rows zero, and the scatter of g back onto x."""
    inside = (index >= 0) & (index < x.shape[0])
    out = x[np.where(inside, index, 0)]
    out[~inside] = 0.0

    def scatter(g):
        grad = np.zeros_like(x)
        for pos in zip(*np.nonzero(inside)):
            grad[index[pos]] += g[pos]
        return grad

    return out, scatter


@settings(max_examples=60, deadline=None)
@given(take_rows_cases())
def test_take_rows_forward_and_scatter_match_numpy(case):
    shape, index, oob_zero, rng = case
    x = Tensor(rng.uniform(-2, 2, shape), requires_grad=True)
    out = x.take_rows(index, oob_zero=oob_zero)
    want, scatter = _take_rows_reference(x.data, index)
    assert out.shape == index.shape + shape[1:]
    assert np.array_equal(out.data, want)
    probe = rng.uniform(-1, 1, out.shape)
    (out * Tensor(probe)).sum().backward()
    # off-edge reads add nothing: only in-range reads reach a row's gradient
    np.testing.assert_allclose(x.grad, scatter(probe), rtol=0, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(take_rows_cases())
def test_take_rows_gradients_pass_finite_difference(case):
    shape, index, oob_zero, rng = case
    x = Tensor(rng.uniform(0.5, 1.5, shape), requires_grad=True)
    probe = Tensor(rng.uniform(0.5, 1.5, index.shape + shape[1:]))

    def f():
        return x.take_rows(index, oob_zero=oob_zero) * probe

    assert finite_diff_check(f, [x]) <= 1e-6


def test_take_rows_off_edge_only_reads_get_no_gradient():
    x = Tensor(np.ones((3, 2)), requires_grad=True)
    out = x.take_rows(np.array([[-1, 3], [5, -4]]), oob_zero=True)
    assert np.array_equal(out.data, np.zeros((2, 2, 2)))
    out.sum().backward()
    assert np.array_equal(x.grad, np.zeros((3, 2)))


# -- gradient accumulation ---------------------------------------------------------


def test_first_gradient_is_stored_as_a_private_copy():
    a = Tensor(np.ones((2, 3)), requires_grad=True)
    b = Tensor(np.full((2, 3), 2.0), requires_grad=True)
    # __add__ hands one array to both parents; a then takes a second term
    ((a + b) + a * 3.0).sum().backward()
    assert np.array_equal(a.grad, np.full((2, 3), 4.0))
    assert np.array_equal(b.grad, np.ones((2, 3)))
    assert not np.shares_memory(a.grad, b.grad)

    c = Tensor(np.arange(6.0), requires_grad=True)
    d = Tensor(np.ones((3, 2)), requires_grad=True)
    # reshape and .T pass views of their own gradient down
    r = c.reshape(2, 3)
    ((r * r).T + d + r.T).sum().backward()
    np.testing.assert_array_equal(c.grad, 2.0 * np.arange(6.0) + 1.0)
    np.testing.assert_array_equal(d.grad, np.ones((3, 2)))
    assert not np.shares_memory(c.grad, d.grad)


# -- batched matmul -------------------------------------------------------------------


@st.composite
def matmul_cases(draw):
    """(..., m, k) @ (..., k, n) with leading dims that broadcast: each
    side drops or squeezes some of a common batch shape."""
    batch = tuple(draw(st.lists(st.integers(1, 3), max_size=2)))
    m, k, n = (draw(st.integers(1, 4)) for _ in range(3))

    def lead():
        kept = batch[draw(st.integers(0, len(batch))):]
        return tuple(d if draw(st.booleans()) else 1 for d in kept)

    seed = draw(st.integers(0, 2**16))
    return lead() + (m, k), lead() + (k, n), Rng(seed)


@settings(max_examples=60, deadline=None)
@given(matmul_cases())
def test_batched_matmul_matches_numpy_and_is_charged_per_output_entry(case):
    a_shape, b_shape, rng = case
    a = rng.uniform(-2, 2, a_shape)
    b = rng.uniform(-2, 2, b_shape)
    with counting() as c:
        out = Tensor(a) @ Tensor(b)
    want = np.matmul(a, b)
    assert out.shape == want.shape
    np.testing.assert_allclose(out.data, want, rtol=0, atol=1e-12)
    assert (c.macs, c.exps, c.divs) == (want.size * a_shape[-1], 0, 0)


@settings(max_examples=40, deadline=None)
@given(matmul_cases())
def test_batched_matmul_gradients_pass_finite_difference(case):
    a_shape, b_shape, rng = case
    a = Tensor(rng.uniform(0.5, 1.5, a_shape), requires_grad=True)
    b = Tensor(rng.uniform(0.5, 1.5, b_shape), requires_grad=True)
    probe = Tensor(rng.uniform(0.5, 1.5, np.matmul(a.data, b.data).shape))
    assert finite_diff_check(lambda: (a @ b.T.T) * probe, [a, b]) <= 1e-6


@settings(max_examples=60, deadline=None)
# past two query blocks, so the backward's per-block sums cross a boundary
@given(gather_dot_cases(max_q=2 * GATHER_DOT_ROWS + 5), st.integers(1, 3))
def test_gather_dot_blocked_backward_matches_dense_reference(case, batch):
    (n_q, n_k, n_offsets, d), shared, index, rng = case
    rows = 1 if shared else n_q
    a = Tensor(rng.uniform(-1, 1, (batch, rows, d)), requires_grad=True)
    table = Tensor(rng.uniform(-1, 1, (n_offsets, d)), requires_grad=True)
    g = rng.uniform(-1, 1, (batch, n_q, n_k))
    (gather_dot(a, table, index) * Tensor(g)).sum().backward()

    # ga[b, q] = sum_k g[b, q, k] table[index[q, k]], summed over q when shared
    want_ga = np.einsum("bqk,qkd->bqd", g, table.data[index])
    if shared:
        want_ga = want_ga.sum(axis=1, keepdims=True)
    # table[index[q, k]] gets sum_b g[b, q, k] a[b, q]
    want_gt = np.zeros(table.shape)
    a_rows = np.broadcast_to(a.data, (batch, n_q, d))
    np.add.at(want_gt, index, np.einsum("bqk,bqd->qkd", g, a_rows))
    np.testing.assert_allclose(a.grad, want_ga, rtol=0, atol=1e-12)
    np.testing.assert_allclose(table.grad, want_gt, rtol=0, atol=1e-12)


def test_gather_dot_backward_peak_stays_below_one_per_offset_sum():
    offsets = offset_map_2d(24, 24, 16)
    n_q, n_k = offsets.index.shape
    d = 8
    rng = Rng(29)
    a = Tensor(rng.uniform(-1, 1, (n_q, d)), requires_grad=True)
    table = Tensor(rng.uniform(-1, 1, (offsets.n_offsets, d)), requires_grad=True)
    per_offset_sum = n_q * offsets.n_offsets * 8  # bytes of one (n_q, n_offsets) float64 S
    tracemalloc.start()
    try:
        gather_dot(a, table, offsets.index).sum().backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < per_offset_sum


def test_mean_over_a_tuple_of_axes():
    rng = Rng(31)
    w = Tensor(rng.uniform(-1, 1, (2, 3, 4)), requires_grad=True)
    probe = Tensor(rng.uniform(0.5, 1.5, (3,)))
    with counting() as c:
        out = w.mean(axis=(0, -1))
    assert (c.macs, c.exps, c.divs) == (0, 0, 3)
    np.testing.assert_allclose(out.data, w.data.mean(axis=(0, 2)), rtol=0, atol=1e-15)
    assert finite_diff_check(lambda: (w.mean(axis=(0, -1)) * probe).sum(), [w]) <= 1e-6

    ones = Tensor(np.ones((2, 3)), requires_grad=True)
    with counting() as c:
        whole = ones.mean(axis=(0, 1))
    assert c.divs == 1 and whole.item() == 1.0
    whole.backward()
    np.testing.assert_array_equal(ones.grad, np.full((2, 3), 1 / 6))


def test_batched_matmul_rejects_leading_dims_that_do_not_broadcast():
    with pytest.raises(ShapeMismatch):
        Tensor(np.ones((2, 3, 4))) @ Tensor(np.ones((3, 4, 5)))
    with pytest.raises(ShapeMismatch):
        Tensor(np.ones((2, 3, 4))) @ Tensor(np.ones((2, 3, 5)))
    with pytest.raises(ShapeMismatch):
        Tensor(np.ones(3)).T


# -- gather_dot over a batch ------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(gather_dot_cases(max_q=GATHER_DOT_ROWS + 5), st.integers(1, 3))
def test_gather_dot_over_a_batch_equals_per_sample_calls(case, batch):
    (n_q, n_k, n_offsets, d), shared, index, rng = case
    a = Tensor(rng.uniform(-2, 2, (batch, 1 if shared else n_q, d)), requires_grad=True)
    table = Tensor(rng.uniform(-2, 2, (n_offsets, d)), requires_grad=True)
    probe = rng.uniform(-1, 1, (batch, n_q, n_k))
    with counting() as c:
        out = gather_dot(a, table, index)
    assert c.macs == batch * n_q * n_k * d
    (out * Tensor(probe)).sum().backward()

    want_ga = np.zeros(a.shape)
    want_gt = np.zeros(table.shape)
    for b in range(batch):
        ab = Tensor(a.data[b], requires_grad=True)
        tb = Tensor(table.data, requires_grad=True)
        one = gather_dot(ab, tb, index)
        np.testing.assert_array_equal(out.data[b], one.data)
        (one * Tensor(probe[b])).sum().backward()
        want_ga[b] = ab.grad
        want_gt += tb.grad
    np.testing.assert_allclose(a.grad, want_ga, rtol=0, atol=1e-12)
    np.testing.assert_allclose(table.grad, want_gt, rtol=0, atol=1e-12)


# -- softmax over a batch -------------------------------------------------------------------


@st.composite
def masked_batches(draw):
    """A (batch, rows, cols) input and a (rows, cols) mask that leaves
    every row at least one valid entry."""
    batch, rows, cols = (draw(st.integers(1, 4)) for _ in range(3))
    mask = np.array(draw(st.lists(st.booleans(), min_size=rows * cols,
                                  max_size=rows * cols))).reshape(rows, cols)
    mask[np.arange(rows), draw(st.integers(0, cols - 1))] = True
    seed = draw(st.integers(0, 2**16))
    return (batch, rows, cols), mask, Rng(seed)


@settings(max_examples=60, deadline=None)
@given(masked_batches())
def test_masked_softmax_over_a_batch(case):
    shape, mask, rng = case
    x = Tensor(rng.uniform(-2, 2, shape), requires_grad=True)
    out = x.softmax(axis=-1, mask=mask)
    assert (out.data[:, ~mask] == 0.0).all()
    np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, atol=1e-12)
    probe = rng.uniform(0.5, 1.5, shape)
    # the gradient s * (p - <s, p>) is exactly zero on masked entries and
    # rows with one valid entry; central differences lose their relative
    # accuracy near zero, so skip draws with a near-zero gradient elsewhere
    grad = out.data * (probe - (out.data * probe).sum(axis=-1, keepdims=True))
    several = np.broadcast_to(mask & (mask.sum(axis=-1, keepdims=True) > 1), shape)
    assume((np.abs(grad[several]) > 1e-3).all())
    assert finite_diff_check(lambda: x.softmax(axis=-1, mask=mask) * Tensor(probe), [x]) <= 1e-6


# -- no_grad and backward memory -------------------------------------------------------


def test_no_grad_records_nothing_and_nests():
    w = Tensor(np.ones((2, 2)), requires_grad=True)
    with no_grad():
        with no_grad():
            inner = w @ w
        outer = (w * 2.0).sum()
    after = (w * 2.0).sum()
    for t in (inner, outer):
        assert t._parents == () and t._backward is None
    outer.backward()
    assert w.grad is None
    after.backward()
    np.testing.assert_array_equal(w.grad, np.full((2, 2), 2.0))


def test_no_grad_restores_recording_after_an_exception():
    w = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ShapeMismatch):
        with no_grad():
            w @ w
    assert (w * 1.0)._parents == (w,)


def test_backward_frees_each_intermediate_gradient_once_used():
    x = Tensor(np.ones(1 << 17), requires_grad=True)  # 1 MiB of float64
    y = x
    for _ in range(40):
        y = y * 1.0
    loss = y.sum()
    tracemalloc.start()
    try:
        loss.backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(x.grad, np.ones(1 << 17))
    # the gradients of the whole chain held at once would be 40 MiB
    assert peak < 6 * x.data.nbytes


# -- every single-input op ------------------------------------------------------------


def _unary_ops(shape, axis, keepdims, rng):
    """Each single-input op as a function of its input, with the (macs,
    exps, divs) its forward emits as a function of input and output."""
    scalar = float(rng.uniform(0.5, 2.0)) * (1.0 if rng.uniform(0, 1) < 0.5 else -1.0)
    other = Tensor(rng.uniform(-1, 1, shape))
    rows = rng.integers(0, shape[0], (3, 2))  # repeats rows, skips some
    edge = rng.integers(-1, shape[0] + 1, (4,))  # off-edge reads included
    last = -1 if axis is None else axis
    none = lambda x, out: (0, 0, 0)  # noqa: E731
    return {
        "neg": (lambda x: -x, none),
        "sub": (lambda x: x - other, none),
        "rsub": (lambda x: 2.0 - x, none),
        "truediv": (lambda x: x / scalar, lambda x, out: (0, 0, x.size)),
        "T": (lambda x: x.T, none),
        "reshape": (lambda x: x.reshape(shape[::-1]), none),
        "flatten": (lambda x: x.reshape(-1), none),
        "sum": (lambda x: x.sum(axis=axis, keepdims=keepdims), none),
        "mean": (lambda x: x.mean(axis=axis), lambda x, out: (0, 0, out.size)),
        "exp": (lambda x: x.exp(), lambda x, out: (0, x.size, 0)),
        "log": (lambda x: x.log(), lambda x, out: (0, x.size, 0)),
        "sigmoid": (lambda x: x.sigmoid(), lambda x, out: (0, x.size, x.size)),
        "relu": (lambda x: x.relu(), none),
        "abs": (lambda x: x.abs(), none),
        "reciprocal": (lambda x: x.reciprocal(), lambda x, out: (0, 0, x.size)),
        "softmax": (lambda x: x.softmax(axis=last), lambda x, out: (0, x.size, x.size)),
        "take_rows": (lambda x: x.take_rows(rows), none),
        "take_rows_oob": (lambda x: x.take_rows(edge, oob_zero=True), none),
    }


UNARY_OP_NAMES = tuple(_unary_ops((2, 2), None, False, Rng(0)))


@st.composite
def unary_cases(draw):
    """An op, a shape it accepts, an axis (None or one of the shape's),
    keepdims and a seed."""
    name = draw(st.sampled_from(UNARY_OP_NAMES))
    shape = tuple(draw(st.lists(st.integers(1, 4), min_size=2 if name == "T" else 1,
                                max_size=3)))
    axis = draw(st.none() | st.integers(0, len(shape) - 1))
    return name, shape, axis, draw(st.booleans()), Rng(draw(st.integers(0, 2**16)))


@settings(max_examples=300, deadline=None)
@given(unary_cases())
def test_every_single_input_op_passes_finite_difference_and_keeps_its_counts(case):
    name, shape, axis, keepdims, rng = case
    op, expected = _unary_ops(shape, axis, keepdims, rng)[name]
    # magnitudes 0.5..1.5 keep relu and abs off their kinks and log's input
    # positive; the probe keeps every gradient entry away from zero
    sign = 1.0 if name == "log" else np.where(rng.uniform(0, 1, shape) < 0.5, -1.0, 1.0)
    x = Tensor(sign * rng.uniform(0.5, 1.5, shape), requires_grad=True)
    with counting() as got:
        out = op(x)
    assert (got.macs, got.exps, got.divs) == expected(x, out)
    probe = rng.uniform(0.5, 1.5, out.shape)
    if name == "softmax":
        # s * (p - <s, p>) can come near zero, where central differences
        # lose their relative accuracy; a one-entry slice is exactly zero
        last = -1 if axis is None else axis
        grad = out.data * (probe - (out.data * probe).sum(axis=last, keepdims=True))
        assume(shape[last] == 1 or (np.abs(grad) > 1e-3).all())
    assert finite_diff_check(lambda: op(x) * Tensor(probe), [x]) <= 1e-6


# -- one-element tensors, Rng keys and the gather_dot forward's footprint ------------------


@pytest.mark.parametrize("shape", [(), (1,), (1, 1)])
def test_item_reads_any_one_element_tensor(shape):
    value = Tensor(np.full(shape, 2.5)).item()
    assert value == 2.5 and type(value) is float


@pytest.mark.parametrize("key", [-1, 1.5, True, "3"])
def test_rng_rejects_a_key_that_is_not_a_non_negative_int(key):
    with pytest.raises(ContractViolation, match=repr(key)):
        Rng(key)
    with pytest.raises(ContractViolation, match=repr(key)):
        Rng(0).child(key)


def test_rng_accepts_numpy_int_keys():
    assert Rng(np.int64(3), np.int32(0)).key == (3, 0)
    np.testing.assert_array_equal(Rng(np.int64(3)).normal(4), Rng(3).normal(4))


def test_gather_dot_forward_peak_stays_below_one_per_offset_profile():
    offsets = offset_map_2d(24, 24, 16)
    n_q = offsets.index.shape[0]
    d = 8
    rng = Rng(37)
    a = Tensor(rng.uniform(-1, 1, (n_q, d)))
    table = Tensor(rng.uniform(-1, 1, (offsets.n_offsets, d)))
    whole_profile = n_q * offsets.n_offsets * 8  # bytes of one (n_q, n_offsets) float64 array
    tracemalloc.start()
    try:
        gather_dot(a, table, offsets.index)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < whole_profile
