"""Tensor core: forward values, shape policing, and tape gradients.

Expected values are either hand-derived closed forms or brute-force oracles
computed inline with plain numpy loops.
"""

import os
import platform
import resource
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import metacross.harness as harness
import metacross.segmentation as segmentation
import metacross.tensor as T
from metacross.errors import DegenerateMaskError, NumericError, ShapeError
from metacross.nn import clip_grad_norm
from metacross.tensor import Tape, Tensor, grad_check


# ---------------------------------------------------------------------------
# elementwise and linear algebra


def test_matmul_known_values():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = Tensor([[5.0, 6.0], [7.0, 8.0]])
    out = T.matmul(a, b)
    assert np.array_equal(out.data, [[19.0, 22.0], [43.0, 50.0]])


def test_matmul_shape_errors_name_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
        T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))
    with pytest.raises(ShapeError, match="rank-2"):
        T.matmul(Tensor(np.zeros(3)), Tensor(np.zeros((3, 2))))


def test_add_broadcasts_trailing_dims():
    a = Tensor(np.arange(6.0).reshape(3, 2))
    b = Tensor([10.0, 20.0])
    out = T.add(a, b)
    assert out.shape == (3, 2)
    assert np.array_equal(out.data, a.data + b.data)


def test_add_incompatible_shapes():
    with pytest.raises(ShapeError, match="broadcast"):
        T.add(Tensor(np.zeros((3, 2))), Tensor(np.zeros(3)))


def test_broadcast_gradient_sums_down():
    # d/db sum(a + b) over a [3, 2] grid is 3 for each of b's two entries
    a = Tensor(np.ones((3, 2)))
    b = Tensor([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        y = T.sum_(T.add(a, b))
        tape.backward(y)
    assert np.array_equal(b.grad, [3.0, 3.0])


def test_div_by_zero_raises():
    with pytest.raises(NumericError, match="zero denominator"):
        T.div(Tensor([1.0]), Tensor([0.0]))


def test_log_requires_positive():
    with pytest.raises(NumericError, match="strictly positive"):
        T.log(Tensor([0.0]))


def test_gelu_known_values():
    out = T.gelu(Tensor([0.0, 1.0]))
    assert out.data[0] == 0.0
    # 0.5 * (1 + erf(1/sqrt(2)))
    assert abs(out.data[1] - 0.8413447460685429) < 1e-15


def _erf_edges():
    one = np.array([1.0, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0)])
    tiny = np.array([5e-324, 1e-310, np.finfo(np.float64).tiny])
    pos = np.concatenate([[0.0, 8.0, np.nextafter(8.0, 0.0), np.nextafter(8.0, 9.0), 1e300, np.inf],
                          one, tiny, np.linspace(26.0, 27.0, 1001)])
    return np.concatenate([pos, -pos])


def test_erf_matches_scipy_bitwise():
    # the runtime's erf is cephes' algorithm in numpy; scipy's is the same algorithm compiled
    special = pytest.importorskip("scipy.special")
    x = np.concatenate([np.linspace(-30.0, 30.0, 600_001), _erf_edges()])
    got, want = T._erf(x), special.erf(x)  # a RuntimeWarning here fails the test
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_erf_edges():
    x = _erf_edges()
    got = T._erf(x)
    assert np.array_equal(np.signbit(got), np.signbit(x))  # -0.0 stays -0.0
    assert got[x == np.inf] == 1.0 and got[x == -np.inf] == -1.0
    assert np.all(np.abs(got[np.abs(x) >= 8.0]) == 1.0)
    assert np.isnan(T._erf(np.array([np.nan]))).all()


def test_import_loads_no_scipy():
    code = "import sys, metacross, metacross.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout.strip() == "[]"


def test_relu_in_place_matches_out_of_place():
    rng = np.random.default_rng(2)
    x0 = rng.normal(size=(3, 4))
    x0[0, :2] = (0.0, -0.0)
    g = rng.normal(size=x0.shape)
    results = []
    for inplace in (False, True):
        x = Tensor(x0.copy(), requires_grad=True)
        with Tape() as tape:
            y = T.relu(x, inplace=inplace)
            tape.backward(T.sum_(T.mul(y, Tensor(g))))
        assert np.shares_memory(y.data, x.data) == inplace
        results.append((y.data, x.grad))
    assert np.array_equal(results[0][0], np.maximum(x0, 0.0))
    assert np.array_equal(results[0][1], g * (x0 > 0.0))
    for got, want in zip(results[1], results[0]):
        assert np.array_equal(got, want)


def test_mean_axis_matches_numpy():
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(size=(3, 4, 5)))
    out = T.mean(x, axis=(1, 2))
    assert np.allclose(out.data, x.data.mean(axis=(1, 2)), atol=1e-15)


# ---------------------------------------------------------------------------
# masked softmax


def test_masked_softmax_worked_example():
    # one row, columns 0 and 2 available with logits 0 and 2:
    # softmax over {0, 2} = [1, e^2] / (1 + e^2)
    scores = Tensor([[0.0, 5.0, 2.0, -3.0]])
    mask = Tensor([[0.0, -np.inf, 0.0, -np.inf]])
    out = T.masked_softmax_rows(scores, mask)
    assert abs(out.data[0, 0] - 0.11920292202211755) < 1e-15
    assert abs(out.data[0, 2] - 0.8807970779778824) < 1e-15
    assert out.data[0, 1] == 0.0
    assert out.data[0, 3] == 0.0


def test_masked_softmax_rows_sum_to_one():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(1, 12))
        m = int(rng.integers(2, 7))
        avail = rng.random(m) < 0.6
        if not avail.any():
            avail[int(rng.integers(m))] = True
        scores = Tensor(rng.normal(scale=4.0, size=(n, m)))
        mask = Tensor(np.where(avail, 0.0, -np.inf)[None])
        out = T.masked_softmax_rows(scores, mask)
        assert np.all(np.abs(out.data.sum(axis=1) - 1.0) < 1e-12)
        assert np.all(out.data[:, ~avail] == 0.0)
        assert np.all(out.data >= 0.0) and not np.signbit(out.data).any()  # masked entries are +0.0


def test_masked_softmax_fully_masked_row():
    scores = Tensor(np.zeros((2, 3)))
    mask = Tensor([[-np.inf, -np.inf, -np.inf]])
    with pytest.raises(DegenerateMaskError, match="fully masked attention row"):
        T.masked_softmax_rows(scores, mask)


def test_masked_softmax_rejects_bad_mask_values():
    scores = Tensor(np.zeros((1, 2)))
    with pytest.raises(ValueError, match="0 or -inf"):
        T.masked_softmax_rows(scores, Tensor([[0.0, -1.0]]))


def test_masked_softmax_rejects_nonfinite_scores():
    mask = Tensor([[0.0, 0.0]])
    with pytest.raises(NumericError, match="finite"):
        T.masked_softmax_rows(Tensor([[np.inf, 0.0]]), mask)


def test_masked_softmax_shape_checks():
    with pytest.raises(ShapeError):
        T.masked_softmax_rows(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))
    with pytest.raises(ShapeError):
        T.masked_softmax_rows(Tensor(np.zeros(3)), Tensor(np.zeros(3)))
    # the mask is one row, broadcast over the scores: a mask per score row is refused
    for rows in (2, 3):
        with pytest.raises(ShapeError, match=r"must be \[1, 4\]"):
            T.masked_softmax_rows(Tensor(np.zeros((3, 4))), Tensor(np.zeros((rows, 4))))
    with pytest.raises(ShapeError):
        T.masked_softmax_rows(Tensor(np.zeros((3, 4))), Tensor(np.zeros(4)))


def test_masked_softmax_gradient_zero_at_masked_columns():
    rng = np.random.default_rng(7)
    scores = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
    mask = Tensor([[0.0, -np.inf, 0.0, -np.inf]])
    with Tape() as tape:
        out = T.masked_softmax_rows(scores, mask)
        y = T.sum_(T.mul(out, Tensor(rng.normal(size=(4, 4)))))
        tape.backward(y)
    assert np.all(scores.grad[:, 1] == 0.0)
    assert np.all(scores.grad[:, 3] == 0.0)
    assert np.any(scores.grad[:, 0] != 0.0)


def test_masked_softmax_gradient_matches_finite_differences():
    rng = np.random.default_rng(19)
    mask = Tensor([[0.0, 0.0, -np.inf, 0.0]])
    v = Tensor(rng.normal(size=(4, 3)))
    scores = Tensor(rng.normal(size=(5, 4)))
    err = grad_check(lambda s: T.sum_(T.matmul(T.masked_softmax_rows(s, mask), v)), scores)
    assert err < 1e-8


# ---------------------------------------------------------------------------
# layer norm


def test_layer_norm_normalizes_rows():
    rng = np.random.default_rng(5)
    x = Tensor(rng.normal(loc=3.0, scale=2.0, size=(6, 8)))
    gain = Tensor(np.ones(8))
    bias = Tensor(np.zeros(8))
    out = T.layer_norm(x, gain, bias)
    assert np.all(np.abs(out.data.mean(axis=1)) < 1e-12)
    assert np.all(np.abs(out.data.var(axis=1) - 1.0) < 1e-4)  # eps slack


def test_layer_norm_affine():
    x = Tensor([[1.0, 2.0, 3.0]])
    gain = Tensor([2.0, 2.0, 2.0])
    bias = Tensor([1.0, 1.0, 1.0])
    plain = T.layer_norm(x, Tensor(np.ones(3)), Tensor(np.zeros(3)))
    out = T.layer_norm(x, gain, bias)
    assert np.allclose(out.data, 2.0 * plain.data + 1.0, atol=1e-14)


def test_layer_norm_shape_checks():
    with pytest.raises(ShapeError, match="rank-2"):
        T.layer_norm(Tensor(np.zeros(4)), Tensor(np.ones(4)), Tensor(np.zeros(4)))
    with pytest.raises(ShapeError):
        T.layer_norm(Tensor(np.zeros((2, 4))), Tensor(np.ones(3)), Tensor(np.zeros(4)))


# ---------------------------------------------------------------------------
# data movement


def test_reshape_bad_size():
    with pytest.raises(ShapeError, match="cannot reshape"):
        T.reshape(Tensor(np.zeros((2, 3))), (4, 2))


def test_transpose_requires_permutation():
    with pytest.raises(ShapeError, match="permutation"):
        T.transpose(Tensor(np.zeros((2, 3))), (0, 0))


def test_transpose_roundtrip_gradient():
    x = Tensor(np.arange(24.0).reshape(2, 3, 4), requires_grad=True)
    with Tape() as tape:
        y = T.transpose(x, (2, 0, 1))
        z = T.sum_(T.mul(y, y))
        tape.backward(z)
    assert np.array_equal(x.grad, 2.0 * x.data)


def test_concat_and_narrow_roundtrip():
    a = Tensor(np.ones((2, 3)))
    b = Tensor(np.zeros((2, 2)))
    cat = T.concat([a, b], axis=1)
    assert cat.shape == (2, 5)
    assert np.array_equal(T.narrow(cat, 1, 0, 3).data, a.data)
    assert np.array_equal(T.narrow(cat, 1, 3, 2).data, b.data)


def test_concat_empty_and_narrow_bounds():
    with pytest.raises(ShapeError, match="zero tensors"):
        T.concat([])
    with pytest.raises(ShapeError, match="narrow"):
        T.narrow(Tensor(np.zeros((2, 3))), 1, 2, 2)


def test_take_rows_gradient_accumulates_duplicates():
    table = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
    with Tape() as tape:
        y = T.sum_(T.take_rows(table, [1, 1, 0]))
        tape.backward(y)
    assert np.array_equal(table.grad, [[1.0, 1.0], [2.0, 2.0], [0.0, 0.0]])


# ---------------------------------------------------------------------------
# convolution


def test_conv_output_extent_examples():
    assert T.conv_output_extent(64, 4, 4, 0) == 16
    assert T.conv_output_extent(32, 3, 2, 1) == 16
    assert T.conv_output_extent(5, 3, 1, 0) == 3
    assert T.conv_output_extent(5, 3, 1, 1) == 5


def test_conv_output_extent_matches_window_enumeration():
    # oracle: count kernel placements start, start+stride, ... that fit
    for extent in range(1, 9):
        for kernel in range(1, 5):
            for stride in (1, 2, 3):
                for padding in (0, 1, 2):
                    if kernel > extent + 2 * padding:
                        with pytest.raises(ShapeError):
                            T.conv_output_extent(extent, kernel, stride, padding)
                        continue
                    count = len(range(0, extent + 2 * padding - kernel + 1, stride))
                    assert T.conv_output_extent(extent, kernel, stride, padding) == count


def test_conv_output_extent_rejects_bad_geometry():
    with pytest.raises(ShapeError):
        T.conv_output_extent(4, 0, 1, 0)
    with pytest.raises(ShapeError):
        T.conv_output_extent(4, 1, 0, 0)
    with pytest.raises(ShapeError, match="larger than padded"):
        T.conv_output_extent(2, 5, 1, 1)


def _conv_bruteforce(x, w, b, stride, padding, g=None):
    """Cross-correlation one output position at a time, for any number of spatial axes.

    With ``g`` it also returns (dx, dw, db), the gradients of ``sum(out * g)``,
    built by scattering each window's contribution back.
    """
    nd = w.ndim - 2
    kernel = w.shape[2:]
    xp = np.pad(x, [(0, 0), (0, 0)] + [(padding, padding)] * nd)
    out_spatial = tuple((e - k) // stride + 1 for e, k in zip(xp.shape[2:], kernel))
    out = np.zeros((x.shape[0], w.shape[0]) + out_spatial)
    dxp, dw = np.zeros_like(xp), np.zeros_like(w)
    for n in range(x.shape[0]):
        for pos in np.ndindex(*out_spatial):
            win = (n, slice(None)) + tuple(slice(p * stride, p * stride + k) for p, k in zip(pos, kernel))
            for o in range(w.shape[0]):
                out[(n, o) + pos] = (xp[win] * w[o]).sum() + b[o]
                if g is not None:
                    dw[o] += g[(n, o) + pos] * xp[win]
                    dxp[win] += g[(n, o) + pos] * w[o]
    if g is None:
        return out
    crop = (slice(None), slice(None)) + tuple(slice(padding, padding + e) for e in x.shape[2:])
    return out, dxp[crop], dw, g.sum(axis=(0,) + tuple(range(2, nd + 2)))


def test_conv2d_matches_bruteforce():
    rng = np.random.default_rng(23)
    for _ in range(6):
        stride = int(rng.integers(1, 3))
        padding = int(rng.integers(0, 2))
        k = int(rng.integers(1, 4))
        x = rng.normal(size=(2, 3, 6, 5))
        w = rng.normal(size=(4, 3, k, k))
        b = rng.normal(size=4)
        got = T.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride, padding=padding)
        want = _conv_bruteforce(x, w, b, stride, padding)
        assert got.shape == want.shape
        assert np.all(np.abs(got.data - want) < 1e-12)


def test_conv3d_matches_bruteforce():
    rng = np.random.default_rng(29)
    x = rng.normal(size=(1, 2, 4, 4, 4))
    w = rng.normal(size=(3, 2, 2, 2, 2))
    b = rng.normal(size=3)
    got = T.conv3d(Tensor(x), Tensor(w), Tensor(b), stride=2, padding=1)
    xp = np.pad(x, ((0, 0), (0, 0)) + ((1, 1),) * 3)
    out = np.zeros((1, 3, 3, 3, 3))
    for o in range(3):
        for i in range(3):
            for j in range(3):
                for l in range(3):
                    patch = xp[0, :, 2 * i:2 * i + 2, 2 * j:2 * j + 2, 2 * l:2 * l + 2]
                    out[0, o, i, j, l] = (patch * w[o]).sum() + b[o]
    assert np.all(np.abs(got.data - out) < 1e-12)


# (x shape, weight shape, stride, padding): stride 1 and 2 in 3D and 2D, with
# non-cubic kernels, and stride-1 paddings of at least the kernel size, whose
# dX crops the output gradient instead of padding it. Then the 1x1 padding-0
# convs, which read x as it is, with out > in and out < in, one of them on a
# non-contiguous x given as (shape drawn, view taken); and two 3x3x3: 7 rows
# on 2 channels, whose stride-1 forward gathers its windows for one GEMM (see
# _conv_nd), and its transpose, whose dX reads 7 rows on 2 channels and runs
# kn2row, as every stride-1 dX does
CONV_GEOMETRIES = [
    ((2, 3, 7, 5, 6), (4, 3, 3, 3, 3), 1, 1),
    ((2, 3, 9, 4, 5), (4, 3, 3, 2, 3), 1, 0),
    ((2, 3, 13, 6, 5), (4, 3, 3, 3, 3), 2, 1),
    ((2, 2, 14, 6, 7), (3, 2, 2, 2, 2), 2, 0),
    ((2, 3, 7, 9), (4, 3, 3, 3), 1, 1),
    ((2, 3, 15, 8), (5, 3, 3, 2), 2, 0),
    ((2, 3, 4, 5, 3), (2, 3, 1, 1, 1), 1, 1),
    ((2, 3, 4, 5, 3), (2, 3, 2, 2, 2), 1, 2),
    ((2, 3, 5, 6), (3, 3, 1, 1), 1, 1),
    ((2, 3, 5, 6), (3, 3, 2, 2), 1, 2),
    ((2, 3, 4, 5, 3), (5, 3, 1, 1, 1), 1, 0),
    ((2, 5, 3, 4, 6), (2, 5, 1, 1, 1), 1, 0),
    ((2, 3, 5, 6), (4, 3, 1, 1), 1, 0),
    ((2, 4, 6, 5), (3, 4, 1, 1), 1, 0),
    (((2, 6, 4, 5, 6), (slice(None), slice(None, None, 2), slice(None), slice(None), slice(1, None, 2))),
     (4, 3, 1, 1, 1), 1, 0),
    ((2, 2, 5, 6, 4), (7, 2, 3, 3, 3), 1, 1),
    ((2, 7, 5, 4, 6), (2, 7, 3, 3, 3), 1, 1),
]


@pytest.mark.parametrize("x_shape, w_shape, stride, padding", CONV_GEOMETRIES)
def test_conv_multi_slab_matches_bruteforce(x_shape, w_shape, stride, padding):
    rng = np.random.default_rng(37)
    x_shape, view = x_shape if isinstance(x_shape[0], tuple) else (x_shape, ())
    x, w, b = rng.normal(size=x_shape)[view], rng.normal(size=w_shape), rng.normal(size=w_shape[0])
    out_spatial = tuple(T.conv_output_extent(e, k, stride, padding) for e, k in zip(x.shape[2:], w_shape[2:]))
    g = rng.normal(size=(x.shape[0], w_shape[0]) + out_spatial)
    want, want_dx, want_dw, want_db = _conv_bruteforce(x, w, b, stride, padding, g)
    conv = T.conv3d if x.ndim == 5 else T.conv2d
    for need_x, need_w in ((True, True), (False, True), (True, False)):
        xt, wt, bt = Tensor(x, requires_grad=need_x), Tensor(w, requires_grad=need_w), Tensor(b, requires_grad=True)
        with Tape() as tape:
            y = conv(xt, wt, bt, stride=stride, padding=padding)
            tape.backward(T.sum_(T.mul(y, Tensor(g))))
        assert y.shape == want.shape
        assert np.allclose(y.data, want, rtol=1e-12, atol=1e-12)
        assert np.allclose(bt.grad, want_db, rtol=1e-12, atol=1e-12)
        if need_x:
            assert np.allclose(xt.grad, want_dx, rtol=1e-12, atol=1e-12)
        else:
            assert xt.grad is None
        if need_w:
            assert np.allclose(wt.grad, want_dw, rtol=1e-12, atol=1e-12)
        else:
            assert wt.grad is None


def _conv_grads(x, w, b, g, conv):
    """Output and the x, w, b gradients of ``sum(conv(x, w, b) * g)``."""
    xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
    bt = None if b is None else Tensor(b, requires_grad=True)
    with Tape() as tape:
        y = conv(xt, wt, bt)
        tape.backward(T.sum_(T.mul(y, Tensor(g))))
    return y.data, xt.grad, wt.grad, None if bt is None else bt.grad


# (batch, in, out, low-res extents): the segmentation decoder's stage-0 and
# stage-2 geometries at the default config, whose forwards gather their
# windows for one GEMM (see _conv_nd), a small non-cubic one, and one with
# 8 * out <= in, whose forward runs kn2row
UPSAMPLE_GEOMETRIES = [(2, 32, 16, (4, 4, 4)), (2, 8, 8, (16, 16, 16)), (2, 3, 2, (3, 5, 4)), (2, 20, 2, (3, 4, 3))]


def _upsample_conv(xt, wt, bt):
    """The 3x3x3 conv of the nearest x2 upsample of ``xt``: its phases, interleaved."""
    return T.interleave_phases(T.conv3d(xt, wt, bt, padding=1, upsample_phases=True))


@pytest.mark.parametrize("with_bias", [True, False])
@pytest.mark.parametrize("batch, cin, cout, extents", UPSAMPLE_GEOMETRIES)
def test_conv3d_upsample_matches_upsample_then_conv(batch, cin, cout, extents, with_bias):
    rng = np.random.default_rng(41)
    x, w = rng.normal(size=(batch, cin) + extents), rng.normal(size=(cout, cin, 3, 3, 3))
    b = rng.normal(size=cout) if with_bias else None
    g = rng.normal(size=(batch, cout) + tuple(2 * e for e in extents))
    fused = _conv_grads(x, w, b, g, _upsample_conv)
    plain = _conv_grads(x, w, b, g, lambda xt, wt, bt: T.conv3d(T.upsample3d_nearest(xt, 2), wt, bt, padding=1))
    assert fused[0].shape == plain[0].shape
    for got, want in zip(fused, plain):
        if want is None:
            assert got is None
        else:
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("batch, cin, cout, extents", [UPSAMPLE_GEOMETRIES[2], UPSAMPLE_GEOMETRIES[3]],
                         ids=["gather", "kn2row"])
def test_upsample_phase_and_interleave_ops_gradcheck(batch, cin, cout, extents):
    # each op alone, under a random weighting of every output point; the phase
    # op's junk points are outputs too, so their weights reach x, w and b. Both
    # ops are linear, so central differences miss only by roundoff (about 1e-8
    # here), where a wrong adjoint misses by order 1
    rng = np.random.default_rng(47)
    x = Tensor(rng.uniform(-2, 2, (batch, cin) + extents))
    w, b = Tensor(rng.uniform(-1, 1, (cout, cin, 3, 3, 3))), Tensor(rng.uniform(-1, 1, cout))
    grid = (8 * batch, cout, extents[0] + 1) + tuple(e + 2 for e in extents[1:])
    gp = Tensor(rng.uniform(-1, 1, grid))
    phases = T.conv3d(x, w, b, padding=1, upsample_phases=True)
    assert phases.shape == grid and phases.data.flags.c_contiguous
    for t in (x, w, b):
        assert grad_check(lambda _: T.sum_(T.mul(T.conv3d(x, w, b, padding=1, upsample_phases=True), gp)), t) < 1e-6
    p = Tensor(rng.uniform(-2, 2, grid))
    gi = Tensor(rng.uniform(-1, 1, (batch, cout) + tuple(2 * e for e in extents)))
    assert grad_check(lambda t: T.sum_(T.mul(T.interleave_phases(t), gi)), p) < 1e-6


def test_interleave_gives_junk_points_exactly_zero_gradient():
    rng = np.random.default_rng(53)
    extents = (3, 4, 2)
    grid = (16, 3, 4, 6, 4)  # batch 2, 3 channels
    index = T.interleave_phases(Tensor(np.arange(np.prod(grid), dtype=np.float64).reshape(grid))).data
    kept = np.zeros(np.prod(grid), dtype=bool)
    kept[index.astype(np.int64).ravel()] = True
    assert kept.sum() == index.size == 2 * 3 * 8 * np.prod(extents)  # each kept point lands once

    p = Tensor(rng.normal(size=grid), requires_grad=True)
    g = rng.normal(size=index.shape)
    with Tape() as tape:
        y = T.interleave_phases(p)
        tape.backward(T.sum_(T.mul(y, Tensor(g))))
    assert np.array_equal(y.data.ravel(), p.data.ravel()[index.astype(np.int64).ravel()])
    assert y.data.flags.c_contiguous
    grad = p.grad.ravel()
    assert np.all(grad[~kept] == 0.0) and not np.signbit(grad[~kept]).any()
    assert np.array_equal(grad[index.astype(np.int64).ravel()], g.ravel())


@pytest.mark.parametrize("x_shape, w_shape, stride, padding, upsample", [
    ((2, 3, 7, 5, 6), (4, 3, 3, 3, 3), 1, 1, 1),
    ((2, 3, 4, 5, 3), (2, 3, 1, 1, 1), 1, 0, 1),
    ((2, 3, 13, 6, 5), (4, 3, 3, 3, 3), 2, 1, 1),
    ((2, 3, 3, 5, 4), (2, 3, 3, 3, 3), 1, 1, 2),
    ((2, 3, 7, 9), (4, 3, 3, 3), 1, 1, 1),
    ((2, 3, 15, 8), (5, 3, 3, 2), 2, 0, 1),
    ((2, 2, 5, 6, 4), (7, 2, 3, 3, 3), 1, 1, 1),
])
def test_conv_writes_one_c_order_output(x_shape, w_shape, stride, padding, upsample):
    # small integers: every sum is exact in float64, so any kernel must match bitwise
    rng = np.random.default_rng(43)
    x, w, b = (rng.integers(-3, 4, size=s).astype(np.float64) for s in (x_shape, w_shape, w_shape[:1]))
    if upsample == 2:
        got = _upsample_conv(Tensor(x), Tensor(w), Tensor(b)).data
    else:
        conv = T.conv3d if len(x_shape) == 5 else T.conv2d
        got = conv(Tensor(x), Tensor(w), Tensor(b), stride=stride, padding=padding).data
    for axis in range(2, x.ndim):
        x = np.repeat(x, upsample, axis=axis)
    assert got.flags.c_contiguous
    assert np.array_equal(got, _conv_bruteforce(x, w, b, stride, padding))


def test_conv_upsample_rejects_unsupported_geometry():
    x3, w3 = Tensor(np.zeros((1, 2, 4, 4, 4))), Tensor(np.zeros((3, 2, 3, 3, 3)))
    for kwargs in (dict(stride=2, padding=1), dict(padding=0)):
        with pytest.raises(ShapeError, match="upsample"):
            T.conv3d(x3, w3, upsample_phases=True, **kwargs)
    with pytest.raises(ShapeError, match="upsample"):
        T.conv3d(x3, Tensor(np.zeros((3, 2, 1, 1, 1))), padding=1, upsample_phases=True)
    for shape in ((8, 2, 4, 4), (12, 2, 4, 5, 5), (8, 2, 1, 5, 5), (8, 2, 4, 2, 5)):
        with pytest.raises(ShapeError, match="interleave_phases"):
            T.interleave_phases(Tensor(np.zeros(shape)))


def test_conv2d_identity_kernel():
    x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4))
    w = Tensor(np.ones((1, 1, 1, 1)))
    out = T.conv2d(x, w)
    assert np.array_equal(out.data, x.data)


def test_conv2d_shape_checks():
    with pytest.raises(ShapeError, match="channels"):
        T.conv2d(Tensor(np.zeros((1, 2, 4, 4))), Tensor(np.zeros((1, 3, 2, 2))))
    with pytest.raises(ShapeError, match="rank-4"):
        T.conv2d(Tensor(np.zeros((2, 4, 4))), Tensor(np.zeros((1, 2, 2, 2))))
    with pytest.raises(ShapeError, match="bias"):
        T.conv2d(Tensor(np.zeros((1, 2, 4, 4))), Tensor(np.zeros((3, 2, 2, 2))), Tensor(np.zeros(2)))


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the pinned malloc thresholds are glibc's")
def test_repeated_conv_forward_keeps_heap_pages():
    # glibc's dynamic trim threshold returned this conv's freed buffers to the
    # kernel after every call, about 1,740 minor faults per call
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((1, 8, 32, 32, 32)))
    w = Tensor(rng.standard_normal((8, 8, 3, 3, 3)))
    T.conv3d(x, w, padding=1)  # warm-up: the heap grows once
    calls = 5
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(calls):
        T.conv3d(x, w, padding=1)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults / calls < 200, f"{faults / calls:.0f} minor faults per call"


def test_pointwise_conv_forward_allocates_only_its_output():
    # a 1x1 padding-0 conv reads x as it is: no padded copy of its 2 MB input
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((1, 8, 32, 32, 32)))
    w, b = Tensor(rng.standard_normal((2, 8, 1, 1, 1))), Tensor(rng.standard_normal(2))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = T.conv3d(x, w, b)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= out.data.nbytes + 64 * 1024, f"peak {peak} bytes for a {out.data.nbytes}-byte output"


def test_upsample3d_nearest_values():
    x = Tensor(np.arange(8.0).reshape(1, 1, 2, 2, 2))
    out = T.upsample3d_nearest(x, 2)
    assert out.shape == (1, 1, 4, 4, 4)
    assert np.array_equal(out.data[0, 0, :2, :2, :2], np.full((2, 2, 2), x.data[0, 0, 0, 0, 0]))
    assert out.data[0, 0, 3, 3, 3] == x.data[0, 0, 1, 1, 1]


def test_upsample3d_gradient_is_block_sum():
    x = Tensor(np.zeros((1, 1, 2, 2, 2)), requires_grad=True)
    with Tape() as tape:
        y = T.sum_(T.upsample3d_nearest(x, 2))
        tape.backward(y)
    assert np.array_equal(x.grad, np.full((1, 1, 2, 2, 2), 8.0))

    # factor 3 with an uneven upstream gradient: each voxel gets its 3x3x3 block's sum
    rng = np.random.default_rng(31)
    x = Tensor(rng.normal(size=(2, 3, 2, 3, 4)), requires_grad=True)
    g = rng.normal(size=(2, 3, 6, 9, 12))
    with Tape() as tape:
        y = T.sum_(T.mul(T.upsample3d_nearest(x, 3), Tensor(g)))
        tape.backward(y)
    want = g.reshape(2, 3, 2, 3, 3, 3, 4, 3).sum(axis=(3, 5, 7))
    assert np.allclose(x.grad, want, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# tape mechanics


def test_ops_outside_tape_do_not_track():
    x = Tensor([1.0, 2.0], requires_grad=True)
    y = T.mul(x, x)
    assert not y.needs_grad
    assert x.grad is None


def test_backward_on_empty_tape_is_noop():
    with Tape() as tape:
        pass
    root = Tensor([3.0])
    tape.backward(root)
    assert np.array_equal(root.grad, [1.0])


def test_unreached_branches_are_skipped():
    x = Tensor([1.0], requires_grad=True)
    with Tape() as tape:
        used = T.mul(x, x)
        T.mul(used, Tensor([5.0]))  # dead branch, never reaches the root
        y = T.sum_(used)
        tape.backward(y)
    assert np.array_equal(x.grad, [2.0])


def test_tapes_are_independent():
    x = Tensor([2.0], requires_grad=True)
    with Tape() as t1:
        y1 = T.sum_(T.mul(x, x))
    with Tape() as t2:
        y2 = T.sum_(T.scale(x, 3.0))
        t2.backward(y2)
    assert np.array_equal(x.grad, [3.0])
    x.grad = None
    t1.backward(y1)
    assert np.array_equal(x.grad, [4.0])


def test_first_nonfinite_names_earliest_op():
    x = Tensor([1e308], requires_grad=True)
    with Tape() as tape, np.errstate(over="ignore"):
        y = T.mul(x, x)  # overflows to inf
        T.add(y, y)
    assert tape.first_nonfinite() == "mul"


# the single-input ops, each on an input it accepts: their backward rules accumulate
# without testing needs_grad, since the tape records an op only for an input that needs one
_DATA = np.random.default_rng(3).normal(size=(2, 3))
_ONE_MASK_ROW = Tensor([[0.0, -np.inf, 0.0]])
SINGLE_INPUT_OPS = {
    "scale": (lambda x: T.scale(x, 3.0), _DATA),
    "relu": (T.relu, _DATA),
    "gelu": (T.gelu, _DATA),
    "exp": (T.exp, _DATA),
    "log": (T.log, np.abs(_DATA) + 1.0),
    "sum": (lambda x: T.sum_(x, axis=0), _DATA),
    "log_softmax": (T.log_softmax, _DATA),
    "masked_softmax_rows": (lambda x: T.masked_softmax_rows(x, _ONE_MASK_ROW), _DATA),
    "reshape": (lambda x: T.reshape(x, (3, 2)), _DATA),
    "transpose": (lambda x: T.transpose(x, (1, 0)), _DATA),
    "narrow": (lambda x: T.narrow(x, 1, 1, 2), _DATA),
    "take_rows": (lambda x: T.take_rows(x, [1, 0, 1]), _DATA),
    "interleave_phases": (T.interleave_phases, np.arange(8.0 * 2 * 3 * 3).reshape(8, 1, 2, 3, 3)),
    "upsample3d_nearest": (lambda x: T.upsample3d_nearest(x, 2), _DATA.reshape(1, 1, 2, 3, 1)),
    "ce_dice_gap": (lambda x: segmentation._ce_plus_dice_gap(x, np.array([0, 1, 1])), _DATA),
}


@pytest.mark.parametrize("name", sorted(SINGLE_INPUT_OPS))
def test_single_input_op_records_only_for_an_input_that_needs_a_gradient(name):
    op, data = SINGLE_INPUT_OPS[name]
    with Tape() as tape:
        out = op(Tensor(data))
    assert tape.nodes == [] and not out.needs_grad

    x = Tensor(data, requires_grad=True)
    with Tape() as tape:
        out = op(x)
        assert [node[0] for node in tape.nodes] == [name] and out.needs_grad
        tape.backward(T.sum_(out))
    assert x.grad.shape == data.shape


# ---------------------------------------------------------------------------
# gradient handover and release


def test_accumulate_keeps_the_first_gradient_laid_out_like_data():
    t = Tensor(np.zeros((2, 3)))
    g = np.arange(6.0).reshape(2, 3)
    t.accumulate(g)
    assert t.grad is g
    t.accumulate(np.ones((2, 3)))  # later gradients add in place
    assert t.grad is g and np.array_equal(g, np.arange(1.0, 7.0).reshape(2, 3))

    strided = np.arange(6.0).reshape(3, 2).T  # kept in its own layout
    u = Tensor(np.zeros((2, 3)))
    u.accumulate(strided)
    assert u.grad is strided

    read_only = np.broadcast_to(2.0, (2, 3))  # copied once, into data's layout
    u = Tensor(np.zeros((2, 3)))
    u.accumulate(read_only)
    assert not np.may_share_memory(u.grad, read_only)
    assert u.grad.strides == u.data.strides and np.array_equal(u.grad, read_only)


@pytest.mark.parametrize("axis", [None, 0, (0, 2), -1])
def test_sum_hands_its_gradient_over_in_the_data_layout(monkeypatch, axis):
    data = np.random.default_rng(2).normal(size=(4, 3, 2)).transpose(2, 0, 1)  # strided
    x = Tensor(data, requires_grad=True)
    handed = []
    original = Tensor.accumulate

    def accumulate(self, g):
        original(self, g)
        handed.append(g)

    monkeypatch.setattr(Tensor, "accumulate", accumulate)
    with Tape() as tape:
        s = T.sum_(x, axis=axis)
        tape.backward(T.sum_(T.mul(s, Tensor(np.arange(1.0, s.size + 1).reshape(s.shape)))))
    # a read-only broadcast that accumulate fills into x's layout once
    assert not handed[-1].flags.writeable and not np.may_share_memory(x.grad, handed[-1])
    assert x.grad.strides == x.data.strides
    w = np.arange(1.0, s.size + 1).reshape(s.shape)
    if axis is not None:
        w = np.expand_dims(w, tuple(a % 3 for a in (axis if isinstance(axis, tuple) else (axis,))))
    assert np.array_equal(x.grad, np.broadcast_to(w, x.shape))


def test_add_gives_each_operand_its_own_gradient():
    a = Tensor(np.ones(3), requires_grad=True)
    b = Tensor(np.ones(3), requires_grad=True)
    with Tape() as tape:
        tape.backward(T.sum_(T.mul(T.add(a, b), Tensor([1.0, 2.0, 3.0]))))
    assert not np.may_share_memory(a.grad, b.grad)
    assert clip_grad_norm([a, b], 1.0) == np.sqrt(28.0)
    want = np.array([1.0, 2.0, 3.0]) * (1.0 / np.sqrt(28.0))  # one in-place scale each
    assert np.array_equal(a.grad, want) and np.array_equal(b.grad, want)


def test_add_of_a_tensor_to_itself_sums_both_contributions():
    x = Tensor([1.0, -2.0], requires_grad=True)
    with Tape() as tape:
        tape.backward(T.sum_(T.mul(T.add(x, x), Tensor([3.0, 5.0]))))
    assert np.array_equal(x.grad, [6.0, 10.0])


def test_backward_releases_everything_but_leaf_gradients():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        y = T.mul(x, x)
        z = T.sum_(y)
        tape.backward(z)
    assert y.grad is None and z.grad is None
    assert np.array_equal(x.grad, [2.0, 4.0])
    assert [name for name, _, _ in tape.nodes] == ["mul", "sum"]
    assert all(out is None and rule is None for _, out, rule in tape.nodes)
    assert tape.first_nonfinite() is None
    tape.backward(z)  # replayed once: nothing left to run
    assert np.array_equal(x.grad, [2.0, 4.0])


def _zero_fill_accumulate(self, g):  # the accumulate that copied every gradient
    if self.grad is None:
        self.grad = np.zeros_like(self.data)
    self.grad += g


def _suite_leaf_gradients(monkeypatch, accumulate, seed):
    """The bytes of every leaf gradient on the gradcheck suite's graphs, tape only,
    with the sign of zero dropped."""
    touched, leaves = {}, []

    def recording(self, g):
        touched[id(self)] = self
        accumulate(self, g)

    def tape_only(f, x, h=1e-5):
        touched.clear()
        was, x.needs_grad = x.needs_grad, True
        with Tape() as tape:
            tape.backward(f(x))
        x.needs_grad = was
        for t in touched.values():
            if t.grad is not None:  # non-leaves were released by backward
                # + 0.0 turns -0.0 into +0.0, as the zero fill did: a kept gradient
                # keeps the -0.0 that rules like the masked softmax's 0.0 * (negative) make
                leaves.append((t.shape, (t.grad + 0.0).tobytes()))
                t.grad = None
        return 0.0

    monkeypatch.setattr(Tensor, "accumulate", recording)
    monkeypatch.setattr(harness, "grad_check", tape_only)
    harness.gradcheck_suite(seed)
    monkeypatch.undo()
    return leaves


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_handover_leaves_gradients_bitwise_unchanged(monkeypatch, seed):
    kept = _suite_leaf_gradients(monkeypatch, Tensor.accumulate, seed)
    copied = _suite_leaf_gradients(monkeypatch, _zero_fill_accumulate, seed)
    assert len(kept) == len(copied) > 20
    assert kept == copied


def test_item_requires_scalar():
    with pytest.raises(ShapeError, match="single-element"):
        Tensor([1.0, 2.0]).item()


# ---------------------------------------------------------------------------
# finite-difference checker


def test_grad_check_requires_scalar_objective():
    with pytest.raises(ShapeError, match="scalar"):
        grad_check(lambda t: T.mul(t, t), Tensor([1.0, 2.0]))


def test_grad_check_core_ops_ten_seeds():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        b_fixed = Tensor(rng.uniform(-2, 2, (4, 3)))
        numerator = Tensor(rng.uniform(1, 2, (3, 3)))
        checks = [
            (lambda t: T.sum_(T.matmul(t, b_fixed)), Tensor(rng.uniform(-2, 2, (2, 4)))),
            (lambda t: T.sum_(T.gelu(t)), Tensor(rng.uniform(-2, 2, (4, 4)))),
            (lambda t: T.sum_(T.exp(T.scale(t, 0.3))), Tensor(rng.uniform(-1, 1, (3, 3)))),
            (lambda t: T.sum_(T.log(t)), Tensor(rng.uniform(0.5, 2.0, (3, 3)))),
            (lambda t: T.sum_(T.div(numerator, t)), Tensor(rng.uniform(0.5, 2.0, (3, 3)))),
            (lambda t: T.sum_(T.log_softmax(t, axis=1)), Tensor(rng.uniform(-2, 2, (3, 4)))),
            (lambda t: T.mean(T.mul(t, t)), Tensor(rng.uniform(-2, 2, (4, 2)))),
            # relu last: keep inputs clear of the kink at zero
            (lambda t: T.sum_(T.relu(t)), Tensor(rng.uniform(0.5, 2.0, (5, 5)))),
        ]
        for f, x in checks:
            assert grad_check(f, x) < 1e-7


def test_grad_check_restores_tensor_state():
    x = Tensor([1.0, 2.0])
    before = x.data.copy()
    grad_check(lambda t: T.sum_(T.mul(t, t)), x)
    assert np.array_equal(x.data, before)
    assert x.grad is None
    assert not x.needs_grad
