"""Dense float64 tensors with reverse-mode differentiation on a tape.

Everything in this package flows through :class:`Tensor`. Arrays are kept in
64-bit floats throughout so tests can pin identities at the 1e-12 level.
Operations executed inside a ``with Tape():`` block are recorded in execution
order; ``Tape.backward`` replays the records in reverse and accumulates
gradients into ``Tensor.grad``. Outside a tape the same functions run forward
only, which is what inference paths use. Tapes nest on one module-level stack
and an op records onto the innermost, so one thread at a time may record.

An op is recorded only when one of its inputs needs a gradient, and a rule
runs only for a recorded op. So a rule with one input accumulates into it
unconditionally, and a rule with several inputs tests each one's
``needs_grad``.

Gradient lifetime: a tape is replayed once, and each node is released as soon
as its rule has run, so after backward only leaves (tensors no rule produced:
parameters and inputs) hold ``.grad``. A rule hands each gradient array to one
tensor and does not read it again; the tensor keeps the first one it gets, not
a copy, in whatever layout the rule made it (see ``Tensor.accumulate``). ``add``
hands its upstream gradient to the first operand, so the second gets a copy.

Broadcasting follows the trailing-dimension rule: shapes are aligned from the
right and a size-1 extent stretches. Gradients of broadcast operands are
summed back down to the operand's shape.

conv2d and conv3d share one kernel, ``_conv_nd``, over a plane-major padded
input, with two GEMM strategies. A conv whose stride is above 1, or whose
stride-1 kernel offsets stack (copying them into the GEMM depth writes fewer
values than one product per offset), gathers its windows into one im2col
column buffer for a single GEMM. Any other stride-1 conv, and every stride-1
dX (the same routine on the output gradient with the kernel flipped), runs
kn2row: one GEMM per in-plane offset on strided views of the padded input,
the products added (see ``_kn2row``). A 1x1 kernel at stride 1 and padding 0
reads ``x`` as the one plane [batch, 1, in, voxels] it already is: forward is
one ``W @ X`` per batch entry, dW is ``G X^T`` and dX is ``W^T G``, with no
padded copy. Either way the output is one C-order array, [batch, out,
*spatial] but for the upsample phases below.

``conv3d(x, w, b, padding=1, upsample_phases=True)`` is the 3x3x3 conv of the
nearest x2 upsample of ``x`` without building the upsample, returned as its
eight output phases. Each output phase (even or odd on each axis) reads only
2x2x2 low-res voxels, so a constant 0/1 map pre-sums the 27 taps into eight
phase-stacked 2x2x2 kernels, and one stride-1 conv runs them on ``x`` padded
by 1: 8/27 of the multiply-adds on an input 1/8 the size. The result is the
stride-1 grid over whole padded planes, with the phases as batch entries:
[8 * batch, out, e0 + 1, e1 + 2, e2 + 2], where phase a keeps [a, a + e) of
each axis and the other grid points are junk. ``interleave_phases`` writes
the kept points into voxel order and hands the junk points a zero gradient.
Pointwise work (bias, ReLU, a 1x1 conv) can run on the phases before the
interleave, so the model interleaves its last stage after the head, on the
logit channels only. Summing taps before the multiply, and summing the
offsets in one GEMM, move results in the last ulps. The backward pass lays
the phases' gradient out plane-major as the kn2row output, folds the phase
kernels' gradient back through the map, and runs dX on that same buffer.

``gelu`` is the exact GELU, and its ``erf`` is ``_erf``: scipy's algorithm
(cephes ``ndtr.c``) in numpy, so the runtime needs numpy alone and the values
are bitwise those of ``scipy.special.erf``. It splits at |x| = 1: a rational
in x^2 below, and 1 - erfc(|x|) above, where erfc needs ``exp(-x^2)``. That
``exp`` must be the C library's, which numpy's float64 ``np.exp`` is not on
every CPU (its SIMD path rounds some values differently), so it goes through
the complex ``np.exp``, which calls the C library's ``cexp``.

Importing this module pins glibc's malloc mmap and trim thresholds, so the
megabytes a forward frees stay mapped for the next one (see ``_pin_malloc_thresholds``).
"""

from __future__ import annotations

import ctypes
import math
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DegenerateMaskError, NumericError, ShapeError

_NEG_INF = float("-inf")
_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# cephes ndtr.c: erf on [0, 1] is x T(x^2) / U(x^2), and erfc on (1, 8) is
# exp(-x^2) P(x) / Q(x); U and Q have a leading coefficient of 1 (p1evl)
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)


def _horner(x: np.ndarray, coef: Sequence[float], monic: bool = False) -> np.ndarray:
    """cephes polevl (``monic``: p1evl, an implicit leading 1), in its operation order."""
    ans = x + coef[0] if monic else x * coef[0] + coef[1]
    for c in coef[1 if monic else 2:]:
        ans *= x
        ans += c
    return ans


def _erf(x: np.ndarray) -> np.ndarray:
    """``scipy.special.erf``, bitwise: cephes ``ndtr.c`` on |x| with the sign copied back.

    cephes computes erf(|x|) as x T(z) / U(z) with z = x^2 for |x| <= 1, and as
    1 - exp(-x^2) P(x) / Q(x) above. The rational runs on every entry, clamped
    to 1 so large inputs raise no overflow, and the erfc branch overwrites the
    entries past 1. Past 8 cephes switches to other coefficients, but erfc(8)
    is about 1e-29, so every branch rounds 1 - erfc to exactly 1.0 there, and
    the entries are clamped to 8. numpy's float64 ``np.exp`` may take a SIMD
    path that rounds differently from the C library's ``exp`` (4.6% of values
    on [-64, -1] with AVX-512); the complex ``np.exp`` calls the C library's
    ``cexp``, which at zero phase returns its ``exp`` exactly.
    """
    a = np.abs(x).reshape(-1)
    s = np.minimum(a, 1.0)
    z = s * s
    out = s * _horner(z, _ERF_T)
    out /= _horner(z, _ERF_U, monic=True)
    big = np.flatnonzero(a > 1.0)  # flat take and put beat a boolean mask's gather and scatter
    if big.size:
        t = np.minimum(a.take(big), 8.0)
        e = np.exp((t * -t).astype(np.complex128)).real
        out.put(big, 1.0 - e * _horner(t, _ERFC_P) / _horner(t, _ERFC_Q, monic=True))
    return np.copysign(out.reshape(np.shape(x)), x)


def _pin_malloc_thresholds() -> None:
    """Fix glibc's mmap and trim thresholds; a no-op where ``mallopt`` is missing.

    glibc's dynamic rule hands the megabytes a 32^3 conv frees at the top of
    the heap back to the kernel after every call, and the next call faults
    them in again. Measured with glibc 2.36 on 2 CPUs: an 8->8 3x3x3 conv at
    32^3 without a tape took 1,714 minor faults and 9-10 ms per call, against
    1 fault and 7 ms with the thresholds pinned (about 1.8 us per fault); a
    forward-only segmentation item (perfbench seg_eval, seed 21) took 1,539
    faults, against 1. Setting either value switches the dynamic rule off,
    so both are set.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # M_MMAP_THRESHOLD (-3) at DEFAULT_MMAP_THRESHOLD_MAX on 64-bit, the ceiling of
    # glibc's own rule; M_TRIM_THRESHOLD (-1) at twice that, the ratio the rule keeps
    if mallopt(-3, 32 << 20):
        mallopt(-1, 64 << 20)


_pin_malloc_thresholds()


_tapes: list["Tape"] = []  # entered tapes, innermost last


def active_tape() -> "Tape | None":
    return _tapes[-1] if _tapes else None


class Tape:
    """Ordered record of operations; backward replays it in reverse.

    Distinct tapes are independent. Backward on an empty tape is a no-op.
    """

    def __init__(self) -> None:
        self.nodes: list[tuple[str, "Tensor | None", Callable[[np.ndarray], None] | None]] = []  # None once released

    def __enter__(self) -> "Tape":
        _tapes.append(self)
        return self

    def __exit__(self, *exc) -> None:
        if not _tapes or _tapes[-1] is not self:
            raise RuntimeError("tape stack corrupted: exiting a tape that is not on top")
        _tapes.pop()

    def record(self, name: str, out: "Tensor", backward: Callable[[np.ndarray], None]) -> None:
        self.nodes.append((name, out, backward))

    def backward(self, root: "Tensor") -> None:
        """Seed ``root`` with a gradient of ones and run every rule in reverse, once.

        Each node is released as soon as its rule has run: its output's
        gradient and the node's references to the output and the rule are
        dropped, so the live set shrinks as the replay goes. Only the names
        stay. Tensors that no rule produced (parameters and inputs) keep their
        ``.grad``; a replayed tape has nothing left to replay.
        """
        root.grad = np.ones_like(root.data)
        nodes = self.nodes
        for i in range(len(nodes) - 1, -1, -1):
            name, out, rule = nodes[i]
            nodes[i] = (name, None, None)
            # out is None after an earlier replay; no gradient: the branch never reached the root
            if out is not None and out.grad is not None:
                g, out.grad = out.grad, None
                out = None  # only a rule that reads the output keeps its data alive while it runs
                rule(g)

    def first_nonfinite(self) -> str | None:
        """Name of the earliest recorded op whose output went non-finite; released nodes are skipped."""
        for name, out, _ in self.nodes:
            if out is not None and not np.all(np.isfinite(out.data)):
                return name
        return None


class Tensor:
    """A float64 array plus an optional gradient buffer."""

    __slots__ = ("data", "grad", "needs_grad")

    def __init__(self, data, requires_grad: bool = False) -> None:
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.needs_grad = bool(requires_grad)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def accumulate(self, g: np.ndarray) -> None:
        """Add ``g`` into ``.grad``, taking ownership of it.

        The first gradient is kept as handed over, in whatever layout it has,
        when it is writeable and has ``data``'s shape; a read-only or
        mis-shaped one is copied once into ``data``'s layout. Later gradients
        add in place. The caller hands over an array it made or a view of its
        own upstream gradient, gives it to no other tensor, and does not read
        it afterwards.
        """
        if self.grad is not None:
            self.grad += g
        elif g.flags.writeable and g.shape == self.data.shape:
            self.grad = g
        else:
            self.grad = np.empty_like(self.data)
            self.grad[...] = g

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, needs_grad={self.needs_grad})"


def _record(name: str, out: Tensor, inputs: Iterable[Tensor], rule: Callable[[np.ndarray], None]) -> Tensor:
    tape = active_tape()
    if tape is not None and any(t.needs_grad for t in inputs):
        out.needs_grad = True
        tape.record(name, out, rule)
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient back down to ``shape`` after trailing-dim broadcast."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, ss) in enumerate(zip(g.shape, shape)) if ss == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _broadcast_op(name: str, a: Tensor, b: Tensor, fwd, da, db) -> Tensor:
    try:
        out_data = fwd(a.data, b.data)
    except ValueError as exc:
        raise ShapeError(f"{name}: shapes {a.shape} and {b.shape} do not broadcast") from exc
    out = Tensor(out_data)

    def rule(g: np.ndarray) -> None:
        if a.needs_grad:
            a.accumulate(_unbroadcast(da(g), a.shape))
        if b.needs_grad:
            gb = _unbroadcast(db(g), b.shape)
            # add hands g itself to both operands: the second gets its own copy
            b.accumulate(gb.copy() if a.needs_grad and np.may_share_memory(gb, g) else gb)

    return _record(name, out, (a, b), rule)


# ---------------------------------------------------------------------------
# elementwise and linear algebra


def add(a: Tensor, b: Tensor) -> Tensor:
    return _broadcast_op("add", a, b, lambda x, y: x + y, lambda g: g, lambda g: g)


def sub(a: Tensor, b: Tensor) -> Tensor:
    return _broadcast_op("sub", a, b, lambda x, y: x - y, lambda g: g, lambda g: -g)


def mul(a: Tensor, b: Tensor) -> Tensor:
    return _broadcast_op("mul", a, b, lambda x, y: x * y, lambda g: g * b.data, lambda g: g * a.data)


def div(a: Tensor, b: Tensor) -> Tensor:
    if np.any(b.data == 0.0):
        raise NumericError("div: zero denominator")
    return _broadcast_op(
        "div",
        a,
        b,
        lambda x, y: x / y,
        lambda g: g / b.data,
        lambda g: -g * a.data / (b.data * b.data),
    )


def scale(x: Tensor, k: float) -> Tensor:
    k = float(k)
    out = Tensor(x.data * k)

    def rule(g: np.ndarray) -> None:
        x.accumulate(g * k)

    return _record("scale", out, (x,), rule)


def relu(x: Tensor, inplace: bool = False) -> Tensor:
    """max(x, 0); ``inplace`` writes it over the data of an ``x`` that nothing else reads."""
    out = Tensor(np.maximum(x.data, 0.0, out=x.data if inplace else None))

    def rule(g: np.ndarray) -> None:  # g is this rule's own (see Tensor.accumulate), so it is masked in place
        x.accumulate(np.multiply(g, out.data > 0.0, out=g))

    return _record("relu", out, (x,), rule)


def gelu(x: Tensor) -> Tensor:
    """Exact Gaussian-error-linear unit, 0.5*x*(1+erf(x/sqrt(2)))."""
    cdf = 0.5 * (1.0 + _erf(x.data * _INV_SQRT2))
    out = Tensor(x.data * cdf)

    def rule(g: np.ndarray) -> None:
        pdf = np.exp(-0.5 * x.data * x.data) * _INV_SQRT_2PI
        x.accumulate(g * (cdf + x.data * pdf))

    return _record("gelu", out, (x,), rule)


def exp(x: Tensor) -> Tensor:
    out = Tensor(np.exp(x.data))

    def rule(g: np.ndarray) -> None:
        x.accumulate(g * out.data)

    return _record("exp", out, (x,), rule)


def log(x: Tensor) -> Tensor:
    if np.any(x.data <= 0.0):
        raise NumericError("log: argument must be strictly positive")
    out = Tensor(np.log(x.data))

    def rule(g: np.ndarray) -> None:
        x.accumulate(g / x.data)

    return _record("log", out, (x,), rule)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul expects rank-2 operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dimensions disagree for shapes {a.shape} and {b.shape}")
    out = Tensor(a.data @ b.data)

    def rule(g: np.ndarray) -> None:
        if a.needs_grad:
            a.accumulate(g @ b.data.T)
        if b.needs_grad:
            b.accumulate(a.data.T @ g)

    return _record("matmul", out, (a, b), rule)


def sum_(x: Tensor, axis=None) -> Tensor:
    out = Tensor(x.data.sum(axis=axis))

    def rule(g: np.ndarray) -> None:
        if axis is not None:
            axes = axis if isinstance(axis, tuple) else (axis,)
            for ax in sorted(a % x.ndim for a in axes):
                g = np.expand_dims(g, ax)
        x.accumulate(np.broadcast_to(g, x.shape))

    return _record("sum", out, (x,), rule)


def mean(x: Tensor, axis=None) -> Tensor:
    if axis is None:
        n = x.size
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        n = 1
        for ax in axes:
            n *= x.shape[ax % x.ndim]
    return scale(sum_(x, axis=axis), 1.0 / n)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    m = x.data.max(axis=axis, keepdims=True)
    z = x.data - m
    lse = np.log(np.exp(z).sum(axis=axis, keepdims=True))
    out = Tensor(z - lse)

    def rule(g: np.ndarray) -> None:
        soft = np.exp(out.data)
        x.accumulate(g - soft * g.sum(axis=axis, keepdims=True))

    return _record("log_softmax", out, (x,), rule)


def masked_softmax_rows(scores: Tensor, mask: Tensor) -> Tensor:
    """Row-wise softmax of ``scores + mask`` where mask entries are 0 or -inf.

    ``mask`` is one row, broadcast over every row of ``scores``. The row max
    used for stabilization is taken over available entries only, so masked
    positions come out as an exact IEEE 0.0 and each row of the result sums
    to 1 over the available set. Masked positions are constants for the
    backward pass. A fully masked row is an error, not a NaN.
    """
    if scores.ndim != 2:
        raise ShapeError(f"masked softmax expects rank-2 scores, got {scores.shape}")
    if mask.shape != (1, scores.shape[1]):
        raise ShapeError(f"masked softmax: mask {mask.shape} must be [1, {scores.shape[1]}] for scores {scores.shape}")
    m = mask.data
    if not np.all((m == 0.0) | (m == _NEG_INF)):
        raise ValueError("mask entries must be exactly 0 or -inf")
    if not np.all(np.isfinite(scores.data)):
        raise NumericError("masked softmax: scores must be finite")
    if not np.any(m == 0.0):
        raise DegenerateMaskError("fully masked attention row: nothing to normalize over")

    shifted = scores.data + m
    # max over a row ignores -inf as long as one finite entry exists
    row_max = shifted.max(axis=1, keepdims=True)
    weights = np.exp(shifted - row_max)  # exp(-inf) == +0.0 exactly
    total = weights.sum(axis=1, keepdims=True)
    out = Tensor(weights / total)

    def rule(g: np.ndarray) -> None:
        a = out.data
        scores.accumulate(a * (g - (g * a).sum(axis=1, keepdims=True)))

    return _record("masked_softmax_rows", out, (scores,), rule)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize each row of a rank-2 input to zero mean and unit variance."""
    if x.ndim != 2:
        raise ShapeError(f"layer_norm expects a rank-2 input, got {x.shape}")
    d = x.shape[1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(f"layer_norm: gain {gain.shape} / bias {bias.shape} must be ({d},)")
    mu = x.data.mean(axis=1, keepdims=True)
    centered = x.data - mu
    var = (centered * centered).mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv
    out = Tensor(xhat * gain.data + bias.data)

    def rule(g: np.ndarray) -> None:
        if gain.needs_grad:
            gain.accumulate((g * xhat).sum(axis=0))
        if bias.needs_grad:
            bias.accumulate(g.sum(axis=0))
        if x.needs_grad:
            gx = g * gain.data
            term = gx - gx.mean(axis=1, keepdims=True) - xhat * (gx * xhat).mean(axis=1, keepdims=True)
            x.accumulate(term * inv)

    return _record("layer_norm", out, (x, gain, bias), rule)


# ---------------------------------------------------------------------------
# data movement


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(int(s) for s in shape)
    try:
        out = Tensor(x.data.reshape(shape))
    except ValueError as exc:
        raise ShapeError(f"cannot reshape {x.shape} into {shape}") from exc

    def rule(g: np.ndarray) -> None:
        x.accumulate(g.reshape(x.shape))

    return _record("reshape", out, (x,), rule)


def transpose(x: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(int(a) for a in axes)
    if sorted(axes) != list(range(x.ndim)):
        raise ShapeError(f"transpose axes {axes} are not a permutation of rank {x.ndim}")
    inverse = tuple(int(i) for i in np.argsort(axes))
    out = Tensor(x.data.transpose(axes))

    def rule(g: np.ndarray) -> None:
        x.accumulate(g.transpose(inverse))

    return _record("transpose", out, (x,), rule)


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    if not parts:
        raise ShapeError("concat of zero tensors")
    out = Tensor(np.concatenate([p.data for p in parts], axis=axis))
    sizes = [p.shape[axis] for p in parts]

    def rule(g: np.ndarray) -> None:
        offset = 0
        for p, n in zip(parts, sizes):
            if p.needs_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(offset, offset + n)
                p.accumulate(g[tuple(idx)])
            offset += n

    return _record("concat", out, tuple(parts), rule)


def narrow(x: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice of ``length`` entries along one axis."""
    axis = axis % x.ndim
    if start < 0 or start + length > x.shape[axis]:
        raise ShapeError(f"narrow [{start}:{start + length}] exceeds axis {axis} of shape {x.shape}")
    idx = [slice(None)] * x.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)
    out = Tensor(x.data[idx])

    def rule(g: np.ndarray) -> None:
        buf = np.zeros_like(x.data)
        buf[idx] = g
        x.accumulate(buf)

    return _record("narrow", out, (x,), rule)


def take_rows(table: Tensor, indices) -> Tensor:
    """Gather rows of a rank-2 table; gradient scatter-adds back."""
    if table.ndim != 2:
        raise ShapeError(f"take_rows expects a rank-2 table, got {table.shape}")
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim > 1:
        raise ShapeError("take_rows indices must be a scalar or flat list")
    if np.any(idx < 0) or np.any(idx >= table.shape[0]):
        raise ShapeError(f"take_rows index out of range for table with {table.shape[0]} rows")
    out = Tensor(table.data[idx])

    def rule(g: np.ndarray) -> None:
        buf = np.zeros_like(table.data)
        np.add.at(buf, idx, g)
        table.accumulate(buf)

    return _record("take_rows", out, (table,), rule)


# ---------------------------------------------------------------------------
# convolution and resampling


def conv_output_extent(extent: int, kernel: int, stride: int, padding: int) -> int:
    """Closed-form output size: floor((extent + 2*padding - kernel)/stride) + 1."""
    if kernel <= 0 or stride <= 0 or padding < 0 or extent <= 0:
        raise ShapeError(f"bad conv geometry extent={extent} kernel={kernel} stride={stride} padding={padding}")
    span = extent + 2 * padding - kernel
    if span < 0:
        raise ShapeError(f"kernel {kernel} larger than padded input {extent + 2 * padding}")
    return span // stride + 1


def _interior(planes: np.ndarray, lead: Sequence[int], extents: Sequence[int]) -> np.ndarray:
    """The [batch, ch, *extents] view of a [batch, first axis, ch, *other axes] array
    whose region starts at index ``lead`` of each spatial axis."""
    first = (slice(None), slice(lead[0], lead[0] + extents[0]), slice(None))
    return planes[first + tuple(slice(a, a + e) for a, e in zip(lead[1:], extents[1:]))].swapaxes(1, 2)


def _plane_major(src: np.ndarray, pads: Sequence[int], kernel: Sequence[int]) -> tuple[np.ndarray, tuple[int, ...]]:
    """Zero-pad ``src`` [batch, ch, *spatial] by ``pads[a]`` on both sides of axis a
    (a negative pad crops) and lay it out flat as [batch, first axis, ch, *other axes].

    Zeros follow for the reads past the last plane that a ``kernel`` offset makes
    from the junk points of a whole-plane grid. Returns the buffer and that
    padded layout.
    """
    if min(pads) < 0:
        src = src[(slice(None),) * 2 + tuple(slice(-min(p, 0), e + min(p, 0)) for p, e in zip(pads, src.shape[2:]))]
        pads = [max(p, 0) for p in pads]
    batch, ch, *extents = src.shape
    padded = [e + 2 * p for e, p in zip(extents, pads)]
    layout = (batch, padded[0], ch, *padded[1:])
    buf = _plane_zeros(layout, kernel)
    _interior(buf[:math.prod(layout)].reshape(layout), pads, extents)[...] = src
    return buf, layout


def _plane_zeros(layout: tuple[int, ...], kernel: Sequence[int], body: bool = True) -> np.ndarray:
    """A flat buffer for a plane-major ``layout``, with the zeroed tail that
    ``kernel`` offsets read past the last plane; ``body`` zeroes the layout too."""
    padded = (layout[1],) + layout[3:]
    tail = sum((k - 1) * math.prod(padded[a + 1:]) for a, k in enumerate(kernel) if a)
    if body:
        return np.zeros(math.prod(layout) + tail)
    buf = np.empty(math.prod(layout) + tail)
    buf[math.prod(layout):] = 0.0
    return buf


def _runs(xp: np.ndarray, layout: tuple[int, ...], kernel: tuple[int, ...]):
    """Yield (in-plane offset, view) for the stride-1 windows of a plane-major buffer.

    The view is [batch, output plane, kernel[0] * ch, padded plane]: the k0 * ch
    input planes that one output plane reads form one run, shifted by the
    offset, so each matrix is a GEMM operand as it stands and nothing is copied.
    Grid points past the output extents of the other axes are junk.
    """
    batch, planes, ch, plane = layout[:3] + (math.prod(layout[3:]),)
    shape = (batch, planes - kernel[0] + 1, kernel[0] * ch, plane)
    strides = tuple(xp.itemsize * s for s in (planes * ch * plane, ch * plane, plane, 1))
    for off in np.ndindex(*kernel[1:]):
        shift = sum(k * math.prod(layout[a + 4:]) for a, k in enumerate(off))
        yield off, np.ndarray(shape, buffer=xp, offset=xp.itemsize * shift, strides=strides)


def _kn2row(xp: np.ndarray, layout: tuple[int, ...], rows: np.ndarray) -> np.ndarray:
    """Stride-1 cross-correlation of a plane-major buffer with weight rows [out, *kernel, in].

    Returns [batch, output plane, out, *padded extents of the other axes]: one
    GEMM per in-plane offset, batched over the output planes with the k0
    offsets along the first axis in its depth, the products added through one
    reused buffer.
    """
    acc = part = None
    for off, view in _runs(xp, layout, rows.shape[1:-1]):
        w = rows[(slice(None), slice(None)) + off].reshape(rows.shape[0], -1)
        if acc is None:
            acc = np.matmul(w, view)
        else:
            part = np.matmul(w, view, out=part)
            acc += part
    return acc.reshape(acc.shape[:3] + layout[3:])


def _phase_windows(phases: np.ndarray, voxels: np.ndarray, extents: Sequence[int]):
    """Yield, for each output phase a (row-major over the axes), the points it
    keeps of ``phases`` [2**nd * batch, ch, *grid], its batch entry a of each
    group from index a of each axis, and the same points of ``voxels``
    [batch, ch, *2 * extents], every other voxel from index a of each axis."""
    nd = len(extents)
    for i, a in enumerate(np.ndindex(*(2,) * nd)):
        kept = (slice(i, None, 2 ** nd), slice(None)) + tuple(slice(o, o + e) for o, e in zip(a, extents))
        yield phases[kept], voxels[(slice(None), slice(None)) + tuple(slice(o, None, 2) for o in a)]


# Per axis, the 3-tap kernel taps that each (output phase, 2-tap offset) pair
# sums after a nearest x2 upsample: phase 0 (even outputs) reads low-res offsets
# -1 and 0 through taps {0} and {1, 2}; phase 1 (odd) reads offsets 0 and +1
# through taps {0, 1} and {2}. The 3D map [27 taps, 8 phases * 8 offsets] is
# the product over the three axes.
_UP2_AXIS = np.array([[[1, 0, 0], [0, 1, 1]], [[1, 1, 0], [0, 0, 1]]], dtype=np.float64)  # [phase, offset, tap]
_UP2_MAP = np.einsum("adk,bel,cfm->klmabcdef", _UP2_AXIS, _UP2_AXIS, _UP2_AXIS).reshape(27, 64)


def _phase_rows(w: np.ndarray) -> np.ndarray:
    """3x3x3 weights [out, in, 3, 3, 3] pre-summed into phase-stacked 2x2x2 rows [8 * out, 2, 2, 2, in]."""
    out_ch, in_ch = w.shape[:2]
    v = (w.reshape(out_ch * in_ch, 27) @ _UP2_MAP).reshape(out_ch, in_ch, 8, 2, 2, 2)
    return v.transpose(2, 0, 3, 4, 5, 1).reshape(8 * out_ch, 2, 2, 2, in_ch)


def _fold_phase_rows(d: np.ndarray) -> np.ndarray:
    """The gradient of phase-stacked rows folded back onto the 3x3x3 weights (the map's transpose)."""
    out_ch, in_ch = d.shape[0] // 8, d.shape[-1]
    v = d.reshape(8, out_ch, 2, 2, 2, in_ch).transpose(1, 5, 0, 2, 3, 4).reshape(out_ch * in_ch, 64)
    return (v @ _UP2_MAP.T).reshape(out_ch, in_ch, 3, 3, 3)


def _conv_nd(name: str, nd: int, x: Tensor, weight: Tensor, bias: Tensor | None, stride: int, padding: int,
             upsample_phases: bool = False) -> Tensor:
    if x.ndim != nd + 2:
        raise ShapeError(f"{name} expects rank-{nd + 2} input [batch, ch, spatial...], got {x.shape}")
    if weight.ndim != nd + 2:
        raise ShapeError(f"{name} expects rank-{nd + 2} weight [out, in, kernel...], got {weight.shape}")
    batch, in_ch = x.shape[0], x.shape[1]
    out_ch, w_in = weight.shape[0], weight.shape[1]
    if in_ch != w_in:
        raise ShapeError(f"{name}: input channels {in_ch} != weight channels {w_in}")
    if bias is not None and bias.shape != (out_ch,):
        raise ShapeError(f"{name}: bias shape {bias.shape} must be ({out_ch},)")
    kernel = weight.shape[2:]
    spatial = x.shape[2:]
    if upsample_phases and (kernel != (3,) * 3 or stride != 1 or padding != 1):
        raise ShapeError(f"{name}: upsample_phases is supported only in conv3d with a 3x3x3 kernel, "
                         f"stride 1 and padding 1, got kernel {kernel}, stride {stride}, padding {padding}")

    # Every conv reads the padded input laid out flat as [batch, first axis, ch,
    # *other axes] and weight rows [out', *kernel', in], and writes one C-order
    # output. It gathers its windows into one column buffer for one GEMM when
    # its stride is above 1, or when copying the k0 * n offsets (k0 along the
    # first axis, n in the plane) into the GEMM depth writes fewer values per
    # grid point than kn2row's n products: k0 * n * in + out' < n * out'. Any
    # other conv runs kn2row (see _kn2row). At stride 1 both compute the grid
    # over whole padded planes, and the output's region of it is kept. The
    # upsample phases run the 2x2x2 phase-stacked rows on x padded by 1 and
    # keep the whole grid, its phases as batch entries (see interleave_phases).
    # A 1x1 kernel at stride 1 and padding 0 reads x as the one plane
    # [batch, 1, in, voxels] it already is, and its kn2row result is the output.
    origin = (0,) * nd
    pointwise = stride == 1 and padding == 0 and kernel == (1,) * nd
    if upsample_phases:
        rows, kernel, pads = _phase_rows(weight.data), (2,) * nd, (1,) * nd
        out_spatial = (spatial[0] + 1,) + tuple(e + 2 for e in spatial[1:])
        out_shape = (8 * batch, out_ch) + out_spatial
    else:
        rows, pads = np.moveaxis(weight.data, 1, -1), (padding,) * nd
        out_spatial = tuple(conv_output_extent(e, k, stride, padding) for e, k in zip(spatial, kernel))
        out_shape = (batch, out_ch) + out_spatial

    def padded(src: np.ndarray, ch: int, pads: Sequence[int]) -> tuple[np.ndarray, tuple[int, ...]]:
        if pointwise:
            return np.ascontiguousarray(src).reshape(-1), (batch, 1, ch, math.prod(spatial))
        return _plane_major(src, pads, kernel)

    xp, layout = padded(x.data, in_ch, pads)
    b = (np.zeros(out_ch) if bias is None else bias.data).reshape((out_ch,) + (1,) * nd)
    grid = out_spatial if stride > 1 else (layout[1] - kernel[0] + 1,) + layout[3:]
    steps = (math.prod(layout[2:]),) + tuple(math.prod(layout[a + 3:]) for a in range(1, nd))
    strides = tuple(8 * s for s in steps + (math.prod(layout[3:]), math.prod(layout[1:])) + tuple(stride * s for s in steps))

    def windows(buf: np.ndarray) -> np.ndarray:  # [*kernel, in, batch, *grid]
        return np.ndarray(kernel + (in_ch, batch) + grid, buffer=buf, strides=strides)

    n = math.prod(kernel[1:])
    if stride > 1 or kernel[0] * n * in_ch < (n - 1) * rows.shape[0]:
        res = rows.reshape(rows.shape[0], -1) @ windows(xp).reshape(rows[0].size, -1)
        res = res.reshape(rows.shape[:1] + (batch,) + grid).swapaxes(0, 1)
    else:
        res = _kn2row(xp, layout, rows).swapaxes(1, 2)
    if pointwise or upsample_phases:  # res [batch, out', ...] is the output, phase channel blocks as batch entries
        out_data = np.ascontiguousarray(res).reshape(out_shape)
        if bias is not None:
            out_data += b
    else:
        out_data = np.empty(out_shape)
        np.add(res[(Ellipsis,) + tuple(slice(e) for e in out_spatial)], b, out=out_data)
    buf_size = xp.size
    del xp, res
    out = Tensor(out_data)

    def rule(g: np.ndarray) -> None:  # rebuilds the padded input: the tape keeps no buffer
        if bias is not None and bias.needs_grad:
            bias.accumulate(g.sum(axis=(0,) + tuple(range(2, nd + 2))))
        xp = padded(x.data, in_ch, pads)[0] if weight.needs_grad else None
        if stride == 1:
            glayout = (batch, layout[1] - kernel[0] + 1, rows.shape[0]) + layout[3:]
            if pointwise:  # g already is the kn2row output, with no junk points
                gbuf = padded(g, out_ch, pads)[0]
            elif upsample_phases:  # g is the whole kn2row grid: its phases go back into the channel axis
                gbuf = _plane_zeros(glayout, kernel, body=False)
                gl = gbuf[:math.prod(glayout)].reshape((batch, glayout[1], 8, out_ch) + glayout[3:])
                gl[...] = g.reshape((batch, 8) + g.shape[1:]).transpose(0, 3, 1, 2, 4, 5)
            elif xp is not None:  # g laid out as the kn2row output; junk points get zero gradient
                gbuf = _plane_zeros(glayout, kernel)
                _interior(gbuf[:math.prod(glayout)].reshape(glayout), origin, out_spatial)[...] = g
            if xp is not None:  # dW[off] = sum over planes of G_d @ view_d^T
                gl = gbuf[:math.prod(glayout)].reshape(glayout[:3] + (-1,))
                drows = np.empty_like(rows)
                for off, view in _runs(xp, layout, kernel):
                    d = np.matmul(gl, view.swapaxes(-1, -2)).sum(axis=(0, 1))
                    drows[(slice(None), slice(None)) + off] = d.reshape(rows.shape[0], kernel[0], in_ch)
                del gl, view, xp
                weight.accumulate(_fold_phase_rows(drows) if upsample_phases else np.moveaxis(drows, -1, 1))
            if x.needs_grad:  # the same routine on g, with the kernel flipped and in/out swapped
                flipped = rows.swapaxes(0, -1)[(slice(None),) + (slice(None, None, -1),) * nd]
                if not upsample_phases:  # the phases pad x by k - 1, so their dX reads the gradient buffer unpadded
                    gbuf, glayout = padded(g, out_ch, tuple(k - 1 - padding for k in kernel))
                dx = _kn2row(gbuf, glayout, flipped)
                x.accumulate(dx.reshape(x.shape) if pointwise else _interior(dx, origin, spatial))
            return
        gs = g.swapaxes(0, 1).reshape(out_ch, -1)
        if xp is not None:
            weight.accumulate(np.moveaxis((gs @ windows(xp).reshape(rows[0].size, -1).T).reshape(rows.shape), -1, 1))
        if x.needs_grad:  # the columns' gradient adds back into the windows it was read from
            dcols = (rows.reshape(out_ch, -1).T @ gs).reshape(kernel + (in_ch, batch) + out_spatial)
            dxp = np.zeros(buf_size)
            dv = windows(dxp)
            for k in np.ndindex(*kernel):
                np.add(dv[k], dcols[k], out=dv[k])
            x.accumulate(_interior(dxp[:math.prod(layout)].reshape(layout), pads, spatial))

    return _record(name, out, (x, weight) if bias is None else (x, weight, bias), rule)


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None = None, stride: int = 1, padding: int = 0) -> Tensor:
    """Cross-correlation over [batch, ch, h, w] with square stride/padding."""
    return _conv_nd("conv2d", 2, x, weight, bias, stride, padding)


def conv3d(x: Tensor, weight: Tensor, bias: Tensor | None = None, stride: int = 1, padding: int = 0,
           upsample_phases: bool = False) -> Tensor:
    """Cross-correlation over [batch, ch, d, h, w] with cubic stride/padding.

    ``upsample_phases=True`` (3x3x3 kernel, stride 1, padding 1 only)
    convolves the nearest x2 upsample of ``x`` without building it, and
    returns the eight output phases as batch entries,
    [8 * batch, out, d + 1, h + 2, w + 2] with junk points between them:
    ``interleave_phases`` of it has the same values as
    ``conv3d(upsample3d_nearest(x, 2), ..., padding=1)`` up to the last ulps.
    """
    return _conv_nd("conv3d", 3, x, weight, bias, stride, padding, upsample_phases)


def interleave_phases(phases: Tensor) -> Tensor:
    """The voxel-order [batch, ch, 2 * e0, 2 * e1, 2 * e2] map of eight output phases
    [8 * batch, ch, e0 + 1, e1 + 2, e2 + 2], as ``conv3d(..., upsample_phases=True)``
    returns them: phase a (row-major over the axes) is batch entry a of each
    group of eight and keeps [a, a + e) of each axis. Every other grid point
    is junk and gets a gradient of exactly zero.
    """
    if phases.ndim != 5 or phases.shape[0] % 8 or phases.shape[2] < 2 or min(phases.shape[3:]) < 3:
        raise ShapeError(f"interleave_phases expects [8 * batch, ch, e0 + 1, e1 + 2, e2 + 2] with every e >= 1, "
                         f"got {phases.shape}")
    extents = (phases.shape[2] - 1,) + tuple(s - 2 for s in phases.shape[3:])
    out = Tensor(np.empty((phases.shape[0] // 8, phases.shape[1]) + tuple(2 * e for e in extents)))
    for kept, voxels in _phase_windows(phases.data, out.data, extents):  # one strided copy per phase
        voxels[...] = kept

    def rule(g: np.ndarray) -> None:
        buf = np.zeros(phases.shape)
        for kept, voxels in _phase_windows(buf, g, extents):
            kept[...] = voxels
        phases.accumulate(buf)

    return _record("interleave_phases", out, (phases,), rule)


def upsample3d_nearest(x: Tensor, factor: int) -> Tensor:
    """Repeat every voxel ``factor`` times along each spatial axis.

    No model calls it: ``conv3d(..., upsample_phases=True)`` convolves the
    upsample without building it, and this op is the reference that path is
    tested against.
    """
    if x.ndim != 5:
        raise ShapeError(f"upsample3d expects rank-5 input, got {x.shape}")
    if factor < 1:
        raise ShapeError(f"upsample factor must be >= 1, got {factor}")
    out_data = x.data
    for axis in (2, 3, 4):
        out_data = np.repeat(out_data, factor, axis=axis)
    out = Tensor(out_data)

    def rule(g: np.ndarray) -> None:
        for axis in (2, 3, 4):  # sum each block's `factor` strided slices, one axis at a time
            idx = [slice(None)] * 5
            idx[axis] = slice(0, None, factor)
            acc = g[tuple(idx)].copy()
            for i in range(1, factor):
                idx[axis] = slice(i, None, factor)
                acc += g[tuple(idx)]
            g = acc
        x.accumulate(g)

    return _record("upsample3d_nearest", out, (x,), rule)


# ---------------------------------------------------------------------------
# finite-difference verification


def grad_check(f: Callable[[Tensor], Tensor], x: Tensor) -> float:
    """Max relative error between tape gradients and central differences of step 1e-5.

    The error at each coordinate is |analytic - numeric| / max(1, |analytic|,
    |numeric|); the function returns the max over coordinates.
    """
    h = 1e-5
    was_needed = x.needs_grad
    x.needs_grad = True
    x.grad = None
    try:
        with Tape() as tape:
            y = f(x)
            if y.size != 1:
                raise ShapeError(f"grad_check target must be scalar, got shape {y.shape}")
            if not np.isfinite(y.data.reshape(())):
                raise NumericError("grad_check: objective is not finite")
            tape.backward(y)
        analytic = np.zeros_like(x.data) if x.grad is None else x.grad.copy()
    finally:
        x.needs_grad = was_needed
        x.grad = None

    flat = x.data.reshape(-1)
    numeric = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = f(x).item()
        flat[i] = orig - h
        down = f(x).item()
        flat[i] = orig
        numeric[i] = (up - down) / (2.0 * h)
    if not np.all(np.isfinite(numeric)):
        raise NumericError("grad_check: non-finite finite-difference estimate")
    numeric = numeric.reshape(x.shape)
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float(np.max(np.abs(analytic - numeric) / denom)) if x.size else 0.0
