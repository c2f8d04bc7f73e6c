"""Dense tensors with tape-based reverse-mode automatic differentiation.

The design is deliberately small: a ``Tensor`` wraps a numpy array, and every
differentiable primitive appends a node ``(output, backward_fn)`` to the
currently active ``Tape``.  Execution order is a topological order of the
graph, so replaying the node list in reverse propagates gradients correctly.

Tensors hold real floating-point arrays only; a complex array raises
``ShapeError``.  Complex arithmetic, as in the Fourier mixer, is written
out by the caller in real arithmetic.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from .errors import ShapeError

_tls = threading.local()


def _tape_stack() -> list:
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = _tls.stack = []
    return stack


def active_tape():
    """The innermost open Tape on this thread, or None."""
    stack = _tape_stack()
    return stack[-1] if stack else None


class Tape:
    """Ordered record of primitive operations for one forward pass.

    Single-owner and single-threaded: concurrent forward passes must use
    separate tapes.  ``clear`` drops every node and with it all saved
    intermediates captured by the backward closures.
    """

    def __init__(self):
        self._nodes = []

    def __enter__(self) -> "Tape":
        _tape_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        stack = _tape_stack()
        if not stack or stack[-1] is not self:
            raise RuntimeError("tape stack corrupted: exiting a tape that is not innermost")
        stack.pop()
        return False

    def __len__(self) -> int:
        return len(self._nodes)

    def clear(self) -> None:
        self._nodes.clear()

    def backward(self, root: "Tensor") -> None:
        """Propagate d(root)/d(leaf) into ``.grad`` of every leaf that
        requires grad (a tensor no node of this tape produced).  ``root``
        must hold a single element.  Repeated calls accumulate into
        ``.grad``; zero or clear grads between steps.  A node's output
        gradient is dropped as soon as its closure has run, so
        intermediates get no ``.grad`` and the pass holds only the
        gradients still waiting to be propagated.
        """
        if root.size != 1:
            raise ShapeError(f"backward root must be scalar, got shape {root.shape}")
        # Per-pass gradient store; id -> (tensor, grad array).  Keeping the
        # tensor reference pins the id against reuse.
        store: dict[int, list] = {id(root): [root, np.ones_like(root.data)]}

        def accumulate(t: "Tensor", g: np.ndarray) -> None:
            if not t.requires_grad:
                return
            g = _unbroadcast(g, t.data.shape)
            entry = store.get(id(t))
            if entry is None:
                store[id(t)] = [t, g.astype(t.data.dtype, copy=True)]
            else:
                entry[1] = entry[1] + g

        for out, backward_fn in reversed(self._nodes):
            entry = store.pop(id(out), None)
            if entry is None:
                continue
            backward_fn(entry[1], accumulate)

        for t, g in store.values():
            t.grad = g if t.grad is None else t.grad + g


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``g`` down to ``shape``, undoing trailing-dimension broadcasting."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def record(out: "Tensor", backward_fn) -> None:
    tape = active_tape()
    if tape is not None and out.requires_grad:
        tape._nodes.append((out, backward_fn))


def tracking(*tensors: "Tensor") -> bool:
    return active_tape() is not None and any(t.requires_grad for t in tensors)


class Tensor:
    """Dense N-dimensional array with optional gradient tracking."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype.kind == "c":
            raise ShapeError(f"tensors hold real arrays only, got {arr.dtype}")
        if arr.dtype.kind != "f":
            arr = arr.astype(np.float64)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None

    # -- introspection -------------------------------------------------
    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return self.data.item()

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def numpy(self) -> np.ndarray:
        return self.data

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{flag})"

    # -- operators -----------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    # -- method aliases ------------------------------------------------
    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)

    def reshape(self, shape):
        return reshape(self, shape)

    def transpose(self, axes):
        return transpose(self, axes)

    def backward(self) -> None:
        tape = active_tape()
        if tape is None:
            raise RuntimeError("Tensor.backward() requires an active Tape")
        tape.backward(self)


def backward(root: Tensor) -> None:
    """Free-function form of ``Tensor.backward`` (uses the active tape)."""
    root.backward()


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _binary_operands(a, b) -> tuple:
    """Wrap both operands, keeping Python scalars at the peer's precision.

    A bare ``float``/``int`` follows numpy's weak-scalar rule
    (``np.result_type``) instead of forcing float64, so f32 graphs are not
    silently promoted by expressions like ``2.0 * t``.
    """
    if isinstance(a, Tensor) and isinstance(b, Tensor):
        return a, b
    if isinstance(b, (int, float)) and isinstance(a, Tensor):
        return a, Tensor(np.asarray(b, dtype=np.result_type(a.data.dtype, b)))
    if isinstance(a, (int, float)) and isinstance(b, Tensor):
        return Tensor(np.asarray(a, dtype=np.result_type(b.data.dtype, a))), b
    return as_tensor(a), as_tensor(b)


# ---------------------------------------------------------------------
# binary elementwise primitives
# ---------------------------------------------------------------------

def _binary_data(a: Tensor, b: Tensor, op: str) -> np.ndarray:
    try:
        if op == "add":
            return a.data + b.data
        if op == "sub":
            return a.data - b.data
        if op == "mul":
            return a.data * b.data
        return a.data / b.data
    except ValueError as exc:
        raise ShapeError(
            f"{op}: shapes {a.shape} and {b.shape} are not broadcast-compatible"
        ) from exc


def add(a, b) -> Tensor:
    a, b = _binary_operands(a, b)
    out = Tensor(_binary_data(a, b, "add"), requires_grad=tracking(a, b))

    def bwd(g, acc):
        acc(a, g)
        acc(b, g)

    record(out, bwd)
    return out


def sub(a, b) -> Tensor:
    a, b = _binary_operands(a, b)
    out = Tensor(_binary_data(a, b, "sub"), requires_grad=tracking(a, b))

    def bwd(g, acc):
        acc(a, g)
        acc(b, -g)

    record(out, bwd)
    return out


def mul(a, b) -> Tensor:
    a, b = _binary_operands(a, b)
    out = Tensor(_binary_data(a, b, "mul"), requires_grad=tracking(a, b))
    ad, bd = a.data, b.data

    def bwd(g, acc):
        acc(a, g * bd)
        acc(b, g * ad)

    record(out, bwd)
    return out


def div(a, b) -> Tensor:
    a, b = _binary_operands(a, b)
    out = Tensor(_binary_data(a, b, "div"), requires_grad=tracking(a, b))
    ad, bd = a.data, b.data

    def bwd(g, acc):
        acc(a, g / bd)
        acc(b, -g * ad / (bd * bd))

    record(out, bwd)
    return out


# ---------------------------------------------------------------------
# unary elementwise primitives
# ---------------------------------------------------------------------

def neg(a) -> Tensor:
    a = as_tensor(a)
    out = Tensor(-a.data, requires_grad=tracking(a))

    def bwd(g, acc):
        acc(a, -g)

    record(out, bwd)
    return out


def _unary(a: Tensor, value: np.ndarray, deriv: np.ndarray) -> Tensor:
    out = Tensor(value, requires_grad=tracking(a))

    def bwd(g, acc):
        acc(a, g * deriv)

    record(out, bwd)
    return out


def exp(a) -> Tensor:
    a = as_tensor(a)
    value = np.exp(a.data)
    return _unary(a, value, value)


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    # numerically stable logistic
    value = np.empty_like(a.data)
    pos = a.data >= 0
    value[pos] = 1.0 / (1.0 + np.exp(-a.data[pos]))
    e = np.exp(a.data[~pos])
    value[~pos] = e / (1.0 + e)
    return _unary(a, value, value * (1.0 - value))


def relu(a) -> Tensor:
    a = as_tensor(a)
    value = np.maximum(a.data, 0.0)
    return _unary(a, value, (a.data > 0).astype(a.data.dtype))


def rsqrt(a) -> Tensor:
    a = as_tensor(a)
    value = 1.0 / np.sqrt(a.data)
    return _unary(a, value, -0.5 * value / a.data)


def cos(a) -> Tensor:
    a = as_tensor(a)
    return _unary(a, np.cos(a.data), -np.sin(a.data))


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(a) -> Tensor:
    """tanh-approximation GELU (the variant used throughout this package)."""
    a = as_tensor(a)
    x = a.data
    inner = _GELU_C * (x + 0.044715 * (x * x * x))
    t = np.tanh(inner)
    value = 0.5 * x * (1.0 + t)
    deriv = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * _GELU_C * (1.0 + 3 * 0.044715 * (x * x))
    return _unary(a, value, deriv)


# ---------------------------------------------------------------------
# matrix products
# ---------------------------------------------------------------------

def matmul(a, b) -> Tensor:
    """Strict 2-D matrix product (m x k) @ (k x p)."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul expects 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dimensions differ: {a.shape} vs {b.shape}")
    out = Tensor(a.data @ b.data, requires_grad=tracking(a, b))
    ad, bd = a.data, b.data

    def bwd(g, acc):
        acc(a, g @ bd.T)
        acc(b, ad.T @ g)

    record(out, bwd)
    return out


def bmm(a, b) -> Tensor:
    """Batched matrix product (B x m x k) @ (B x k x p)."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim != 3 or b.ndim != 3:
        raise ShapeError(f"bmm expects 3-D operands, got {a.shape} and {b.shape}")
    if a.shape[0] != b.shape[0] or a.shape[2] != b.shape[1]:
        raise ShapeError(f"bmm shapes incompatible: {a.shape} vs {b.shape}")
    out = Tensor(a.data @ b.data, requires_grad=tracking(a, b))
    ad, bd = a.data, b.data

    def bwd(g, acc):
        acc(a, g @ bd.swapaxes(-1, -2))
        acc(b, ad.swapaxes(-1, -2) @ g)

    record(out, bwd)
    return out


# ---------------------------------------------------------------------
# reductions and shape operations
# ---------------------------------------------------------------------

def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out = Tensor(a.data.sum(axis=axis, keepdims=keepdims), requires_grad=tracking(a))
    in_shape = a.data.shape

    def bwd(g, acc):
        if axis is None:
            acc(a, np.broadcast_to(g, in_shape))
            return
        axes = axis if isinstance(axis, tuple) else (axis,)
        if not keepdims:
            g = np.expand_dims(g, axes)
        acc(a, np.broadcast_to(g, in_shape))

    record(out, bwd)
    return out


def tmean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    if axis is None:
        count = a.size
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        count = 1
        for ax in axes:
            count *= a.shape[ax]
    return tsum(a, axis=axis, keepdims=keepdims) * (1.0 / count)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    out = Tensor(a.data.reshape(shape), requires_grad=tracking(a))
    in_shape = a.data.shape

    def bwd(g, acc):
        acc(a, g.reshape(in_shape))

    record(out, bwd)
    return out


def transpose(a, axes) -> Tensor:
    a = as_tensor(a)
    axes = tuple(axes)
    out = Tensor(a.data.transpose(axes), requires_grad=tracking(a))
    inverse = tuple(np.argsort(axes))

    def bwd(g, acc):
        acc(a, g.transpose(inverse))

    record(out, bwd)
    return out


def broadcast_to(a, shape) -> Tensor:
    a = as_tensor(a)
    shape = tuple(shape)
    try:
        data = np.broadcast_to(a.data, shape)
    except ValueError as exc:
        raise ShapeError(f"cannot broadcast {a.shape} to {shape}") from exc
    out = Tensor(data.copy(), requires_grad=tracking(a))

    def bwd(g, acc):
        acc(a, g)  # accumulate() unbroadcasts

    record(out, bwd)
    return out


def concat(tensors, axis: int) -> Tensor:
    """Join tensors along ``axis``; the backward splits the gradient at
    the input boundaries."""
    tensors = [as_tensor(t) for t in tensors]
    try:
        data = np.concatenate([t.data for t in tensors], axis=axis)
    except ValueError as exc:
        shapes = [t.shape for t in tensors]
        raise ShapeError(f"cannot concatenate shapes {shapes} along axis {axis}") from exc
    out = Tensor(data, requires_grad=tracking(*tensors))
    bounds = np.cumsum([t.shape[axis] for t in tensors[:-1]])

    def bwd(g, acc):
        for t, part in zip(tensors, np.split(g, bounds, axis=axis)):
            acc(t, part)

    record(out, bwd)
    return out

