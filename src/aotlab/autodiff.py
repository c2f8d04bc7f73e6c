"""Dense tensors with tape-based reverse-mode automatic differentiation.

The design is deliberately small: a ``Tensor`` wraps a numpy array, and every
differentiable primitive is a forward value plus a backward rule, handed to
``node``.  ``node`` alone decides whether the output joins the currently
active ``Tape`` as the node ``(output, backward_fn)``.  Execution order is a
topological order of the graph, so replaying the node list in reverse
propagates gradients correctly.

Tensors hold real floating-point arrays only; a complex array raises
``ShapeError``.  Complex arithmetic, as in the Fourier mixer, is written
out by the caller in real arithmetic.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ShapeError

_tapes: list = []  # the open tapes, innermost last


def active_tape():
    """The innermost open Tape, or None."""
    return _tapes[-1] if _tapes else None


class Tape:
    """Ordered record of primitive operations for one forward pass.

    Single-owner and single-threaded: the stack of open tapes is one per
    process, so no tape may be open while another thread runs a forward
    pass.
    """

    def __init__(self):
        self._nodes = []

    def __enter__(self) -> "Tape":
        _tapes.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        if active_tape() is not self:
            raise RuntimeError("tape stack corrupted: exiting a tape that is not innermost")
        _tapes.pop()
        return False

    def __len__(self) -> int:
        return len(self._nodes)

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
        # Per-pass gradient store, keyed by the tensor itself: Tensor
        # defines no __eq__, so it hashes by identity.
        store = {root: np.ones_like(root.data)}

        def accumulate(t: "Tensor", g: np.ndarray) -> None:
            if not t.requires_grad:
                return
            g = _unbroadcast(g, t.data.shape)
            held = store.get(t)
            if held is not None:
                store[t] = held + g
            elif g.dtype == t.data.dtype and g.flags.c_contiguous:
                # no backward writes into an array it is given, so a
                # C-ordered gradient is kept as is; any other is copied in
                # its stride order, which fixes the order of later sums
                store[t] = g
            else:
                store[t] = g.astype(t.data.dtype, copy=True)

        for out, backward_fn in reversed(self._nodes):
            g = store.pop(out, None)
            if g is not None:
                backward_fn(g, accumulate)

        for t, g in store.items():
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
    active_tape()._nodes.append((out, backward_fn))


def tracking(*tensors: "Tensor") -> bool:
    return active_tape() is not None and any(t.requires_grad for t in tensors)


def node(value, backward_fn, *inputs: "Tensor") -> "Tensor":
    """Wrap ``value``, the forward result of one primitive over ``inputs``.
    It requires grad, and joins the open tape with ``backward_fn(g, acc)``,
    exactly when a tape is open and some input requires grad."""
    out = Tensor(value, requires_grad=tracking(*inputs))
    if out.requires_grad:
        record(out, backward_fn)  # a module global, so a tracer can replace it
    return out


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

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)


class Module:
    """Base of every layer that holds tensors; names them by attribute.

    ``named(prefix)`` walks the instance attributes in the order they were
    first assigned: a ``Tensor`` is named ``prefix.attr`` (``attr`` when
    the prefix is empty), a ``Module`` contributes its own names under
    that name, item ``i`` of a list of modules under ``name.i``, and every
    other attribute is skipped.  Assignment order is name order, and name
    order is the checkpoint's block order, the optimizer state's and the
    order of the clip-norm sum.  ``Module(**children)`` is a plain
    container holding ``children`` as attributes, in keyword order.
    """

    def __init__(self, **children):
        vars(self).update(children)

    def named(self, prefix: str = "") -> dict:
        out = {}
        for attr, value in vars(self).items():
            name = f"{prefix}.{attr}" if prefix else attr
            if isinstance(value, Tensor):
                out[name] = value
            elif isinstance(value, Module):
                out.update(value.named(name))
            elif isinstance(value, list):
                for i, item in enumerate(value):
                    out.update(item.named(f"{name}.{i}"))
        return out


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

def _binary(fn, a, b, grads) -> Tensor:
    """Record ``fn(a, b)`` for a numpy ufunc ``fn``.  ``grads(g, ad, bd)``
    returns the gradients of both operands from the output gradient ``g``
    and the operand arrays."""
    a, b = _binary_operands(a, b)
    try:
        data = fn(a.data, b.data)
    except ValueError as exc:
        raise ShapeError(
            f"{fn.__name__}: shapes {a.shape} and {b.shape} are not broadcast-compatible"
        ) from exc
    ad, bd = a.data, b.data

    def bwd(g, acc):
        ga, gb = grads(g, ad, bd)
        acc(a, ga)
        acc(b, gb)

    return node(data, bwd, a, b)


def add(a, b) -> Tensor:
    return _binary(np.add, a, b, lambda g, ad, bd: (g, g))


def sub(a, b) -> Tensor:
    return _binary(np.subtract, a, b, lambda g, ad, bd: (g, -g))


def mul(a, b) -> Tensor:
    return _binary(np.multiply, a, b, lambda g, ad, bd: (g * bd, g * ad))


def div(a, b) -> Tensor:
    return _binary(np.divide, a, b, lambda g, ad, bd: (g / bd, -g * ad / (bd * bd)))


# ---------------------------------------------------------------------
# unary elementwise primitives
# ---------------------------------------------------------------------

def _unary(a: Tensor, value: np.ndarray, deriv) -> Tensor:
    """Record ``value``, an elementwise function of ``a``.  ``deriv()``
    returns its derivative at ``a``; only the backward calls it, so a
    forward with no tape never computes it."""
    return node(value, lambda g, acc: acc(a, g * deriv()), a)


def neg(a) -> Tensor:
    a = as_tensor(a)
    return _unary(a, -a.data, lambda: -1)


def exp(a) -> Tensor:
    a = as_tensor(a)
    value = np.exp(a.data)
    return _unary(a, value, lambda: value)


def logistic(x: np.ndarray) -> np.ndarray:
    """Numerically stable 1 / (1 + exp(-x)) of an array."""
    value = np.empty_like(x)
    pos = x >= 0
    value[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    value[~pos] = e / (1.0 + e)
    return value


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    value = logistic(a.data)
    return _unary(a, value, lambda: value * (1.0 - value))


def relu(a) -> Tensor:
    a = as_tensor(a)
    x = a.data
    return _unary(a, np.maximum(x, 0.0), lambda: (x > 0).astype(x.dtype))


def rsqrt(a) -> Tensor:
    a = as_tensor(a)
    x = a.data
    value = 1.0 / np.sqrt(x)
    return _unary(a, value, lambda: -0.5 * value / x)


def cos(a) -> Tensor:
    a = as_tensor(a)
    x = a.data
    return _unary(a, np.cos(x), lambda: -np.sin(x))


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(a) -> Tensor:
    """tanh-approximation GELU (the variant used throughout this package)."""
    a = as_tensor(a)
    x = a.data
    inner = _GELU_C * (x + 0.044715 * (x * x * x))
    t = np.tanh(inner)
    value = 0.5 * x * (1.0 + t)
    return _unary(a, value, lambda: 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t)
                  * _GELU_C * (1.0 + 3 * 0.044715 * (x * x)))


# ---------------------------------------------------------------------
# matrix products
# ---------------------------------------------------------------------

def matmul(a, b) -> Tensor:
    """Matrix product of two 2-D operands (m x k) @ (k x p), or of two
    batches (B x m x k) @ (B x k x p)."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim != b.ndim or a.ndim not in (2, 3):
        raise ShapeError(f"matmul expects two 2-D or two 3-D operands, "
                         f"got {a.shape} and {b.shape}")
    if a.shape[:-2] != b.shape[:-2] or a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul shapes incompatible: {a.shape} vs {b.shape}")
    ad, bd = a.data, b.data

    def bwd(g, acc):
        acc(a, g @ bd.swapaxes(-1, -2))
        acc(b, ad.swapaxes(-1, -2) @ g)

    return node(ad @ bd, bwd, a, b)


# ---------------------------------------------------------------------
# reductions and shape operations
# ---------------------------------------------------------------------

def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    in_shape = a.data.shape

    def bwd(g, acc):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        acc(a, np.broadcast_to(g, in_shape))

    return node(a.data.sum(axis=axis, keepdims=keepdims), bwd, a)


def tmean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    total = tsum(a, axis=axis, keepdims=keepdims)
    return total * (1.0 / (a.size // total.size))


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    in_shape = a.data.shape
    return node(a.data.reshape(shape), lambda g, acc: acc(a, g.reshape(in_shape)), a)


def transpose(a, axes) -> Tensor:
    a = as_tensor(a)
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))
    return node(a.data.transpose(axes), lambda g, acc: acc(a, g.transpose(inverse)), a)


def broadcast_to(a, shape) -> Tensor:
    a = as_tensor(a)
    shape = tuple(shape)
    try:
        data = np.broadcast_to(a.data, shape)
    except ValueError as exc:
        raise ShapeError(f"cannot broadcast {a.shape} to {shape}") from exc
    # the gradient passes through whole: accumulate() unbroadcasts it
    return node(data.copy(), lambda g, acc: acc(a, g), a)


def concat(tensors, axis: int) -> Tensor:
    """Join tensors along ``axis``; the backward splits the gradient at
    the input boundaries."""
    tensors = [as_tensor(t) for t in tensors]
    try:
        data = np.concatenate([t.data for t in tensors], axis=axis)
    except ValueError as exc:
        shapes = [t.shape for t in tensors]
        raise ShapeError(f"cannot concatenate shapes {shapes} along axis {axis}") from exc
    bounds = np.cumsum([t.shape[axis] for t in tensors[:-1]])

    def bwd(g, acc):
        for t, part in zip(tensors, np.split(g, bounds, axis=axis)):
            acc(t, part)

    return node(data, bwd, *tensors)

