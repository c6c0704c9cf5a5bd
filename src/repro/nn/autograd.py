"""Reverse-mode automatic differentiation on numpy arrays.

This is the numerical substrate for the whole repository: PPO policies,
value functions, defense regularizers, and the IMAP mimic policy are all
trained through this tape-based autograd engine.  It intentionally covers
only the operations the reproduction needs, with exact gradients and full
numpy broadcasting support.
"""

from __future__ import annotations

import threading

import numpy as np

__all__ = ["Tensor", "as_tensor", "no_grad", "is_grad_enabled"]


class _GradMode(threading.local):
    """Per-thread count of open :class:`no_grad` scopes (like torch's TLS)."""

    def __init__(self):
        self.disabled = 0


_grad_mode = _GradMode()


class no_grad:
    """Context manager that disables graph construction (like torch.no_grad).

    Grad mode is thread-local, and each scope counts itself in and out
    rather than restoring a saved flag, so scopes that exit out of order
    (interleaved threads or coroutines) cannot leave it disabled.
    """

    def __enter__(self):
        _grad_mode.disabled += 1
        return self

    def __exit__(self, *exc):
        _grad_mode.disabled -= 1
        return False


def is_grad_enabled() -> bool:
    return _grad_mode.disabled == 0


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy array with an optional gradient tape entry."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")
    __array_priority__ = 100  # ensure ndarray + Tensor dispatches to Tensor

    def __init__(self, data, requires_grad: bool = False):
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad) and _grad_mode.disabled == 0
        self._backward = None
        self._parents: tuple = ()

    # ------------------------------------------------------------- structure

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        return f"Tensor({self.data!r}, requires_grad={self.requires_grad})"

    # With __slots__ there is no __dict__; pickle through an explicit
    # state that drops the gradient tape (closures aren't picklable, and
    # a tensor shipped to another process is detached by construction).
    def __getstate__(self):
        return {"data": self.data, "grad": self.grad,
                "requires_grad": self.requires_grad}

    def __setstate__(self, state) -> None:
        self.data = state["data"]
        self.grad = state.get("grad")
        self.requires_grad = bool(state.get("requires_grad", False))
        self._backward = None
        self._parents = ()

    def numpy(self) -> np.ndarray:
        """Return the underlying array (detached view)."""
        return self.data

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------- autograd

    @staticmethod
    def _make(data, parents, backward) -> "Tensor":
        out = Tensor(data)
        if _grad_mode.disabled == 0 and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        grad = _unbroadcast(np.asarray(grad, dtype=np.float64), self.data.shape)
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad = self.grad + grad

    def backward(self, grad=None) -> None:
        """Backpropagate from this tensor through the tape."""
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() without grad requires a scalar output")
            grad = np.ones_like(self.data)
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited or not node.requires_grad:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                stack.append((parent, False))
        self._accumulate(np.asarray(grad, dtype=np.float64))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # ------------------------------------------------------------ arithmetic

    def __add__(self, other):
        other = as_tensor(other)

        def backward(g):
            if self.requires_grad:
                self._accumulate(g)
            if other.requires_grad:
                other._accumulate(g)

        return Tensor._make(self.data + other.data, (self, other), backward)

    __radd__ = __add__

    def __mul__(self, other):
        other = as_tensor(other)

        def backward(g):
            if self.requires_grad:
                self._accumulate(g * other.data)
            if other.requires_grad:
                other._accumulate(g * self.data)

        return Tensor._make(self.data * other.data, (self, other), backward)

    __rmul__ = __mul__

    def __neg__(self):
        def backward(g):
            self._accumulate(-g)

        return Tensor._make(-self.data, (self,), backward)

    def __sub__(self, other):
        return self + (-as_tensor(other))

    def __rsub__(self, other):
        return as_tensor(other) + (-self)

    def __truediv__(self, other):
        other = as_tensor(other)

        def backward(g):
            if self.requires_grad:
                self._accumulate(g / other.data)
            if other.requires_grad:
                other._accumulate(-g * self.data / (other.data**2))

        return Tensor._make(self.data / other.data, (self, other), backward)

    def __rtruediv__(self, other):
        return as_tensor(other) / self

    def __pow__(self, exponent: float):
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")

        def backward(g):
            self._accumulate(g * exponent * self.data ** (exponent - 1))

        return Tensor._make(self.data**exponent, (self,), backward)

    def __matmul__(self, other):
        other = as_tensor(other)

        def backward(g):
            if self.requires_grad:
                if self.data.ndim == 1:
                    self._accumulate(g @ other.data.T)
                else:
                    self._accumulate(g @ np.swapaxes(other.data, -1, -2))
            if other.requires_grad:
                if self.data.ndim == 1:
                    other._accumulate(np.outer(self.data, g))
                else:
                    other._accumulate(np.swapaxes(self.data, -1, -2) @ g)

        return Tensor._make(self.data @ other.data, (self, other), backward)

    # ------------------------------------------------------------ comparisons
    # Comparisons return plain boolean arrays; they are not differentiable.

    def __gt__(self, other):
        return self.data > _raw(other)

    def __lt__(self, other):
        return self.data < _raw(other)

    def __ge__(self, other):
        return self.data >= _raw(other)

    def __le__(self, other):
        return self.data <= _raw(other)

    # --------------------------------------------------------------- slicing

    def __getitem__(self, index):
        def backward(g):
            full = np.zeros_like(self.data)
            np.add.at(full, index, g)
            self._accumulate(full)

        return Tensor._make(self.data[index], (self,), backward)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])

        def backward(g):
            self._accumulate(g.reshape(self.data.shape))

        return Tensor._make(self.data.reshape(shape), (self,), backward)

    @property
    def T(self):
        def backward(g):
            self._accumulate(g.T)

        return Tensor._make(self.data.T, (self,), backward)

    # ------------------------------------------------------------- reductions

    def sum(self, axis=None, keepdims: bool = False):
        def backward(g):
            grad = np.asarray(g)
            if axis is not None and not keepdims:
                grad = np.expand_dims(grad, axis)
            self._accumulate(np.broadcast_to(grad, self.data.shape))

        return Tensor._make(self.data.sum(axis=axis, keepdims=keepdims), (self,), backward)

    def mean(self, axis=None, keepdims: bool = False):
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None, keepdims: bool = False):
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(g):
            grad = np.asarray(g)
            expanded = out_data
            if axis is not None and not keepdims:
                grad = np.expand_dims(grad, axis)
                expanded = np.expand_dims(out_data, axis)
            mask = (self.data == expanded).astype(np.float64)
            mask /= np.maximum(mask.sum(axis=axis, keepdims=True), 1.0)
            self._accumulate(mask * grad)

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------- unary functions

    def exp(self):
        out_data = np.exp(self.data)

        def backward(g):
            self._accumulate(g * out_data)

        return Tensor._make(out_data, (self,), backward)

    def log(self):
        def backward(g):
            self._accumulate(g / self.data)

        return Tensor._make(np.log(self.data), (self,), backward)

    def tanh(self):
        out_data = np.tanh(self.data)

        def backward(g):
            self._accumulate(g * (1.0 - out_data**2))

        return Tensor._make(out_data, (self,), backward)

    def relu(self):
        def backward(g):
            self._accumulate(g * (self.data > 0))

        return Tensor._make(np.maximum(self.data, 0.0), (self,), backward)

    def sigmoid(self):
        out_data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(g):
            self._accumulate(g * out_data * (1.0 - out_data))

        return Tensor._make(out_data, (self,), backward)

    def sqrt(self):
        out_data = np.sqrt(self.data)

        def backward(g):
            self._accumulate(g * 0.5 / out_data)

        return Tensor._make(out_data, (self,), backward)

    def abs(self):
        def backward(g):
            self._accumulate(g * np.sign(self.data))

        return Tensor._make(np.abs(self.data), (self,), backward)

    def clip(self, low: float, high: float):
        """Clamp values; gradient is passed through only inside the interval."""
        inside = (self.data > low) & (self.data < high)

        def backward(g):
            self._accumulate(g * inside)

        return Tensor._make(np.clip(self.data, low, high), (self,), backward)


def as_tensor(value) -> Tensor:
    """Coerce a scalar/array/Tensor into a (non-grad) Tensor."""
    return value if isinstance(value, Tensor) else Tensor(value)


def _raw(value):
    return value.data if isinstance(value, Tensor) else value
