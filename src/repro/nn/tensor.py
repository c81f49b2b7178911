"""A small reverse-mode automatic differentiation engine on top of NumPy.

The paper trains its models with PyTorch; this module is the offline substitute.
It provides a :class:`Tensor` that records a computation tape and can back-propagate
gradients through the operations needed by the trajectory encoders and the LH-plugin
(matrix products, element-wise arithmetic, activations, hyperbolic functions,
reductions, indexing, concatenation).

The implementation is define-by-run: every operation returns a new ``Tensor`` whose
``_backward`` closure knows how to push its output gradient onto its parents.
Broadcasting follows NumPy semantics; gradients of broadcast operands are summed back
to the operand's original shape.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Tensor", "as_tensor", "no_grad", "is_grad_enabled"]

_GRAD_ENABLED = True


class no_grad:
    """Context manager that disables gradient tracking (mirrors ``torch.no_grad``)."""

    def __enter__(self):
        global _GRAD_ENABLED
        self._previous = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, exc_type, exc, tb):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._previous
        return False


def is_grad_enabled() -> bool:
    """Return whether operations currently record gradients."""
    return _GRAD_ENABLED


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing NumPy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum over leading dimensions that were added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were size-1 in the original shape.
    axes = tuple(i for i, size in enumerate(shape) if size == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A NumPy-backed tensor with reverse-mode autograd.

    Parameters
    ----------
    data:
        Array-like payload; stored as ``float64`` unless already a float array.
    requires_grad:
        Whether gradients should be accumulated for this tensor.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_prev", "name",
                 "__weakref__")

    def __init__(self, data, requires_grad: bool = False, _prev=(), name: str = ""):
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=np.float64)
        # A leaf keeps the flag it was given, even under ``no_grad``: a
        # parameter built there must still train.  Only op outputs
        # (:meth:`_make`) consult the grad mode.
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._backward = None
        # Parents are kept only on nodes that back-propagate, so an op output
        # that does not require grad pins none of its inputs.
        self._prev = tuple(_prev) if self.requires_grad else ()
        self.name = name

    # ------------------------------------------------------------------ utils
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
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying NumPy array (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but outside the autograd graph."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    # --------------------------------------------------------------- plumbing
    @staticmethod
    def _make(data, parents, backward, requires_grad):
        out = Tensor(data, requires_grad=requires_grad and _GRAD_ENABLED, _prev=parents)
        if out.requires_grad:
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad = self.grad + grad

    def backward(self, grad=None) -> None:
        """Back-propagate from this tensor through the recorded tape."""
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar outputs")
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=np.float64)

        # Topological order of the graph reachable from self.
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._prev:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # ------------------------------------------------------------- arithmetic
    def __add__(self, other):
        other = as_tensor(other)
        requires = self.requires_grad or other.requires_grad
        out_data = self.data + other.data

        def backward(grad):
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad, other.shape))

        return self._make(out_data, (self, other), backward, requires)

    __radd__ = __add__

    def __neg__(self):
        def backward(grad):
            if self.requires_grad:
                self._accumulate(-grad)

        return self._make(-self.data, (self,), backward, self.requires_grad)

    def __sub__(self, other):
        return self + (-as_tensor(other))

    def __rsub__(self, other):
        return as_tensor(other) + (-self)

    def __mul__(self, other):
        other = as_tensor(other)
        requires = self.requires_grad or other.requires_grad
        out_data = self.data * other.data

        def backward(grad):
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad * other.data, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad * self.data, other.shape))

        return self._make(out_data, (self, other), backward, requires)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = as_tensor(other)
        requires = self.requires_grad or other.requires_grad
        out_data = self.data / other.data

        def backward(grad):
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad / other.data, self.shape))
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(-grad * self.data / (other.data ** 2), other.shape)
                )

        return self._make(out_data, (self, other), backward, requires)

    def __rtruediv__(self, other):
        return as_tensor(other) / self

    def __pow__(self, exponent: float):
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data ** exponent

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return self._make(out_data, (self,), backward, self.requires_grad)

    def __matmul__(self, other):
        other = as_tensor(other)
        requires = self.requires_grad or other.requires_grad
        out_data = self.data @ other.data

        def backward(grad):
            if self.requires_grad:
                if other.data.ndim == 1:
                    if self.data.ndim == 1:
                        self._accumulate(grad * other.data)
                    else:
                        self._accumulate(np.outer(grad, other.data).reshape(self.shape))
                else:
                    grad_self = grad @ np.swapaxes(other.data, -1, -2)
                    self._accumulate(_unbroadcast(grad_self, self.shape))
            if other.requires_grad:
                if self.data.ndim == 1:
                    if other.data.ndim == 1:
                        other._accumulate(grad * self.data)
                    else:
                        other._accumulate(np.outer(self.data, grad).reshape(other.shape))
                else:
                    grad_other = np.swapaxes(self.data, -1, -2) @ grad
                    other._accumulate(_unbroadcast(grad_other, other.shape))

        return self._make(out_data, (self, other), backward, requires)

    # ------------------------------------------------------------ activations
    def exp(self):
        out_data = np.exp(self.data)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * out_data)

        return self._make(out_data, (self,), backward, self.requires_grad)

    def log(self):
        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad / self.data)

        return self._make(np.log(self.data), (self,), backward, self.requires_grad)

    def sqrt(self):
        out_data = np.sqrt(self.data)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * 0.5 / np.maximum(out_data, 1e-12))

        return self._make(out_data, (self,), backward, self.requires_grad)

    def tanh(self):
        out_data = np.tanh(self.data)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * (1.0 - out_data ** 2))

        return self._make(out_data, (self,), backward, self.requires_grad)

    def sigmoid(self):
        out_data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * out_data * (1.0 - out_data))

        return self._make(out_data, (self,), backward, self.requires_grad)

    def relu(self):
        mask = self.data > 0

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * mask)

        return self._make(self.data * mask, (self,), backward, self.requires_grad)

    def softplus(self):
        out_data = np.logaddexp(0.0, self.data)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad / (1.0 + np.exp(-self.data)))

        return self._make(out_data, (self,), backward, self.requires_grad)

    def cosh(self):
        out_data = np.cosh(self.data)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * np.sinh(self.data))

        return self._make(out_data, (self,), backward, self.requires_grad)

    def sinh(self):
        out_data = np.sinh(self.data)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * np.cosh(self.data))

        return self._make(out_data, (self,), backward, self.requires_grad)

    def abs(self):
        sign = np.sign(self.data)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * sign)

        return self._make(np.abs(self.data), (self,), backward, self.requires_grad)

    def clip(self, low: float, high: float):
        mask = (self.data >= low) & (self.data <= high)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * mask)

        return self._make(np.clip(self.data, low, high), (self,), backward, self.requires_grad)

    # -------------------------------------------------------------- reductions
    def sum(self, axis=None, keepdims: bool = False):
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad):
            if not self.requires_grad:
                return
            grad = np.asarray(grad)
            if axis is None:
                expanded = np.broadcast_to(grad, self.shape)
            else:
                if not keepdims:
                    grad = np.expand_dims(grad, axis)
                expanded = np.broadcast_to(grad, self.shape)
            self._accumulate(expanded.copy())

        return self._make(out_data, (self,), backward, self.requires_grad)

    def mean(self, axis=None, keepdims: bool = False):
        if axis is None:
            count = self.data.size
        elif isinstance(axis, tuple):
            count = int(np.prod([self.shape[a] for a in axis]))
        else:
            count = self.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) / count

    def max(self, axis=None, keepdims: bool = False):
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad):
            if not self.requires_grad:
                return
            grad = np.asarray(grad)
            if axis is None:
                mask = self.data == out_data
                self._accumulate(grad * mask / mask.sum())
            else:
                expanded_out = out_data if keepdims else np.expand_dims(out_data, axis)
                expanded_grad = grad if keepdims else np.expand_dims(grad, axis)
                mask = self.data == expanded_out
                counts = mask.sum(axis=axis, keepdims=True)
                self._accumulate(expanded_grad * mask / counts)

        return self._make(out_data, (self,), backward, self.requires_grad)

    def norm(self, axis=None, keepdims: bool = False, eps: float = 1e-12):
        """Euclidean (L2) norm along ``axis`` with a numerically safe gradient."""
        squared = (self * self).sum(axis=axis, keepdims=keepdims)
        return (squared + eps).sqrt()

    # -------------------------------------------------------------- reshaping
    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.shape

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad.reshape(original))

        return self._make(self.data.reshape(shape), (self,), backward, self.requires_grad)

    def transpose(self, *axes):
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        inverse = np.argsort(axes)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad.transpose(inverse))

        return self._make(self.data.transpose(axes), (self,), backward, self.requires_grad)

    @property
    def T(self):
        return self.transpose()

    def __getitem__(self, index):
        out_data = self.data[index]

        def backward(grad):
            if self.requires_grad:
                full = np.zeros_like(self.data)
                np.add.at(full, index, grad)
                self._accumulate(full)

        return self._make(out_data, (self,), backward, self.requires_grad)


def as_tensor(value) -> Tensor:
    """Coerce ``value`` to a :class:`Tensor` without copying existing tensors."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value)
