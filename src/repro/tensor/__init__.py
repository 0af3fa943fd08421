"""NumPy-based autograd substrate used by every model in the library.

The subpackage replaces the PyTorch dependency of the original DyHSL
implementation with a small reverse-mode automatic-differentiation engine:

* :class:`repro.tensor.Tensor` — array wrapper with gradient tracking.
* :mod:`repro.tensor.kernels` — raw ndarray kernels shared by the autograd
  engine and the graph-free inference runtime (:mod:`repro.runtime`).
* :mod:`repro.tensor.gradients` — every op's backward, shared by autograd
  and the compiled training tape.
* :mod:`repro.tensor.ops` — structural operations (concatenate, stack, pad…).
* :mod:`repro.tensor.functional` — activations, dropout and loss primitives.
* :mod:`repro.tensor.init` — weight initialisers.
* :mod:`repro.tensor.random` — seed management for reproducible runs.
"""

from . import functional, gradients, init, kernels, ops, random
from .ops import concatenate, layer_norm, one_hot, pad, split, stack, unfold_windows, where
from .random import fork_rng, get_rng, seed
from .tensor import Tensor, is_grad_enabled, no_grad

__all__ = [
    "Tensor",
    "no_grad",
    "is_grad_enabled",
    "layer_norm",
    "kernels",
    "concatenate",
    "stack",
    "split",
    "pad",
    "where",
    "one_hot",
    "unfold_windows",
    "seed",
    "get_rng",
    "fork_rng",
    "functional",
    "gradients",
    "ops",
    "init",
    "random",
]
