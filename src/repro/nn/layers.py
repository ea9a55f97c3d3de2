"""Core layers: Linear, Embedding, LayerNorm, Dropout, Sequential, MLP."""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

import numpy as np

from . import init
from .functional import dropout as dropout_fn
from .module import Module, Parameter
from .tensor import Tensor, grad_enabled


class Linear(Module):
    """Affine map ``y = x W + b``."""

    def __init__(self, in_features: int, out_features: int,
                 rng: np.random.Generator, bias: bool = True):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.xavier_uniform(rng, in_features, out_features))
        self.bias = Parameter(init.zeros(out_features)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out


class Embedding(Module):
    """Token embedding table with sparse-style gradient accumulation."""

    def __init__(self, num_embeddings: int, dim: int, rng: np.random.Generator,
                 padding_idx: Optional[int] = None):
        super().__init__()
        self.num_embeddings = num_embeddings
        self.dim = dim
        self.padding_idx = padding_idx
        self.weight = Parameter(init.normal(rng, (num_embeddings, dim)))
        if padding_idx is not None:
            self.weight.data[padding_idx] = 0.0

    def forward(self, indices: np.ndarray) -> Tensor:
        indices = np.asarray(indices, dtype=np.int64)
        if indices.min() < 0 or indices.max() >= self.num_embeddings:
            raise IndexError(
                f"token id out of range [0, {self.num_embeddings}) "
                f"(got min={indices.min()}, max={indices.max()})")
        weight = self.weight
        data = weight.data[indices]

        def backward(grad: np.ndarray) -> None:
            full = np.zeros_like(weight.data)
            np.add.at(full, indices.reshape(-1),
                      grad.reshape(-1, weight.data.shape[1]))
            if self.padding_idx is not None:
                full[self.padding_idx] = 0.0
            weight._accumulate(full)

        out = Tensor(data)
        if weight.requires_grad and grad_enabled():
            out.requires_grad = True
            out._parents = (weight,)
            out._backward = backward
        return out


class LayerNorm(Module):
    """Layer normalization over the last dimension."""

    def __init__(self, dim: int, eps: float = 1e-5):
        super().__init__()
        self.dim = dim
        self.eps = eps
        self.gamma = Parameter(init.ones(dim))
        self.beta = Parameter(init.zeros(dim))

    def forward(self, x: Tensor) -> Tensor:
        mean = x.mean(axis=-1, keepdims=True)
        centered = x - mean
        variance = (centered * centered).mean(axis=-1, keepdims=True)
        normalized = centered / (variance + self.eps).sqrt()
        return normalized * self.gamma + self.beta


class Dropout(Module):
    """Inverted dropout; a *structural* identity in eval mode.

    Eval (or zero-rate) forwards return the input tensor itself rather than
    dispatching through :func:`repro.nn.functional.dropout`, so inference
    graphs contain no dead op and ``module(x) is x`` holds.
    """

    def __init__(self, rate: float, rng: np.random.Generator):
        super().__init__()
        self.rate = rate
        self.rng = rng

    def forward(self, x: Tensor) -> Tensor:
        if not self.training or self.rate <= 0.0:
            return x
        return dropout_fn(x, self.rate, self.rng, self.training)


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *modules: Module):
        super().__init__()
        self.layers = list(modules)

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x


class Activation(Module):
    """Wraps an elementwise activation so it can sit inside Sequential."""

    _TABLE: dict = {
        "relu": lambda x: x.relu(),
        "tanh": lambda x: x.tanh(),
        "sigmoid": lambda x: x.sigmoid(),
        "leaky_relu": lambda x: x.leaky_relu(0.01),
    }

    def __init__(self, kind: str):
        super().__init__()
        if kind not in self._TABLE:
            raise ValueError(f"unknown activation {kind!r}; "
                             f"choose from {sorted(self._TABLE)}")
        self.kind = kind

    def forward(self, x: Tensor) -> Tensor:
        return self._TABLE[self.kind](x)


def mlp(sizes: Sequence[int], rng: np.random.Generator,
        activation: str = "relu", final_activation: Optional[str] = None,
        dropout: float = 0.0) -> Sequential:
    """Build a fully connected stack ``sizes[0] -> ... -> sizes[-1]``.

    This is the shape used both for the Matcher (one hidden layer + softmax
    head, following Ditto) and for the adversarial domain classifiers (three
    LeakyReLU layers + sigmoid for InvGAN, per §6.1).
    """
    if len(sizes) < 2:
        raise ValueError("mlp needs at least an input and an output size")
    layers: List[Module] = []
    for i, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
        layers.append(Linear(fan_in, fan_out, rng))
        is_last = i == len(sizes) - 2
        if not is_last:
            layers.append(Activation(activation))
            if dropout > 0:
                layers.append(Dropout(dropout, rng))
        elif final_activation is not None:
            layers.append(Activation(final_activation))
    return Sequential(*layers)
