"""Tiny fully connected networks with hand-written backprop.

Everything is float64 numpy.  Each layer writes its arithmetic once, in
``apply``, which stores nothing and makes one new array: Dense adds its
bias into the matmul's output.  Relu is ``max(x, 0)``: it gives +0.0
where ``x * (x > 0)`` gives -0.0, and the next Dense's sums come out the
same either way (the tests compare the two).  ``forward`` is the training
pass: it keeps what backward needs on the layer and then calls
``apply``; backward leaves parameter gradients on the layer (the first
layer's input gradient only on request), and step applies SGD with
optional momentum.  A new layer holds no gradients: the first backward
makes them.
``Mlp.predict`` chains the ``apply`` calls, so sampling holds no
activations once it returns, and gives byte for byte what ``forward``
gives.  Keeping the gradients explicit is what lets the test suite
compare every analytic derivative against central finite differences.

A Dense layer works on (rows, in) inputs with (in, out) weights, or on a
stack of V such networks: (V, rows, in) inputs with (V, in, out) weights.
Each slice of a stacked product is computed exactly as the 2-D product
of that slice, so ``stack``/``unstack`` let V independent networks train
in one call with the same arithmetic as V separate calls.  A network's
state is its Dense layers' weights, biases and momentum (``Mlp.dense``;
activations hold no parameters).  Only that state moves in and out of a
stack: gradients and activations live on the stack alone.  Copies,
stacks and ``Mlp.slice`` views (which share a run of a stack's slices)
all come from one builder, ``_build``, which differs between them only
in where each Dense's state comes from.
"""

from __future__ import annotations

import numpy as np

# Per-layer arrays that travel with a network when it is stacked.
_DENSE_STATE = ("w", "b", "_vw", "_vb")


class Dense:
    def __init__(self, n_in: int, n_out: int, rng: np.random.Generator):
        limit = np.sqrt(6.0 / (n_in + n_out))
        self.w = rng.uniform(-limit, limit, size=(n_in, n_out))
        self.b = np.zeros(n_out)
        self.dw: np.ndarray | None = None   # set by backward
        self.db: np.ndarray | None = None
        self._vw = np.zeros_like(self.w)
        self._vb = np.zeros_like(self.b)
        self._x: np.ndarray | None = None

    def apply(self, x: np.ndarray) -> np.ndarray:
        y = x @ self.w
        y += self.b[..., None, :]
        return y

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        return self.apply(x)

    def backward(self, grad_y: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        self.dw = np.swapaxes(self._x, -1, -2) @ grad_y
        self.db = grad_y.sum(axis=-2)
        return grad_y @ np.swapaxes(self.w, -1, -2) if input_grad else None

    def step(self, lr: float, momentum: float = 0.0) -> None:
        self._vw *= momentum
        self._vw += self.dw
        self._vb *= momentum
        self._vb += self.db
        self.w -= lr * self._vw
        self.b -= lr * self._vb


class Relu:
    def __init__(self):
        self._mask = None

    def apply(self, x):
        return np.maximum(x, 0.0)

    def forward(self, x):
        self._mask = x > 0
        return self.apply(x)

    def backward(self, grad_y):
        return grad_y * self._mask


class Mlp:
    def __init__(self, layers: list):
        self.layers = layers
        self.dense = [layer for layer in layers if isinstance(layer, Dense)]

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def predict(self, x: np.ndarray) -> np.ndarray:
        """The forward result without keeping anything for backward."""
        for layer in self.layers:
            x = layer.apply(x)
        return x

    def backward(self, grad_y: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        """Leave gradients on every layer; return the input gradient (None without ``input_grad``).

        The first layer is a Dense in every network ``mlp`` builds; without
        ``input_grad`` it skips the product only a caller upstream would read.
        """
        *later, first = reversed(self.layers)
        for layer in later:
            grad_y = layer.backward(grad_y)
        return first.backward(grad_y, input_grad=input_grad)

    def step(self, lr: float, momentum: float = 0.0) -> None:
        for layer in self.dense:
            layer.step(lr, momentum)

    def params(self):
        """Every Dense's weights and bias, in layer order: [w0, b0, w1, b1, ...]."""
        return [array for layer in self.dense for array in (layer.w, layer.b)]

    def grads(self):
        return [array for layer in self.dense for array in (layer.dw, layer.db)]

    def flat_params(self) -> np.ndarray:
        return np.concatenate([p.ravel() for p in self.params()])

    def set_flat_params(self, vec: np.ndarray) -> None:
        at = 0
        for p in self.params():
            p[...] = vec[at:at + p.size].reshape(p.shape)
            at += p.size
        if at != vec.size:
            raise ValueError(f"parameter vector length {vec.size}, expected {at}")

    def flat_grads(self) -> np.ndarray:
        return np.concatenate([g.ravel() for g in self.grads()])

    def copy(self, training: bool = True) -> "Mlp":
        """An independent network with the same weights and biases.

        With ``training`` it carries the momentum too; without, it holds
        nothing else, so it predicts but cannot train.  No gradients or
        activations are carried over, so a copy costs the parameters, not
        the last batch the source saw.
        """
        names = _DENSE_STATE if training else ("w", "b")
        return _build(self, lambda i, name: getattr(self.dense[i], name).copy()
                      if name in names else None)

    def slice(self, lo: int, hi: int) -> "Mlp":
        """Slices ``lo:hi`` of a stacked network, as a stacked network that shares their state.

        Training or predicting with the view reads and writes the stack's
        own weights, biases and momentum; it starts with no gradients or
        activations.
        """
        return _build(self, lambda i, name: getattr(self.dense[i], name)[lo:hi])

    def clear(self) -> None:
        """Drop the gradients and activations the last forward and backward left."""
        for layer in self.layers:
            for name in ("dw", "db", "_x", "_mask"):
                if hasattr(layer, name):
                    setattr(layer, name, None)

    def load(self, source: "Mlp") -> None:
        """Overwrite this network's weights, biases and momentum with source's, in place.

        Both networks must have the same shapes.  Gradients and activations
        are left as they are: the next training step's forward and backward
        replace them before anything reads them.
        """
        for mine, theirs in zip(self.dense, source.dense, strict=True):
            for name in _DENSE_STATE:
                np.copyto(getattr(mine, name), getattr(theirs, name))

    def param_count(self) -> int:
        return int(sum(p.size for p in self.params()))


def stack(nets: list[Mlp]) -> Mlp:
    """One network holding V same-shaped networks along a leading axis.

    Weights, biases and momentum are stacked, so training the stack and
    then calling ``unstack`` leaves each network's state exactly as
    training it alone would.  The stack starts with no gradients; its
    backward makes them, and they go with it.
    """
    return _build(nets[0], lambda i, name: np.stack([getattr(net.dense[i], name) for net in nets]))


def unstack(stacked: Mlp, nets: list[Mlp], *, grads: bool = False) -> None:
    """Copy each slice's weights, biases and momentum back into its own network, in place.

    With ``grads`` each network also takes (as a view) its slice of the
    gradients the stack's last backward left, if it ran one.
    """
    for i, layer in enumerate(stacked.dense):
        for v, net in enumerate(nets):
            mine = net.dense[i]
            for name in _DENSE_STATE:
                np.copyto(getattr(mine, name), getattr(layer, name)[v])
            if grads and layer.dw is not None:
                mine.dw, mine.db = layer.dw[v], layer.db[v]


def _build(like: Mlp, state) -> Mlp:
    """Fresh layers shaped like ``like``; the one place a Dense is made without ``__init__``.

    Dense ``i`` holds ``state(i, name)`` for each name in ``_DENSE_STATE``
    (None where ``like``'s is None) and no gradients or activations.
    """
    layers: list = []
    for layer in like.layers:
        if isinstance(layer, Dense):
            i = like.dense.index(layer)
            twin = Dense.__new__(Dense)
            for name in _DENSE_STATE:
                setattr(twin, name, None if getattr(layer, name) is None else state(i, name))
            twin.dw = twin.db = twin._x = None
        else:
            twin = type(layer)()
        layers.append(twin)
    return Mlp(layers)


def mlp(sizes: list[int], rng: np.random.Generator, *, hidden_act=Relu) -> Mlp:
    """Build Dense/activation stacks like [K, 100, 16] in one call."""
    layers: list = []
    for i in range(len(sizes) - 1):
        layers.append(Dense(sizes[i], sizes[i + 1], rng))
        if i < len(sizes) - 2:
            layers.append(hidden_act())
    return Mlp(layers)
