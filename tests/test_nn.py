"""Layer arithmetic: the cache-free inference pass against the training pass."""

import numpy as np
import pytest
from oracles import mlp_predict

from roadcache import nn
from roadcache.rng import substream

CACHES = ("_x", "_mask")


def cached(net):
    """Names of the activation caches some layer of ``net`` still holds."""
    return [name for layer in net.layers for name in CACHES
            if getattr(layer, name, None) is not None]


def net_and_input(stacked):
    rng = substream(0, "nn", "parity", stacked)
    nets = [nn.mlp([6, 9, 5], rng) for _ in range(3)]
    for net in nets:
        for layer in net.layers[::2]:
            layer.b = rng.normal(size=layer.b.shape)
    x = rng.normal(scale=3.0, size=(3, 7, 6))
    # exact zeros for Relu's boundary, negative values, and large inputs
    x[:, 0] = 0.0
    x[:, 1] *= 400.0
    assert np.any(x < 0)
    if stacked:
        return nn.stack(nets), x
    return nets[0], x[0]


@pytest.mark.parametrize("stacked", [False, True], ids=["2d", "stacked"])
class TestPredict:
    def test_each_layer_apply_equals_forward(self, stacked):
        net, x = net_and_input(stacked)
        kinds = set()
        for layer in net.layers:
            kinds.add(type(layer))
            y = layer.forward(x)
            assert layer.apply(x).tobytes() == y.tobytes()
            x = y
        assert kinds == {nn.Dense, nn.Relu}

    def test_predict_equals_forward(self, stacked):
        net, x = net_and_input(stacked)
        inferred = net.predict(x)
        assert cached(net) == []
        trained = net.forward(x)
        assert inferred.shape == trained.shape
        assert inferred.tobytes() == trained.tobytes()
        assert sorted(set(cached(net))) == ["_mask", "_x"]

    def test_predict_and_forward_equal_first_formulas(self, stacked):
        # One zero-bias net too: a Relu zero reaches the next Dense unbiased.
        net, x = net_and_input(stacked)
        bare, _ = net_and_input(stacked)
        for layer in bare.layers[::2]:
            layer.b[...] = 0.0
        for each in (net, bare):
            want = mlp_predict(each, x).tobytes()
            assert each.predict(x).tobytes() == want
            assert each.forward(x).tobytes() == want


def test_slice_is_a_view_that_predicts_its_rows():
    net, x = net_and_input(stacked=True)
    part = net.slice(1, 3)
    assert part.predict(x[1:3]).tobytes() == net.predict(x)[1:3].tobytes()
    for mine, whole in zip(part.layers[::2], net.layers[::2]):
        assert mine.w.shape[0] == 2 and mine.dw is None
        assert np.shares_memory(mine.w, whole.w) and np.shares_memory(mine._vw, whole._vw)


@pytest.mark.parametrize("stacked", [False, True], ids=["2d", "stacked"])
def test_backward_without_input_grad(stacked):
    """A network's backward skips only the input gradient.

    Its parameter gradients are those that chaining every layer's own
    backward, the first layer's input gradient included, leaves.
    """
    net, x = net_and_input(stacked)
    grad = substream(3, "nn", "grad").normal(size=net.forward(x).shape)
    full = grad
    for layer in reversed(net.layers):
        full = layer.backward(full)
    want = net.flat_grads().tobytes()
    assert full.shape == x.shape
    net.forward(x)
    assert net.backward(grad) is None
    assert net.flat_grads().tobytes() == want


def test_built_dense_layers_match_init():
    """Views and stacks make Dense layers with exactly __init__'s fields, and no gradients."""
    rng = substream(0, "nn", "builder")
    fields = set(vars(nn.Dense(2, 3, rng)))
    nets = [nn.mlp([4, 6, 3], rng) for _ in range(2)]
    for net in nets:
        net.forward(rng.normal(size=(5, 4)))
        net.backward(np.ones((5, 3)))
    stacked = nn.stack(nets)
    built = [stacked, stacked.slice(0, 1)]
    for net in built:
        assert len(net.dense) == 2
        for layer in net.dense:
            assert set(vars(layer)) == fields
            assert layer.dw is None and layer.db is None and layer._x is None


def test_unstack_equals_networks_trained_alone():
    """A trained stack, unstacked, leaves each network as training it alone would.

    The reference never goes through a stack: each network trains on its
    own 2-D inputs with ``Mlp.forward``, ``backward`` and ``step``.
    """
    def build():
        rng = substream(0, "nn", "unstack")
        return [nn.mlp([5, 7, 3], rng) for _ in range(3)], rng

    nets, rng = build()
    alone, _ = build()
    x = rng.normal(size=(3, 6, 5))
    target = rng.uniform(size=(3, 6, 3))
    stacked = nn.stack(nets)
    for _ in range(4):
        stacked.backward(stacked.forward(x) - target)
        stacked.step(0.5, momentum=0.9)
    nn.unstack(stacked, nets)
    for net, ref, own_x, own_target in zip(nets, alone, x, target):
        for _ in range(4):
            ref.backward(ref.forward(own_x) - own_target)
            ref.step(0.5, momentum=0.9)
        for mine, theirs in zip(net.dense, ref.dense, strict=True):
            for name in ("w", "b", "_vw", "_vb"):
                assert getattr(mine, name).tobytes() == getattr(theirs, name).tobytes(), name
