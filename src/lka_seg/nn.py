"""Module system: named parameter trees over the engine primitives.

Modules register parameters, numpy buffers (batch-norm running stats) and
child modules by attribute assignment, PyTorch-style. The execution mode
("train" or "eval") is passed explicitly through `forward` rather than
stored, so a model object is immutable during inference.

Every leaf module also implements `cost(in_shape, prefix)`, the static
side of the FLOP accounting (see `lka_seg.costs`); composites mirror
their forward dataflow there.
"""

from __future__ import annotations

import numpy as np

from . import engine as E
from . import costs


def kaiming_normal(rng, shape, fan_in):
    """Fan-in scaled normal init for conv weights."""
    return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape)


class Module:
    """Base class with attribute-driven registration."""

    def __init__(self):
        object.__setattr__(self, "_params", {})
        object.__setattr__(self, "_buffers", {})
        object.__setattr__(self, "_children", {})

    def __setattr__(self, name, value):
        if isinstance(value, E.Parameter):
            self._params[name] = value
        elif isinstance(value, Module):
            self._children[name] = value
        object.__setattr__(self, name, value)

    def register_buffer(self, name, array):
        self._buffers[name] = array
        object.__setattr__(self, name, array)

    def named_parameters(self, prefix=""):
        for name, p in self._params.items():
            yield (prefix + name if not prefix else f"{prefix}.{name}"), p
        for cname, child in self._children.items():
            sub = cname if not prefix else f"{prefix}.{cname}"
            yield from child.named_parameters(sub)

    def parameters(self):
        for _, p in self.named_parameters():
            yield p

    def named_buffers(self, prefix=""):
        for name, b in self._buffers.items():
            yield (prefix + name if not prefix else f"{prefix}.{name}"), b
        for cname, child in self._children.items():
            sub = cname if not prefix else f"{prefix}.{cname}"
            yield from child.named_buffers(sub)

    def forward(self, x, mode="eval"):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def cost(self, in_shape, prefix=""):
        raise NotImplementedError(f"{type(self).__name__} has no static cost model")


class ModuleList(Module):
    def __init__(self, mods):
        super().__init__()
        self._items = []
        for i, m in enumerate(mods):
            setattr(self, str(i), m)
            self._items.append(m)

    def __iter__(self):
        return iter(self._items)

    def __len__(self):
        return len(self._items)

    def __getitem__(self, i):
        return self._items[i]


class Sequential(ModuleList):
    def __init__(self, *mods):
        super().__init__(mods)

    def forward(self, x, mode="eval"):
        for m in self._items:
            x = m(x, mode)
        return x

    def cost(self, in_shape, prefix=""):
        records = []
        shape = in_shape
        for i, m in enumerate(self._items):
            sub = str(i) if not prefix else f"{prefix}.{i}"
            recs, shape = m.cost(shape, sub)
            records.extend(recs)
        return records, shape


class Conv2d(Module):
    """Grouped/strided/dilated 2-D convolution layer."""

    def __init__(self, cin, cout, kernel, rng, stride=1, padding=0, dilation=1,
                 groups=1, bias=True):
        super().__init__()
        self.kernel = E._pair(kernel, "kernel")
        self.stride = E._pair(stride, "stride")
        self.padding = E._pair(padding, "padding", 0)
        self.dilation = E._pair(dilation, "dilation")
        if groups < 1 or cin % groups or cout % groups:
            raise ValueError(
                f"groups {groups} must be >= 1 and divide both c_in {cin} "
                f"and c_out {cout}"
            )
        kh, kw = self.kernel
        fan_in = (cin // groups) * kh * kw
        self.cin, self.cout, self.groups = cin, cout, groups
        self.weight = E.Parameter(kaiming_normal(rng, (cout, cin // groups, kh, kw), fan_in))
        self.bias = E.Parameter(np.zeros(cout)) if bias else None

    def forward(self, x, mode="eval"):
        return E.conv2d(x, self.weight, self.bias, stride=self.stride,
                        padding=self.padding, dilation=self.dilation,
                        groups=self.groups)

    def cost(self, in_shape, prefix=""):
        rec, out = costs.conv_cost(prefix or "conv", in_shape, self.cout, self.kernel,
                                   self.stride, self.padding, self.dilation,
                                   self.groups, self.bias is not None)
        return [rec], out


class BatchNorm2d(Module):
    """Batch normalization with running statistics buffers."""

    def __init__(self, channels, eps=1e-5, momentum=0.1):
        super().__init__()
        self.channels = channels
        self.eps = eps
        self.momentum = momentum
        self.gamma = E.Parameter(np.ones(channels))
        self.beta = E.Parameter(np.zeros(channels))
        self.register_buffer("running_mean", np.zeros(channels))
        self.register_buffer("running_var", np.ones(channels))

    def forward(self, x, mode="eval"):
        return E.batch_norm(x, self.gamma, self.beta, self.running_mean,
                            self.running_var, mode, self.momentum, self.eps)

    def cost(self, in_shape, prefix=""):
        rec, out = costs.norm_cost(prefix or "bn", in_shape)
        return [rec], out


class ReLU(Module):
    def forward(self, x, mode="eval"):
        return E.relu(x)

    def cost(self, in_shape, prefix=""):
        rec, out = costs.act_cost(prefix or "relu", in_shape)
        return [rec], out


def conv_bn(cin, cout, kernel, rng, stride=1, padding=0, act=True):
    """Conv (no bias) + BN (+ ReLU), the standard backbone unit."""
    mods = [
        Conv2d(cin, cout, kernel, rng, stride=stride, padding=padding, bias=False),
        BatchNorm2d(cout),
    ]
    if act:
        mods.append(ReLU())
    return Sequential(*mods)


def bn_act_conv(cin, cout, kernel, rng, padding=0, dilation=1):
    """Pre-activation unit (BN, ReLU, conv) used by pyramid and fusion heads."""
    return Sequential(
        BatchNorm2d(cin),
        ReLU(),
        Conv2d(cin, cout, kernel, rng, padding=padding, dilation=dilation,
               bias=False),
    )
