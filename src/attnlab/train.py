"""Plain momentum SGD and the batched training loop."""

from __future__ import annotations

import numpy as np

from .errors import NumericFault
from .tensor import no_grad

# rows an eval forward stacks at most; at 24x24 that is one sample per
# forward. A 4-sample 24x24 attended-block eval would be faster in one
# forward (1111: 52-55 ms against 67-71 ms one sample per forward; 1000:
# 21 against 24-25 ms), and so would a 6x6 +deformable cell's 40 eval
# samples (1111: 5.2-7.3 against 6.0-8.3 ms), but 2304 rows would also
# forward a 6x6 +dynamic cell's 40 at once, which is slower (0000:
# 3.3-4.6 against 2.3-3.4 ms); min of 12-30 on one core of a shared
# 2-core x86_64
EVAL_ROWS = 512


class Momentum:
    """SGD with a velocity buffer per parameter.

    Each parameter carries an lr_scale that multiplies the global rate at
    update time, so a step with rate r on a 0.1-scaled parameter matches
    a step with rate 0.1*r on an unscaled one exactly, buffer and all.
    """

    def __init__(self, params, lr, momentum=0.9):
        self.params = list(params)
        self.lr = lr
        self.momentum = momentum
        self.bufs = [np.zeros(p.shape) for p in self.params]

    def zero_grad(self):
        for p in self.params:
            p.grad = None

    def step(self):
        for p, buf in zip(self.params, self.bufs):
            if p.grad is None:
                continue
            buf *= self.momentum
            buf += p.grad
            p.data -= (self.lr * p.lr_scale) * buf


def clip_gradients(params, max_norm):
    """Scale all gradients down so their global norm is at most max_norm."""
    total = 0.0
    for p in params:
        if p.grad is not None:
            total += float((p.grad * p.grad).sum())
    norm = np.sqrt(total)
    if norm > max_norm:
        factor = max_norm / norm
        for p in params:
            if p.grad is not None:
                p.grad *= factor
    return norm


def train_model(model, task, steps, batch_size=16, lr=0.1, clip=None):
    """Run the loop, one forward and one backward of the whole batch per
    step; returns the final loss and raises NumericFault if the loss stops
    being finite or the parameters are not finite after the last step."""
    params = model.parameters()
    opt = Momentum(params, lr=lr)
    last = None
    for step in range(steps):
        batch = task.train_batch(step, batch_size)
        opt.zero_grad()
        loss = model.batch_loss(batch)
        if not np.isfinite(loss.data):
            raise NumericFault(f"loss became non-finite at step {step}")
        loss.backward()
        if clip is not None:
            clip_gradients(params, clip)
        opt.step()
        last = float(loss.data)
    # the last update can overflow after the last finite loss
    if not all(np.isfinite(p.data).all() for p in params):
        raise NumericFault(f"parameters became non-finite at step {steps - 1}")
    return last


def evaluate(model, task):
    """Mean per-sample accuracy over the held-out set, forwarded without a
    tape in chunks of at most EVAL_ROWS input rows (at least one sample)."""
    samples = task.eval_set()
    chunk = max(1, EVAL_ROWS // samples[0]["inputs"].shape[0])
    with no_grad():
        scores = [model.batch_accuracy(samples[i:i + chunk])
                  for i in range(0, len(samples), chunk)]
    return float(np.mean(np.concatenate(scores)))
