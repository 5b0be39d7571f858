"""The optimizer.

The paper trains with Adam (Sec. II-F, learning rate 2e-4 in Table II).
The optimizer holds no references to the computation graph — only to
the parameter tensors whose ``.grad`` buffers the backward pass fills.
"""

from __future__ import annotations

from typing import Iterable, List

import numpy as np

from repro.nn.module import Parameter

__all__ = ["Adam", "clip_grad_norm"]


class Adam:
    """Adam (Kingma & Ba, 2015) — the paper's optimizer.

    Parameters follow the PyTorch defaults except ``lr`` which the paper
    sets to ``2e-4`` (Table II, ``ρ``).
    """

    def __init__(
        self,
        params: Iterable[Parameter],
        lr: float = 2e-4,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        self.params: List[Parameter] = list(params)
        if not self.params:
            raise ValueError("optimizer received an empty parameter list")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        if not (0.0 <= betas[0] < 1.0 and 0.0 <= betas[1] < 1.0):
            raise ValueError(f"betas must lie in [0, 1), got {betas}")
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._step = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self) -> None:
        """Clear gradients on all managed parameters."""
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        """Apply one bias-corrected adaptive update."""
        self._step += 1
        t = self._step
        bc1 = 1.0 - self.beta1**t
        bc2 = 1.0 - self.beta2**t
        for i, p in enumerate(self.params):
            remote = getattr(p, "remote_adam_step", None)
            if remote is not None:
                # Cross-process shard parameters apply the identical
                # update inside their worker (grad and moments live
                # there); True means a gradient existed and was applied.
                if remote(
                    lr=self.lr,
                    beta1=self.beta1,
                    beta2=self.beta2,
                    eps=self.eps,
                    weight_decay=self.weight_decay,
                    t=t,
                ):
                    p.bump_version()
                continue
            if p.grad is None:
                continue
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            m, v = self._m[i], self._v[i]
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad**2
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            p.bump_version()


def clip_grad_norm(params: Iterable[Parameter], max_norm: float) -> float:
    """Scale gradients so their global L2 norm is at most ``max_norm``.

    Returns the pre-clip norm.  Deep expert/gate stacks occasionally spike
    early in training; clipping keeps the Adam updates well-scaled.

    Cross-process shard parameters contribute their worker-held
    gradient's square-sum through the duck-typed ``remote_grad_sqsum``
    hook, *at their position in the parameter order* — floating-point
    summation order is part of the bit-parity contract with the dense
    layout — and are rescaled in place inside their worker.
    """
    entries = []
    total_sq = 0.0
    for p in params:
        sqsum = getattr(p, "remote_grad_sqsum", None)
        if sqsum is not None:
            term = sqsum()
            if term is None:
                continue
            total_sq += term
            entries.append((p, True))
        else:
            if p.grad is None:
                continue
            total_sq += float((p.grad**2).sum())
            entries.append((p, False))
    total = float(np.sqrt(total_sq))
    if max_norm <= 0:
        raise ValueError(f"max_norm must be positive, got {max_norm}")
    if total > max_norm and total > 0:
        scale = max_norm / total
        for p, remote in entries:
            if remote:
                p.remote_scale_grad(scale)
            else:
                p.grad *= scale
    return total
