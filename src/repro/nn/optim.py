"""First-order optimizers.

The paper trains with Adam (Sec. II-F, learning rate 2e-4 in Table II);
SGD is included for tests and sanity baselines.  Optimizers hold no
references to the computation graph — only to the parameter tensors whose
``.grad`` buffers the backward pass fills.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

import numpy as np

from repro.nn.module import Parameter

__all__ = ["Optimizer", "SGD", "Adam", "clip_grad_norm"]


class Optimizer:
    """Base class: owns a parameter list and a ``zero_grad`` helper."""

    def __init__(self, params: Iterable[Parameter]) -> None:
        self.params: List[Parameter] = list(params)
        if not self.params:
            raise ValueError("optimizer received an empty parameter list")

    def zero_grad(self) -> None:
        """Clear gradients on all managed parameters."""
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class SGD(Optimizer):
    """Vanilla stochastic gradient descent with optional momentum."""

    def __init__(
        self,
        params: Iterable[Parameter],
        lr: float = 0.01,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(params)
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity: Optional[List[np.ndarray]] = None

    def step(self) -> None:
        """Apply one descent update to every parameter with a gradient."""
        if self.momentum and self._velocity is None:
            self._velocity = [np.zeros_like(p.data) for p in self.params]
        for i, p in enumerate(self.params):
            remote = getattr(p, "remote_sgd_step", None)
            if remote is not None:
                # Cross-process shard parameters apply the identical
                # update inside their worker (grad and velocity live
                # there); True means a gradient existed and was applied.
                if remote(
                    lr=self.lr, momentum=self.momentum, weight_decay=self.weight_decay
                ):
                    p.bump_version()
                    p.touched_rows = None
                continue
            if p.grad is None:
                continue
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            if self.momentum:
                vel = self._velocity[i]
                vel *= self.momentum
                vel += grad
                p.data -= self.lr * vel
            else:
                p.data -= self.lr * grad
            p.bump_version()


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2015) — the paper's optimizer.

    Parameters follow the PyTorch defaults except ``lr`` which the paper
    sets to ``2e-4`` (Table II, ``ρ``).

    ``lazy_rows=True`` enables *sparse per-shard updates*: a parameter
    whose gradient provably touched only some rows — embedding-store
    gathers record them in ``Parameter.touched_rows`` — gets its
    moment-decay and data update applied to those rows only, turning the
    per-step cost of a sharded table from O(num_rows·dim) into O(touched
    ·dim).  This is standard *lazy* Adam semantics: an untouched row's
    moments do not decay that step, so results diverge from dense Adam
    once a previously-touched row sits out a step (the first step from
    fresh state is bit-identical).  Parameters without row bookkeeping
    (every dense weight matrix) always take the dense update.
    """

    def __init__(
        self,
        params: Iterable[Parameter],
        lr: float = 2e-4,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
        lazy_rows: bool = False,
    ) -> None:
        super().__init__(params)
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        if not (0.0 <= betas[0] < 1.0 and 0.0 <= betas[1] < 1.0):
            raise ValueError(f"betas must lie in [0, 1), got {betas}")
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.lazy_rows = lazy_rows
        self._step = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

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
                # per-row update inside their worker (grad, moments and
                # the touched-row record live there); True means a
                # gradient existed and was applied.
                if remote(
                    lr=self.lr,
                    beta1=self.beta1,
                    beta2=self.beta2,
                    eps=self.eps,
                    weight_decay=self.weight_decay,
                    t=t,
                    lazy=self.lazy_rows,
                ):
                    p.bump_version()
                    p.touched_rows = None
                continue
            if p.grad is None:
                continue
            rows = getattr(p, "touched_rows", None) if self.lazy_rows else None
            if rows is not None and rows is not True and p.data.ndim >= 1:
                self._row_update(p, np.asarray(rows, dtype=np.int64), i, bc1, bc2)
            else:
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
            p.touched_rows = None

    def _row_update(self, p: Parameter, rows: np.ndarray, i: int, bc1: float, bc2: float) -> None:
        """Lazy Adam on the touched rows only (identical per-row math)."""
        grad = p.grad[rows]
        if self.weight_decay:
            grad = grad + self.weight_decay * p.data[rows]
        m, v = self._m[i], self._v[i]
        m_rows = self.beta1 * m[rows] + (1.0 - self.beta1) * grad
        v_rows = self.beta2 * v[rows] + (1.0 - self.beta2) * grad**2
        m[rows] = m_rows
        v[rows] = v_rows
        p.data[rows] -= self.lr * (m_rows / bc1) / (np.sqrt(v_rows / bc2) + self.eps)


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
