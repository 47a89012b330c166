"""Adam optimizer and the full-batch training loop with divergence recovery."""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .tf_core import FilterDivergenceError

# divergence restores, each halving the learning rate, before training gives up
MAX_LR_HALVINGS = 5


class TrainingDivergedError(RuntimeError):
    """Training could not recover from repeated filter divergence."""

    def __init__(self, restores, trace):
        self.restores = restores
        self.trace = trace
        super().__init__(
            f"training aborted after {restores} divergence recoveries"
        )


class Adam:
    """Bias-corrected Adam over a list of Parameters.

    Steps with any non-finite gradient are skipped entirely and counted, so a
    single bad iteration cannot poison the moment accumulators.
    """

    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.t = 0
        self.m = [np.zeros_like(p.value) for p in self.params]
        self.v = [np.zeros_like(p.value) for p in self.params]
        self.skipped_steps = 0

    def step(self):
        """Apply one update in place; returns False if skipped on bad gradients."""
        if any(not np.all(np.isfinite(p.grad)) for p in self.params):
            self.skipped_steps += 1
            return False
        self.t += 1
        c1 = 1.0 - self.beta1**self.t
        c2 = 1.0 - self.beta2**self.t
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p.value = p.value - self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)
        return True

    def state(self):
        return {
            "t": self.t,
            "m": [m.copy() for m in self.m],
            "v": [v.copy() for v in self.v],
            "lr": self.lr,
        }

    def restore(self, state):
        self.t = state["t"]
        self.m = [m.copy() for m in state["m"]]
        self.v = [v.copy() for v in state["v"]]
        self.lr = state["lr"]


@dataclass
class TrainConfig:
    iterations: int = 1000
    lr: float = 1e-3
    # 0 disables plateau stopping; otherwise stop once the best loss has not
    # improved by plateau_rtol (relative) within plateau_patience iterations
    plateau_patience: int = 0
    plateau_rtol: float = 1e-5
    log_every: int = 0


@dataclass
class TrainResult:
    loss_trace: np.ndarray
    wall_times: np.ndarray
    best_loss: float
    best_iteration: int
    iterations_run: int
    lr_final: float
    divergence_restores: int
    skipped_steps: int
    stopped_on_plateau: bool = False


def _snapshot(params):
    return [p.value.copy() for p in params]


def _restore(params, snap):
    for p, v in zip(params, snap):
        p.value = v.copy()


def train(params, build_loss, config):
    """Full-batch gradient training of the given parameters.

    build_loss() must construct a fresh tape and return (tape, loss_node) for
    the current parameter values. On filter divergence, in the forward or the
    backward pass, the last iterate whose both passes succeeded is restored,
    the learning rate halved and training continues, up to MAX_LR_HALVINGS
    times; after that TrainingDivergedError is raised.
    The parameters are left at the best-loss snapshot.
    """
    params = list(params)
    adam = Adam(params, config.lr)
    trace = []
    walls = []
    best_loss = np.inf
    best_it = -1
    last_gain = -1  # last improvement larger than plateau_rtol
    best_snap = _snapshot(params)
    last_snap = _snapshot(params)
    last_adam = adam.state()
    restores = 0
    stopped_on_plateau = False
    t0 = time.perf_counter()

    it = 0
    while it < config.iterations:
        # forward and backward under one guard: a filter may diverge in either
        try:
            tape, loss = build_loss()
            loss_value = float(loss.value)
            if not np.isfinite(loss_value):
                raise FilterDivergenceError(-1)
            for p in params:
                p.grad = np.zeros_like(p.value)
            tape.backward(loss)
        except FilterDivergenceError:
            restores += 1
            if restores > MAX_LR_HALVINGS:
                raise TrainingDivergedError(restores, np.asarray(trace))
            _restore(params, last_snap)
            adam.restore(last_adam)
            adam.lr *= 0.5
            continue

        trace.append(loss_value)
        walls.append(time.perf_counter() - t0)
        improved = loss_value < best_loss - config.plateau_rtol * max(1.0, abs(best_loss))
        if loss_value < best_loss:
            best_loss = loss_value
            best_snap = _snapshot(params)
            best_it = it
        if improved or last_gain < 0:
            last_gain = it
        # snapshot only an iterate whose forward and backward both succeeded,
        # so a retry restarts from it and not from the iterate that diverged
        last_snap = _snapshot(params)
        last_adam = adam.state()
        adam.step()

        if config.log_every and (it + 1) % config.log_every == 0:
            print(f"iter {it + 1}: loss {loss_value:.6g}")
        it += 1
        if config.plateau_patience and it - last_gain >= config.plateau_patience:
            stopped_on_plateau = True
            break

    _restore(params, best_snap)
    return TrainResult(
        loss_trace=np.asarray(trace),
        wall_times=np.asarray(walls),
        best_loss=best_loss if np.isfinite(best_loss) else float("nan"),
        best_iteration=best_it,
        iterations_run=it,
        lr_final=adam.lr,
        divergence_restores=restores,
        skipped_steps=adam.skipped_steps,
        stopped_on_plateau=stopped_on_plateau,
    )
