"""Adam optimizer and the full-batch training loop with divergence recovery."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .tf_core import FilterDivergenceError

# divergence restores, each halving the learning rate, before training gives up
MAX_LR_HALVINGS = 5


class TrainingDivergedError(RuntimeError):
    """Training could not recover from repeated filter divergence."""

    def __init__(self, restores, trace, events):
        self.restores = restores
        self.trace = trace
        self.events = events  # the run's events, ending with the divergence it stopped on
        super().__init__(
            f"training aborted after {restores} divergence recoveries"
        )


def _flat(arrays):
    return np.concatenate([np.zeros(0)] + [a.ravel() for a in arrays])


class Adam:
    """Bias-corrected Adam over a list of Parameters packed into one vector.

    Each Parameter.value becomes a reshaped view of its slice of theta, so an
    update is a few whole-vector operations; a value rebound afterwards is
    neither updated nor restored. Steps with any non-finite gradient are
    skipped entirely and counted, so a single bad iteration cannot poison the
    moment accumulators.
    """

    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)
        if len({id(p) for p in self.params}) != len(self.params):
            raise ValueError("a Parameter is listed more than once")
        self.lr = float(lr)
        self.beta1, self.beta2, self.eps = float(beta1), float(beta2), float(eps)
        self.t = 0
        self.theta = _flat([p.value for p in self.params])
        ends = np.cumsum([p.value.size for p in self.params], dtype=int)
        for p, view in zip(self.params, np.split(self.theta, ends)):
            p.value = view.reshape(p.value.shape)
        self.m, self.v = np.zeros_like(self.theta), np.zeros_like(self.theta)
        self.skipped_steps = 0

    def step(self):
        """Apply one update in place; returns False if skipped on bad gradients."""
        g = _flat([p.grad for p in self.params])
        if not np.isfinite(g).all():
            self.skipped_steps += 1
            return False
        self.t += 1
        c1 = 1.0 - self.beta1**self.t
        c2 = 1.0 - self.beta2**self.t
        self.m *= self.beta1
        self.m += (1.0 - self.beta1) * g
        self.v *= self.beta2
        self.v += (1.0 - self.beta2) * g * g
        self.theta -= self.lr * (self.m / c1) / (np.sqrt(self.v / c2) + self.eps)
        return True

    def state(self):
        """A copy of the iterate and the optimizer state."""
        return {"theta": self.theta.copy(), "t": self.t, "m": self.m.copy(),
                "v": self.v.copy(), "lr": self.lr}

    def restore(self, state):
        """Bring back the iterate and the optimizer state of state()."""
        self.theta[...], self.m[...], self.v[...] = state["theta"], state["m"], state["v"]
        self.t, self.lr = state["t"], state["lr"]


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
    # one dict per divergence restore, skipped Adam step and plateau stop
    events: list = field(default_factory=list)


def train(params, build_loss, config):
    """Full-batch gradient training of the given parameters.

    build_loss() must construct a fresh tape and return (tape, loss_node) for
    the current parameter values. train drops both once the step's backward
    has run or failed, so one tape is alive at a time. On filter divergence,
    in the forward or the backward pass, the last iterate whose both passes
    succeeded is restored, the learning rate halved and training continues,
    up to MAX_LR_HALVINGS times; after that TrainingDivergedError is raised.
    TrainResult.events records each restore (iteration, pass, t, batch
    element, the grid op and cell when a filter grid diverged, and the halved
    lr), each Adam step skipped on a non-finite gradient (iteration and Adam's
    step count t) and a plateau stop (last iteration and best iteration).
    The parameters are left at the best-loss iterate, as views of one vector
    (see Adam); build_loss must not rebind their values.
    """
    params = list(params)
    adam = Adam(params, config.lr)
    trace, walls, events = [], [], []
    restores = 0
    best_loss, best_it = np.inf, -1
    last_gain = -1  # last improvement larger than plateau_rtol
    best_theta = adam.theta.copy()
    zero_grads = [np.zeros_like(p.value) for p in params]  # shared: backward rebinds grads
    last_good = adam.state()
    stopped_on_plateau = False
    t0 = time.perf_counter()

    it = 0
    while it < config.iterations:
        # forward and backward under one guard: a filter may diverge in either
        stage = "forward"
        try:
            tape, loss = build_loss()
            loss_value = float(loss.value)
            if not np.isfinite(loss_value):
                stage = "loss"
                raise FilterDivergenceError(-1)
            for p, zero in zip(params, zero_grads):
                p.grad = zero
            stage = "backward"
            tape.backward(loss)
        except FilterDivergenceError as exc:
            where = {"iteration": it, "pass": stage, "t": exc.t_index,
                     "batch_element": exc.batch_index}
            if exc.cell is not None:
                where.update(op="mimo_filter", cell=list(exc.cell))
            if restores == MAX_LR_HALVINGS:
                events.append({"event": "divergence_abort", **where, "lr": adam.lr})
                raise TrainingDivergedError(restores, np.asarray(trace), events)
            # halve the rate in use, not the snapshot's, so recurring divergences compound
            adam.restore({**last_good, "lr": 0.5 * adam.lr})
            restores += 1
            events.append({"event": "divergence_restore", **where, "lr": adam.lr})
            continue
        finally:
            # the next forward records a new tape: this one, swept or half swept, goes first
            tape = loss = None

        trace.append(loss_value)
        walls.append(time.perf_counter() - t0)
        improved = loss_value < best_loss - config.plateau_rtol * max(1.0, abs(best_loss))
        if loss_value < best_loss:
            best_loss = loss_value
            best_theta[...] = adam.theta
            best_it = it
        if improved or last_gain < 0:
            last_gain = it
        # keep only an iterate whose forward and backward both succeeded, so a
        # retry restarts from it and not from the iterate that diverged
        last_good = adam.state()
        if not adam.step():
            events.append({"event": "skipped_step", "iteration": it, "t": adam.t})

        if config.log_every and (it + 1) % config.log_every == 0:
            print(f"iter {it + 1}: loss {loss_value:.6g}")
        it += 1
        if config.plateau_patience and it - last_gain >= config.plateau_patience:
            stopped_on_plateau = True
            events.append({"event": "plateau_stop", "iteration": it - 1,
                           "best_iteration": best_it})
            break

    adam.theta[...] = best_theta
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
        events=events,
    )
