"""Mini-batch SGD with full and partial learning modes.

Full mode descends tau, sigma, and the analysis weights freely (with a
positivity clamp on the step sizes).  Partial mode descends only tau and the
weights, then re-saturates sigma = (1/tau - ||A||^2 / 2) / ||L||^2 from a
fresh upper bound on the operator norm (``AnalysisOperator.norm``), so the
primal-dual convergence condition holds with margin zero against that bound,
and so with margin >= 0 against the true ||L||, after every update.

Batches are drawn by seeded shuffling each epoch; identical seed and config
reproduce the history and the final model byte for byte.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .backprop import Gradients, backward
from .data import psnr, ssim
from .network import NetworkParams, distance_report, forward
from .pdhg import saturating_sigma
from .rng import Stream, derive

_POSITIVITY_FLOOR = 1e-8


class NonFiniteGradientError(RuntimeError):
    """A gradient came back NaN/inf; the step was rejected."""


class TrainingDivergedError(RuntimeError):
    """Loss stayed above 10x its initial value for 100 consecutive iterations."""


@dataclass
class History:
    """Per-iteration training losses plus cadenced validation records."""

    losses: np.ndarray
    records: list  # dicts: iter, loss, val_psnr, val_ssim, dc (list per layer)
    depth: int

    def to_csv(self, path: str) -> None:
        cols = ["iter", "loss", "val_psnr", "val_ssim"]
        cols += [f"dc_layer_{k + 1}" for k in range(self.depth)]
        lines = [",".join(cols)]
        for r in self.records:
            row = [str(r["iter"]), repr(r["loss"]), repr(r["val_psnr"]),
                   repr(r["val_ssim"])]
            row += [repr(v) for v in r["dc"]]
            lines.append(",".join(row))
        with open(path, "w", encoding="ascii") as f:
            f.write("\n".join(lines) + "\n")


@dataclass
class TrainResult:
    final_params: NetworkParams
    best_params: NetworkParams
    best_iter: int
    best_psnr: float
    history: History
    seconds: float = 0.0


def sgd_step(params: NetworkParams, grads: Gradients, gamma: float) -> None:
    """One in-place gradient step in ``params.mode``; rejects non-finite gradients.

    Consumes ``grads``: the weight gradients are scaled in place by
    ``update_weights``, so they are not reusable afterwards.
    """
    if not grads.all_finite():
        raise NonFiniteGradientError(
            "non-finite gradient encountered; step rejected"
        )
    norm_a = params.degradation.cached_norm
    for k, lp in enumerate(params.layers):
        lp.tau = max(lp.tau - gamma * grads.d_tau[k], _POSITIVITY_FLOOR)
        if params.mode == "full":
            lp.sigma = max(lp.sigma - gamma * grads.d_sigma[k], _POSITIVITY_FLOOR)
        lp.analysis.update_weights(grads.d_weights[k], -gamma)
        if params.mode == "partial":
            norm_l = lp.analysis.norm()
            if norm_l == 0.0:
                raise NonFiniteGradientError("||L|| collapsed to zero in partial mode")
            if (1.0 / lp.tau - norm_a**2 / 2.0) / norm_l**2 < _POSITIVITY_FLOOR:
                # keep sigma positive and the margin zero
                lp.tau = 1.0 / (norm_a**2 / 2.0 + _POSITIVITY_FLOOR * norm_l**2)
            lp.sigma = saturating_sigma(lp.tau, norm_a, norm_l)


def train(params: NetworkParams, train_clean: np.ndarray, train_degraded: np.ndarray,
          val_clean: np.ndarray, val_degraded: np.ndarray, side: int, *,
          gamma: float, batch_size: int, max_iter: int, val_cadence: int,
          lr_decay_every: int | None, lr_decay_factor: float, seed: int) -> TrainResult:
    """Run mini-batch SGD and track the best-validation-PSNR checkpoint.

    The keyword arguments are the ``train`` section of a config plus the
    batch-order seed; the config schema holds their defaults and ranges, and
    ``lr_decay_every=None`` means gamma never decays.
    ``params`` is trained in place (and also returned as ``final_params``);
    ``side`` is the images' side length, which validation SSIM needs.  Aborts with :class:`TrainingDivergedError` when the loss exceeds 10x its
    initial value for 100 consecutive iterations.
    """
    n_train = train_clean.shape[0]
    if n_train == 0 or val_clean.shape[0] == 0:
        raise ValueError("train and validation splits must be nonempty")
    t0 = time.monotonic()
    shuffler = Stream(derive(seed, 0xBA7C4))
    order = shuffler.permutation(n_train)
    cursor = 0
    losses = np.zeros(max_iter)
    records: list[dict] = []
    best_psnr = -np.inf
    best_params = params.clone()
    best_iter = 0
    diverged_streak = 0

    def record(it: int, batch_loss: float):
        nonlocal best_psnr, best_params, best_iter
        out, _ = forward(params, val_degraded)
        vp = float(np.mean(psnr(out, val_clean)))
        vs = float(np.mean(ssim(out, val_clean, side=side)))
        records.append({"iter": it, "loss": batch_loss, "val_psnr": vp,
                        "val_ssim": vs, "dc": distance_report(params).tolist()})
        if vp > best_psnr:
            best_psnr = vp
            best_params = params.clone()
            best_iter = it

    for it in range(max_iter):
        if cursor >= n_train:
            order = shuffler.permutation(n_train)
            cursor = 0
        idx = order[cursor:cursor + batch_size]
        cursor += batch_size
        xb = train_clean[idx]
        zb = train_degraded[idx]

        out, trace = forward(params, zb, keep_trace=True)
        diff = out - xb
        batch_loss = float(np.vdot(diff, diff)) / xb.shape[0]
        losses[it] = batch_loss

        if it % val_cadence == 0:
            record(it, batch_loss)

        if batch_loss > 10.0 * losses[0]:
            diverged_streak += 1
            if diverged_streak >= 100:
                raise TrainingDivergedError(
                    f"loss {batch_loss:.4e} stayed above 10x the initial "
                    f"{losses[0]:.4e} for 100 consecutive iterations "
                    f"(aborted at iteration {it})"
                )
        else:
            diverged_streak = 0

        grads = backward(params, xb, trace)
        sgd_step(params, grads, gamma)

        if lr_decay_every and (it + 1) % lr_decay_every == 0:
            gamma *= lr_decay_factor

    record(max_iter, float(losses[-1]))
    history = History(losses=losses, records=records, depth=params.depth)
    return TrainResult(final_params=params, best_params=best_params,
                       best_iter=best_iter, best_psnr=best_psnr, history=history,
                       seconds=time.monotonic() - t0)
