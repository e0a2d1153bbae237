"""Attention-pooling policy/value network with hand-written reverse-mode
gradients over its fixed computation graph.

Architecture: two-layer tanh encoders for the own state and each intruder,
single-head scaled dot-product attention pooling the intruder set (query from
the own embedding), a tanh trunk over [own, pooled], and linear policy (3
logits) and value heads. All math is float64 numpy; no learning framework.

Batch layout: own (B, 6); intruders padded to (B, K, 5) with a validity mask
(B, K); action masks (B, 3). Rows with zero valid intruders pool to the zero
vector. Disallowed logits are forced to -inf so masked actions have exactly
zero probability.

The intruder encoder runs on the valid rows intr[intr_mask] only, so padded
slots are never read. No key or value is formed per intruder: the scores use
q.(f2 @ wk) = (q @ wk.T).f2, and the pooled sum_k att (f2 @ wv) = (sum_k att f2) @ wv.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import SimulationError, ValidationError, check_number, check_type
from .mdp import INTRUDER_DIM, OWN_DIM

N_ACTIONS = 3


def param_layout(hidden: int) -> tuple[tuple[str, tuple[int, ...]], ...]:
    """(key, shape) of every weight tensor, in storage order: the one
    statement of the parameter layout."""
    h = hidden
    return (
        ("w1", (OWN_DIM, h)), ("b1", (h,)),              # own encoder
        ("w2", (h, h)), ("b2", (h,)),
        ("v1", (INTRUDER_DIM, h)), ("c1", (h,)),         # intruder encoder
        ("v2", (h, h)), ("c2", (h,)),
        ("wq", (h, h)), ("wk", (h, h)), ("wv", (h, h)),  # attention
        ("wt", (2 * h, h)), ("bt", (h,)),                # trunk
        ("wp", (h, N_ACTIONS)), ("bp", (N_ACTIONS,)),    # policy head
        ("wu", (h, 1)), ("bu", (1,)),                    # value head
    )


def param_count(hidden: int) -> int:
    """Length of the flat parameter vector for a hidden size."""
    return sum(math.prod(shape) for _, shape in param_layout(hidden))


class Params(dict):
    """Weight tensors (or their gradients) as named views into one contiguous
    float64 vector, `flat`, laid out by param_layout(hidden); all zeros to
    start with."""

    def __init__(self, hidden: int):
        self.hidden = hidden
        self.flat = np.zeros(param_count(hidden))
        start = 0
        for key, shape in param_layout(hidden):
            self[key] = self.flat[start:start + math.prod(shape)].reshape(shape)
            start += self[key].size


def init_params(hidden: int, seed: int) -> Params:
    rng = np.random.default_rng(seed)
    params = Params(hidden)
    for key, shape in param_layout(hidden):  # biases stay zero
        if len(shape) == 2:
            scale = 0.01 if key in ("wp", "wu") else 1.0 / np.sqrt(shape[0])
            params[key][...] = rng.normal(0.0, scale, size=shape)
    return params


def forward(params, own, intr, intr_mask, act_mask):
    """Batched forward pass.

    Returns (masked logits (B,3), value (B,), cache for backward). Masked
    logit entries are -inf.
    """
    h = params.hidden
    e1 = np.tanh(own @ params["w1"] + params["b1"])
    e2 = np.tanh(e1 @ params["w2"] + params["b2"])

    x = intr[intr_mask]  # (n, 5): the valid intruders only
    f1 = np.tanh(x @ params["v1"] + params["c1"])
    f2 = np.tanh(f1 @ params["v2"] + params["c2"])
    f2_pad = np.zeros(intr_mask.shape + (h,))  # exact zeros at padded slots
    f2_pad[intr_mask] = f2

    q = e2 @ params["wq"]
    qk = q @ params["wk"].T
    scores = np.einsum("bh,bkh->bk", qk, f2_pad) / np.sqrt(h)
    att = _masked_softmax(scores, intr_mask)
    u = np.einsum("bk,bkh->bh", att, f2_pad)

    t0 = np.concatenate([e2, u @ params["wv"]], axis=1)  # [own, pooled]
    t1 = np.tanh(t0 @ params["wt"] + params["bt"])
    logits = t1 @ params["wp"] + params["bp"]
    value = (t1 @ params["wu"] + params["bu"])[:, 0]
    masked_logits = np.where(act_mask, logits, -np.inf)

    cache = dict(own=own, x=x, intr_mask=intr_mask, e1=e1, e2=e2, f1=f1, f2=f2,
                 f2_pad=f2_pad, q=q, qk=qk, att=att, u=u, t0=t0, t1=t1)
    return masked_logits, value, cache


def backward(params, cache, dlogits, dvalue):
    """Gradients of a scalar loss given dL/dlogits and dL/dvalue.

    dlogits must be zero at masked entries (the -inf offsets are constants).
    """
    h = params.hidden
    t1 = cache["t1"]
    grads = Params(h)

    grads["wp"][...] = t1.T @ dlogits
    grads["bp"][...] = dlogits.sum(axis=0)
    grads["wu"][:, 0] = (t1 * dvalue[:, None]).sum(axis=0)
    grads["bu"][0] = dvalue.sum()

    dt1 = dlogits @ params["wp"].T + dvalue[:, None] * params["wu"][:, 0][None, :]
    dz_t = dt1 * (1.0 - t1 * t1)
    grads["wt"][...] = cache["t0"].T @ dz_t
    grads["bt"][...] = dz_t.sum(axis=0)
    dt0 = dz_t @ params["wt"].T
    de2 = dt0[:, :h].copy()
    dpooled = dt0[:, h:]

    att, qk, f2_pad, e2 = cache["att"], cache["qk"], cache["f2_pad"], cache["e2"]
    grads["wv"][...] = cache["u"].T @ dpooled
    du = dpooled @ params["wv"].T
    datt = np.einsum("bh,bkh->bk", du, f2_pad)
    # att is exactly 0 at padded slots, and so is dscores
    dscores = att * (datt - (att * datt).sum(axis=1, keepdims=True)) / np.sqrt(h)
    dqk = np.einsum("bk,bkh->bh", dscores, f2_pad)
    grads["wk"][...] = dqk.T @ cache["q"]
    dq = dqk @ params["wk"]
    grads["wq"][...] = e2.T @ dq
    de2 += dq @ params["wq"].T

    mask, f2, f1 = cache["intr_mask"], cache["f2"], cache["f1"]
    rows = np.nonzero(mask)[0]  # each valid intruder's batch row
    df2 = att[mask][:, None] * du[rows] + dscores[mask][:, None] * qk[rows]
    dz_f2 = df2 * (1.0 - f2 * f2)
    grads["v2"][...] = f1.T @ dz_f2
    grads["c2"][...] = dz_f2.sum(axis=0)
    dz_f1 = (dz_f2 @ params["v2"].T) * (1.0 - f1 * f1)
    grads["v1"][...] = cache["x"].T @ dz_f1
    grads["c1"][...] = dz_f1.sum(axis=0)

    e1 = cache["e1"]
    dz_e2 = de2 * (1.0 - e2 * e2)
    grads["w2"][...] = e1.T @ dz_e2
    grads["b2"][...] = dz_e2.sum(axis=0)
    de1 = dz_e2 @ params["w2"].T
    dz_e1 = de1 * (1.0 - e1 * e1)
    grads["w1"][...] = cache["own"].T @ dz_e1
    grads["b1"][...] = dz_e1.sum(axis=0)
    return grads


def _masked_softmax(scores, mask):
    """Softmax over valid entries per row; all-invalid rows return zeros."""
    neg = np.where(mask, scores, -np.inf)
    any_valid = mask.any(axis=1)
    shift = np.where(any_valid, neg.max(axis=1), 0.0)
    expd = np.exp(neg - shift[:, None])  # exactly 0 at masked entries
    total = np.where(any_valid, expd.sum(axis=1), 1.0)
    return expd / total[:, None]


def masked_log_softmax(masked_logits):
    """Log-probabilities from logits already carrying -inf at masked entries."""
    shift = masked_logits.max(axis=1, keepdims=True)
    expd = np.exp(masked_logits - shift)
    return masked_logits - shift - np.log(expd.sum(axis=1, keepdims=True))


def policy_batch(params, own, intr, intr_mask, act_mask):
    """Action probabilities (B, 3) and values (B,) for a batch of observations;
    SimulationError if a row's probabilities are not finite (scores overflow)."""
    if not act_mask.any(axis=1).all():
        raise SimulationError("action mask allows no action")
    logits, value, _ = forward(params, own, intr, intr_mask, act_mask)
    probs = np.exp(masked_log_softmax(logits))
    if not np.isfinite(probs.sum()):  # one reduction per tick
        bad = np.count_nonzero(~np.isfinite(probs).all(axis=1))
        raise SimulationError(f"policy probabilities not finite in {bad} of {len(probs)} rows")
    return probs, value


def sample_actions(probs, rng=None):
    """One action per row of probs (B, n): a categorical sample
    (training), drawing rng.random(B) once, or the argmax with lowest-index
    tie-break (evaluation, rng=None). Returns (actions (B,), log-probs (B,)).

    Row b's action is the first index whose cumulative probability exceeds
    u_b times the row total, clamped to the last action."""
    if rng is None:
        idx = probs.argmax(axis=1)
    else:
        cum = np.cumsum(probs, axis=1)
        u = rng.random(len(probs))
        idx = np.minimum((cum <= (u * cum[:, -1])[:, None]).sum(axis=1), probs.shape[1] - 1)
    return idx, np.log(probs[np.arange(len(probs)), idx])


# ---------------------------------------------------------------------------
# PPO loss


def ppo_loss_and_grads(params, batch, clip_eps, value_coef, entropy_coef):
    """Clipped-surrogate PPO loss and its exact gradients.

    batch keys: own (B,6), intr (B,K,5), intr_mask (B,K), act_mask (B,3),
    actions (B,), old_logp (B,), advantages (B,), returns (B,).
    Returns (loss, grads, stats).
    """
    logits, value, cache = forward(
        params, batch["own"], batch["intr"], batch["intr_mask"], batch["act_mask"])
    logp_all = masked_log_softmax(logits)
    b = logits.shape[0]
    rows = np.arange(b)
    actions = batch["actions"]
    logp_a = logp_all[rows, actions]

    adv = batch["advantages"]
    ratio = np.exp(logp_a - batch["old_logp"])
    surr1 = ratio * adv
    surr2 = np.clip(ratio, 1.0 - clip_eps, 1.0 + clip_eps) * adv
    policy_loss = -np.minimum(surr1, surr2).mean()

    verr = value - batch["returns"]
    value_loss = (verr * verr).mean()

    probs = np.exp(logp_all)  # exactly 0 at masked entries
    safe_lp = np.where(np.isfinite(logp_all), logp_all, 0.0)  # masked entries have p=0
    entropy = -(probs * safe_lp).sum(axis=1)

    loss = policy_loss + value_coef * value_loss - entropy_coef * entropy.mean()
    if not np.isfinite(loss):
        raise SimulationError(
            f"non-finite loss: policy={policy_loss} value={value_loss} "
            f"entropy_mean={entropy.mean()}"
        )

    # d loss / d logp_a: active when the unclipped branch holds (ties included,
    # where both branches have identical gradients inside the clip window).
    active = (surr1 <= surr2).astype(float)
    dlogp_a = -(adv * ratio * active) / b

    onehot = np.zeros_like(probs)
    onehot[rows, actions] = 1.0
    dlogits = dlogp_a[:, None] * (onehot - probs)
    # entropy term: dH/dlogits_j = -p_j (logp_j + H); loss carries -entropy_coef * mean(H)
    dent = -probs * (safe_lp + entropy[:, None])
    dlogits += (-entropy_coef / b) * dent
    dvalue = value_coef * 2.0 * verr / b

    grads = backward(params, cache, dlogits, dvalue)
    stats = {
        "policy_loss": float(policy_loss),
        "value_loss": float(value_loss),
        "entropy": float(entropy.mean()),
        "approx_kl": float(np.mean(batch["old_logp"] - logp_a)),
    }
    return float(loss), grads, stats


class Adam:
    """Adaptive-moment optimizer (Kingma & Ba, 2015) over the flat parameter
    vector; step updates params in place."""

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, params: Params, lr: float):
        self.lr, self.t = lr, 0
        self.m = np.zeros_like(params.flat)
        self.v = np.zeros_like(params.flat)

    def step(self, params: Params, grads: Params) -> None:
        self.t += 1
        g = grads.flat
        self.m = self.BETA1 * self.m + (1.0 - self.BETA1) * g
        self.v = self.BETA2 * self.v + (1.0 - self.BETA2) * g * g
        mhat = self.m / (1.0 - self.BETA1 ** self.t)
        vhat = self.v / (1.0 - self.BETA2 ** self.t)
        params.flat -= self.lr * mhat / (np.sqrt(vhat) + self.EPS)


# ---------------------------------------------------------------------------
# Serialization


def params_from_list(values, hidden: int) -> Params:
    """Params of the given hidden size from params.flat.tolist(): a list of
    exactly param_count(hidden) finite numbers, its length checked before
    anything is allocated."""
    size = param_count(hidden)
    if len(check_type("params", values, list)) != size:
        raise ValidationError(f"params has shape ({len(values)},), expected ({size},) "
                              f"for hidden {hidden}")
    for i, value in enumerate(values):
        check_number(f"params[{i}]", value)
    params = Params(hidden)
    params.flat[:] = values
    return params
