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
"""
from __future__ import annotations

import math

import numpy as np

from .errors import SimulationError, ValidationError
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


PARAM_KEYS = tuple(key for key, _ in param_layout(1))


class Params(dict):
    """Weight tensors (or their gradients) as named views into one contiguous
    float64 vector, `flat`, laid out by param_layout(hidden); all zeros to
    start with."""

    def __init__(self, hidden: int):
        layout = param_layout(hidden)
        self.hidden = hidden
        self.flat = np.zeros(sum(math.prod(shape) for _, shape in layout))
        start = 0
        for key, shape in layout:
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

    f1 = np.tanh(intr @ params["v1"] + params["c1"])
    f2 = np.tanh(f1 @ params["v2"] + params["c2"])

    q = e2 @ params["wq"]
    k = f2 @ params["wk"]
    v = f2 @ params["wv"]
    scores = np.einsum("bh,bkh->bk", q, k) / np.sqrt(h)
    att = _masked_softmax(scores, intr_mask)
    pooled = np.einsum("bk,bkh->bh", att, v)

    t0 = np.concatenate([e2, pooled], axis=1)
    t1 = np.tanh(t0 @ params["wt"] + params["bt"])
    logits = t1 @ params["wp"] + params["bp"]
    value = (t1 @ params["wu"] + params["bu"])[:, 0]
    masked_logits = np.where(act_mask, logits, -np.inf)

    cache = dict(own=own, intr=intr, intr_mask=intr_mask, act_mask=act_mask,
                 e1=e1, e2=e2, f1=f1, f2=f2, q=q, k=k, v=v, att=att,
                 pooled=pooled, t0=t0, t1=t1)
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

    att, v, k, q = cache["att"], cache["v"], cache["k"], cache["q"]
    datt = np.einsum("bh,bkh->bk", dpooled, v)
    dv = att[:, :, None] * dpooled[:, None, :]
    dscores = att * (datt - (att * datt).sum(axis=1, keepdims=True))
    dscores = np.where(cache["intr_mask"], dscores, 0.0) / np.sqrt(h)
    dq = np.einsum("bk,bkh->bh", dscores, k)
    dk = dscores[:, :, None] * q[:, None, :]

    e2, f2, f1 = cache["e2"], cache["f2"], cache["f1"]
    grads["wq"][...] = e2.T @ dq
    de2 += dq @ params["wq"].T
    b, kk, _ = f2.shape
    f2_flat = f2.reshape(b * kk, h)
    grads["wk"][...] = f2_flat.T @ dk.reshape(b * kk, h)
    grads["wv"][...] = f2_flat.T @ dv.reshape(b * kk, h)
    df2 = dk @ params["wk"].T + dv @ params["wv"].T

    dz_f2 = df2 * (1.0 - f2 * f2)
    grads["v2"][...] = f1.reshape(b * kk, h).T @ dz_f2.reshape(b * kk, h)
    grads["c2"][...] = dz_f2.sum(axis=(0, 1))
    df1 = dz_f2 @ params["v2"].T
    dz_f1 = df1 * (1.0 - f1 * f1)
    grads["v1"][...] = cache["intr"].reshape(b * kk, -1).T @ dz_f1.reshape(b * kk, h)
    grads["c1"][...] = dz_f1.sum(axis=(0, 1))

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
    """Action probabilities (B, 3) and values (B,) for a batch of observations."""
    if not act_mask.any(axis=1).all():
        raise SimulationError("action mask allows no action")
    logits, value, _ = forward(params, own, intr, intr_mask, act_mask)
    return np.exp(masked_log_softmax(logits)), value


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


def params_to_doc(params: Params) -> dict[str, list]:
    return {k: params[k].tolist() for k in PARAM_KEYS}


def params_from_doc(doc: dict, hidden: int) -> Params:
    """Params of the given hidden size from params_to_doc's output; every
    tensor must be present, finite and of exactly its layout shape."""
    unknown = sorted(set(doc) - set(PARAM_KEYS))
    if unknown:
        raise ValidationError(f"unknown weight tensor(s) {', '.join(unknown)}")
    params = Params(hidden)
    for key, shape in param_layout(hidden):
        if key not in doc:
            raise ValidationError(f"missing weight tensor '{key}'")
        try:
            tensor = np.asarray(doc[key], dtype=float)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"weight tensor '{key}': {exc}") from exc
        if tensor.shape != shape:
            raise ValidationError(f"weight tensor '{key}' has shape {tensor.shape}, "
                                  f"expected {shape} for hidden {hidden}")
        if not np.isfinite(tensor).all():  # a JSON null reads as nan
            raise ValidationError(f"weight tensor '{key}' has non-finite entries")
        params[key][...] = tensor
    return params
