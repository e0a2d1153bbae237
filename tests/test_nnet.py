import numpy as np
import pytest

from uamnoise import nnet
from uamnoise.errors import SimulationError, ValidationError


def random_batch(rng, b=8, k=4, hidden=4, empty_rows=True):
    own = rng.normal(size=(b, 6))
    intr = rng.normal(size=(b, k, 5))
    intr_mask = rng.random((b, k)) < 0.6
    if empty_rows:
        intr_mask[0] = False
    act_mask = np.ones((b, 3), dtype=bool)
    act_mask[1, 2] = False
    return own, intr, intr_mask, act_mask


def one_row(own, intr, act_mask, k=None):
    """policy_batch's inputs for one observation: own (6,) and its n
    intruders (n, 5) zero-padded to k rows (default max(1, n), as
    observe_tick pads), with the intruder and action masks."""
    n = len(intr)
    k = max(1, n) if k is None else k
    padded = np.zeros((1, k, 5))
    padded[0, :n] = intr
    return own[None], padded, np.arange(k)[None] < n, np.array([act_mask])


class TestForward:
    def test_empty_intruder_set_well_defined(self):
        params = nnet.init_params(8, 0)
        probs, value = nnet.policy_batch(params, *one_row(np.zeros(6), np.zeros((0, 5)),
                                                          (True, True, True)))
        assert np.isfinite(probs).all() and np.isfinite(value).all()
        assert probs.sum() == pytest.approx(1.0)
        # identical output regardless of how the empty set is padded
        p2, v2 = nnet.policy_batch(params, *one_row(np.zeros(6), np.zeros((0, 5)),
                                                    (True, True, True), k=4))
        assert np.array_equal(probs, p2) and np.array_equal(value, v2)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(7)
        params = nnet.init_params(16, 1)
        for _ in range(100):
            n = int(rng.integers(1, 9))
            own = rng.normal(size=6)
            intr = rng.normal(size=(n, 5))
            mask = (True, True, True)
            p1, v1 = nnet.policy_batch(params, *one_row(own, intr, mask))
            perm = rng.permutation(n)
            p2, v2 = nnet.policy_batch(params, *one_row(own, intr[perm], mask))
            assert np.max(np.abs(p1 - p2)) <= 1e-6
            assert abs(v1[0] - v2[0]) <= 1e-6

    def test_masked_action_probability_exactly_zero(self):
        rng = np.random.default_rng(3)
        params = nnet.init_params(8, 2)
        probs, _ = nnet.policy_batch(params, *one_row(rng.normal(size=6),
                                                      rng.normal(size=(2, 5)),
                                                      (True, False, True)))
        assert probs[0, 1] == 0.0
        assert probs.sum() == pytest.approx(1.0)

    def test_single_allowed_action(self):
        params = nnet.init_params(8, 2)
        probs, _ = nnet.policy_batch(params, *one_row(np.zeros(6), np.zeros((0, 5)),
                                                      (True, False, False)))
        assert probs[0, 0] == 1.0

    def test_all_masked_rejected(self):
        params = nnet.init_params(8, 2)
        with pytest.raises(SimulationError):
            nnet.policy_batch(params, *one_row(np.zeros(6), np.zeros((0, 5)),
                                               (False, False, False)))


def sample_one(probs, rng=None):
    """sample_actions of the one-row batch probs[None]: (action, log-probability)."""
    actions, logp = nnet.sample_actions(np.asarray(probs)[None], rng)
    return int(actions[0]), float(logp[0])


class TestSampleAction:
    def test_degenerate_distribution(self):
        action, logp = sample_one(np.array([1.0, 0.0, 0.0]), np.random.default_rng(0))
        assert action == 0 and logp == 0.0

    def test_seeded_reproducibility(self):
        probs = np.array([0.2, 0.5, 0.3])
        seq1 = [sample_one(probs, np.random.default_rng(42))[0] for _ in range(5)]
        rng = np.random.default_rng(42)
        seq2 = [sample_one(probs, rng)[0] for _ in range(5)]
        assert seq1 == [seq1[0]] * 5  # fresh rng each call
        rng_a, rng_b = np.random.default_rng(9), np.random.default_rng(9)
        assert [sample_one(probs, rng_a)[0] for _ in range(20)] == \
            [sample_one(probs, rng_b)[0] for _ in range(20)]

    def test_eval_mode_argmax_tie_break(self):
        action, _ = sample_one(np.array([0.4, 0.4, 0.2]), rng=None)
        assert action == 0

    def test_samples_follow_distribution(self):
        rng = np.random.default_rng(1)
        probs = np.array([0.7, 0.0, 0.3])
        counts = np.bincount([sample_one(probs, rng)[0] for _ in range(2000)], minlength=3)
        assert counts[1] == 0
        assert abs(counts[0] / 2000 - 0.7) < 0.05


def scalar_sample_action(probs, rng=None):
    """The per-row sampler sample_actions replaced, verbatim: the oracle."""
    if rng is None:
        idx = int(np.argmax(probs))
    else:
        u = rng.random()
        cum = np.cumsum(probs)
        idx = int(np.searchsorted(cum, u * cum[-1], side="right"))
        idx = min(idx, len(probs) - 1)
    return idx, float(np.log(probs[idx]))


class FixedDraws:
    """A stand-in generator whose random() returns the given values in turn,
    to put u exactly on a cumulative-probability boundary."""

    def __init__(self, values):
        self.values = list(values)

    def random(self, size=None):
        if size is None:
            return self.values.pop(0)
        out, self.values = np.array(self.values[:size]), self.values[size:]
        return out


def sampling_rows():
    """Probability rows: softmax rows with masked (zero) columns, exact ties,
    and rows whose cumulative sum ends a few ulps off 1."""
    rng = np.random.default_rng(31)
    logits = rng.normal(scale=3.0, size=(400, 3))
    logits[rng.random((400, 3)) < 0.25] = -np.inf
    logits[np.isinf(logits).all(axis=1), 0] = 0.0
    soft = np.exp(logits - logits.max(axis=1, keepdims=True))
    soft /= soft.sum(axis=1, keepdims=True)
    ties = np.array([[0.4, 0.4, 0.2], [0.5, 0.5, 0.0], [1 / 3, 1 / 3, 1 / 3], [0.0, 0.5, 0.5],
                     [0.2, 0.4, 0.4], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    off = soft[:50] * (1.0 + rng.integers(-4, 5, size=(50, 1)) * np.finfo(float).eps)
    rows = np.concatenate([soft, ties, off, [[0.1, 0.2, 0.7], [0.7, 0.2, 0.1]]])
    assert (rows.sum(axis=1) != 1.0).any() and (rows == 0.0).any()
    return rows


class TestSampleActionsMatchesScalarSampler:
    def check(self, probs, make_rng):
        rng_batch, rng_rows = make_rng(), make_rng()
        actions, logp = nnet.sample_actions(probs, rng_batch)
        expected = [scalar_sample_action(row, rng_rows) for row in probs]
        assert actions.tolist() == [a for a, _ in expected]
        assert logp.tobytes() == np.array([lp for _, lp in expected]).tobytes()
        return rng_batch, rng_rows

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sampled_rows_and_generator_state(self, seed):
        rng_batch, rng_rows = self.check(sampling_rows(),
                                         lambda: np.random.default_rng(seed))
        assert rng_batch.bit_generator.state == rng_rows.bit_generator.state

    def test_greedy_rows_take_lowest_index_on_a_tie(self):
        probs = sampling_rows()
        self.check(probs, lambda: None)
        assert nnet.sample_actions(probs[400:407])[0].tolist() == [0, 0, 0, 1, 1, 2, 0]

    def test_draws_on_cumulative_boundaries(self):
        probs = np.array([[0.5, 0.5, 0.0], [0.25, 0.25, 0.5], [0.5, 0.5, 0.0],
                          [0.1, 0.2, 0.7], [0.4, 0.4, 0.2], [0.0, 1.0, 0.0]])
        # 1.0, which a real generator never returns, reaches the clamp to the last action
        draws = [0.5, 1.0, 1.0 - 2.0 ** -53, 0.0, 0.4, 0.0]
        rng_batch, rng_rows = self.check(probs, lambda: FixedDraws(draws))
        assert rng_batch.values == rng_rows.values == []


class TestGradients:
    def make_loss_inputs(self, rng, params):
        own, intr, intr_mask, act_mask = random_batch(rng)
        b = own.shape[0]
        actions = np.array([int(rng.integers(0, 3)) for _ in range(b)])
        actions = np.where(act_mask[np.arange(b), actions], actions, 0)
        logits, _, _ = nnet.forward(params, own, intr, intr_mask, act_mask)
        lp = nnet.masked_log_softmax(logits)
        old_logp = lp[np.arange(b), actions] + rng.normal(0, 0.01, b)
        return {
            "own": own, "intr": intr, "intr_mask": intr_mask, "act_mask": act_mask,
            "actions": actions, "old_logp": old_logp,
            "advantages": rng.normal(size=b), "returns": rng.normal(size=b),
        }

    def test_matches_central_finite_differences(self):
        rng = np.random.default_rng(12)
        params = nnet.init_params(4, 5)
        batch = self.make_loss_inputs(rng, params)
        _, grads, _ = nnet.ppo_loss_and_grads(params, batch, 0.2, 0.5, 0.01)
        flat = params.flat
        gflat = grads.flat
        assert len(flat) <= 200

        def loss_at(x):
            p = nnet.Params(params.hidden)
            p.flat[:] = x
            return nnet.ppo_loss_and_grads(p, batch, 0.2, 0.5, 0.01)[0]

        eps = 1e-5
        for i in range(len(flat)):
            xp, xm = flat.copy(), flat.copy()
            xp[i] += eps
            xm[i] -= eps
            fd = (loss_at(xp) - loss_at(xm)) / (2 * eps)
            diff = abs(fd - gflat[i])
            assert diff <= 1e-7 or diff / max(abs(fd), abs(gflat[i])) <= 1e-4

    def test_zero_advantages_leave_policy_term_inert(self):
        rng = np.random.default_rng(8)
        params = nnet.init_params(4, 6)
        batch = self.make_loss_inputs(rng, params)
        batch["advantages"] = np.zeros_like(batch["advantages"])
        # with no entropy bonus either, only the value head and trunk move
        _, grads, _ = nnet.ppo_loss_and_grads(params, batch, 0.2, 0.5, 0.0)
        assert np.allclose(grads["wp"], 0.0)
        assert np.allclose(grads["bp"], 0.0)
        assert not np.allclose(grads["wu"], 0.0)

    def test_ratio_one_surrogate_identity(self):
        rng = np.random.default_rng(9)
        params = nnet.init_params(4, 7)
        batch = self.make_loss_inputs(rng, params)
        logits, _, _ = nnet.forward(params, batch["own"], batch["intr"],
                                    batch["intr_mask"], batch["act_mask"])
        lp = nnet.masked_log_softmax(logits)
        batch["old_logp"] = lp[np.arange(len(batch["actions"])), batch["actions"]]
        _, _, stats = nnet.ppo_loss_and_grads(params, batch, 0.2, 0.5, 0.01)
        # at ratio exactly 1 the clipped surrogate reduces to -mean(advantage)
        assert stats["policy_loss"] == pytest.approx(-batch["advantages"].mean())
        assert stats["approx_kl"] == pytest.approx(0.0, abs=1e-12)

    def test_nonfinite_loss_aborts_with_diagnostics(self):
        rng = np.random.default_rng(10)
        params = nnet.init_params(4, 8)
        batch = self.make_loss_inputs(rng, params)
        batch["returns"] = np.full_like(batch["returns"], np.inf)
        with pytest.raises(SimulationError, match="non-finite"):
            nnet.ppo_loss_and_grads(params, batch, 0.2, 0.5, 0.01)


class TestSerialization:
    def test_round_trip_bit_exact(self):
        rng = np.random.default_rng(13)
        params = nnet.init_params(8, 3)
        restored = nnet.params_from_list(params.flat.tolist(), 8)
        assert restored.flat.tobytes() == params.flat.tobytes()
        own = rng.normal(size=6)
        intr = rng.normal(size=(3, 5))
        p1, v1 = nnet.policy_batch(params, *one_row(own, intr, (True, True, True)))
        p2, v2 = nnet.policy_batch(restored, *one_row(own, intr, (True, True, True)))
        assert np.array_equal(p1, p2) and np.array_equal(v1, v2)

    def test_json_round_trip_bit_exact(self):
        import json
        params = nnet.init_params(4, 4)
        restored = nnet.params_from_list(json.loads(json.dumps(params.flat.tolist())), 4)
        for key in params:
            assert np.array_equal(params[key], restored[key])

    @pytest.mark.parametrize("hidden", [1, 4, 64])
    def test_param_count_is_the_vector_length(self, hidden):
        assert nnet.param_count(hidden) == nnet.Params(hidden).flat.size
        assert nnet.param_count(hidden) == 7 * hidden**2 + 20 * hidden + 4

    @pytest.mark.parametrize("values, hidden, message", [
        # found from the lengths alone, before the weights are allocated
        ([0.0] * 196, 10**7,
         "params has shape (196,), expected (700000200000004,) for hidden 10000000"),
        ((0.0,) * 196, 4, "params must be a list, got tuple"),
        ([0.0] * 195 + [True], 4, "params[195] must be a number, got True"),
        ([0.0] * 195 + [float("nan")], 4, "params[195] must be finite, got nan"),
        ([0.0] * 195 + [10**400], 4, "params[195] must be finite, got 1000"),
    ], ids=["huge-hidden", "tuple", "bool", "nan", "huge-int"])
    def test_bad_vector_rejected(self, values, hidden, message):
        with pytest.raises(ValidationError) as exc:
            nnet.params_from_list(values, hidden)
        assert str(exc.value).startswith(message)

    def test_views_share_the_buffer(self):
        params = nnet.init_params(6, 5)
        keys = list(params)
        assert keys == [key for key, _ in nnet.param_layout(6)]
        offsets = np.cumsum([0] + [params[k].size for k in keys])
        assert params.flat.size == offsets[-1]
        # writing the vector changes every view, row-major from its offset
        params.flat[:] = np.arange(params.flat.size)
        for key, start in zip(keys, offsets):
            assert np.array_equal(params[key].ravel(),
                                  np.arange(start, start + params[key].size))
        # writing a view changes the vector there and nowhere else
        params["wt"][...] = -1.0
        i = keys.index("wt")
        assert (params.flat[offsets[i]:offsets[i + 1]] == -1.0).all()
        assert np.count_nonzero(params.flat == -1.0) == params["wt"].size
