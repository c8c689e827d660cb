import math

import numpy as np
import pytest

from faaslab.errors import ConfigError
from faaslab.nnet import (NetworkSpec, ParameterStore, actor_loss_and_grad,
                          critic_loss_and_grad, forward_actor, forward_critic,
                          forward_heads, head_entropy, init_params,
                          q_loss_and_grad)

RNG = np.random.default_rng(42)


def fd_grads(loss_fn, params, h=1e-5):
    """Central finite differences of a scalar loss over every parameter."""
    grads = []
    work = [p.copy() for p in params]
    for layer in work:
        flat = layer.reshape(-1)
        g = np.zeros_like(flat)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            up = loss_fn(work)
            flat[i] = keep - h
            down = loss_fn(work)
            flat[i] = keep
            g[i] = (up - down) / (2 * h)
        grads.append(g.reshape(layer.shape))
    return grads


def max_rel_err(analytic, numeric):
    worst = 0.0
    for a, n in zip(analytic, numeric):
        scale = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-6)
        worst = max(worst, float(np.max(np.abs(a - n) / scale)))
    return worst


def jitter(params, seed=0):
    """Shift all parameters (incl. zero biases) off ReLU kinks for FD checks."""
    rng = np.random.default_rng(seed)
    return [p + 0.05 * rng.standard_normal(p.shape) for p in params]


class TestForward:
    def test_zero_weights_give_uniform_heads(self):
        spec = NetworkSpec(input_dim=6, hidden=(4,), head_sizes=(11, 11, 11))
        params = [np.zeros_like(p) for p in init_params(spec)]
        probs = forward_actor(spec, params, np.ones(6))
        for head in probs:
            assert head.shape == (1, 11)
            assert np.allclose(head, 1.0 / 11.0)

    def test_softmax_algebra(self):
        # trunk-free network with hand-set logits: first logit ln 2, rest 0
        spec = NetworkSpec(input_dim=1, hidden=(), head_sizes=(11,))
        params = [np.zeros((1, 11)), np.zeros(11)]
        params[1][0] = math.log(2.0)
        p = forward_actor(spec, params, np.array([1.0]))[0][0]
        assert p[0] == pytest.approx(2.0 * p[1])
        assert p[0] == pytest.approx(2.0 / 12.0)

    def test_heads_sum_to_one(self):
        spec = NetworkSpec(input_dim=9, hidden=(12, 7), head_sizes=(11, 11, 11), seed=3)
        params = init_params(spec)
        x = RNG.uniform(0, 1, size=(5, 9))
        for head in forward_actor(spec, params, x):
            assert np.all(head >= 0.0)
            assert np.allclose(head.sum(axis=1), 1.0, atol=1e-6)

    def test_joint_policy_is_product_of_marginals(self):
        spec = NetworkSpec(input_dim=4, hidden=(6,), head_sizes=(3, 4, 5), seed=1)
        params = init_params(spec)
        probs = forward_actor(spec, params, RNG.uniform(0, 1, 4))
        joint = probs[0][0, 1] * probs[1][0, 2] * probs[2][0, 0]
        logs = sum(math.log(h[0, a]) for h, a in zip(probs, (1, 2, 0)))
        assert joint == pytest.approx(math.exp(logs))

    def test_entropy_bounds(self):
        spec = NetworkSpec(input_dim=5, hidden=(8,), head_sizes=(11,), seed=2)
        params = init_params(spec)
        for _ in range(20):
            p = forward_actor(spec, params, RNG.uniform(0, 1, 5))[0]
            h = head_entropy(p)[0]
            assert 0.0 <= h <= math.log(11) + 1e-12

    def test_zero_weight_critic_outputs_zero(self):
        spec = NetworkSpec(input_dim=7, hidden=(5, 5), head_sizes=(1,))
        params = [np.zeros_like(p) for p in init_params(spec)]
        assert forward_critic(spec, params, np.ones(7))[0] == 0.0

    def test_critic_finite_on_extreme_inputs(self):
        spec = NetworkSpec(input_dim=8, hidden=(150, 150), head_sizes=(1,), seed=9)
        params = init_params(spec)
        for x in (np.zeros(8), np.ones(8), np.full(8, 1.0)):
            assert np.isfinite(forward_critic(spec, params, x)[0])

    def test_dimension_mismatch_rejected(self):
        spec = NetworkSpec(input_dim=5, hidden=(4,), head_sizes=(1,))
        with pytest.raises(ConfigError):
            forward_critic(spec, init_params(spec), np.ones(6))


class TestActorGradient:
    def _setup(self, batch=3, seed=0):
        spec = NetworkSpec(input_dim=5, hidden=(8, 6), head_sizes=(4, 3, 5), seed=seed)
        params = jitter(init_params(spec), seed)
        rng = np.random.default_rng(seed)
        states = rng.uniform(0, 1, size=(batch, 5))
        actions = np.stack([rng.integers(0, k, size=batch) for k in (4, 3, 5)], axis=1)
        advantages = rng.normal(size=batch)
        return spec, params, states, actions, advantages

    def test_zero_advantage_zero_entropy_zero_gradient(self):
        spec, params, states, actions, _ = self._setup()
        _, grads = actor_loss_and_grad(spec, params, states, actions,
                                       np.zeros(states.shape[0]), entropy_beta=0.0)
        for g in grads:
            assert np.allclose(g, 0.0)

    def test_matches_finite_differences(self):
        spec, params, states, actions, advantages = self._setup(seed=7)

        def loss(p):
            return actor_loss_and_grad(spec, p, states, actions, advantages,
                                       entropy_beta=0.01)[0]

        _, analytic = actor_loss_and_grad(spec, params, states, actions,
                                          advantages, entropy_beta=0.01)
        assert max_rel_err(analytic, fd_grads(loss, params)) <= 1e-4

    def test_entropy_gradient_stationary_at_uniform(self):
        spec = NetworkSpec(input_dim=4, hidden=(6,), head_sizes=(11, 11, 11))
        params = [np.zeros_like(p) for p in init_params(spec)]
        states = RNG.uniform(0, 1, size=(2, 4))
        actions = np.zeros((2, 3), dtype=np.int64)
        _, grads = actor_loss_and_grad(spec, params, states, actions,
                                       np.zeros(2), entropy_beta=1.0)
        for g in grads:
            assert np.max(np.abs(g)) < 1e-12


class TestCriticGradient:
    def test_exact_fit_has_zero_gradient(self):
        spec = NetworkSpec(input_dim=5, hidden=(6,), head_sizes=(1,), seed=4)
        params = init_params(spec)
        states = RNG.uniform(0, 1, size=(4, 5))
        targets = forward_critic(spec, params, states)
        loss, grads = critic_loss_and_grad(spec, params, states, targets)
        assert loss == pytest.approx(0.0, abs=1e-18)
        for g in grads:
            assert np.allclose(g, 0.0)

    def test_matches_finite_differences(self):
        spec = NetworkSpec(input_dim=6, hidden=(7, 5), head_sizes=(1,), seed=5)
        params = jitter(init_params(spec), 5)
        states = RNG.uniform(0, 1, size=(4, 6))
        targets = RNG.normal(size=4)

        def loss(p):
            return critic_loss_and_grad(spec, p, states, targets)[0]

        _, analytic = critic_loss_and_grad(spec, params, states, targets)
        assert max_rel_err(analytic, fd_grads(loss, params)) <= 1e-4

    def test_duplicating_batch_keeps_mean_gradient(self):
        spec = NetworkSpec(input_dim=5, hidden=(6,), head_sizes=(1,), seed=6)
        params = init_params(spec)
        states = RNG.uniform(0, 1, size=(3, 5))
        targets = RNG.normal(size=3)
        _, once = critic_loss_and_grad(spec, params, states, targets)
        _, twice = critic_loss_and_grad(spec, params, np.vstack([states, states]),
                                        np.concatenate([targets, targets]))
        for a, b in zip(once, twice):
            assert np.allclose(a, b, atol=1e-12)


class TestQGradient:
    def test_matches_finite_differences(self):
        spec = NetworkSpec(input_dim=5, hidden=(6, 4), head_sizes=(8,), seed=8)
        params = jitter(init_params(spec), 8)
        states = RNG.uniform(0, 1, size=(4, 5))
        actions = RNG.integers(0, 8, size=4)
        targets = RNG.normal(size=4)

        def loss(p):
            return q_loss_and_grad(spec, p, states, actions, targets)[0]

        _, analytic = q_loss_and_grad(spec, params, states, actions, targets)
        assert max_rel_err(analytic, fd_grads(loss, params)) <= 1e-4


class TestParameterStore:
    def test_zero_gradient_is_noop_but_versions(self):
        spec = NetworkSpec(input_dim=4, hidden=(5,), head_sizes=(1,), seed=1)
        store = ParameterStore(spec)
        before = [p.copy() for p in store.params]
        zeros = [np.zeros_like(p) for p in store.params]
        assert store.apply(zeros) == 1
        assert store.apply(zeros) == 2
        for a, b in zip(before, store.params):
            assert np.array_equal(a, b)

    def test_first_adam_step_moves_by_learning_rate(self):
        spec = NetworkSpec(input_dim=2, hidden=(2,), head_sizes=(1,), seed=2)
        store = ParameterStore(spec)
        before = [p.copy() for p in store.params]
        ones = [np.ones_like(p) for p in store.params]
        store.apply(ones, lr=1e-4)
        # with zero moments, bias-corrected m/sqrt(v) = 1 -> step = lr/(1+eps)
        for b, p in zip(before, store.params):
            assert np.allclose(b - p, 1e-4, rtol=1e-6)

    def test_shape_mismatch_rejected(self):
        spec = NetworkSpec(input_dim=3, hidden=(4,), head_sizes=(1,))
        store = ParameterStore(spec)
        bad = [np.zeros_like(p) for p in store.params]
        bad[0] = np.zeros((1, 1))
        with pytest.raises(ConfigError):
            store.apply(bad)

    def test_clip_norm_scales_large_gradients(self):
        spec = NetworkSpec(input_dim=2, hidden=(2,), head_sizes=(1,), seed=3)
        a = ParameterStore(spec)
        b = ParameterStore(spec)
        huge = [np.full_like(p, 100.0) for p in a.params]
        norm = math.sqrt(sum(float((g ** 2).sum()) for g in huge))
        scaled = [g * (5.0 / norm) for g in huge]
        a.apply(huge, lr=1e-3, clip_norm=5.0)
        b.apply(scaled, lr=1e-3)
        for pa, pb in zip(a.params, b.params):
            assert np.allclose(pa, pb, atol=1e-15)

    def test_snapshot_isolated_from_updates(self):
        spec = NetworkSpec(input_dim=3, hidden=(3,), head_sizes=(1,), seed=4)
        store = ParameterStore(spec)
        snap = store.snapshot()
        store.apply([np.ones_like(p) for p in store.params])
        assert store.version == 1
        assert not np.array_equal(snap[0], store.params[0])


class TestCheckpoint:
    def test_roundtrip_reproduces_forward_exactly(self, tmp_path):
        spec = NetworkSpec(input_dim=6, hidden=(10, 10), head_sizes=(11, 11, 11), seed=5)
        store = ParameterStore(spec)
        store.apply([np.full_like(p, 0.1) for p in store.params])
        path = tmp_path / "actor.npz"
        store.save(path)
        loaded = ParameterStore.load(path)
        assert loaded.version == store.version
        assert loaded.spec == spec
        x = RNG.uniform(0, 1, size=(3, 6))
        for a, b in zip(forward_actor(spec, store.params, x),
                        forward_actor(spec, loaded.params, x)):
            assert np.array_equal(a, b)

    def test_adam_state_survives_roundtrip(self, tmp_path):
        spec = NetworkSpec(input_dim=3, hidden=(4,), head_sizes=(1,), seed=6)
        a = ParameterStore(spec)
        grads = [np.full_like(p, 0.5) for p in a.params]
        a.apply(grads)
        path = tmp_path / "c.npz"
        a.save(path)
        b = ParameterStore.load(path)
        a.apply(grads)
        b.apply(grads)
        for pa, pb in zip(a.params, b.params):
            assert np.array_equal(pa, pb)

    def test_wrong_dimension_rejected_on_use(self, tmp_path):
        spec = NetworkSpec(input_dim=4, hidden=(4,), head_sizes=(1,), seed=7)
        store = ParameterStore(spec)
        path = tmp_path / "c.npz"
        store.save(path)
        loaded = ParameterStore.load(path)
        with pytest.raises(ConfigError):
            forward_critic(loaded.spec, loaded.params, np.ones(9))

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            ParameterStore.load(tmp_path / "absent.npz")
