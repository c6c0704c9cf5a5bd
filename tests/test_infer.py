"""The graph-free inference lane (``Module.infer``) is bit-identical to
the Tensor path.

Rollouts, evaluations and victim forwards all run through ``infer``;
results stay reproducible only because every output byte and every RNG
draw matches what the autograd forward produced (see DESIGN.md,
"Inference lane").
"""

from __future__ import annotations

import copy

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn
from repro.nn import MLP, Adam, DiagGaussian, Tensor
from repro.nn.modules import _ACTIVATIONS
from repro.rl.policy import ActorCritic

LAYOUTS = ("init", "C", "F", "loaded")


def _set_layout(module, layout: str, seed: int) -> None:
    """Give ``module``'s weights one memory layout (BLAS results depend on it)."""
    if layout == "init":
        return  # orthogonal init: F-contiguous for most shapes
    if layout == "loaded":
        # Fresh values copied in place: keeps the init layout, as restored
        # checkpoints do.
        other_rng = np.random.default_rng(seed + 1)
        state = {name: other_rng.standard_normal(value.shape)
                 for name, value in module.state_dict().items()}
        module.load_state_dict(state)
        return
    order = np.ascontiguousarray if layout == "C" else np.asfortranarray
    for param in module.parameters():
        param.data = order(param.data)


def _inputs(rng, in_features: int, rows: int | None) -> np.ndarray:
    shape = (in_features,) if rows is None else (rows, in_features)
    return rng.standard_normal(shape) * 3.0


mlp_shapes = st.fixed_dictionaries({
    "in_features": st.integers(1, 7),
    "hidden": st.lists(st.integers(1, 9), min_size=0, max_size=3).map(tuple),
    "out_features": st.integers(1, 4),
    "rows": st.one_of(st.none(), st.integers(1, 6)),
    "seed": st.integers(0, 2**31 - 1),
    "layout": st.sampled_from(LAYOUTS),
})


class TestModuleInfer:
    @settings(deadline=None, max_examples=80)
    @given(shape=mlp_shapes, activation=st.sampled_from(sorted(_ACTIVATIONS)))
    def test_mlp_infer_matches_forward_bytes(self, shape, activation):
        rng = np.random.default_rng(shape["seed"])
        mlp = MLP(shape["in_features"], shape["hidden"], shape["out_features"],
                  hidden_activation=activation, rng=rng)
        _set_layout(mlp, shape["layout"], shape["seed"])
        x = _inputs(rng, shape["in_features"], shape["rows"])
        got = mlp.infer(x)
        want = mlp.forward(x).data
        assert isinstance(got, np.ndarray)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_weights_have_both_layouts(self):
        """The layouts the property test sweeps are really distinct."""
        mlp = MLP(5, (7,), 3, rng=np.random.default_rng(0))
        _set_layout(mlp, "C", 0)
        assert mlp.layer0.weight.data.flags.c_contiguous
        _set_layout(mlp, "F", 0)
        assert mlp.layer0.weight.data.flags.f_contiguous
        assert not mlp.layer0.weight.data.flags.c_contiguous

    def test_infer_builds_no_tensors(self, monkeypatch):
        mlp = MLP(4, (8, 8), 2, rng=np.random.default_rng(0))
        x = np.random.default_rng(1).standard_normal((3, 4))
        built = []
        original = Tensor.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            original(self, *args, **kwargs)

        monkeypatch.setattr(Tensor, "__init__", counting_init)
        mlp.infer(x)
        assert built == []
        mlp.forward(x)
        assert built  # the counter itself works

    def test_infer_reads_live_parameters(self):
        """No cached weights: optimizer steps and loads show up at once."""
        rng = np.random.default_rng(0)
        mlp = MLP(4, (8,), 2, rng=rng)
        x = rng.standard_normal((5, 4))
        before = mlp.infer(x)
        optimizer = Adam(mlp.parameters(), lr=1e-2)
        loss = (mlp(x) * mlp(x)).sum()
        optimizer.zero_grad()
        loss.backward()
        optimizer.step()
        stepped = mlp.infer(x)
        assert stepped.tobytes() != before.tobytes()
        assert stepped.tobytes() == mlp.forward(x).data.tobytes()
        other = MLP(4, (8,), 2, rng=np.random.default_rng(9))
        mlp.load_state_dict(other.state_dict())
        assert mlp.infer(x).tobytes() == other.infer(x).tobytes()


def _reference_sample(dist: DiagGaussian, rng: np.random.Generator) -> np.ndarray:
    """The Tensor-lane draw, spelled out so it shares no code with sample_array."""
    mean = dist.mean.data
    std = np.broadcast_to(np.exp(dist.log_std.data), mean.shape)
    return mean + std * rng.standard_normal(mean.shape)


class TestGaussianArrays:
    @settings(deadline=None, max_examples=60)
    @given(rows=st.one_of(st.none(), st.integers(1, 5)), dim=st.integers(1, 4),
           seed=st.integers(0, 2**31 - 1), deterministic=st.booleans())
    def test_sample_and_log_prob_match_tensor_path(self, rows, dim, seed,
                                                   deterministic):
        rng = np.random.default_rng(seed)
        shape = (dim,) if rows is None else (rows, dim)
        mean = rng.standard_normal(shape)
        log_std = rng.uniform(-2.0, 1.0, size=dim)
        dist = DiagGaussian(Tensor(mean), Tensor(log_std))
        ref_rng, got_rng = (np.random.default_rng(seed + 1) for _ in range(2))
        want = dist.mode() if deterministic else _reference_sample(dist, ref_rng)
        got = DiagGaussian.sample_array(mean, log_std, got_rng, deterministic)
        assert got.tobytes() == want.tobytes()
        assert got_rng.bit_generator.state == ref_rng.bit_generator.state
        want_lp = dist.log_prob(want).data
        got_lp = DiagGaussian.log_prob_array(got, mean, log_std)
        assert np.asarray(got_lp).tobytes() == want_lp.tobytes()


# --- ActorCritic --------------------------------------------------------


def _reference_step(policy: ActorCritic, normalized: np.ndarray,
                    rng: np.random.Generator, deterministic: bool):
    """What act/act_batch computed through the Tensor graph."""
    with nn.no_grad():
        dist = policy.distribution(normalized)
        action = dist.mode() if deterministic else _reference_sample(dist, rng)
        log_prob = dist.log_prob(action).data
        value_e = policy.critic(normalized).data.reshape(-1)
        value_i = (policy.critic_intrinsic(normalized).data.reshape(-1)
                   if policy.dual_value else np.zeros(value_e.shape))
    return action, log_prob, value_e, value_i


def _policy(seed: int, obs_dim: int, action_dim: int, hidden, dual: bool,
            warm: bool) -> ActorCritic:
    rng = np.random.default_rng(seed)
    policy = ActorCritic(obs_dim, action_dim, hidden_sizes=hidden,
                         dual_value=dual, rng=rng)
    if warm:  # non-trivial normalizer statistics
        policy.normalize(rng.standard_normal((7, obs_dim)) * 4.0 + 1.0, update=True)
    return policy


def _as_bytes(*arrays) -> list[bytes]:
    return [np.asarray(a, dtype=np.float64).tobytes() for a in arrays]


policy_cases = st.fixed_dictionaries({
    "seed": st.integers(0, 2**31 - 1),
    "obs_dim": st.integers(1, 6),
    "action_dim": st.integers(1, 4),
    "hidden": st.lists(st.integers(1, 8), min_size=1, max_size=2).map(tuple),
    "dual": st.booleans(),
    "warm": st.booleans(),
    "deterministic": st.booleans(),
    "update": st.booleans(),
})


class TestActorCriticInfer:
    @settings(deadline=None, max_examples=50)
    @given(case=policy_cases)
    def test_act_matches_tensor_path(self, case):
        policy = _policy(case["seed"], case["obs_dim"], case["action_dim"],
                         case["hidden"], case["dual"], case["warm"])
        reference = copy.deepcopy(policy)
        obs = np.random.default_rng(case["seed"] + 1).standard_normal(case["obs_dim"])
        got_rng, ref_rng = (np.random.default_rng(case["seed"] + 2) for _ in range(2))

        action, log_prob, value_e, value_i, normalized = policy.act(
            obs, got_rng, deterministic=case["deterministic"],
            update_normalizer=case["update"])
        ref_norm = reference.normalize(obs, update=case["update"])
        ref = _reference_step(reference, ref_norm, ref_rng, case["deterministic"])

        assert normalized.tobytes() == ref_norm.tobytes()
        assert action.tobytes() == ref[0].tobytes()
        assert isinstance(log_prob, float) and isinstance(value_e, float)
        assert _as_bytes(log_prob, value_e, value_i) == _as_bytes(
            ref[1], ref[2][0], ref[3][0])
        assert got_rng.bit_generator.state == ref_rng.bit_generator.state
        assert policy.normalizer.state()["count"] == reference.normalizer.state()["count"]

    @settings(deadline=None, max_examples=50)
    @given(case=policy_cases, rows=st.integers(1, 5))
    def test_act_batch_matches_tensor_path(self, case, rows):
        policy = _policy(case["seed"], case["obs_dim"], case["action_dim"],
                         case["hidden"], case["dual"], case["warm"])
        reference = copy.deepcopy(policy)
        obs = np.random.default_rng(case["seed"] + 1).standard_normal(
            (rows, case["obs_dim"]))
        got_rng, ref_rng = (np.random.default_rng(case["seed"] + 2) for _ in range(2))

        got = policy.act_batch(obs, got_rng, deterministic=case["deterministic"],
                               update_normalizer=case["update"])
        if rows == 1:
            # n=1 keeps the serial path (gemv, not a 1-row gemm).
            ref_norm = reference.normalize(obs[0], update=case["update"])[None]
            ref = _reference_step(reference, ref_norm[0], ref_rng,
                                  case["deterministic"])
            ref = (ref[0][None], np.reshape(ref[1], 1), ref[2], ref[3])
        else:
            ref_norm = reference.normalize(obs, update=case["update"])
            ref = _reference_step(reference, ref_norm, ref_rng, case["deterministic"])

        assert [a.shape[0] for a in got] == [rows] * 5
        assert _as_bytes(*got) == _as_bytes(*ref, ref_norm)
        assert got_rng.bit_generator.state == ref_rng.bit_generator.state

    def test_act_batch_of_one_equals_act(self):
        """The n_envs=1 parity guarantee: act_batch([x]) == act(x)."""
        policy = _policy(0, 5, 2, (8, 8), True, True)
        obs = np.random.default_rng(1).standard_normal(5)
        serial = policy.act(obs, np.random.default_rng(2))
        batched = policy.act_batch(obs[None], np.random.default_rng(2))
        assert _as_bytes(*(np.reshape(a, -1) for a in batched)) == _as_bytes(
            *(np.reshape(a, -1) for a in serial))

    @settings(deadline=None, max_examples=40)
    @given(case=policy_cases)
    def test_action_matches_tensor_path(self, case):
        policy = _policy(case["seed"], case["obs_dim"], case["action_dim"],
                         case["hidden"], case["dual"], case["warm"])
        obs = np.random.default_rng(case["seed"] + 1).standard_normal(case["obs_dim"])
        got_rng, ref_rng = (np.random.default_rng(case["seed"] + 2) for _ in range(2))

        got = policy.action(obs, got_rng, deterministic=case["deterministic"])
        ref = _reference_step(policy, policy.normalize(obs), ref_rng,
                              case["deterministic"])[0]
        assert got.tobytes() == ref.tobytes()
        assert got_rng.bit_generator.state == ref_rng.bit_generator.state

    def test_action_runs_only_the_actor(self, monkeypatch):
        policy = _policy(0, 4, 2, (8,), True, False)

        def forbidden(x):
            raise AssertionError("action() must not evaluate a critic head")

        monkeypatch.setattr(policy.critic, "infer", forbidden)
        monkeypatch.setattr(policy.critic_intrinsic, "infer", forbidden)
        policy.action(np.zeros(4), np.random.default_rng(0))
