"""Where the traced runs put their spans, and the per-layer metric names.

Every traced run (and every league worker) installs the same wrappers,
so a layer that a workload bypasses is measured as zero rather than
assumed to be.  Each wrapper sits on a public function or method of the
program: a module attribute that callers look up at call time, or a
method on its class.
"""

from __future__ import annotations

import importlib

from spans import Tracer

# span name -> the public callables it wraps, as (module, attribute path)
SPANS: dict[str, tuple[tuple[str, str], ...]] = {
    "envs.step": (("repro.envs.core", "TimeLimit.step"),),
    "attacks.threat_step": (("repro.attacks.threat_models",
                             "StatePerturbationEnv.step"),),
    # every policy forward; the victim's are the ones under threat_step
    "nn.distribution": (("repro.rl.policy", "ActorCritic.distribution"),),
    "rl.attacker_act": (("repro.rl.policy", "ActorCritic.act"),),
    "serve.policy_forward": (("repro.rl.policy", "ActorCritic.act_batch"),),
    "rl.normalize": (("repro.rl.normalize", "ObservationNormalizer.__call__"),),
    "attacks.collect": (("repro.attacks.trainer", "collect_adversary_rollout"),),
    "attacks.knn_bonus": (("repro.attacks.imap.regularizers",
                           "PolicyCoverageRegularizer.compute"),),
    "attacks.knn_buffers": (("repro.attacks.imap.regularizers",
                             "PolicyCoverageRegularizer.after_update"),),
    "density.query": (("repro.density.index", "IncrementalKnnIndex.query"),),
    "rl.ppo_update": (("repro.rl.ppo", "PPOUpdater.update"),),
    "nn.backward": (("repro.nn.autograd", "Tensor.backward"),),
    "nn.adam_step": (("repro.nn.optim", "Adam.step"),),
    "nn.clip_grad": (("repro.nn", "clip_grad_norm"),),
    "rl.gae": (("repro.rl.buffers", "compute_gae"),),
    # canonicalization and content addressing of a request
    "serve.normalize": (("repro.serve.service", "normalize_request"),
                        ("repro.serve.service", "request_spec"),
                        ("repro.serve.service", "spec_key")),
    "serve.cache_lookup": (("repro.serve.request_cache", "RequestCache.lookup"),),
    "serve.cold_eval": (("repro.serve.service", "batched_evaluate"),),
    "store.get": (("repro.store.artifact_store", "ArtifactStore.get"),),
    "store.put": (("repro.store.artifact_store", "ArtifactStore.put"),),
    "league.materialize": (("repro.league.match", "materialize_victim"),),
    "eval.evaluate": (("repro.league.match", "evaluate_single_agent"),),
    "attacks.gradient": (("repro.attacks.gradient", "PgdAttack.action"),
                         ("repro.attacks.gradient", "CriticPgdAttack.action"),
                         ("repro.attacks.gradient",
                          "StrategicallyTimedAttack.action")),
    "league.leaderboard": (("repro.league.runner", "build_leaderboard"),
                           ("repro.league.runner", "render_leaderboard")),
}

# Per-layer metrics every traced run reports, with units.  Times are per
# operation of the workload: per iteration (imap_pc_train), per request
# (serve_mixed) or per match (league_whitebox).
PER_LAYER: dict[str, str] = {
    "envs.step_ms": "ms",
    "attacks.victim_act_ms": "ms",
    "attacks.threat_step_ms": "ms",
    "rl.attacker_act_ms": "ms",
    "rl.normalize_ms": "ms",
    "attacks.collect_ms": "ms",
    "attacks.knn_bonus_ms": "ms",
    "attacks.knn_buffers_ms": "ms",
    "density.query_ms": "ms",
    "density.rebuilds": "count",
    "rl.ppo_update_ms": "ms",
    "nn.backward_ms": "ms",
    "nn.adam_step_ms": "ms",
    "nn.clip_grad_ms": "ms",
    "rl.gae_ms": "ms",
    "nn.tensors_per_iter": "count",
    "rl.act_calls_per_iter": "count",
    "trace.overhead_samples_per_s": "1/s",
    "serve.normalize_ms": "ms",
    "serve.cache_lookup_ms": "ms",
    "store.get_ms": "ms",
    "store.put_ms": "ms",
    "serve.hit_ratio": "ratio",
    "serve.hit_ratio_base": "count",
    "store.memcache_hit_ratio": "ratio",
    "serve.loop_lag_p99_ms": "ms",
    "serve.cold_eval_ms": "ms",
    "serve.batch_items_per_call": "count",
    "serve.policy_forward_ms": "ms",
    "serve.generator_lag_p99_ms": "ms",
    "runtime.job_s": "s",
    "runtime.dispatch_ms": "ms",
    "runtime.payload_bytes": "bytes",
    "runtime.pickle_ms": "ms",
    "league.materialize_ms": "ms",
    "eval.evaluate_ms": "ms",
    "attacks.gradient_ms": "ms",
    "league.leaderboard_ms": "ms",
    "league.replay_ms": "ms",
}

# metric -> (span, "inclusive_s" | "self_s"): plain span-derived times
SPAN_METRICS: dict[str, tuple[str, str]] = {
    "envs.step_ms": ("envs.step", "inclusive_s"),
    "attacks.threat_step_ms": ("attacks.threat_step", "self_s"),
    "rl.attacker_act_ms": ("rl.attacker_act", "self_s"),
    "rl.normalize_ms": ("rl.normalize", "inclusive_s"),
    "attacks.collect_ms": ("attacks.collect", "self_s"),
    "attacks.knn_bonus_ms": ("attacks.knn_bonus", "inclusive_s"),
    "attacks.knn_buffers_ms": ("attacks.knn_buffers", "inclusive_s"),
    "density.query_ms": ("density.query", "inclusive_s"),
    "rl.ppo_update_ms": ("rl.ppo_update", "self_s"),
    "nn.backward_ms": ("nn.backward", "inclusive_s"),
    "nn.adam_step_ms": ("nn.adam_step", "inclusive_s"),
    "nn.clip_grad_ms": ("nn.clip_grad", "inclusive_s"),
    "rl.gae_ms": ("rl.gae", "inclusive_s"),
    "serve.normalize_ms": ("serve.normalize", "inclusive_s"),
    "serve.cache_lookup_ms": ("serve.cache_lookup", "inclusive_s"),
    "store.get_ms": ("store.get", "inclusive_s"),
    "store.put_ms": ("store.put", "inclusive_s"),
    "serve.cold_eval_ms": ("serve.cold_eval", "inclusive_s"),
    "serve.policy_forward_ms": ("serve.policy_forward", "inclusive_s"),
    "league.materialize_ms": ("league.materialize", "inclusive_s"),
    "eval.evaluate_ms": ("eval.evaluate", "inclusive_s"),
    "attacks.gradient_ms": ("attacks.gradient", "inclusive_s"),
}


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


def install(tracer: Tracer) -> None:
    """Install every span wrapper and the Tensor construction counter."""
    for name, targets in SPANS.items():
        for module_name, path in targets:
            owner, attr = _resolve(module_name, path)
            tracer.wrap(owner, attr, name)
    owner, attr = _resolve("repro.nn.autograd", "Tensor.__init__")
    tracer.count_calls(owner, attr, "nn.tensors")
    # rows per batched forward: act_batch(self, obs, ...)
    owner, attr = _resolve("repro.rl.policy", "ActorCritic.act_batch")
    tracer.count_calls(owner, attr, "serve.batch_items",
                       amount=lambda args: len(args[1]))


def span_metrics(tracer: Tracer, operations: int,
                 since: float = float("-inf")) -> dict[str, tuple[float, str]]:
    """Span-derived per-layer metrics, each per operation of the workload."""
    summary = tracer.summary(since=since)
    out: dict[str, tuple[float, str]] = {}
    for metric, (span, kind) in SPAN_METRICS.items():
        seconds = summary.get(span, {}).get(kind, 0.0)
        out[metric] = (seconds * 1e3 / operations, PER_LAYER[metric])
    # nn.distribution spans locate the victim's forward under threat_step;
    # under act and the PPO update they are part of the caller's own work.
    def forward_under(parent: str) -> float:
        return tracer.inclusive_under("nn.distribution", parent, since=since)

    for metric, parent in (("attacks.victim_act_ms", "attacks.threat_step"),
                           ("rl.attacker_act_ms", "rl.attacker_act"),
                           ("rl.ppo_update_ms", "rl.ppo_update")):
        extra = forward_under(parent) * 1e3 / operations
        out[metric] = (out.get(metric, (0.0,))[0] + extra, "ms")
    calls = summary.get("rl.attacker_act", {}).get("calls", 0)
    out["rl.act_calls_per_iter"] = (calls / operations, "count")
    return out
