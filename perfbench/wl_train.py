"""imap_pc_train: serial IMAP-PC attack training against a Hopper victim.

The paper's unit of work (Algorithm 1): PPO on the state-perturbation
adversary MDP with the policy-coverage intrinsic regularizer, one env
(``n_envs=1``), 2048 samples per iteration, against a smoke-scale zoo
``ppo`` victim.  Set-up (victim training into a fresh store, env, trainer
and regularizer) is repeated and its median reported as ``setup_s``; one
warm-up iteration runs before timing starts.

End-to-end metrics (tracing off):

* ``samples_per_s`` — 2048 / median timed iteration wall time;
* ``matches_per_s`` — timed iterations per second (one attack-training
  round against the victim), from the same median;
* ``req_p50_ms`` / ``req_p99_ms`` — percentiles of the timed iterations'
  wall time (one iteration is the call a training loop waits on).

Per-step latencies are not used: on a shared two-core host the step time
flips between two modes (about 0.09 and 0.17 ms) every few milliseconds,
so their median lands in either mode depending on the neighbours' load.

The traced run (``--trace 1``) trains the same seed twice, untraced then
traced, for the same number of iterations; the histories must be equal.
"""

from __future__ import annotations

import math
import time
from pathlib import Path

from repro.attacks.base import AttackConfig
from repro.attacks.imap.regularizers import make_regularizer
from repro.attacks.threat_models import StatePerturbationEnv, default_epsilon
from repro.attacks.trainer import AdversaryTrainer
from repro.envs import make
from repro.experiments.config import SCALES
from repro.experiments.runner import victim_config_for
from repro.store import ArtifactStore
from repro.telemetry import Telemetry, use_telemetry
from repro.zoo import get_victim

import layers
from common import CheckFailed, Result, median, percentile
from spans import Tracer

ENV_ID = "Hopper-v0"
STEPS = 2048
SETUP_REPEATS = 5
MIN_TIMED_ITERATIONS = 3


class _Enough(Exception):
    """Raised from the trainer callback to end training early."""


def build(work: Path, seed: int, index: int, steps: int):
    """Full set-up from nothing: victim into a fresh store, then the trainer."""
    store = ArtifactStore(work / f"train-store-{index}")
    scale = SCALES["smoke"]
    victim = get_victim(ENV_ID, "ppo",
                        config=victim_config_for(ENV_ID, scale, seed=seed),
                        budget_tag=scale.budget_tag, seed=seed, store=store)
    env = StatePerturbationEnv(make(ENV_ID), victim,
                               epsilon=default_epsilon(ENV_ID), seed=seed)
    config = AttackConfig(iterations=100_000, steps_per_iteration=steps,
                          seed=seed)
    trainer = AdversaryTrainer(env, config,
                               regularizer=make_regularizer("pc", config),
                               name="IMAP-PC")
    return {"trainer": trainer, "env": env, "victim": victim}


def train(parts: dict, keep_going,
          tracer: Tracer | None = None) -> tuple[list[dict], list[float]]:
    """Train until ``keep_going(n_done, elapsed_timed_s)`` is false.

    Returns the per-iteration history and iteration end times (the first
    entry is the start time), so iteration ``i`` took
    ``marks[i + 1] - marks[i]``.  With a tracer, each iteration's spans
    carry the iteration index as their request id.
    """
    history: list[dict] = []
    marks = [time.perf_counter()]
    if tracer is not None:
        tracer.request.set(0)

    def callback(iteration, policy, record):
        marks.append(time.perf_counter())
        history.append(dict(record))
        if tracer is not None:
            tracer.request.set(len(history))
        if not keep_going(len(history), marks[-1] - marks[1]):
            raise _Enough

    try:
        parts["trainer"].train(callback=callback)
    except _Enough:
        pass
    return history, marks


def _e2e(result: Result, history: list[dict], marks: list[float]) -> None:
    timed_ms = [(b - a) * 1e3 for a, b in zip(marks[1:], marks[2:])]
    iteration_ms = median(timed_ms)
    samples = median(h["samples"] for h in history[1:])
    result.put("samples_per_s", samples / iteration_ms * 1e3, "1/s")
    result.put("matches_per_s", 1e3 / iteration_ms, "1/s")
    result.put("req_p50_ms", iteration_ms, "ms")
    result.put("req_p99_ms", percentile(timed_ms, 99), "ms")
    result.info["timed_iterations"] = len(timed_ms)
    result.info["samples_per_iteration"] = samples


def check_history(history: list[dict]) -> None:
    for record in history:
        for key in ("j_ap", "asr", "policy_loss", "value_loss", "entropy",
                    "approx_kl"):
            value = record[key]
            if not math.isfinite(float(value)):
                raise CheckFailed(f"iteration {record['iteration']}: "
                                  f"{key}={value!r} is not finite")


def check_same_history(untraced: list[dict], traced: list[dict]) -> None:
    if len(untraced) != len(traced):
        raise CheckFailed(f"traced run made {len(traced)} iterations, "
                          f"untraced {len(untraced)}")
    for a, b in zip(untraced, traced):
        if a != b:
            diff = sorted(k for k in a if a.get(k) != b.get(k))
            raise CheckFailed(f"iteration {a['iteration']}: traced history "
                              f"differs from untraced in {diff}")


def run(work: Path, seed: int, seconds: float, trace: bool, quick: bool = False):
    steps = 256 if quick else STEPS
    repeats = 1 if quick else SETUP_REPEATS
    result = Result()
    setup_seconds = []
    for index in range(repeats):
        start = time.perf_counter()
        parts = build(work, seed, index, steps)
        setup_seconds.append(time.perf_counter() - start)
    budget = seconds / 2 if trace else seconds

    def keep_going(done: int, elapsed: float) -> bool:
        return done < 1 + MIN_TIMED_ITERATIONS or elapsed < budget

    history, marks = train(parts, keep_going)
    result.attempted = len(history)
    check_history(history)
    result.checks.append("history finite")
    if not trace:
        _e2e(result, history, marks)
        result.put("setup_s", median(setup_seconds), "s")
        return result, None

    untraced = Result()
    _e2e(untraced, history, marks)

    tracer = Tracer()
    parts = build(work, seed, repeats, steps)
    layers.install(tracer)
    counters = Telemetry()
    n = len(history)
    # The program's own density.index.rebuilds counter; the trainer was
    # built outside this scope, so its timers and events stay off.
    try:
        with use_telemetry(counters):
            traced_history, traced_marks = train(
                parts, lambda done, _: done < n, tracer)
    finally:
        tracer.restore()
    check_history(traced_history)
    check_same_history(history, traced_history)
    result.checks.append("traced history equals untraced")
    traced = Result()
    _e2e(traced, traced_history, traced_marks)

    # Spans: per timed iteration (those starting after the warm-up).
    # Counters cannot be split by time: per iteration, warm-up included.
    result.metrics.update(layers.span_metrics(
        tracer, len(traced_history) - 1, since=traced_marks[1]))
    rebuilds = counters.metrics.snapshot().get("counters", {}).get(
        "density.index.rebuilds", 0.0)
    result.put("density.rebuilds", rebuilds / len(traced_history), "count")
    result.put("nn.tensors_per_iter",
               tracer.counts["nn.tensors"] / len(traced_history), "count")
    overhead = (traced.metrics["samples_per_s"][0]
                - untraced.metrics["samples_per_s"][0])
    result.put("trace.overhead_samples_per_s", overhead, "1/s")
    result.info["untraced_samples_per_s"] = untraced.metrics["samples_per_s"][0]
    result.info["traced_samples_per_s"] = traced.metrics["samples_per_s"][0]
    return result, tracer
