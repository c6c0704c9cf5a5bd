"""serve_mixed: an open-loop Poisson request stream into an in-process EvalService.

One asyncio process runs the service and the client (``LocalClient``).
Requests arrive at seeded Poisson times (``RATE`` per second, open loop:
a request is sent when due, whatever the service is doing).  Most repeat
a warm set of ``WARM_SET`` random-attack evaluations that set-up already
computed, so they are answered by the request cache and the store's
in-memory LRU.  A fixed ``COLD_SHARE`` are random-attack evaluations with
fresh eval seeds: they run inline on the event loop, micro-batched.

With 2% cold requests, the 99th latency percentile is the median of the
cold class, away from the boundary between the warm and cold classes.
HalfCheetah never terminates early, so every cold evaluation is the same
work (``EPISODES`` x 200 steps, about 0.1 s) whatever the victim and the
seed, and cold requests keep the loop busy about a fifth of the time: the
warm median stays among requests that did not queue behind one.

End-to-end metrics (tracing off):

* ``req_p50_ms`` / ``req_p99_ms`` — request latency, timed from the
  request's due time to its response;
* ``matches_per_s`` — responses per second (every request evaluates one
  attack-victim cell) over the stream;
* ``samples_per_s`` — env samples the cold lane evaluated per second of
  stream.  Both rates follow the offered load while the service keeps up.

Requests that fail or take longer than ``LATENCY_LIMIT_S`` count as
failed.  Checks: no request fails, and every warm response's episode
arrays equal the cold response set-up got for the same request.
"""

from __future__ import annotations

import asyncio
import time
from pathlib import Path

from repro.serve import EvalService, LocalClient, ServeConfig
from repro.serve.compute import victim_train_config
from repro.serve.protocol import normalize_request
from repro.store import ArtifactStore
from repro.telemetry import Telemetry
from repro.zoo import get_victim

import layers
from common import CheckFailed, Result, median, percentile
from spans import Tracer

ENV_ID = "HalfCheetah-v0"
RATE = 100.0
COLD_SHARE = 0.02
WARM_SET = 16
EPISODES = 2
LATENCY_LIMIT_S = 5.0
SETUP_REPEATS = 3
SPIN_S = 0.002
EPISODE_FIELDS = ("episode_rewards", "episode_successes", "episode_lengths")


def make_request(victim_seed: int, eval_seed: int) -> dict:
    return {"env_id": ENV_ID,
            "victim": {"seed": victim_seed, "iterations": 4,
                       "steps_per_iteration": 512},
            "attack": {"kind": "random"},
            "eval": {"episodes": EPISODES, "seed": eval_seed}}


def make_schedule(seed: int, n_requests: int):
    """The seeded request mix: (due offset s, request, is_cold) per request."""
    import numpy as np

    rng = np.random.default_rng(np.random.SeedSequence([seed, 7]))
    victim_seed = int(rng.integers(0, 1000))
    warm = [make_request(victim_seed, int(s))
            for s in rng.choice(1_000_000, size=WARM_SET, replace=False)]
    # One cold request in the middle of each block of 1/COLD_SHARE requests:
    # the cold count is exact and colds (about 0.1 s each) do not overlap
    # one another, so a cold request's latency does not depend on where
    # the seed happened to put the others.
    n_cold = max(1, round(n_requests * COLD_SHARE))
    block = n_requests // n_cold
    cold_at = {k * block + block // 2 for k in range(n_cold)}
    # Poisson arrivals conditioned on the stream lasting n / RATE seconds
    offsets = np.cumsum(rng.exponential(1.0, size=n_requests))
    offsets *= (n_requests / RATE) / offsets[-1]
    schedule, fresh = [], 1_000_000
    for i in range(n_requests):
        if i in cold_at:
            schedule.append((float(offsets[i]),
                             make_request(victim_seed, fresh + i), True))
        else:
            pick = int(rng.integers(0, WARM_SET))
            schedule.append((float(offsets[i]), warm[pick], False))
    return warm, schedule


async def build(work: Path, index: int, warm: list[dict], store_telemetry=None):
    """Full set-up from nothing: victim into a fresh store, service, warm set."""
    store = ArtifactStore(work / f"serve-store-{index}", cache_size=64,
                          telemetry=store_telemetry)
    normalized = normalize_request(warm[0])
    victim = normalized["victim"]
    get_victim(ENV_ID, victim["defense"], config=victim_train_config(normalized),
               budget_tag=victim["budget_tag"], seed=victim["seed"], store=store)
    service = EvalService(store, ServeConfig(job_timeout=600.0))
    client = LocalClient(service)
    cold = [await client.evaluate(request) for request in warm]
    return service, client, cold


def check_warm(cold: list[dict], responses) -> None:
    """Every warm response carries the same episodes as its cold answer."""
    by_key = {payload["key"]: payload for payload in cold}
    for _, payload, is_cold in responses:
        if is_cold or payload is None:
            continue
        reference = by_key.get(payload["key"])
        if reference is None:
            raise CheckFailed(f"warm response for unknown key {payload['key']}")
        if not payload["cached"]:
            raise CheckFailed(f"warm request {payload['key'][:12]} was recomputed")
        for field in EPISODE_FIELDS:
            if payload[field] != reference[field]:
                raise CheckFailed(f"warm response {payload['key'][:12]}: "
                                  f"{field} differs from the cold response")


async def _stream(client, schedule, tracer: Tracer | None):
    loop = asyncio.get_running_loop()
    latencies = [0.0] * len(schedule)
    responses: list = [None] * len(schedule)
    errors: dict[str, int] = {}
    gen_lag: list[float] = []

    async def one(i: int, request: dict, due: float, is_cold: bool) -> None:
        if tracer is not None:
            tracer.request.set(i)
        try:
            payload = await client.evaluate(request)
        except Exception as exc:  # noqa: BLE001 — counted as a failed request
            kind = getattr(exc, "error_kind", type(exc).__name__)
            errors[kind] = errors.get(kind, 0) + 1
            payload = None
        latencies[i] = loop.time() - due
        responses[i] = (request, payload, is_cold)

    start = loop.time() + 0.05
    tasks = []
    for i, (offset, request, is_cold) in enumerate(schedule):
        due = start + offset
        # The loop's timers wake up to a millisecond late; sleep short of
        # the due time, then yield to other tasks until it arrives.
        delay = due - loop.time() - SPIN_S
        if delay > 0:
            await asyncio.sleep(delay)
        while loop.time() < due:
            await asyncio.sleep(0)
        gen_lag.append(loop.time() - due)
        tasks.append(asyncio.create_task(one(i, request, due, is_cold)))
    await asyncio.gather(*tasks)
    wall = loop.time() - start
    return latencies, responses, errors, gen_lag, wall


def _counters(telemetry) -> dict[str, float]:
    return dict(telemetry.metrics.snapshot().get("counters", {}))


async def _ticker(stop: asyncio.Event, lags: list[float],
                  interval: float = 0.005) -> None:
    loop = asyncio.get_running_loop()
    while not stop.is_set():
        before = loop.time()
        await asyncio.sleep(interval)
        lags.append(loop.time() - before - interval)


async def _main(work: Path, seed: int, seconds: float, trace: bool,
                repeats: int, result: Result):
    n_requests = max(50, int(RATE * seconds))
    warm, schedule = make_schedule(seed, n_requests)
    setup_seconds = []
    for index in range(repeats):
        t0 = time.perf_counter()
        service, client, cold = await build(work, index, warm)
        setup_seconds.append(time.perf_counter() - t0)
        if index + 1 < repeats:
            service.close()

    tracer = store_counters = None
    lags: list[float] = []
    stop = asyncio.Event()
    ticker = None
    if trace:
        # The store's own hit/memcache counters; the service stays untraced.
        store_counters = Telemetry()
        service.close()
        service, client, cold = await build(work, repeats, warm,
                                            store_telemetry=store_counters)
        before = (service.stats()["counters"],
                  _counters(store_counters))
        tracer = Tracer()
        layers.install(tracer)
        ticker = asyncio.create_task(_ticker(stop, lags))
    try:
        latencies, responses, errors, gen_lag, wall = await _stream(
            client, schedule, tracer)
    finally:
        stop.set()
        if ticker is not None:
            await ticker
        if tracer is not None:
            tracer.restore()
        stats = service.stats()
        service.close()

    result.attempted = len(schedule)
    for kind, count in errors.items():
        result.fail(kind, count)
    slow = sum(1 for (r, p, _), lat in zip(responses, latencies)
               if p is not None and lat > LATENCY_LIMIT_S)
    if slow:
        result.fail("latency_limit", slow)
    if result.failed:
        raise CheckFailed(f"{result.failed} of {len(schedule)} requests "
                          f"failed: {result.failed_kinds}")
    result.checks.append("no failed requests")
    check_warm(cold, responses)
    result.checks.append("warm responses equal cold responses")

    n_cold = sum(1 for *_, is_cold in responses if is_cold)
    samples = sum(sum(p["episode_lengths"]) for _, p, is_cold in responses
                  if is_cold)
    result.info.update(requests=len(schedule), cold=n_cold, wall_s=wall,
                       generator_lag_p99_ms=percentile(gen_lag, 99) * 1e3)
    if not trace:
        result.put("setup_s", median(setup_seconds), "s")
        result.put("req_p50_ms", percentile(latencies, 50) * 1e3, "ms")
        result.put("req_p99_ms", percentile(latencies, 99) * 1e3, "ms")
        result.put("matches_per_s", len(schedule) / wall, "1/s")
        result.put("samples_per_s", samples / wall, "1/s")
        return None

    metrics = layers.span_metrics(tracer, len(schedule))
    # cold-lane layers are per cold request
    for name in ("serve.cold_eval_ms", "serve.policy_forward_ms",
                 "envs.step_ms", "store.put_ms"):
        metrics[name] = (metrics[name][0] * len(schedule) / n_cold,
                         metrics[name][1])
    result.metrics.update(metrics)
    # counter deltas over the stream (set-up computed the warm set)
    service_before, store_before = before
    counters = {k: v - service_before.get(k, 0.0)
                for k, v in stats["counters"].items()}
    requests = counters.get("serve.requests", 0.0)
    result.put("serve.hit_ratio", counters.get("serve.cache_hits", 0.0) / requests,
               "ratio")
    result.put("serve.hit_ratio_base", requests, "count")
    store = {k: v - store_before.get(k, 0.0)
             for k, v in _counters(store_counters).items()}
    hits = store.get("store.hits", 0.0)
    result.put("store.memcache_hit_ratio",
               store.get("store.memcache_hits", 0.0) / hits if hits else 0.0,
               "ratio")
    summary = tracer.summary()
    calls = summary.get("serve.policy_forward", {}).get("calls", 0)
    result.put("serve.batch_items_per_call",
               tracer.counts["serve.batch_items"] / calls if calls else 0.0,
               "count")
    result.put("serve.loop_lag_p99_ms", percentile(lags, 99) * 1e3, "ms")
    result.put("serve.generator_lag_p99_ms", percentile(gen_lag, 99) * 1e3, "ms")
    result.put("nn.tensors_per_iter", tracer.counts["nn.tensors"] / len(schedule),
               "count")
    return tracer


def run(work: Path, seed: int, seconds: float, trace: bool, quick: bool = False):
    result = Result()
    repeats = 1 if quick else SETUP_REPEATS
    tracer = asyncio.run(_main(work, seed, seconds, trace, repeats, result))
    return result, tracer
