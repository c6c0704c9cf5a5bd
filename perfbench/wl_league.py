"""league_whitebox: a white-box league on a persistent one-worker pool.

Roster: ``random`` and the white-box ``pgd`` and ``critic-pgd`` attackers
against three smoke-scale zoo HalfCheetah victims (``ppo``, ``sa``,
``radial``), one round.  Set-up materializes the victims into a fresh store
and starts a one-worker :class:`~repro.runtime.WorkerPool`; the median of
``SETUP_REPEATS`` set-ups is ``setup_s``.  Each cold league goes through
``run_parallel`` on that pool, so job dispatch, payload pickling and
result return are exercised while only one process computes.  Leagues
with fresh eval seeds run until ``--seconds`` is used; then the last one
is replayed, all from the store.

End-to-end metrics (tracing off):

* ``matches_per_s`` — cold matches per second of cold-league wall time;
* ``req_p50_ms`` / ``req_p99_ms`` — wall time of one cold ``run_league``
  call (a round of 9 matches), the request a league user waits on.
  Single match durations are not used: the attacker classes react
  differently to the host's speed swings (critic-pgd matches sped up 1.6x
  when a two-core host got 1.4x faster), so their median jumps.
* ``samples_per_s`` — evaluation env samples per second of cold wall time.

Checks: no match fails, the replay schedules zero matches, and its
``leaderboard.json`` bytes equal the cold league's.
"""

from __future__ import annotations

import contextlib
import time
from pathlib import Path

import repro.league.runner as runner
from repro.league.match import materialize_victim, play_match
from repro.league.runner import run_league
from repro.league.spec import LeagueConfig, base_entrant, match_spec
from repro.runtime import WorkerPool
from repro.store import ArtifactStore

import layers
from common import CheckFailed, Result, median, percentile
from spans import Tracer

# Attackers whose match cost does not depend on the seed.  st-pgd is left
# out: it attacks the share of steps its calibration picks, so its cost
# varied 2x between victims and seeds and moved the round time with them.
ATTACKERS = ("random", "pgd", "critic-pgd")
# HalfCheetah never terminates early, so every evaluation episode runs to
# the 200-step limit and a match costs the same work whatever the seed.
VICTIMS = ("HalfCheetah-v0:ppo", "HalfCheetah-v0:sa", "HalfCheetah-v0:radial")
# Two PGD steps per attacked observation (the league default is five) keep
# a league near 8 s, so a run times about three leagues (27 matches) and
# the match-duration percentiles rest on more than one match per class.
PGD_STEPS = 2
SETUP_REPEATS = 3
WORKER_SPANS = "_perfbench_spans"


def league_config(seed: int, league: int, quick: bool):
    return LeagueConfig(attackers=ATTACKERS[:2] if quick else ATTACKERS,
                        victims=VICTIMS[:1] if quick else VICTIMS,
                        seed=seed % 1000, eval_seed=1000 + 97 * seed + league,
                        pgd_steps=1 if quick else PGD_STEPS)


def build(work: Path, index: int, config):
    """Full set-up from nothing: victims into a fresh store, then the pool."""
    store = ArtifactStore(work / f"league-store-{index}")
    for name in config.victims:
        materialize_victim(base_entrant(config, name)["spec"], store)
    return store, WorkerPool(max_workers=1)


def traced_play_match(match: dict, store_root: str) -> dict:
    """Pool-side job: ``play_match`` with the layer spans installed.

    The spans ride back to the parent inside the result record under
    ``WORKER_SPANS``; the parent takes them out before the league reads
    the record.
    """

    tracer = Tracer()
    tracer.request.set(f"{match['attack']}@{match['victim_name']}")
    layers.install(tracer)
    try:
        record = play_match(match, store_root)
    finally:
        tracer.restore()
    return dict(record, **{WORKER_SPANS: (tracer.spans, dict(tracer.counts))})


@contextlib.contextmanager
def league_schedules(trace: bool):
    """Yield the list of ``(ScheduleReport, pickle_s, payload_bytes)`` of
    every ``run_parallel`` call ``run_league`` makes.

    Traced, the pool runs :func:`traced_play_match` instead of
    ``play_match``, and each job's payload is pickled (and timed) before
    dispatch.
    """

    original_run, original_play = runner.run_parallel, runner.play_match
    reports: list = []

    def run_parallel(jobs, **kwargs):
        pickle_s, payload_bytes = 0.0, 0
        if trace:
            for job in jobs:
                start = time.perf_counter()
                payload_bytes += len(job.payload())
                pickle_s += time.perf_counter() - start
        report = original_run(jobs, **kwargs)
        reports.append((report, pickle_s, payload_bytes))
        return report

    runner.run_parallel = run_parallel
    if trace:
        runner.play_match = traced_play_match
    try:
        yield reports
    finally:
        runner.run_parallel, runner.play_match = original_run, original_play


def check_replay(scheduled: int, cold_board: bytes, replay_board: bytes) -> None:
    if scheduled:
        raise CheckFailed(f"replay scheduled {scheduled} matches, expected 0")
    if replay_board != cold_board:
        raise CheckFailed("replay leaderboard.json differs from the cold "
                          "league's")


def _samples(store, config) -> int:
    """Evaluation env steps of every match of ``config`` (from the store)."""
    total = 0
    for name in config.victims:
        entrant = base_entrant(config, name)
        for attacker in config.attackers:
            arrays, _ = store.get(match_spec(config, entrant, attacker))
            total += int(arrays["episode_lengths"].sum())
    return total


def run(work: Path, seed: int, seconds: float, trace: bool, quick: bool = False):
    result = Result()
    repeats = 1 if quick else SETUP_REPEATS
    setup_seconds, pool = [], None
    for index in range(repeats):
        if pool is not None:
            pool.close()
        start = time.perf_counter()
        store, pool = build(work, index, league_config(seed, 0, quick))
        setup_seconds.append(time.perf_counter() - start)

    tracer = Tracer() if trace else None
    cold_walls, leagues = [], []
    try:
        if tracer is not None:
            layers.install(tracer)
        with league_schedules(trace) as reports:
            while True:
                config = league_config(seed, len(leagues), quick)
                out = work / f"league-out-{len(leagues)}"
                start = time.perf_counter()
                league = run_league(config, store=store, out_dir=out, pool=pool)
                cold_walls.append(time.perf_counter() - start)
                leagues.append((config, league, out))
                elapsed = sum(cold_walls)
                if trace or elapsed + elapsed / len(leagues) > seconds * 1.25:
                    break
            cold_reports = list(reports)
            if tracer is not None:
                tracer.restore()
                parent = tracer.summary()
            start = time.perf_counter()
            config, _, out = leagues[-1]
            replay = run_league(config, store=store, out_dir=work / "replay",
                                pool=pool)
            replay_s = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.restore()
        pool.close()

    for config, league, _ in leagues:
        result.attempted += league.matches_scheduled
        for report in league.rounds:
            for kind, count in report.failed_kinds.items():
                result.fail(kind, count)
    if result.failed:
        raise CheckFailed(f"{result.failed} matches failed: "
                          f"{result.failed_kinds}")
    result.checks.append("no failed matches")
    samples = sum(_samples(store, config) for config, _, _ in leagues)
    check_replay(replay.matches_scheduled,
                 (out / "leaderboard.json").read_bytes(),
                 (work / "replay" / "leaderboard.json").read_bytes())
    result.checks.append("replay schedules nothing, leaderboard bytes equal")

    durations = [r.duration for report, _, _ in cold_reports
                 for r in report.results]
    matches = len(durations)
    cold_s = sum(cold_walls)
    result.info.update(leagues=len(leagues), matches=matches, cold_s=cold_s,
                       league_s=cold_walls, durations=durations,
                       replay_s=replay_s, samples=samples)
    if not trace:
        result.put("setup_s", median(setup_seconds), "s")
        result.put("matches_per_s", matches / cold_s, "1/s")
        result.put("samples_per_s", samples / cold_s, "1/s")
        result.put("req_p50_ms", percentile(cold_walls, 50) * 1e3, "ms")
        result.put("req_p99_ms", percentile(cold_walls, 99) * 1e3, "ms")
        return result, None

    worker = Tracer()
    pickle_s = payload_bytes = dispatch_s = 0.0
    for report, pickled, size in cold_reports:
        dispatch_s += report.wall_clock - sum(r.duration for r in report.results)
        pickle_s += pickled
        payload_bytes += size
        for job in report.results:
            spans, counts = job.value.pop(WORKER_SPANS)
            worker.merge(spans)
            worker.counts.update(counts)
    result.metrics.update(layers.span_metrics(worker, matches))
    result.put("store.get_ms",
               parent.get("store.get", {}).get("inclusive_s", 0.0) * 1e3 / matches,
               "ms")
    result.put("league.leaderboard_ms",
               parent.get("league.leaderboard", {}).get("inclusive_s", 0.0)
               * 1e3 / matches, "ms")
    result.put("league.replay_ms", replay_s * 1e3 / matches, "ms")
    result.put("runtime.job_s", sum(durations) / matches, "s")
    result.put("runtime.dispatch_ms", dispatch_s * 1e3 / matches, "ms")
    result.put("runtime.pickle_ms", pickle_s * 1e3 / matches, "ms")
    result.put("runtime.payload_bytes", payload_bytes / matches, "bytes")
    result.put("nn.tensors_per_iter", worker.counts["nn.tensors"] / matches,
               "count")
    tracer.merge(worker.spans)
    return result, tracer
