"""Quick self-test of the benchmark (about two minutes on two cores).

    python3 perfbench/selftest.py

Runs every workload at a tiny size (``--quick``), untraced and traced,
and asserts that each run prints every end-to-end or per-layer metric
named in ``BENCHMARK.json`` with its unit.  Then feeds each output check
a corrupted result and asserts that it fails.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from common import CheckFailed  # noqa: E402


def _run(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "2", "--trace", str(trace), "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited "
                             f"{out.returncode}:\n{out.stderr[-3000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def check_emitted(spec: dict) -> None:
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = _run(workload, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] is True and result["failed"] == 0
            assert result["attempted"] >= 1
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, (workload, trace, sorted(set(want) ^ set(got)))
            for name, metric in result["metrics"].items():
                assert isinstance(metric["value"], (int, float)), name
            print(f"ok  {workload} trace={trace}: {len(got)} metrics")


def _expect_failure(label: str, check, *args) -> None:
    try:
        check(*args)
    except CheckFailed:
        print(f"ok  {label} is caught")
        return
    raise AssertionError(f"{label} was not caught")


def check_checks() -> None:
    import wl_league
    import wl_serve
    import wl_train

    history = [{"iteration": i, "j_ap": -0.5, "asr": 1.0, "policy_loss": 0.1,
                "value_loss": 0.2, "entropy": 1.0, "approx_kl": 0.01}
               for i in range(3)]
    wl_train.check_history(history)
    wl_train.check_same_history(history, copy.deepcopy(history))
    broken = copy.deepcopy(history)
    broken[1]["value_loss"] = float("nan")
    _expect_failure("a NaN in the training history", wl_train.check_history,
                    broken)
    drifted = copy.deepcopy(history)
    drifted[2]["j_ap"] = -0.5000000001
    _expect_failure("a traced history that drifts by one value",
                    wl_train.check_same_history, history, drifted)
    _expect_failure("a traced history one iteration short",
                    wl_train.check_same_history, history, history[:2])

    cold = {"key": "k1", "cached": False, "episode_rewards": [1.5, 2.0],
            "episode_successes": [False, True], "episode_lengths": [200, 200]}
    warm_ok = dict(cold, cached=True)
    request = {"eval": {"seed": 1}}
    wl_serve.check_warm([cold], [(request, warm_ok, False)])
    warm_bad = dict(warm_ok, episode_rewards=[1.5, 2.0000001])
    _expect_failure("a warm payload that differs from its cold payload",
                    wl_serve.check_warm, [cold], [(request, warm_bad, False)])
    _expect_failure("a warm request that was recomputed",
                    wl_serve.check_warm, [cold],
                    [(request, dict(warm_ok, cached=False), False)])

    board = b'{"entries": [1, 2, 3]}\n'
    wl_league.check_replay(0, board, board)
    flipped = bytearray(board)
    flipped[5] ^= 0x01
    _expect_failure("a flipped leaderboard byte", wl_league.check_replay, 0,
                    board, bytes(flipped))
    _expect_failure("a replay that schedules a match", wl_league.check_replay,
                    1, board, board)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_checks()
    check_emitted(spec)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
