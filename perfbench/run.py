"""Benchmark entry point.

Usage (from the repository root)::

    python3 perfbench/run.py --workload imap_pc_train --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrappers installed;
``--trace 1`` is a separate run that records spans around the layers and
reports the per-layer metrics (spans are written to
``.perfbench_out/trace-<workload>.json``).  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Workloads, metrics and the layer-to-metric predictions are
listed in ``BENCHMARK.json`` and ``perfbench/predictions.json``.
"""

from __future__ import annotations

import os
import sys

from common import THREAD_VARS  # standard library only: numpy is not loaded

# Pin every BLAS/OpenMP pool to one thread before numpy is first imported
# (pool workers inherit the environment).  Unpinned, OpenBLAS uses every
# core for small matmuls and iteration times spread by 2x on two cores.
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import traceback  # noqa: E402

from common import ROOT, CheckFailed, peak_rss_mb, provenance  # noqa: E402
from layers import PER_LAYER  # noqa: E402

WORKLOADS = ("imap_pc_train", "serve_mixed", "league_whitebox")


def _workload_module(name: str):
    if name == "imap_pc_train":
        import wl_train as module
    elif name == "serve_mixed":
        import wl_serve as module
    else:
        import wl_league as module
    return module


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes for the self-test; numbers are not "
                             "comparable with a normal run")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "tmp").mkdir(parents=True)
    # Keep every file the program writes (stores, pool heartbeats) inside
    # the checkout.
    os.environ["TMPDIR"] = str(work / "tmp")
    os.environ["REPRO_ARTIFACTS"] = str(work / "artifacts")
    os.environ["REPRO_STORE"] = str(work / "artifacts" / "store")
    import tempfile
    tempfile.tempdir = None  # re-read TMPDIR if tempfile already cached one

    module = _workload_module(args.workload)
    try:
        result, tracer = module.run(work, args.seed, args.seconds,
                                    bool(args.trace), quick=args.quick)
    except CheckFailed as exc:
        print(f"perfbench: output check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    except Exception:  # noqa: BLE001 — report and exit non-zero
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        # A layer the workload does not route through reports zero.
        for name, unit in PER_LAYER.items():
            result.metrics.setdefault(name, (0.0, unit))
    else:
        result.put("peak_rss_mb", peak_rss_mb(), "MB")
    prov = provenance()
    for name, (value, unit) in sorted(result.metrics.items()):
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(f"{args.workload} attempted={result.attempted} failed={result.failed} "
          f"failed_kinds={result.failed_kinds} checks={result.checks}")
    print(json.dumps({"provenance": prov, "info": result.info,
                      "failed_kinds": result.failed_kinds}, sort_keys=True))
    if tracer is not None:
        out = ROOT / ".perfbench_out" / f"trace-{args.workload}.json"
        tracer.dump(out, {"workload": args.workload, "seed": args.seed,
                          "provenance": prov})
    print(json.dumps({
        "correct": True,
        "attempted": int(result.attempted),
        "failed": int(result.failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(result.metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
