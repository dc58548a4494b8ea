"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload pretrain --seed 0 --seconds 15 --trace 0

A run sets the workload up several times (``setup_s`` is the median), then
repeats whole rounds of the workload's operations until ``--seconds`` have
passed, checks the outputs and prints one JSON object as the last line of
standard output: ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
every layer is wrapped and the metrics are the per-layer ones.  The line
before it holds the workload's own named figures (see README.md).

The run is one closed-loop caller in this process, with at most one BLAS
thread per core.  Inputs are generated from ``--seed`` under
``bench/_work/``, which is removed at the end; a traced run writes its spans
to ``bench/_out/``.
"""

import argparse
import importlib
import json
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import common  # noqa: E402  (sets the BLAS thread limit before numpy loads)

WORKLOADS = ("pretrain", "enroll-scan", "episodes")
SETUPS = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def peak_rss_mib():
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "seqshot" / "__init__.py").is_file():
        print(f"bench: no seqshot sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    wl = importlib.import_module("wl_" + args.workload.replace("-", "_"))
    if args.trace:
        import instrument
        import tracing
    work = HERE / "_work" / args.workload
    tracer = None
    try:
        setup_times = []
        for i in range(SETUPS):
            if args.trace and i == SETUPS - 1:
                tracer = tracing.Tracer()
                instrument.install(tracer)
            common.reset_dir(work)
            t0 = time.perf_counter()
            state = wl.setup(work, args.seed)
            setup_times.append(time.perf_counter() - t0)
        setup_rec = tracer.take() if tracer else None

        rounds = []
        t_start = time.perf_counter()
        while not rounds or time.perf_counter() - t_start < args.seconds:
            rounds.append(wl.run_round(state))
        if tracer:
            tracer.enabled = False
        result = wl.check(state, rounds)
    finally:
        if tracer:
            tracer.unwrap_all()
        common.remove_dir(work)

    ops = [op for r in rounds for op in r.ops]
    round_s = statistics.median(r.seconds for r in rounds)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "rounds": len(rounds), "problems": result.problems,
                      "figures": {k: {"value": v, "unit": u} for k, (v, u)
                                  in result.figures.items()}}))
    if args.trace:
        round_rec = tracer.take()
        out = HERE / "_out"
        out.mkdir(exist_ok=True)
        round_rec.dump(out / f"trace-{args.workload}-{args.seed}.json")
        extra = dict(result.layer_figures)
        extra["trace.round_s"] = round_s
        extra["trace.overhead_s"] = tracing.span_cost_s() * (
            len(setup_rec.spans) + len(round_rec.spans) / len(rounds))
        metrics = instrument.per_layer(setup_rec, round_rec, len(rounds),
                                       extra)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mib": {"value": peak_rss_mib(), "unit": "MiB"},
            "round_s": {"value": round_s, "unit": "s"},
        }
    print(json.dumps({"correct": not result.problems, "attempted": len(ops),
                      "failed": sum(op.failed for op in ops),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
