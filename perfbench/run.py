"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload poisson-2d-raw --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics (untraced), ``--trace 1`` the
per-layer metrics of a traced run.  ``--seed`` draws the queries (sources
and arrival times).  Each workload's graph is a fixed dataset built from
``--graph-seed`` (default 1).  Graph seed 2 is the hold-out: re-check a
claim there, on a graph its author did not tune on.

Standard output carries one provenance row per metric,
``{bench, config, metric, value, unit, commit, env}``, then as its last
line ``{"correct", "attempted", "failed", "metrics"}``.  The exit code is
0 only when every output matched the serial oracle, the trace did not
change the simulated digest, and the serving run was valid.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _commit() -> str:
    """The git commit of the checkout, else a digest of the package sources."""
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30, check=True,
            )
            return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return "src-sha256:" + h.hexdigest()[:16]


def _env() -> dict[str, object]:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "host": platform.node(),
    }


#: glibc's mallopt parameter for the number of malloc arenas
M_ARENA_MAX = -8


def _one_malloc_arena() -> None:
    """Make every thread allocate from glibc's main arena (no-op elsewhere).

    Otherwise the serving workload's worker thread gets an arena of its own,
    memory freed in one arena is not reused by the other, and allocator
    timing decided ``peak_rss_mb``: 94 or 128 MB for the same seed.  With one
    arena it read 93-96 MB on every run.  Call before any thread starts.
    """
    try:
        ctypes.CDLL("libc.so.6").mallopt(M_ARENA_MAX, 1)
    except (OSError, AttributeError):
        pass


def _one_cpu() -> None:
    """Pin the process, and so every thread it starts, to one CPU (no-op elsewhere).

    Host seconds are rescaled by a reference kernel (``HostScale``), which
    only tracks the speed of the CPU it runs on.  On a shared 2-vCPU VM one
    vCPU can run at half the speed of the other, and a thread that migrates
    between them is timed on one and measured on the other.  The serving
    workload's worker and event-loop threads take turns under the GIL
    anyway, so one CPU costs them nothing.  Call before any thread starts.
    """
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (OSError, AttributeError, ValueError):
        pass


def _finite(value: float) -> float:
    # a failed query counts as missing every latency limit: report it as the
    # largest float, since JSON has no infinity
    return value if math.isfinite(value) else sys.float_info.max


def main(argv: list[str] | None = None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    _one_malloc_arena()
    _one_cpu()
    from workloads import WORKLOAD_NAMES, run_workload

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--graph-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload for smoke tests")
    args = parser.parse_args(argv)

    outcome = run_workload(
        args.workload, size=args.size, graph_seed=args.graph_seed, query_seed=args.seed,
        seconds=args.seconds, trace=bool(args.trace),
    )
    config = {
        "workload": args.workload, "size": args.size, "graph_seed": args.graph_seed,
        "query_seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "sim_digest": outcome.digest, "host_scale": outcome.host_scale,
    }
    commit, env = _commit(), _env()
    for metric, value in outcome.metrics.items():
        print(json.dumps({
            "bench": "perfbench", "config": config, "metric": metric,
            "value": _finite(value), "unit": outcome.units[metric],
            "commit": commit, "env": env,
        }))
    for note in outcome.notes:
        print(f"perfbench: {note}", file=sys.stderr)
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": _finite(value), "unit": outcome.units[name]}
            for name, value in outcome.metrics.items()
        },
    }))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
