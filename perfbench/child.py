"""One benchmark command in a fresh process.

    python3 perfbench/child.py [--trace-out FILE [--trace-memory]] -- <CLI args>
    python3 perfbench/child.py --gemm-probe SHAPES_JSON

The first form runs the rerankit CLI, optionally under the span recorder in
spans.py; the trace then also holds the moment this file began to run, which
ends interpreter start-up. The second times a raw matrix product `a @ b.T` for
each (rows, cols, dim) shape in the file and prints {"n,m,d": seconds} as JSON.
"""

import time

STARTED = time.perf_counter()  # CLOCK_MONOTONIC on Linux: comparable with the parent's clock

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402


def gemm_probe(shapes_path: str) -> int:
    import numpy as np

    with open(shapes_path, encoding="utf-8") as fh:
        shapes = [tuple(s) for s in json.load(fh)]
    rng = np.random.default_rng(0)
    seconds = {}
    for n, m, d in sorted(set(shapes)):
        a = rng.standard_normal((n, d))
        b = rng.standard_normal((m, d))
        _ = a[:256] @ b[:256].T  # BLAS warm-up
        best = float("inf")
        for _ in range(2):
            start = time.perf_counter()
            product = a @ b.T
            best = min(best, time.perf_counter() - start)
            del product
        seconds[f"{n},{m},{d}"] = best
    print(json.dumps(seconds))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace-out")
    parser.add_argument("--trace-memory", action="store_true")
    parser.add_argument("--gemm-probe")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    if args.gemm_probe:
        return gemm_probe(args.gemm_probe)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
    if not args.trace_out:
        return importlib.import_module("rerankit.cli").main(cli_args)

    import spans

    tracer = spans.install(track_memory=args.trace_memory)
    try:
        return importlib.import_module("rerankit.cli").main(cli_args)
    finally:
        tracer.dump(args.trace_out, STARTED)


if __name__ == "__main__":
    sys.exit(main())
