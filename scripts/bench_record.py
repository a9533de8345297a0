"""Summarise benchmark run records into a committed BENCH_<n>.json.

`perfbench/run.py --trace 0` leaves one record per workload and seed in
`.perfbench_work/results/<workload>-seed<n>-trace0.json`; each holds the
run's median of every end-to-end metric. This script groups the records
of one or more labelled result directories by workload and reports, per
metric, the median, the quartiles and the number of seeds, with the
git SHA, the SHA-256 of `src/` and the machine the runs came from. When
several labels are given, each later label is compared with the first:
the ratio of medians and, over the seeds both labels ran, the number of
seed pairs in which the later label was better (by the metric's
direction in BENCHMARK.json).

Usage:
    python3 scripts/bench_record.py --number 6 \\
        parent=../parent/.perfbench_work/results change=.perfbench_work/results

With no LABEL=DIR argument the records in `.perfbench_work/results` are
summarised under the label `change`. The output is `BENCH_<n>.json` at
the repository root unless `--out` names another path.
"""

import argparse
import json
import platform
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENVIRONMENT_KEYS = ("python", "numpy", "scipy", "blas", "blas_threads", "nproc",
                    "total_ram_mib")


def load_records(results_dir: Path) -> list[dict]:
    records = [json.loads(p.read_text(encoding="utf-8"))
               for p in sorted(results_dir.glob("*-trace0.json"))]
    if not records:
        raise SystemExit(f"error: no *-trace0.json records in {results_dir}")
    return records


def quartiles(values: list[float]) -> dict:
    ordered = sorted(values)
    if len(ordered) > 1:
        q1, median, q3 = statistics.quantiles(ordered, n=4, method="inclusive")
    else:
        q1 = median = q3 = ordered[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(ordered)}


def _one(values: set):
    """The single value the records agree on, or all of them sorted."""
    return values.pop() if len(values) == 1 else sorted(values, key=str)


def summarise(records: list[dict]) -> dict:
    """Per workload: seeds, correctness, and the quartiles of every metric."""
    workloads = {}
    for rec in sorted(records, key=lambda r: (r["workload"], r["seed"])):
        entry = workloads.setdefault(rec["workload"], {
            "seeds": [], "seconds": rec["seconds"], "correct": True,
            "attempted": 0, "failed": 0, "per_seed": {}})
        result = rec["result"]
        entry["seeds"].append(rec["seed"])
        entry["correct"] = entry["correct"] and result["correct"]
        entry["attempted"] += result["attempted"]
        entry["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            per_seed = entry["per_seed"].setdefault(name, {"unit": metric["unit"], "values": {}})
            per_seed["values"][str(rec["seed"])] = metric["value"]
    for entry in workloads.values():
        entry["metrics"] = {
            name: {"unit": m["unit"], **quartiles(list(m["values"].values())),
                   "per_seed": m["values"]}
            for name, m in entry.pop("per_seed").items()}
    env = [rec["environment"] for rec in records]
    return {
        "git_sha": _one({e.get("git_sha") for e in env}),
        "source_sha256": _one({e.get("source_sha256") for e in env}),
        "environment": {k: _one({e.get(k) for e in env}) for k in ENVIRONMENT_KEYS},
        "workloads": workloads,
    }


def compare(base: dict, other: dict, better: dict) -> dict:
    """Ratio of medians and seed pairs won by `other`, per workload and metric."""
    out = {}
    for workload, entry in other["workloads"].items():
        ref = base["workloads"].get(workload)
        if ref is None:
            continue
        rows = {}
        for name, metric in entry["metrics"].items():
            ref_metric = ref["metrics"].get(name)
            if ref_metric is None:
                continue
            seeds = sorted(set(metric["per_seed"]) & set(ref_metric["per_seed"]), key=int)
            sign = 1.0 if better.get(name, "lower") == "lower" else -1.0
            won = sum(sign * (ref_metric["per_seed"][s] - metric["per_seed"][s]) > 0
                      for s in seeds)
            rows[name] = {
                "ratio_of_medians": metric["median"] / ref_metric["median"]
                if ref_metric["median"] else None,
                "pairs_won": won,
                "pairs": len(seeds),
            }
        out[workload] = rows
    return out


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--number", type=int, required=True, help="n of BENCH_<n>.json")
    parser.add_argument("--out", type=Path, help="output path (default: BENCH_<n>.json at the root)")
    parser.add_argument("runs", nargs="*", metavar="LABEL=DIR",
                        help="labelled result directories; the first is the baseline")
    args = parser.parse_args(argv)
    pairs = args.runs or [f"change={ROOT / '.perfbench_work' / 'results'}"]
    labelled = []
    for pair in pairs:
        label, sep, directory = pair.partition("=")
        if not sep or not label:
            parser.error(f"expected LABEL=DIR, got {pair!r}")
        labelled.append((label, summarise(load_records(Path(directory)))))

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    base_label, base = labelled[0]
    doc = {
        "bench": args.number,
        "command": "python3 perfbench/run.py --workload W --seed S --seconds T --trace 0",
        "statistics": "per metric: median and quartiles over seeds of each run's median",
        "machine": {"cpu": cpu_model(), "platform": platform.platform()},
        "runs": dict(labelled),
        "comparisons": {f"{label} vs {base_label}": compare(base, summary, better)
                        for label, summary in labelled[1:]},
    }
    out = args.out or ROOT / f"BENCH_{args.number}.json"
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
