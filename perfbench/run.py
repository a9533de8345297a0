"""rerankit benchmark: the real CLI as a closed loop, one command per fresh process.

Run from the repository root:

    python3 perfbench/run.py --workload rerank-12k --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py --record-references [--workload NAME]

One client sends one command at a time and waits for it; each command is a
fresh `python3 perfbench/child.py -- <rerankit args>` process with the
machine's default BLAS threading. The program only sees the files that
`rerankit synth` generates from the seed. Every command's output is checked
against perfbench/reference.json (recorded from this code with
--record-references) to 1e-9.

With `--trace 0` the run reports the end-to-end metrics of BENCHMARK.json.
With `--trace 1` the commands run under the span recorder in spans.py and
the run reports the per-layer metrics: untraced and traced iterations
alternate (their ratio is `trace_overhead`); then one traced `rerank` runs
with a single BLAS thread and one under tracemalloc; then a child times a raw
GEMM on every distance shape the traced iterations used.

The last line of standard output is the JSON result; the lines before it
give the environment and each metric's median, tail and sample count. A
fuller record goes to .perfbench_work/results/.
"""

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib.metadata import version
from pathlib import Path

import numpy as np

sys.dont_write_bytecode = True  # keep perfbench/ free of __pycache__
import spans  # noqa: E402  (perfbench/ is on sys.path as the script's directory)

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_work"
REFERENCE = BENCH / "reference.json"
CHILD = BENCH / "child.py"

# Inputs come from one of DATA_SEEDS recorded data sets (seed mod DATA_SEEDS),
# so every run is checked against reference values of this code.
DATA_SEEDS = 10
TOLERANCE = 1e-9
SETUP_REPEATS = 3
# A run ends within --seconds plus this allowance (set-up, the last iteration
# that starts before --seconds end, and the traced run's extra passes), or it
# fails. At --seconds 30 that is 170 s.
DEADLINE_ALLOWANCE_S = 140.0
MIB = 1024.0 * 1024.0

# dim 128 at intra-noise 0.14 puts the noise norm near 1.6x the signal: the
# signal-dominated regime where DMON helps (mAP about 0.6-0.7). 10 samples
# per identity, 2 of them queries, so Nq = Ng / 4.
SYNTH_FLAGS = (
    "--per-id", "10", "--dim", "128", "--cams", "4",
    "--intra-noise", "0.14", "--query-fraction", "0.2",
)

# Layers that do work on every workload; the traced run fails if one of them
# records no call, so a moved or renamed function cannot report zero silently.
COMMON_LAYERS = (
    "cli.main",
    "matrix_ops.as_feature_matrix",
    "matrix_ops.l2_normalize_rows",
    "matrix_ops.pairwise_sq_euclidean",
    "matrix_ops.topk_smallest",
    "enhance.build_first_order",
    "enhance.expand_order",
    "enhance.adaptive_sigma",
    "enhance.gaussian_weights",
    "enhance.latent_features",
    "enhance.enhance",
    "optimize.optimize",
    "metrics.evaluate",
    "io_formats.read_npy",
    "io_formats.write_npy",
    "io_formats.read_labels",
    "pipeline.compute_refined_distances",
    "pipeline.rerank_files",
    "pipeline.eval_files",
    "synthetic.generate",
)
DENSE_ARO = ("optimize.neighborhood_filter", "optimize.asymmetric_similarity")
STREAMED_ARO = ("optimize._similarity_streamed",)


@dataclass(frozen=True)
class Workload:
    name: str
    num_ids: int
    layers: tuple

    @property
    def num_queries(self) -> int:
        return 2 * self.num_ids

    @property
    def num_gallery(self) -> int:
        return 8 * self.num_ids


WORKLOADS = {
    w.name: w
    for w in (
        # Gallery 6.4k <= 8192: ARO takes the dense route.
        Workload("rerank-6k", 800, COMMON_LAYERS + DENSE_ARO),
        # Gallery 12.8k: streamed ARO, DMON materialises 12.8k^2, 328 MB dist file.
        Workload("rerank-12k", 1600, COMMON_LAYERS + STREAMED_ARO),
    )
}


class SetupError(Exception):
    pass


class DeadlineReached(Exception):
    pass


class _Alarm(Exception):
    pass


def _on_alarm(_signum, _frame):
    raise _Alarm()


@dataclass
class Command:
    tag: str
    returncode: int
    spawned: float  # perf_counter() just before the child was started
    seconds: float
    rss_mib: float
    stderr: str


@dataclass
class Iteration:
    commands: dict
    wall: float
    traces: dict = field(default_factory=dict)


class Runner:
    """Starts each command as a child, waits for it and counts outcomes."""

    def __init__(self, run_dir: Path, deadline: float):
        self.run_dir = run_dir
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def env(self, blas_threads=None) -> dict:
        env = dict(os.environ)
        src = str(ROOT / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
        if blas_threads is not None:
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
                env[var] = str(blas_threads)
        return env

    def run(self, tag, child_args, env) -> Command:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise DeadlineReached(tag)
        argv = [sys.executable, str(CHILD), *child_args]
        out_path = self.run_dir / f"{tag}.out"
        err_path = self.run_dir / f"{tag}.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out, stderr=err)
            signal.setitimer(signal.ITIMER_REAL, remaining)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException as exc:  # deadline, SIGTERM or interrupt: stop the child
                proc.kill()
                os.wait4(proc.pid, 0)
                proc.returncode = -signal.SIGKILL
                if isinstance(exc, _Alarm):
                    raise DeadlineReached(tag) from None
                raise
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        stderr = err_path.read_text(encoding="utf-8", errors="replace")[-2000:]
        return Command(tag, proc.returncode, start, seconds, usage.ru_maxrss / 1024.0, stderr)

    def record(self, label, error):
        self.attempted += 1
        if error:
            self.failed += 1
            self.failures.append(f"{label}: {error}")


# ---------------------------------------------------------------- workload steps


def synth_args(workload: Workload, data_seed: int, out: Path) -> list:
    return ["synth", "--ids", str(workload.num_ids), *SYNTH_FLAGS,
            "--seed", str(data_seed), "--out", str(out)]


def sequence(data: Path, out: Path) -> list:
    """The commands of one iteration: rerank, then eval of its distances."""
    return [
        ("rerank", ["rerank", "--query", str(data / "q.npy"),
                    "--gallery", str(data / "g.npy"), "--out", str(out)]),
        ("eval", ["eval", "--dist", str(out / "dist.npy"),
                  "--query-labels", str(data / "q_labels.csv"),
                  "--gallery-labels", str(data / "g_labels.csv"),
                  "--out", str(out / "report.json")]),
    ]


def setup(runner: Runner, workload: Workload, data_seed: int, repeats: int, trace_file=None):
    """`rerankit synth` of the workload data plus the warm-up, `repeats` times.

    The warm-up is `rerankit --version` in a fresh process, which loads the
    interpreter, numpy, scipy and every rerankit module, so the first timed
    command does not pay for cold library pages or bytecode compilation.
    """
    data = runner.run_dir / "data"
    times = []
    env = runner.env()
    for _ in range(repeats):
        start = time.perf_counter()
        trace = ["--trace-out", str(trace_file)] if trace_file else []
        synth = runner.run("synth", [*trace, "--", *synth_args(workload, data_seed, data)], env)
        warm = runner.run("warmup", ["--", "--version"], env)
        times.append(time.perf_counter() - start)
        for cmd in (synth, warm):
            if cmd.returncode != 0:
                raise SetupError(f"{cmd.tag} exited {cmd.returncode}: {cmd.stderr.strip()}")
    return data, times


def check_distances(path: Path, shape) -> str | None:
    try:
        dist = np.load(path, mmap_mode="r")
    except (OSError, ValueError) as exc:
        return f"cannot read {path.name}: {exc}"
    if dist.shape != shape or dist.dtype != np.float64:
        return f"{path.name} is {dist.dtype}{dist.shape}, expected float64{shape}"
    for start in range(0, shape[0], 512):
        if not np.isfinite(dist[start:start + 512]).all():
            return f"{path.name} has a non-finite entry in rows {start}..{start + 511}"
    return None


def _close(a, b) -> bool:
    return abs(float(a) - float(b)) <= TOLERANCE


def check_report(path: Path, ref: dict) -> str | None:
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return f"cannot read {path.name}: {exc}"
    if doc.get("valid_queries") != ref["valid_queries"]:
        return f"valid_queries {doc.get('valid_queries')} != {ref['valid_queries']}"
    if not _close(doc["mAP"], ref["mAP"]):
        return f"mAP {doc['mAP']!r} != reference {ref['mAP']!r}"
    cmc = doc.get("cmc", [])
    if len(cmc) != len(ref["cmc"]) or not all(map(_close, cmc, ref["cmc"])):
        return "CMC curve differs from the reference"
    return None


def output_errors(workload: Workload, out: Path, ref: dict, commands: dict) -> dict:
    """Per command: None when it exited 0 and its output matches the reference."""
    errors = {}
    for tag, cmd in commands.items():
        if cmd.returncode != 0:
            errors[tag] = f"exit {cmd.returncode}: {cmd.stderr.strip()[-300:]}"
        elif tag == "rerank":
            errors[tag] = check_distances(
                out / "dist.npy", (workload.num_queries, workload.num_gallery))
        elif tag == "eval":
            errors[tag] = check_report(out / "report.json", ref["eval"])
    return errors


def iteration(runner, workload, data, ref, env, trace_tag=None, only=None,
              memory=False) -> Iteration:
    """Run the workload's commands once; with `trace_tag`, under the span recorder."""
    out = runner.run_dir / "out"
    shutil.rmtree(out, ignore_errors=True)
    commands, trace_files = {}, {}
    start = time.perf_counter()
    for tag, cli_args in sequence(data, out):
        if only is not None and tag not in only:
            continue
        trace = []
        if trace_tag is not None:
            trace_files[tag] = runner.run_dir / f"{trace_tag}-{tag}.trace.jsonl"
            trace = ["--trace-out", str(trace_files[tag]), *(["--trace-memory"] if memory else [])]
        commands[tag] = runner.run(tag, [*trace, "--", *cli_args], env)
    wall = time.perf_counter() - start
    errors = output_errors(workload, out, ref, commands) if ref is not None else {}
    for tag, error in errors.items():
        runner.record(f"{trace_tag or 'untraced'} {tag}", error)
    traces = {tag: load_trace(path) for tag, path in trace_files.items()
              if commands[tag].returncode == 0}
    return Iteration(commands, wall, traces)


def repeat_within(seconds, step) -> list:
    """Call step(n) until `seconds` have passed (at least once)."""
    results, start = [], time.perf_counter()
    while not results or time.perf_counter() - start < seconds:
        results.append(step(len(results)))
    return results


# ---------------------------------------------------------------- statistics


def tail(values):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(values)
    if n <= 10:
        return None
    pct = math.floor(100.0 * (1.0 - 10.0 / n))
    ordered = sorted(values)
    return pct, ordered[min(n - 1, math.ceil(pct / 100.0 * n) - 1)]


def describe(name, unit, values) -> str:
    line = f"# {name:<14} median {statistics.median(values):.6g} {unit}"
    t = tail(values)
    line += f", p{t[0]} {t[1]:.6g}" if t else ", no tail percentile (n <= 10)"
    return line + f", min {min(values):.6g}, max {max(values):.6g}, n={len(values)}"


# ---------------------------------------------------------------- traced runs


def load_trace(path: Path) -> dict:
    """The spans document of spans.Tracer.dump, with `dump_end` from its second line."""
    doc, end = map(json.loads, path.read_text(encoding="utf-8").splitlines())
    return {**doc, **end}


def layer_totals(docs) -> tuple[dict, dict, float]:
    """Sum calls, self time, counts and peak allocation per layer over traces.

    A span's self time is its duration minus the time its children's
    wrappers took. Returns (per-layer totals, counted calls, tracer
    bookkeeping seconds).
    """
    totals, counted, bookkeeping = {}, {}, 0.0
    for doc in docs:
        records = doc["spans"]
        inner = [0.0] * len(records)
        for span in records:
            if span["parent"] is not None:
                inner[span["parent"]] += span["exit"] - span["enter"]
        for span, covered in zip(records, inner):
            t = totals.setdefault(span["name"], {"calls": 0, "self_s": 0.0, "peak_alloc": 0,
                                                 "shapes": []})
            t["calls"] += 1
            t["self_s"] += (span["end"] - span["start"]) - covered
            t["peak_alloc"] = max(t["peak_alloc"], span["peak_alloc"])
            bookkeeping += (span["exit"] - span["enter"]) - (span["end"] - span["start"])
            for key, value in span.get("counts", {}).items():
                if key == "shape":
                    t["shapes"].append(tuple(value))
                else:
                    t[key] = t.get(key, 0) + value
        for key, value in doc["counted"].items():
            counted[key] = counted.get(key, 0) + value
    return totals, counted, bookkeeping


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(it: Iteration, gemm_seconds: dict) -> dict:
    """Per-layer metrics of one traced iteration."""
    totals, counted, bookkeeping = layer_totals(it.traces.values())

    def get(layer, key, default=0):
        return totals.get(layer, {}).get(key, default)

    m = {f"{layer}.self_s": get(layer, "self_s", 0.0) for layer in spans.LAYERS}
    pw = "matrix_ops.pairwise_sq_euclidean"
    m[f"{pw}.calls"] = get(pw, "calls")
    m[f"{pw}.pairs"] = get(pw, "pairs")
    m[f"{pw}.gflop"] = get(pw, "gflop", 0.0)
    gemm = sum(gemm_seconds[",".join(map(str, shape))] for shape in get(pw, "shapes", []))
    m[f"{pw}.gemm_frac"] = _ratio(gemm, m[f"{pw}.self_s"])
    m["machine.gemm.gflop_per_s"] = _ratio(m[f"{pw}.gflop"], gemm)
    tk = "matrix_ops.topk_smallest"
    m[f"{tk}.rows"] = get(tk, "rows")
    m[f"{tk}.kept_frac"] = _ratio(get(tk, "kept"), get(tk, "scanned"))
    m["matrix_ops.as_feature_matrix.calls"] = get("matrix_ops.as_feature_matrix", "calls")
    m["matrix_ops.as_feature_matrix.bytes"] = get("matrix_ops.as_feature_matrix", "bytes")
    m["matrix_ops.l2_normalize_rows.bytes"] = get("matrix_ops.l2_normalize_rows", "bytes")
    ex = "enhance.expand_order"
    m[f"{ex}.support_nnz"] = get(ex, "support_nnz")
    m[f"{ex}.unique_frac"] = _ratio(get(ex, "support_nnz"), get(ex, "pool"))
    m["enhance.gaussian_weights.nnz"] = get("enhance.gaussian_weights", "nnz")
    m["optimize.optimize.streamed_calls"] = counted.get("optimize._similarity_streamed", 0)
    ev = "metrics.evaluate"
    m[f"{ev}.queries"] = get(ev, "queries")
    m[f"{ev}.valid_frac"] = _ratio(get(ev, "valid"), get(ev, "queries"))
    m[f"{ev}.useful_frac"] = _ratio(get(ev, "positives"), get(ev, "sorted"))
    m["io_formats.read_npy.bytes"] = get("io_formats.read_npy", "bytes")
    m["io_formats.write_npy.bytes"] = get("io_formats.write_npy", "bytes")
    m["pipeline.compute_refined_distances.calls"] = get("pipeline.compute_refined_distances",
                                                        "calls")
    # Each command's time outside cli.main, from timestamps taken on one clock
    # (CLOCK_MONOTONIC) by this process and the child: interpreter start-up
    # (spawn to the first line of child.py), imports and tracer install (to
    # the entry of cli.main), the trace dump, and interpreter exit (the end
    # of the dump to the child being reaped).
    startup = imports = dump = exit_s = 0.0
    for tag, doc in it.traces.items():
        cmd = it.commands[tag]
        startup += doc["started"] - cmd.spawned
        imports += min(s["enter"] for s in doc["spans"] if s["parent"] is None) - doc["started"]
        dump += doc["dump_end"] - doc["dump_start"]
        exit_s += cmd.spawned + cmd.seconds - doc["dump_end"]
    m["process.startup.self_s"] = startup
    m["process.imports.self_s"] = imports
    m["trace.dump.self_s"] = dump
    m["process.exit.self_s"] = exit_s
    m["trace.bookkeeping.self_s"] = bookkeeping
    m["trace.wall_s"] = it.wall
    # The share of wall_s that the layers' self times and process start-up
    # explain; dump, exit and the gaps between commands are what is left.
    accounted = startup + imports + bookkeeping + sum(t["self_s"] for t in totals.values())
    m["trace.accounted_frac"] = _ratio(accounted, it.wall)
    return m


def gemm_probe(runner, traced) -> dict:
    """Seconds of a raw `a @ b.T` for each distance shape the traced iterations used."""
    shapes = {tuple(shape) for it in traced
              for shape in layer_totals(it.traces.values())[0]
              .get("matrix_ops.pairwise_sq_euclidean", {}).get("shapes", [])}
    shapes_file = runner.run_dir / "shapes.json"
    shapes_file.write_text(json.dumps(sorted(shapes)), encoding="utf-8")
    probe = runner.run("gemm", ["--gemm-probe", str(shapes_file)], runner.env())
    if probe.returncode:
        raise SetupError(f"GEMM probe exited {probe.returncode}: {probe.stderr.strip()}")
    return json.loads((runner.run_dir / "gemm.out").read_text(encoding="utf-8"))


def check_layers(workload: Workload, docs):
    """Fail when a layer this workload exercises recorded no call."""
    totals, counted, _ = layer_totals(docs)
    calls = {**{name: t["calls"] for name, t in totals.items()}, **counted}
    silent = [layer for layer in workload.layers if not calls.get(layer)]
    if silent:
        raise SetupError(
            f"traced layers recorded no call on {workload.name}: {', '.join(silent)}; "
            "a traced function moved or stopped doing the work this workload expects")


def run_traced(runner, workload, data_seed, ref, seconds, blas_threads):
    synth_trace = runner.run_dir / "setup.trace.jsonl"
    data, _ = setup(runner, workload, data_seed, 1, trace_file=synth_trace)
    synth = load_trace(synth_trace)
    env = runner.env()
    pairs = repeat_within(seconds, lambda n: (
        iteration(runner, workload, data, ref, env),
        iteration(runner, workload, data, ref, env, trace_tag=f"t{n}")))
    plain, traced = [p for p, _ in pairs], [t for _, t in pairs]
    if any(c.returncode for it in traced for c in it.commands.values()):
        raise SetupError("a traced command failed: " + "; ".join(runner.failures))
    check_layers(workload, [synth, *(doc for it in traced for doc in it.traces.values())])
    # The distance layer's parallel share: one more traced rerank on one BLAS thread.
    single = iteration(runner, workload, data, ref, runner.env(blas_threads=1),
                       trace_tag="1t", only=("rerank",))
    # Peak allocation per span: one more traced rerank under tracemalloc.
    memory = iteration(runner, workload, data, ref, env, trace_tag="mem", only=("rerank",),
                       memory=True)
    if single.commands["rerank"].returncode or memory.commands["rerank"].returncode:
        raise SetupError("a traced rerank failed: " + "; ".join(runner.failures))
    gemm_seconds = gemm_probe(runner, traced)

    per_iter = [layer_metrics(it, gemm_seconds) for it in traced]
    metrics = {key: statistics.median(m[key] for m in per_iter) for key in per_iter[0]}
    pw = "matrix_ops.pairwise_sq_euclidean"
    multi = statistics.median(layer_totals([it.traces["rerank"]])[0][pw]["self_s"]
                              for it in traced)
    one = layer_totals([single.traces["rerank"]])[0][pw]["self_s"]
    metrics[f"{pw}.rerank_self_s_1thread"] = one
    # Amdahl: t_p = t_1 * (1 - f + f / p)  =>  f = (1 - t_p / t_1) / (1 - 1 / p)
    metrics[f"{pw}.parallel_frac"] = (
        (1.0 - multi / one) / (1.0 - 1.0 / blas_threads) if blas_threads and blas_threads > 1
        else 0.0)
    metrics["trace_overhead"] = (statistics.median(it.wall for it in traced)
                                 / statistics.median(it.wall for it in plain) - 1.0)
    peaks = layer_totals([memory.traces["rerank"]])[0]
    for layer in ("enhance.enhance", "optimize.optimize"):
        metrics[f"{layer}.peak_alloc_mib"] = peaks[layer]["peak_alloc"] / MIB
    metrics["synthetic.generate.self_s"] = layer_totals([synth])[0]["synthetic.generate"]["self_s"]
    samples = {
        "untraced_wall_s": [it.wall for it in plain],
        "traced_wall_s": [it.wall for it in traced],
        "single_thread_rerank_s": single.wall,
        "gemm_seconds": gemm_seconds,
        "per_iteration": per_iter,
    }
    return metrics, samples


def run_untraced(runner, workload, data_seed, ref, seconds):
    data, setup_times = setup(runner, workload, data_seed, SETUP_REPEATS)
    env = runner.env()
    iterations = repeat_within(seconds, lambda _: iteration(runner, workload, data, ref, env))
    series = {
        "wall_s": [it.wall for it in iterations],
        "rerank_s": [it.commands["rerank"].seconds for it in iterations],
        "eval_s": [it.commands["eval"].seconds for it in iterations],
        "peak_rss_mib": [max(c.rss_mib for c in it.commands.values()) for it in iterations],
        "setup_s": setup_times,
    }
    metrics = {name: statistics.median(values) for name, values in series.items()}
    series["queries_per_s"] = [workload.num_queries / w for w in series["wall_s"]]
    metrics["queries_per_s"] = workload.num_queries / metrics["wall_s"]
    return metrics, series


# ---------------------------------------------------------------- environment


def _blas_info() -> tuple[str, int | None]:
    """BLAS vendor string and its thread count as this process sees it."""
    config = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    vendor = f"{config.get('name')} {config.get('version')}"
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            func = getattr(handle, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                return vendor, int(func())
    return vendor, None


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=20, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    vendor, threads = _blas_info()
    return {
        "git_sha": _git_sha(),
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "blas": vendor,
        "blas_threads": threads,
        "nproc": os.cpu_count(),
        "total_ram_mib": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / MIB,
    }


# ---------------------------------------------------------------- entry points


def record_references(names, new_runner):
    """Run each workload once per data seed and store its outputs as the reference."""
    refs = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    for name in names:
        workload = WORKLOADS[name]
        refs.setdefault(name, {})
        for data_seed in range(DATA_SEEDS):
            runner = new_runner(f"record-{name}-{data_seed}")
            try:
                data, _ = setup(runner, workload, data_seed, 1)
                it = iteration(runner, workload, data, None, runner.env())
                out = runner.run_dir / "out"
                errors = [f"{c.tag} exited {c.returncode}: {c.stderr}"
                          for c in it.commands.values() if c.returncode]
                errors.append(check_distances(out / "dist.npy",
                                              (workload.num_queries, workload.num_gallery)))
                if any(errors):
                    raise SetupError(f"{name} data seed {data_seed}: {errors}")
                report = json.loads((out / "report.json").read_text())
                refs[name][str(data_seed)] = {
                    "eval": {k: report[k] for k in ("mAP", "cmc", "valid_queries")}}
                times = ", ".join(f"{c.tag} {c.seconds:.2f} s" for c in it.commands.values())
                print(f"{name} data seed {data_seed}: mAP {report['mAP']:.6f}; {times}", flush=True)
            finally:
                shutil.rmtree(runner.run_dir, ignore_errors=True)
    refs["recorded_with"] = environment()
    REFERENCE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="how long iterations run; the whole run must end within "
                             f"this plus {DEADLINE_ALLOWANCE_S:.0f} s or it fails")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-references", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "rerankit" / "cli.py").is_file():
        print(f"error: no rerankit sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    bench_file = ROOT / "BENCHMARK.json"
    spec = json.loads(bench_file.read_text(encoding="utf-8"))
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(128 + signal.SIGTERM))

    def new_runner(label, seconds=3600.0):
        run_dir = WORK / "runs" / f"{label}-{os.getpid()}"
        shutil.rmtree(run_dir, ignore_errors=True)
        run_dir.mkdir(parents=True)
        return Runner(run_dir, time.monotonic() + seconds)

    if args.record_references:
        names = [args.workload] if args.workload else sorted(WORKLOADS)
        record_references(names, new_runner)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    workload = WORKLOADS[args.workload]
    data_seed = args.seed % DATA_SEEDS
    try:
        ref = json.loads(REFERENCE.read_text(encoding="utf-8"))[workload.name][str(data_seed)]
    except (OSError, ValueError, KeyError):
        print(f"error: no reference outputs for {workload.name} data seed {data_seed} in "
              f"{REFERENCE}; record them with --record-references", file=sys.stderr)
        return 2

    env_info = environment()
    runner = new_runner(f"{workload.name}-seed{args.seed}-trace{args.trace}",
                        args.seconds + DEADLINE_ALLOWANCE_S)
    try:
        if args.trace:
            metrics, samples = run_traced(runner, workload, data_seed, ref, args.seconds,
                                          env_info["blas_threads"])
            wanted = spec["per_layer"]
        else:
            metrics, samples = run_untraced(runner, workload, data_seed, ref, args.seconds)
            wanted = spec["end_to_end"]
    except (SetupError, DeadlineReached) as exc:
        kind = "deadline reached in" if isinstance(exc, DeadlineReached) else "error:"
        print(f"{kind} {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(runner.run_dir, ignore_errors=True)

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not computed: {', '.join(missing)}", file=sys.stderr)
        return 1
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    record = {"workload": workload.name, "seed": args.seed, "data_seed": data_seed,
              "seconds": args.seconds, "trace": args.trace, "environment": env_info,
              "failures": runner.failures, "samples": samples, "result": result}
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")

    print(f"# environment {json.dumps(env_info, sort_keys=True)}")
    print(f"# workload {workload.name}: Nq {workload.num_queries}, Ng {workload.num_gallery}, "
          f"data seed {data_seed}, closed loop with 1 client")
    units = {m["name"]: m["unit"] for m in wanted}
    if args.trace:
        for name, unit in units.items():
            print(f"# {name:<52} {metrics[name]:.6g} {unit}")
    else:
        for name, values in samples.items():
            print(describe(name, units[name], values))
    print(f"# failed_frac {runner.failed}/{runner.attempted} = "
          f"{runner.failed / runner.attempted:.6g}")
    for failure in runner.failures:
        print(f"# FAILED {failure}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
