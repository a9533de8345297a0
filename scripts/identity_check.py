"""Check that this tree's CLI writes the same bytes as a parent checkout's.

Usage:
    python scripts/identity_check.py --parent DIR [--report]

DIR is a checkout of the parent commit, made with `git worktree add` or
`git archive`. Each case runs the `rerankit` CLI of both trees, one
command per fresh process, and compares every file the case wrote in
one tree with its namesake in the other, byte for byte. Each tree runs
in its own scratch directory with relative output paths, so manifests
and reports name the same paths. The cases:

- `synth` at `--ids 800` and `--ids 1600` with the benchmark's
  `SYNTH_FLAGS` (perfbench/run.py), data seeds 0-9, and at `--ids 400`
  (800 x 3,200), data seed 1;
- `rerank` of the seed-1 data of both sizes with the defaults, `--no-dmon`,
  `--no-aro`, `--baseline`, `--fill 0`, `--joint --fill 0
  --no-pre-normalize`, `--preset msmt17` (gallery batches of 10,000
  rows), `--preset dukemtmc`, `--preset dukemtmc --k1 3` (a flag over a
  preset), `--joint --batch-size 1000` and `--gamma 1 --batch-size 1000`,
  each with `OPENBLAS_NUM_THREADS=2` (two kNN lanes) and
  `OPENBLAS_NUM_THREADS=1`, and of the `--ids 400` data with the
  defaults and `--fill 0`, alike: with 2 * k2 * _TILE_COLS = 5,120
  columns above its 3,200, ARO's gallery scan and query-gallery filter
  select over whole rows there;
- `rerank --from-manifest` of each of those runs in this tree, against
  the parent's run;
- `rerank --from-manifest` in this tree of the parent's manifest of each
  of those runs, whose `dist.npy` alone is compared with the parent's, so
  that every manifest the parent writes still replays to its bytes;
- `rerank` with the defaults of the seed-1 `--ids 800` queries against two
  degenerate galleries built from its gallery (`pathological_galleries`):
  one with a tenth of its rows set to zero, and one of 6,400 rows drawn
  from its first 128, so that each row has about 50 exact copies;
- `rerank --k1 8 --orders 4` of the seed-1 `--ids 800` data, a large
  DMON support;
- README's canonical `sweep`, a one-cell `sweep --k1 2 --k2 20` of the
  seed-1 `--ids 1600` data (Nq 3,200 x Ng 12,800), and `sweep --preset
  msmt17 --k1 2,5 --k2 2,20` of the seed-1 `--ids 800` data, a grid over
  a preset;
- `pipeline --ablation`.

Prints one line per case and exits 1 if any case differs or a command
fails, else 0. A differing file that is JSON in both trees is followed by
the dotted key paths whose values differ, e.g.
`manifest.json [params.dmon.batch_size, params.dmon_batch_size]`.

`--report` is for a change that is meant to move `dist.npy` bits but not
the rankings. Each `rerank` case, replays included, then also runs
`eval` on the synth labels inside its output directory, and replays
compare against this tree's own run instead of the parent's. A case
prints `same`; `eval-equal` with the largest |delta| of its `dist.npy`
files, when those are the only files that differ and each has an equal
`report.json` beside it (the ablation's variants too); or `DIFFER`. A
replay must still be byte-identical. It exits 1 only when a command
fails, a replay differs, an eval report differs, or a file other than
`dist.npy` differs.

Scratch space comes from `tempfile` (set TMPDIR to move it); a case's
outputs are deleted when it ends, as a rerank at `--ids 1600` writes a
328 MB `dist.npy`.
"""

import argparse
import filecmp
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from run import SYNTH_FLAGS  # noqa: E402

SIZES = (800, 1600)
DATA_SEEDS = range(10)
WHOLE_ROW_IDS = 400
RERANK_SEED = 1
RERANK_FLAGS = (
    (),
    ("--no-dmon",),
    ("--no-aro",),
    ("--baseline",),
    ("--fill", "0"),
    ("--joint", "--fill", "0", "--no-pre-normalize"),
    ("--preset", "msmt17"),
    ("--preset", "dukemtmc"),
    ("--preset", "dukemtmc", "--k1", "3"),
    ("--joint", "--batch-size", "1000"),
    ("--gamma", "1", "--batch-size", "1000"),
)
WHOLE_ROW_FLAGS = ((), ("--fill", "0"))
BLAS_THREADS = ("2", "1")
SWEEP_GRID = ("--k1", "1,2,3,5,8", "--k2", "2,5,10,20", "--gamma", "0.5,0.75,0.9",
              "--orders", "3")


class Tree:
    """One checkout's CLI, run from its own scratch directory."""

    def __init__(self, src: Path, work: Path):
        self.src = src
        self.work = work
        work.mkdir()

    def run(self, *args: str, threads: str = "2", cwd: str = ".") -> None:
        env = {**os.environ, "PYTHONPATH": str(self.src), "OPENBLAS_NUM_THREADS": threads}
        done = subprocess.run([sys.executable, "-m", "rerankit.cli", *args],
                              cwd=self.work / cwd, env=env, capture_output=True, text=True)
        if done.returncode != 0:
            last = (done.stderr.strip().splitlines() or ["no output"])[-1]
            raise RuntimeError(f"{self.src}: {args[0]} exited {done.returncode}: {last}")


def pathological_galleries(data: Path) -> dict[str, Path]:
    """The zero-row and many-copies galleries of the split in `data`, each
    written with its labels into a directory of its own beside `data`."""
    g = np.load(data / "g.npy")
    header, *labels = (data / "g_labels.csv").read_text(encoding="utf-8").splitlines()
    zeroed = g.copy()
    zeroed[np.random.default_rng(0).choice(len(g), len(g) // 10, replace=False)] = 0.0
    picks = np.random.default_rng(0).integers(0, 128, len(g))
    built = {"zero-row": (zeroed, labels), "many-copies": (g[picks], [labels[i] for i in picks])}
    for name, (rows, rows_labels) in built.items():
        (data.parent / name).mkdir()
        np.save(data.parent / name / "g.npy", rows)
        (data.parent / name / "g_labels.csv").write_text(
            "\n".join([header, *rows_labels, ""]), encoding="utf-8")
    return {name: data.parent / name for name in built}


def differing(a: Path, b: Path) -> list[str]:
    """Files under `a` or `b` (relative paths) missing from one or unequal."""
    names = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    names |= {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    return sorted(
        str(n) for n in names
        if not ((a / n).is_file() and (b / n).is_file()
                and filecmp.cmp(a / n, b / n, shallow=False))
    )


def key_paths(x, y, path: str = "") -> list[str]:
    """The dotted key paths at which two JSON values differ: a key that only
    one object holds, or a pair of unequal values that are not both objects."""
    if not (isinstance(x, dict) and isinstance(y, dict)):
        return [] if json.dumps(x) == json.dumps(y) else [path or "(root)"]
    found = []
    for key in sorted(x.keys() | y.keys()):
        sub = f"{path}.{key}" if path else key
        found += key_paths(x[key], y[key], sub) if key in x and key in y else [sub]
    return found


def describe(a: Path, b: Path, name: str) -> str:
    """`name`, followed by the key paths that differ when it is JSON in both trees."""
    if not name.endswith(".json"):
        return name
    try:
        x, y = (json.loads((tree / name).read_text(encoding="utf-8")) for tree in (a, b))
    except (OSError, ValueError):
        return name
    return f"{name} [{', '.join(key_paths(x, y))}]"


def max_delta(a: Path, b: Path) -> float:
    """The largest |a - b| entry of two NPY matrices of one shape, read in stripes."""
    x, y = np.load(a, mmap_mode="r"), np.load(b, mmap_mode="r")
    if x.shape != y.shape:
        raise RuntimeError(f"{a.name}: shapes {x.shape} and {y.shape} differ")
    step = max(1, 2**20 // max(x.shape[1], 1))
    return max(float(np.abs(x[i : i + step] - y[i : i + step]).max(initial=0.0))
               for i in range(0, len(x), step))


def eval_equal(diff: list[str], out: Path) -> bool:
    """Whether every file in `diff` is a `dist.npy` with a `report.json`
    beside it under `out` that is not in `diff`."""
    reports = [str(Path(n).with_name("report.json")) for n in diff]
    return all(Path(n).name == "dist.npy" and r not in diff and (out / r).is_file()
               for n, r in zip(diff, reports))


class Checker:
    def __init__(self, parent: Tree, change: Tree, report: bool):
        self.parent = parent
        self.change = change
        self.report = report
        self.cases = 0
        self.same = 0
        self.failed = 0

    def case(self, label: str, out: str, *commands: tuple, threads: str = "2",
             against: str | None = None, keep: bool = False, labels: tuple = (),
             files: tuple = ()) -> None:
        """Run `commands` (writing under `out`) in both trees and compare
        `out`; with `against`, run them in this tree only and compare `out`
        with the parent's `against`, or with `--report` this tree's, byte
        for byte. With `files`, only those files are compared. With
        `--report`, `labels` are the eval flags of a rerank's labels."""
        self.cases += 1
        base = self.change if self.report and against else self.parent
        try:
            for args in commands:
                if against is None:
                    self.parent.run(*args, threads=threads)
                self.change.run(*args, threads=threads)
            if self.report and labels:
                for tree in (self.change,) if against else (self.parent, self.change):
                    tree.run("eval", "--dist", "dist.npy", *labels, "--out", "report.json",
                             threads=threads, cwd=out)
            a, b = base.work / (against or out), self.change.work / out
            diff = [n for n in differing(a, b) if not files or n in files]
            if not diff:
                self.same += 1
                line = "same    " + label
            elif self.report and not against and eval_equal(diff, b):
                delta = max(max_delta(a / n, b / n) for n in diff)
                line = f"eval-equal  {label}: max |delta dist.npy| {delta:.2g}"
                diff = []
            else:
                line = f"DIFFER  {label}: {', '.join(describe(a, b, n) for n in diff)}"
        except RuntimeError as exc:
            diff = True
            line = f"FAILED  {label}: {exc}"
        self.failed += bool(diff)
        print(line, flush=True)
        if not keep:
            shutil.rmtree(self.change.work / out, ignore_errors=True)
            if against is None:
                shutil.rmtree(self.parent.work / out, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path,
                        help="checkout of the parent commit")
    parser.add_argument("--report", action="store_true",
                        help="evaluate every rerank and accept dist.npy deltas with equal reports")
    args = parser.parse_args()
    parent_src = args.parent.resolve() / "src"
    if not (parent_src / "rerankit" / "cli.py").is_file():
        print(f"error: no rerankit sources under {parent_src}", file=sys.stderr)
        return 2

    with tempfile.TemporaryDirectory(prefix="identity_check_") as tmp:
        check = Checker(Tree(parent_src, Path(tmp) / "parent"),
                        Tree(ROOT / "src", Path(tmp) / "change"), args.report)
        for ids in SIZES:
            for seed in DATA_SEEDS:
                out = f"synth-{ids}-{seed}"
                check.case(f"synth --ids {ids} --seed {seed}", out,
                           ("synth", "--ids", str(ids), *SYNTH_FLAGS, "--seed", str(seed),
                            "--out", out), keep=seed == RERANK_SEED)
        out = f"synth-{WHOLE_ROW_IDS}-{RERANK_SEED}"
        check.case(f"synth --ids {WHOLE_ROW_IDS} --seed {RERANK_SEED}", out,
                   ("synth", "--ids", str(WHOLE_ROW_IDS), *SYNTH_FLAGS, "--seed",
                    str(RERANK_SEED), "--out", out), keep=True)

        reranks = [(ids, RERANK_FLAGS) for ids in SIZES] + [(WHOLE_ROW_IDS, WHOLE_ROW_FLAGS)]
        for ids, rerank_flags in reranks:
            data = check.change.work / f"synth-{ids}-{RERANK_SEED}"
            inputs = ("--query", str(data / "q.npy"), "--gallery", str(data / "g.npy"))
            labels = ("--query-labels", str(data / "q_labels.csv"),
                      "--gallery-labels", str(data / "g_labels.csv"))
            for flags in rerank_flags:
                for threads in BLAS_THREADS:
                    label = (f"--ids {ids} {' '.join(flags) or 'defaults'}, "
                             f"OPENBLAS_NUM_THREADS={threads}")
                    check.case(f"rerank {label}", "rerank",
                               ("rerank", *inputs, *flags, "--out", "rerank"),
                               threads=threads, keep=True, labels=labels)
                    check.case(f"rerank --from-manifest {label}", "replay",
                               ("rerank", "--from-manifest", "rerank/manifest.json",
                                "--out", "replay"), threads=threads, against="rerank",
                               labels=labels)
                    check.case(f"rerank --from-manifest (the parent's) {label}", "replay",
                               ("rerank", "--from-manifest",
                                str(check.parent.work / "rerank" / "manifest.json"),
                                "--out", "replay"), threads=threads, against="rerank",
                               files=("dist.npy",))
                    for tree in (check.parent, check.change):
                        shutil.rmtree(tree.work / "rerank", ignore_errors=True)

        data = check.change.work / f"synth-800-{RERANK_SEED}"
        cases = [(f"{name} gallery, defaults", gallery, ())
                 for name, gallery in pathological_galleries(data).items()]
        cases.append(("--k1 8 --orders 4", data, ("--k1", "8", "--orders", "4")))
        for label, gallery, flags in cases:
            check.case(f"rerank --ids 800 {label}", "rerank",
                       ("rerank", "--query", str(data / "q.npy"),
                        "--gallery", str(gallery / "g.npy"), *flags, "--out", "rerank"),
                       labels=("--query-labels", str(data / "q_labels.csv"),
                               "--gallery-labels", str(gallery / "g_labels.csv")))

        sweeps = ((1600, ("--k1", "2", "--k2", "20")),
                  (800, ("--preset", "msmt17", "--k1", "2,5", "--k2", "2,20")))
        for ids, grid in sweeps:
            data = check.change.work / f"synth-{ids}-{RERANK_SEED}"
            check.case(f"sweep --ids {ids} {' '.join(grid)}", "sweep",
                       ("sweep", "--query", str(data / "q.npy"), "--gallery", str(data / "g.npy"),
                        "--query-labels", str(data / "q_labels.csv"),
                        "--gallery-labels", str(data / "g_labels.csv"),
                        *grid, "--out", "sweep/sweep.csv"))

        data = ("--query", "sweep/data/q.npy", "--gallery", "sweep/data/g.npy",
                "--query-labels", "sweep/data/q_labels.csv",
                "--gallery-labels", "sweep/data/g_labels.csv")
        check.case("sweep (README grid)", "sweep",
                   ("synth", "--intra-noise", "0.2", "--out", "sweep/data"),
                   ("sweep", *data, *SWEEP_GRID, "--out", "sweep/sweep.csv"))
        check.case("pipeline --ablation", "ablation",
                   ("pipeline", "--ablation", "--out", "ablation"))

    equal = f", {check.cases - check.failed - check.same} eval-equal" if args.report else ""
    print(f"{check.same} of {check.cases} cases byte-identical{equal}")
    return 1 if check.failed else 0


if __name__ == "__main__":
    sys.exit(main())
