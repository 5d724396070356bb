"""Benchmark for ``fuzzysns eval``: seeded workloads, end to end and per layer.

Run from the repository root (stdlib only; the program is imported from
``src/`` through PYTHONPATH, nothing is installed)::

    python3 perfbench/run.py --workload crisp-chain --seed 1 --seconds 20 --trace 0

One run generates the workload's scenario from ``--seed`` (``workloads.py``),
writes it to a file, and for ``--seconds`` seconds runs
``python -m fuzzysns.cli eval FILE --format FMT`` as a child process, one
eval after another (a closed loop with one client).

``--trace 0`` interleaves each timed eval with import-only interpreters
(``import fuzzysns.cli``) and a fixed reference loop, and reports:

- ``eval_s``: median wall seconds of one eval child, spawn to exit, stdout
  going to a file: interpreter start, import, parse, run and rendering;
- ``peak_rss_mb``: median over evals of the child's max RSS (``os.wait4``);
- ``setup_s``: median wall seconds of the import-only interpreter, the fixed
  start-up cost inside every ``eval_s``.

``--trace 1`` alternates untraced evals with evals run under ``tracer.py``
and reports the per-layer counts and self times, and ``trace.overhead``,
the traced over the untraced median eval wall time.

Every eval passes the output gate or counts as failed: exit code 0, empty
stderr (no traceback, no warning), stdout byte-identical across the run, equal
to ``digests.json`` for the seeds recorded there (0-20, recorded with the
benchmark), and re-derived step by step by ``check.py`` once per run.  The
three shipped ``scenarios/*.json`` run once per run as a smoke check.
``attempted`` counts every fuzzysns child process the run started, ``failed``
those that did not pass.

A child's ``ru_maxrss`` includes the memory image of the process that
started it, so children are started by the small ``spawner.py``.  The
harness never imports fuzzysns, so the replay check runs as a process of its
own.

The last stdout line is the result JSON; a fuller record (environment, input
shape, samples, tail percentile, reference-loop timings) goes to stderr and to
``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
CHILD_TIMEOUT_S = 120
MIN_SAMPLES = 3
SETUP_PROBES_PER_EVAL = 2
# Digest table key for the shipped scenarios; workload keys are their names.
SMOKE = "scenarios"


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def reference_loop() -> float:
    """Seconds for a fixed pure-Python loop; its drift is the machine's."""
    start = time.perf_counter()
    table: dict = {}
    total = 0
    for k in range(200_000):
        table[k & 1023] = total
        total += k * 7 % 13
    return time.perf_counter() - start


def quartiles(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def tail(values: list[float]) -> dict:
    """Highest of p50..p99 with at least ten samples above it."""
    ordered = sorted(values)
    best = {"pct": 50, "value": statistics.median(ordered)}
    for pct in (75, 90, 95, 99):
        if len(ordered) * (100 - pct) / 100 >= 10:
            best = {"pct": pct, "value": ordered[int(len(ordered) * pct / 100)]}
    return best


class Children:
    """Starts child processes through spawner.py, and gates them."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        # Each child draws its own hash seed, as a CLI user's does, so the
        # identical-output gate also catches output that follows hash order.
        self.env = {k: v for k, v in os.environ.items() if k != "PYTHONHASHSEED"}
        self.env["PYTHONPATH"] = str(SRC)
        self.spawner = subprocess.Popen(
            [sys.executable, "-I", "-S", str(BENCH / "spawner.py"), str(CHILD_TIMEOUT_S)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=self.env, cwd=ROOT,
        )
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        # Set when the replay in check.py rejects the run's output: every
        # eval printing those bytes is then wrong too.
        self.wrong_output: str | None = None
        self.wrong_digest: str | None = None

    def close(self) -> None:
        self.spawner.stdin.close()
        self.spawner.stdout.close()
        self.spawner.wait()

    def run(self, argv: list[str], tag: str, counted: bool = True) -> dict:
        out, err = self.workdir / f"{tag}.out", self.workdir / f"{tag}.err"
        self.spawner.stdin.write("\t".join([str(out), str(err), sys.executable, *argv]) + "\n")
        self.spawner.stdin.flush()
        wall, maxrss_kb, code = self.spawner.stdout.readline().split()
        self.attempted += counted
        return {
            "wall": float(wall),
            "rss_mb": int(maxrss_kb) / 1024,
            "code": int(code),
            "out": out,
            "stderr": err.read_text(errors="replace"),
        }

    def fail(self, tag: str, problem: str) -> None:
        self.failed += 1
        self.failures.append(f"{tag}: {problem}")

    def gate(self, result: dict, tag: str, digest: str | None = None, warns: bool = False) -> str:
        """Exit 0, silent stderr, and (when given) the expected stdout digest.

        ``warns`` admits the program's ``warning:`` lines on stderr.
        """
        stderr = "\n".join(
            line for line in result["stderr"].splitlines()
            if not (warns and line.startswith("warning:"))
        ).strip()
        got = sha256(result["out"])
        problem = None
        if result["code"] != 0:
            problem = f"exit code {result['code']}"
        elif "Traceback" in stderr:
            problem = "traceback on stderr"
        elif stderr:
            problem = f"unexpected stderr {stderr[:200]!r}"
        elif digest is not None and got != digest:
            problem = f"stdout digest {got[:12]} != {digest[:12]}"
        elif got == self.wrong_digest:
            problem = self.wrong_output
        if problem is not None:
            self.fail(tag, problem)
        return got


def environment() -> dict:
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        commit = head.read_text().strip()
        if commit.startswith("ref: "):
            ref = ROOT / ".git" / commit[5:]
            commit = ref.read_text().strip() if ref.is_file() else commit[5:]
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "commit": commit,
        "src_sha256": src.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "loadavg": os.getloadavg(),
        "platform": platform.platform(),
    }


def measure(args, children: Children, cli_args: list[str], expected: str, record: dict) -> dict:
    eval_argv = ["-m", "fuzzysns.cli", *cli_args]
    spans = children.workdir / "spans.json"
    deadline = time.perf_counter() + args.seconds
    walls, rss, setups, refs, traced_walls = [], [], [], [], []
    counts, times, out_bytes = None, {}, 0
    k = 0
    while time.perf_counter() < deadline or k < MIN_SAMPLES:
        result = children.run(eval_argv, "eval")
        children.gate(result, f"eval {k}", expected)
        walls.append(result["wall"])
        rss.append(result["rss_mb"])
        if args.trace:
            spans.unlink(missing_ok=True)
            traced = children.run([str(BENCH / "tracer.py"), str(spans), *cli_args], "traced")
            children.gate(traced, f"traced eval {k}", expected)
            traced_walls.append(traced["wall"])
            if traced["code"] == 0 and spans.exists():
                got_counts, got_times = tracer.layer_metrics(str(spans))
                if counts is None:
                    counts, out_bytes = got_counts, traced["out"].stat().st_size
                elif got_counts != counts:
                    changed = sorted(m for m in counts if counts[m] != got_counts[m])
                    children.fail(f"traced eval {k}", f"counts changed: {changed[:5]}")
                for name, value in got_times.items():
                    times.setdefault(name, []).append(value)
        else:
            for j in range(SETUP_PROBES_PER_EVAL):
                probe = children.run(["-c", "import fuzzysns.cli"], "setup")
                children.gate(probe, f"setup probe {k}.{j}")
                setups.append(probe["wall"])
        refs.append(reference_loop())
        k += 1
    record["samples"] = {
        "eval_s": walls,
        "peak_rss_mb": rss,
        "setup_s": setups,
        "traced_eval_s": traced_walls,
        "reference_loop_s": refs,
    }
    record["eval_s"] = {**quartiles(walls), "n": len(walls), "tail": tail(walls)}
    record["reference_loop_s"] = quartiles(refs)
    if not args.trace:
        return {
            "eval_s": (statistics.median(walls), "s"),
            "peak_rss_mb": (statistics.median(rss), "MB"),
            "setup_s": (statistics.median(setups), "s"),
        }
    counts = counts or {}
    pairs = sum(v for m, v in counts.items() if m.endswith(".pairs"))
    out_support = sum(v for m, v in counts.items() if m.endswith(".out_support"))
    metrics = {name: (value, "count") for name, value in counts.items()}
    metrics.update({name: (statistics.median(v), "s") for name, v in times.items()})
    metrics["cli.out_bytes"] = (out_bytes, "bytes")
    metrics["numbers.zadeh.yield"] = (out_support / pairs if pairs else 0.0, "ratio")
    metrics["trace.overhead"] = (
        statistics.median(traced_walls) / statistics.median(walls), "ratio"
    )
    return metrics


def bench(args, children: Children) -> dict:
    digests = json.loads((BENCH / "digests.json").read_text())
    workload = workloads.generate(args.workload, args.seed)
    scenario = children.workdir / "scenario.json"
    scenario.write_text(workload.text())
    shape = workload.shape()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "shape": shape,
    }
    cli_args = ["eval", str(scenario), "--format", workload.fmt]

    # Warm-up: compiles bytecode and yields the run's reference output,
    # which the independent replay in check.py must agree with.
    children.gate(children.run(["-c", "import fuzzysns.cli"], "setup"), "warm-up import")
    first = children.run(["-m", "fuzzysns.cli", *cli_args], "eval")
    replay = children.run(
        [str(BENCH / "check.py"), str(scenario), str(first["out"]), workload.fmt],
        "check", counted=False,
    )
    if replay["code"] != 0:
        children.wrong_output = f"rejected by the reference replay: {replay['stderr'].strip()}"
        children.wrong_digest = sha256(first["out"])
    recorded = digests[args.workload].get(str(args.seed))
    printed = children.gate(first, "warm-up eval", recorded)
    expected = recorded or printed
    for path in sorted((ROOT / "scenarios").glob("*.json")):
        smoke = children.run(["-m", "fuzzysns.cli", "eval", str(path)], "smoke")
        children.gate(smoke, f"smoke {path.name}", digests[SMOKE].get(path.name), warns=True)

    metrics = measure(args, children, cli_args, expected, record)
    record["harness_max_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    record.update(attempted=children.attempted, failed=children.failed, failures=children.failures)
    record["metrics"] = {name: value for name, (value, _) in metrics.items()}
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, default=str)
    )
    summary = ("environment", "shape", "eval_s", "reference_loop_s", "harness_max_rss_mb")
    print(json.dumps({k: record[k] for k in summary}, default=str), file=sys.stderr)
    for failure in children.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    return {
        "correct": not children.failures,
        "attempted": children.attempted,
        "failed": children.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "fuzzysns" / "cli.py").is_file():
        print(f"error: no fuzzysns sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    children = Children(workdir)
    try:
        result = bench(args, children)
    finally:
        children.close()
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
