"""The infobench benchmark: time the CLI pipeline end to end, or per layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload paper --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 5 --smoke

`--workload` is one of paper, stress, wide (see workloads.py) or `all`.
With `--trace 0` every command of the workload runs as a fresh
`python3 -m infobench` process, one after another, and steps are rerun until
`--seconds` is used up (see `Runner.measure`).  A step's time is the median
of its samples; `pipeline_s`, `cpu_s` and `peak_rss_mb` combine the per-step
medians (sum, sum, max); `setup_s` is the median `infobench --version`.
The `*_ref` metrics divide those times by the run's median time of a fixed
reference process, so they do not move with the machine's speed.
With `--trace 1` the sequence runs twice in-process, each time in a fresh
process: once untraced and once with every layer wrapped (see tracing.py);
the per-layer metrics come from the traced pass and the tracing overhead is
the difference of the two wall times.

Every output is checked (checks.py) and hashed.  A failed command, a failed
check, or an output whose sha256 differs from the step's first run, or from
an earlier run of the same code and seed, counts as a failed operation.
The record, with an environment stamp, goes to
`.perfbench/BENCH_<workload>_seed<seed>_trace<t>.json`.  The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics; the exit code is 0 only if every operation passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import checks
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
TRACER = Path(__file__).resolve().parent / "tracing.py"

SAMPLES_MIN = 7  # `--version` and reference samples per run, after a warm-up
SPACING_S = 2.0  # least time between two such samples
VISIT_S = 3.0  # pass 1 repeats a short step until it has run this long
HARD_LIMIT_S = 170.0  # a run must end within 180 s
COMMAND_TIMEOUT_S = 150.0

# (name, unit) of every end-to-end metric the benchmark prints.  A shared
# machine can change speed by up to ~1.7x over minutes, which moves every
# wall time of a run together, so the bounded metrics (END_TO_END) divide
# the commands' median wall or CPU time by the median time of a fixed
# reference process sampled through the same run (unit "ref").  The seconds
# they derive from are reported too (SECONDS), along with the metrics that
# apply to some workloads only.
END_TO_END = (
    ("setup_s", "s"),
    ("pipeline_ref", "ref"),
    ("info_gain_ref", "ref"),
    ("select_ref", "ref"),
    ("correlate_ref", "ref"),
    ("cpu_ref", "ref"),
    ("peak_rss_mb", "MB"),
)
SECONDS = (
    ("pipeline_s", "s"),
    ("info_gain_s", "s"),
    ("select_s", "s"),
    ("correlate_s", "s"),
    ("cpu_s", "s"),
    ("reference_s", "s"),
    ("synth_s", "s"),
    ("ingest_s", "s"),
    ("ingest_rows_per_s", "rows/s"),
    ("failed_ops", "ratio"),
)
# The reference process: interpreter start-up plus a fixed loop of string
# formatting, splitting and dict inserts, about 0.15 s; it does not import
# infobench, so no change to the program can move it.
REFERENCE_CODE = """
d = {}
for i in range(60000):
    s = f"{i},{i * 0.5!r}"
    d[s] = len(s.split(","))
"""
# per-layer metrics reported in the result line (the record holds them all)
PER_LAYER = (
    ("perf.parse_records.rows", "count"),
    ("perf.aggregate.cells", "count"),
    ("perf.from_stats.s", "s"),
    ("perf.load_stats.s", "s"),
    ("perf.load_stats.calls", "count"),
    ("perf.dumps_canonical_json.s", "s"),
    ("cli.bytes_written", "bytes"),
    ("confusion.log_weight_matrix.s", "s"),
    ("confusion.log_weight_matrix.calls", "count"),
    ("confusion.key_terms", "count"),
    ("confusion.key_term_reuse", "ratio"),
    ("confusion.softmax_rows.s", "s"),
    ("infogain.mutual_information.s", "s"),
    ("infogain.info_gain_set.calls", "count"),
    ("infogain.greedy_select.s", "s"),
    ("infogain.greedy_steps", "count"),
    ("cluster.correlation_matrix.s", "s"),
    ("cluster.cluster.s", "s"),
    ("heatmap.render_heatmap.s", "s"),
    ("heatmap.svg_bytes", "bytes"),
    ("trace.overhead_s", "s"),
)
# layer times that are zero on workloads that skip the layer; printed and
# recorded, but not in the result line
PER_LAYER_WHERE_APPLIES = (
    ("perf.parse_records.s", "s"),
    ("perf.aggregate.s", "s"),
    ("perf.write_stats_csv.s", "s"),
    ("synth.generate.s", "s"),
)
# which end-to-end metric each layer metric should move, and on which
# workloads (and not on which); written into the traced run's record
LAYER_MOVES = {
    "perf.parse_records": ("ingest_s, ingest_rows_per_s", "paper (not stress)"),
    "perf.aggregate": ("ingest_s, peak_rss_mb", "wide, paper (not stress)"),
    "perf.from_stats": ("ingest_s, peak_rss_mb", "wide, paper (not stress)"),
    "perf.load_stats": ("info_gain_s, select_s, correlate_s", "stress (not much on paper)"),
    "perf.write_stats_csv": ("ingest_s", "wide, paper"),
    "perf.dumps_canonical_json": ("ingest_s, correlate_s", "stress, wide"),
    "cli.bytes_written": ("ingest_s, correlate_s", "stress, wide"),
    "confusion.log_weight_matrix": ("select_s, info_gain_s", "stress, wide (not paper)"),
    "confusion.key_terms": ("select_s, cpu_s", "stress, wide (not paper)"),
    "confusion.softmax_rows": ("select_s", "stress"),
    "infogain.mutual_information": ("select_s", "stress"),
    "infogain.info_gain_set": ("select_s", "stress"),
    "infogain.greedy_select": ("select_s", "stress, wide (not paper)"),
    "cluster.correlation_matrix": ("correlate_s", "all"),
    "cluster.cluster": ("correlate_s", "all (first call includes the scipy import)"),
    "heatmap.render_heatmap": ("correlate_s, peak_rss_mb", "stress (not paper, wide)"),
    "synth.generate": ("synth_s", "paper"),
}
UNITS = dict(END_TO_END + SECONDS + PER_LAYER + PER_LAYER_WHERE_APPLIES)
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


@dataclass
class Proc:
    wall: float
    code: int
    cpu: float
    rss_mb: float


def spawn(argv: list[str], env: dict, log: Path, timeout: float) -> Proc:
    """Run one child to completion; wall, exit code and rusage from wait4.

    The child is waited for without being reaped first (WNOWAIT), so a
    timeout can kill it without racing a reused pid.
    """
    lock, done = threading.Lock(), [False]
    with open(log, "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)

        def kill():
            with lock:
                if not done[0]:
                    os.kill(proc.pid, signal.SIGKILL)

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            wall = time.perf_counter() - start
            with lock:
                done[0] = True
        finally:
            timer.cancel()
            timer.join()
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return Proc(wall, code, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


def digests(*dirs: Path, keep=lambda name: True) -> dict[str, str]:
    """sha256 of every file under the directories, keyed `<dir>/<path>`."""
    out = {}
    for d in dirs:
        for path in sorted(d.rglob("*")):
            name = f"{d.name}/{path.relative_to(d)}"
            if path.is_file() and keep(name):
                out[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def producer(name: str) -> str:
    """Which step writes an output file (by its digest key)."""
    base = name.split("/")[-1]
    if name.startswith("input/"):
        return "synth"
    for prefix, step in (("stats", "ingest"), ("info_gain", "info-gain"),
                         ("selection", "select")):
        if base.startswith(prefix):
            return step
    return "correlate"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "infobench").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def stamp(args, plan: workloads.Workload, input_dir: Path) -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    inputs = {p.name: p.stat().st_size for p in input_dir.glob("*") if p.is_file()}
    return {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "platform": platform.platform(),
        "workload": plan.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "sizes": vars(plan.sizes),
        "rows": plan.rows,
        "input_bytes": inputs,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)


class Runner:
    """One workload, one seed: prepares inputs, runs, checks, measures."""

    def __init__(self, args, name: str):
        self.args = args
        self.started = time.perf_counter()
        # one work directory per workload and mode: each run replaces the
        # previous run's inputs and outputs, so disk use stays bounded
        self.work = WORK / f"{name}-trace{args.trace}{'-smoke' if args.smoke else ''}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.input_dir, self.out_dir = self.work / "input", self.work / "out"
        (self.work / "tmp").mkdir(parents=True)
        self.log = self.work / "stderr.log"
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        self.env["TMPDIR"] = str(self.work / "tmp")
        self.plan = workloads.prepare(name, args.seed, self.input_dir, self.out_dir, args.smoke)
        self.tally = Tally()
        self.input_digest = digests(self.input_dir)  # generated inputs
        self.reference: dict[str, dict[str, str]] = {}  # step -> its first files
        self.runs: list[tuple[str, int, list[str]]] = []  # step, exit code, byte diffs
        self.last_setup = 0.0

    def remaining(self) -> float:
        return HARD_LIMIT_S - (time.perf_counter() - self.started)

    def cli(self, args: tuple[str, ...]) -> Proc:
        timeout = max(1.0, min(COMMAND_TIMEOUT_S, self.remaining()))
        return spawn([sys.executable, "-m", "infobench", *args], self.env, self.log, timeout)

    def reset_outputs(self) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)
        self.out_dir.mkdir(parents=True)
        if self.plan.name == "paper":  # synth writes the input
            shutil.rmtree(self.input_dir, ignore_errors=True)

    def record(self, step: str, code: int) -> None:
        """Note one finished run of a step: its exit code, and whether its
        files match, byte for byte, what its first run wrote."""
        digest = digests(self.input_dir, self.out_dir, keep=lambda n: producer(n) == step)
        reference = self.reference.setdefault(step, digest)
        differs = [f"{n} differs between repeats" for n in sorted(set(digest) | set(reference))
                   if digest.get(n) != reference.get(n)]
        self.runs.append((step, code, differs))

    def all_digests(self) -> dict[str, str]:
        out = dict(self.input_digest)
        for digest in self.reference.values():
            out.update(digest)
        return dict(sorted(out.items()))

    def judge(self) -> None:
        """Check the outputs once and count every recorded step run."""
        found = checks.check_outputs(self.plan.playthroughs, self.plan.stats, self.out_dir,
                                     self.plan.sizes.k, [s.name for s in self.plan.steps])
        for name in self.compare_with_earlier_run():
            found.setdefault(producer(name), []).append(
                f"{name} differs from an earlier run of the same code")
        for step, code, differs in self.runs:
            problems = found.get(step, []) + differs + ([f"exit code {code}"] if code else [])
            self.tally.add(not problems, f"{step}: {'; '.join(problems)}")

    def compare_with_earlier_run(self) -> list[str]:
        """Files whose bytes differ from an earlier run of the same code and seed."""
        smoke = "-smoke" if self.args.smoke else ""
        store = WORK / "digests" / f"{self.plan.name}-seed{self.args.seed}{smoke}.json"
        source, digest = source_digest(), self.all_digests()
        if store.exists():
            earlier = json.loads(store.read_text())
            if earlier["source_sha256"] == source:
                return sorted(n for n in set(digest) | set(earlier["files"])
                              if digest.get(n) != earlier["files"].get(n))
        store.parent.mkdir(parents=True, exist_ok=True)
        store.write_text(json.dumps({"source_sha256": source, "files": digest}, indent=1))
        return []

    # -- tracing off ----------------------------------------------------------

    def setup_sample(self) -> float:
        proc = self.cli(("--version",))
        self.tally.add(proc.code == 0, f"--version: exit code {proc.code}")
        self.last_setup = time.perf_counter()
        return proc.wall

    def reference_run(self) -> Proc:
        """One run of the fixed reference process (see REFERENCE_CODE)."""
        return spawn([sys.executable, "-I", "-c", REFERENCE_CODE], self.env, self.log,
                     max(1.0, min(COMMAND_TIMEOUT_S, self.remaining())))

    def measure(self) -> tuple[dict, dict]:
        """Time the sequence with fresh processes until --seconds is used up.

        Pass 1 runs the whole sequence, repeating each short step for
        VISIT_S.  After it, the step with the least sampled time so far that
        still fits in --seconds runs again, in place: outputs are
        deterministic, so the step rewrites its own files.  Short steps thus
        collect more samples than long ones.  Between steps, at most every
        SPACING_S, one `infobench --version` and one reference process run,
        so both spread over the whole run.  A `*_ref` metric is the median
        time of its step(s) divided by the median reference time of the run.
        """
        self.setup_sample()  # warm-up: bytecode and page cache
        self.reference_run()
        setup: list[float] = []
        refs: list[Proc] = []
        runs: dict[str, list[Proc]] = {s.name: [] for s in self.plan.steps}
        self.reset_outputs()
        start = time.perf_counter()

        def sample_machine() -> None:
            setup.append(self.setup_sample())
            refs.append(self.reference_run())

        def run(step: workloads.Step) -> None:
            if time.perf_counter() - self.last_setup > SPACING_S or not setup:
                sample_machine()
            proc = self.cli(step.args)
            runs[step.name].append(proc)
            self.record(step.name, proc.code)

        # pass 1: the whole sequence, each step repeated until it has run
        # for VISIT_S, so short steps are also sampled early in the run
        for step in self.plan.steps:
            visit = time.perf_counter()
            run(step)
            while (time.perf_counter() - visit < VISIT_S
                   and time.perf_counter() - start < self.args.seconds):
                run(step)
        while True:
            used = time.perf_counter() - start
            longest = {s.name: max(p.wall for p in runs[s.name]) for s in self.plan.steps}
            fits = [s for s in self.plan.steps
                    if used + longest[s.name] <= self.args.seconds
                    and longest[s.name] + 15 < self.remaining()]
            if not fits:
                break
            run(min(fits, key=lambda s: sum(p.wall for p in runs[s.name])))
        while len(setup) < SAMPLES_MIN and self.remaining() > 15:
            sample_machine()
        self.judge()

        med = statistics.median
        wall = {name: med(p.wall for p in ps) for name, ps in runs.items()}
        cpu = sum(med(p.cpu for p in ps) for ps in runs.values())
        ref_wall, ref_cpu = med(r.wall for r in refs), med(r.cpu for r in refs)
        metrics = {
            "setup_s": med(setup),
            "pipeline_ref": sum(wall.values()) / ref_wall,
            "info_gain_ref": wall["info-gain"] / ref_wall,
            "select_ref": wall["select"] / ref_wall,
            "correlate_ref": wall["correlate"] / ref_wall,
            "cpu_ref": cpu / ref_cpu,
            "peak_rss_mb": max(med(p.rss_mb for p in ps) for ps in runs.values()),
            "pipeline_s": sum(wall.values()),
            "info_gain_s": wall["info-gain"],
            "select_s": wall["select"],
            "correlate_s": wall["correlate"],
            "cpu_s": cpu,
            "reference_s": ref_wall,
        }
        if "synth" in wall:
            metrics["synth_s"] = wall["synth"]
        if "ingest" in wall:
            metrics["ingest_s"] = wall["ingest"]
            metrics["ingest_rows_per_s"] = self.plan.rows / wall["ingest"]
        metrics["failed_ops"] = self.tally.failed / self.tally.attempted
        samples = {
            "setup_s": setup,
            "reference": [vars(r) for r in refs],
            "steps": {name: [vars(p) for p in ps] for name, ps in runs.items()},
        }
        return metrics, samples

    # -- tracing on -----------------------------------------------------------

    def in_process(self, trace: bool) -> dict:
        tag = "traced" if trace else "untraced"
        spec = {
            "src": str(SRC),
            "commands": [list(s.args) for s in self.plan.steps],
            "trace": trace,
            "result": str(self.work / f"{tag}.json"),
        }
        spec_path = self.work / f"{tag}-spec.json"
        spec_path.write_text(json.dumps(spec))
        self.reset_outputs()
        proc = spawn([sys.executable, str(TRACER), str(spec_path)], self.env, self.log,
                     max(1.0, self.remaining()))
        result = {"codes": [], "walls": []}
        if proc.code == 0:
            result = json.loads(Path(spec["result"]).read_text())
        codes = dict(zip((s.name for s in self.plan.steps), result["codes"]))
        for step in self.plan.steps:
            self.record(step.name, codes.get(step.name, proc.code or 1))
        return result

    def measure_traced(self) -> tuple[dict, dict]:
        untraced = self.in_process(trace=False)
        traced = self.in_process(trace=True)
        self.judge()
        layers = dict(traced.get("layers", {}))
        bytes_written = sum(p.stat().st_size for p in self.out_dir.rglob("*") if p.is_file())
        metrics = {name: layers.get(name, 0) for name, _ in PER_LAYER + PER_LAYER_WHERE_APPLIES}
        metrics["cli.bytes_written"] = bytes_written
        metrics["trace.overhead_s"] = sum(traced["walls"]) - sum(untraced["walls"])
        times = {n[:-2]: v for n, v in layers.items() if n.endswith(".s")}
        detail = {
            "layers": layers,
            "unhooked": traced.get("missing", []),
            "traced_pipeline_s": sum(traced["walls"]),
            "untraced_pipeline_s": sum(untraced["walls"]),
            "largest_self_time": max(times, key=times.get) if times else None,
            "layer_moves": LAYER_MOVES,
            "spans_file": str((self.work / "traced.json").relative_to(ROOT)),
        }
        return metrics, detail


def run_workload(args, name: str) -> tuple[dict, Tally]:
    runner = Runner(args, name)
    if args.trace:
        metrics, detail = runner.measure_traced()
        reported = [n for n, _ in PER_LAYER]
    else:
        metrics, detail = runner.measure()
        reported = [n for n, _ in END_TO_END]

    record = {
        "stamp": stamp(args, runner.plan, runner.input_dir),
        "trace": args.trace,
        "metrics": {n: {"value": v, "unit": UNITS[n]} for n, v in metrics.items()},
        "detail": detail,
        "attempted": runner.tally.attempted,
        "failed": runner.tally.failed,
        "problems": runner.tally.problems,
        "digests": runner.all_digests(),
    }
    out = WORK / f"BENCH_{name}_seed{args.seed}_trace{args.trace}{'_smoke' if args.smoke else ''}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    print(f"== {name} (seed {args.seed}, trace {args.trace}) ==")
    shown = (PER_LAYER + PER_LAYER_WHERE_APPLIES) if args.trace else (END_TO_END + SECONDS)
    for metric, unit in shown:
        value = metrics.get(metric)
        shown_value = "n/a" if value is None else value if isinstance(value, int) else f"{value:.6g}"
        print(f"  {metric:<36} {shown_value:>14} {unit}")
    if args.trace:
        print(f"  largest self time: {detail['largest_self_time']}")
        if detail["unhooked"]:
            print(f"  not traced (missing): {', '.join(detail['unhooked'])}")
    else:
        counts = ", ".join(f"{n} x{len(v)}" for n, v in detail["steps"].items())
        print(f"  samples: {counts}")
    for problem in runner.tally.problems:
        print(f"  FAILED {problem}")
    print(f"  record: {out.relative_to(ROOT)}")
    return {n: {"value": metrics[n], "unit": UNITS[n]} for n in reported}, runner.tally


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for a quick check")
    args = parser.parse_args(argv)

    if not (SRC / "infobench" / "cli.py").is_file():
        print(f"error: no program to benchmark at {SRC / 'infobench'}", file=sys.stderr)
        return 2
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        got, tally = run_workload(args, name)
        prefix = "" if len(names) == 1 else f"{name}."
        metrics.update({prefix + n: v for n, v in got.items()})
        attempted += tally.attempted
        failed += tally.failed
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
