"""In-process run of a CLI command sequence, optionally traced per layer.

Usage: python3 perfbench/tracing.py SPEC.json

SPEC names the `src` directory to import `infobench` from, the list of CLI
argument lists to pass to `infobench.cli.main` one after another, whether to
trace, and the JSON file to write the result to.  Running the same sequence
once untraced and once traced, each in a fresh process, gives the tracing
overhead as the difference of the two wall times.

Tracing wraps public functions where the calling module looks them up at
call time (e.g. `cli.parse_records_path`, `infogain.confusion`,
`confusion.log_weight_matrix`).  Module objects come from `sys.modules`:
`infobench.confusion` and `infobench.cluster` as package attributes are the
re-exported functions, not the modules.  Spans (name, start, end, parent)
stay in memory and are written out at the end; self time and counts are
computed from them.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import sys
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.distinct_keys: set = set()
        self.missing: list[str] = []

    def wrap(self, name, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self.stack[-1] if self.stack else -1])
            self.stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans[index][1:3] = start, end
            if count is not None:
                count(self, args, kwargs, result)
            return result

        return traced

    def patch(self, module_name: str, attr: str, name: str, count=None) -> None:
        module = sys.modules[module_name]
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module_name}.{attr}")
            return
        setattr(module, attr, self.wrap(name, original, count))

    def layers(self) -> dict[str, float]:
        """`<name>.s` self time and `<name>.calls` per span name, plus counts."""
        self_time: defaultdict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for name, start, end, parent in self.spans:
            self_time[name] += end - start
            calls[name] += 1
            if parent >= 0:
                self_time[self.spans[parent][0]] -= end - start
        out = {}
        for name in sorted(calls):
            out[f"{name}.s"] = self_time[name]
            out[f"{name}.calls"] = calls[name]
        out.update(self.counts)
        return out


def _count_rows(tracer, args, kwargs, result):
    tracer.counts["perf.parse_records.rows"] += len(result)


def _count_cells(tracer, args, kwargs, result):
    tracer.counts["perf.aggregate.cells"] += result.means.size


def _count_keys(tracer, args, kwargs, result):
    keys = args[1] if len(args) > 1 else kwargs["keys"]
    tracer.counts["confusion.key_terms"] += len(keys)
    tracer.distinct_keys.update(keys)


def _count_steps(tracer, args, kwargs, result):
    tracer.counts["infogain.greedy_steps"] += len(result.steps) + bool(result.stopped_early)


def _count_svg(tracer, args, kwargs, result):
    tracer.counts["heatmap.svg_bytes"] += len(result.encode("utf-8"))


def install(tracer: Tracer) -> None:
    """Wrap every traced layer of an imported `infobench`."""
    p = tracer.patch
    p("infobench.cli", "generate", "synth.generate")
    p("infobench.cli", "parse_records_path", "perf.parse_records_path")
    p("infobench.perf", "parse_records", "perf.parse_records", _count_rows)
    p("infobench.cli", "aggregate", "perf.aggregate", _count_cells)
    p("infobench.cli", "load_stats", "perf.load_stats")
    p("infobench.cli", "write_stats_csv", "perf.write_stats_csv")
    p("infobench.cli", "dumps_canonical_json", "perf.dumps_canonical_json")
    p("infobench.cli", "info_gain_set", "infogain.info_gain_set")
    p("infobench.infogain", "info_gain_set", "infogain.info_gain_set")
    p("infobench.infogain", "confusion", "confusion.confusion")
    p("infobench.infogain", "mutual_information", "infogain.mutual_information")
    p("infobench.confusion", "log_weight_matrix", "confusion.log_weight_matrix", _count_keys)
    p("infobench.confusion", "softmax_rows", "confusion.softmax_rows")
    p("infobench.cli", "greedy_select", "infogain.greedy_select", _count_steps)
    p("infobench.cli", "correlation_matrix", "cluster.correlation_matrix")
    p("infobench.cli", "cluster", "cluster.cluster")
    p("infobench.cli", "render_heatmap", "heatmap.render_heatmap", _count_svg)

    table = getattr(sys.modules["infobench.perf"], "PerformanceTable", None)
    if table is None or not hasattr(table, "from_stats"):
        tracer.missing.append("infobench.perf.PerformanceTable.from_stats")
    else:
        table.from_stats = classmethod(tracer.wrap("perf.from_stats", table.from_stats.__func__))

    cli = sys.modules["infobench.cli"]
    commands = getattr(cli, "_COMMANDS", {})
    for command, fn in list(commands.items()):
        commands[command] = tracer.wrap(f"cli.cmd_{command.replace('-', '_')}", fn)


def run(spec: dict) -> dict:
    sys.path.insert(0, spec["src"])
    started = time.perf_counter()
    import infobench.cli as cli  # noqa: E402  (imported from the spec's src)

    imported = time.perf_counter()
    tracer = Tracer() if spec["trace"] else None
    if tracer:
        install(tracer)
    main = tracer.wrap("cli.main", cli.main) if tracer else cli.main

    walls, codes = [], []
    for argv in spec["commands"]:
        sink = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(sink):
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:  # a traceback is a failed command, not a crash
                print(f"{argv[0]}: {exc!r}", file=sys.stderr)
                code = 1
        walls.append(time.perf_counter() - t0)
        codes.append(code)

    result = {"import_s": imported - started, "walls": walls, "codes": codes}
    if tracer:
        layers = tracer.layers()
        terms = tracer.counts["confusion.key_terms"]
        layers["confusion.key_term_reuse"] = len(tracer.distinct_keys) / terms if terms else 0.0
        result.update(layers=layers, missing=tracer.missing, spans=tracer.spans)
    return result


def main(argv: list[str]) -> int:
    with open(argv[1], encoding="utf-8") as f:
        spec = json.load(f)
    result = run(spec)
    with open(spec["result"], "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
