"""Command-line front end: ingest logs, rank problems, select subsets,
correlate and cluster, and render heatmaps.

Every command is a batch operation: read files, write files, print a
short summary.  Exit codes are stable for scripting: 0 success, 1 the
requested quantity is undefined for the data (domain error), 2 bad
input or usage.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .cluster import DEFAULT_THRESHOLD, cluster, correlation_matrix
from .confusion import NOISE_MODES, confusion
from .errors import DomainError, InputError
from .heatmap import render_heatmap
from .infogain import (
    EPS_GAIN,
    SELECTION_MODES,
    greedy_select,
    info_gain_set,  # noqa: F401  (unused here; perfbench/tracing.py wraps cli.info_gain_set)
    metric_keys_for,
    problem_gains,
)
from .perf import (
    Measure,
    MetricKey,
    PerformanceTable,
    SIGMA_FLOOR_DEFAULT,
    aggregate,
    dumps_canonical_json,
    load_stats,
    parse_records_path,
    stats_json_document,
    write_stats_csv,
)
from .synth import Archetype, SynthSpec, generate

ALL_FORMATS = ("csv", "json", "svg")

ARCHETYPE_CHOICES = ("identical", "linear", "two-cluster", "delayed", "mixed")

_MIXED_CYCLE = ("linear", "two_cluster", "delayed")

_DEFAULT = " (default: %(default)s)"


def _read_config_file(path: str) -> dict[str, str]:
    """Parse a key=value config file; '#' starts a comment line."""
    values: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read config file: {exc}")
    except UnicodeDecodeError as exc:
        # the whole file is decoded at once, so the offset locates the line
        lineno = exc.object[: exc.start].count(b"\n") + 1
        raise InputError(f"config file {path} line {lineno}: not UTF-8 text ({exc.reason})")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InputError(f"config line {lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


_BOOL_TOKENS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _cast_bool(raw: str) -> bool:
    try:
        return _BOOL_TOKENS[raw.lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {raw!r}")


def _comma_list(text: str) -> tuple[str, ...]:
    return tuple(f.strip() for f in text.split(",") if f.strip())


def _config_defaults(command: argparse.ArgumentParser, config: dict[str, str]) -> dict:
    """Typed defaults for one subcommand from config entries keyed by long
    flag name without ``--``.  Keys the command does not take, and its
    required options, are ignored."""
    defaults = {}
    for action in command._actions:
        if not action.option_strings or action.dest in ("help", "config") or action.required:
            continue
        key = action.option_strings[0].lstrip("-")
        if key not in config:
            continue
        try:
            if action.nargs == 0:  # store_true flag
                value = _cast_bool(config[key])
            else:
                value = action.type(config[key]) if action.type else config[key]
        except ValueError as exc:
            raise InputError(f"config key {key!r}: {exc}")
        if action.choices is not None and value not in action.choices:
            raise InputError(f"config key {key!r}: {value!r} is not one of {tuple(action.choices)}")
        defaults[action.dest] = value
    return defaults


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------


def _outdir(args: argparse.Namespace) -> Path:
    args.out.mkdir(parents=True, exist_ok=True)
    return args.out


def _write_text(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8")
    print(f"wrote {path}")


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)
    print(f"wrote {path}")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_ingest(args: argparse.Namespace) -> int:
    records = parse_records_path(args.input)
    table = aggregate(records, args.sigma_floor, allow_missing=args.allow_missing)
    out = _outdir(args)
    if "csv" in args.formats:
        with open(out / "stats.csv", "w", newline="", encoding="utf-8") as f:
            write_stats_csv(table, f)
        print(f"wrote {out / 'stats.csv'}")
    if "json" in args.formats:
        _write_text(out / "stats.json", dumps_canonical_json(stats_json_document(table)))

    counts = np.asarray(table.counts)
    per_pair = counts[:, :: 2]  # one column per problem (win/score share the count)
    print(f"agents:   {len(table.agents)}")
    print(f"problems: {len(table.problems)}")
    print(f"records:  {len(records)}")
    print(
        "samples per agent-problem pair: "
        f"min {per_pair.min()} / avg {per_pair.mean():.1f} / max {per_pair.max()}"
    )
    for i, agent in enumerate(table.agents):
        print(f"  {agent}: avg {per_pair[i].mean():.1f} samples per problem")
    return 0


def _gain_rows(table: PerformanceTable, noise: str) -> list[dict]:
    rows = []
    for problem in table.problems:
        row = {"problem": problem}
        for mode, bits in problem_gains(table, problem, noise).items():
            row[f"{mode}_bits"] = bits
        rows.append(row)
    rows.sort(key=lambda r: (-r["combined_bits"], r["problem"]))
    return rows


def cmd_info_gain(args: argparse.Namespace) -> int:
    table = load_stats(args.stats)
    rows = _gain_rows(table, args.noise)
    out = _outdir(args)
    if "csv" in args.formats:
        _write_csv(out / "info_gain.csv", rows[0].keys(), (r.values() for r in rows))
    if "json" in args.formats:
        doc = {
            "noise": args.noise,
            "gains": rows,
            "ranking_by": {
                mode: [
                    r["problem"]
                    for r in sorted(rows, key=lambda r: (-r[f"{mode}_bits"], r["problem"]))
                ]
                for mode in SELECTION_MODES
            },
        }
        _write_text(out / "info_gain.json", dumps_canonical_json(doc))
    top = rows[: min(5, len(rows))]
    print("top problems by combined gain:")
    for r in top:
        print(f"  {r['problem']}: {r['combined_bits']:.8f} bits")
    return 0


def _selection_text(report) -> str:
    lines = [f"{'rank':>4}  {'problem':<24} {'marginal_bits':>14} {'cumulative_bits':>16}"]
    for rank, step in enumerate(report.steps, start=1):
        lines.append(
            f"{rank:>4}  {step.problem:<24} {step.marginal_bits:>14.8f} "
            f"{step.cumulative_bits:>16.8f}"
        )
    if report.stopped_early:
        lines.append(f"(early stop: {report.stop_reason})")
    for neg in report.negative_marginals:
        lines.append(
            f"(step {neg.step}: skipped {neg.problem!r}, marginal "
            f"{neg.marginal_bits:.3g} bits < 0)"
        )
    return "\n".join(lines) + "\n"


def cmd_select(args: argparse.Namespace) -> int:
    table = load_stats(args.stats)
    report = greedy_select(
        table,
        args.k,
        args.metric,
        noise=args.noise,
        eps_gain=args.eps_gain,
        per_key=args.per_key,
    )
    header = ("rank", "problem", "marginal_bits", "cumulative_bits")
    steps = [
        dict(zip(header, (rank, s.problem, s.marginal_bits, s.cumulative_bits)))
        for rank, s in enumerate(report.steps, start=1)
    ]
    out = _outdir(args)
    if "csv" in args.formats:
        _write_csv(out / "selection.csv", header, (s.values() for s in steps))
    if "json" in args.formats:
        doc = {
            "mode": report.mode,
            "noise": args.noise,
            "steps": steps,
            "stopped_early": report.stopped_early,
            "stop_reason": report.stop_reason,
            "negative_marginals": [
                {"step": n.step, "problem": n.problem, "marginal_bits": n.marginal_bits}
                for n in report.negative_marginals
            ],
        }
        _write_text(out / "selection.json", dumps_canonical_json(doc))
    text = _selection_text(report)
    _write_text(out / "selection.txt", text)
    print(text, end="")
    return 0


def cmd_correlate(args: argparse.Namespace) -> int:
    table = load_stats(args.stats)
    # both measures are clustered before anything is written, so a domain
    # error on the second leaves no files from the first
    results = []
    for measure in (Measure.WIN_RATE, Measure.SCORE):
        corr = correlation_matrix(table, measure)
        results.append((measure.value, corr, cluster(corr, args.threshold)))
    out = _outdir(args)
    for name, corr, clustering in results:
        # None marks an undefined entry: JSON null, an empty CSV field
        matrix = [[None if math.isnan(v) else v for v in row] for row in corr.values.tolist()]
        if "csv" in args.formats:
            _write_csv(
                out / f"correlation_{name}.csv",
                ["problem", *corr.problems],
                ([p, *row] for p, row in zip(corr.problems, matrix)),
            )
            _write_csv(
                out / f"clusters_{name}.csv",
                ("problem", "cluster_id"),
                sorted(clustering.assignments().items()),
            )
        if "json" in args.formats:
            doc = {
                "measure": name,
                "problems": list(corr.problems),
                "matrix": matrix,
                "threshold": args.threshold,
                "clusters": [list(c) for c in clustering.clusters],
                "no_correlation_measure": list(clustering.excluded),
            }
            _write_text(out / f"correlation_{name}.json", dumps_canonical_json(doc))
        if "svg" in args.formats:
            svg = render_heatmap(corr, clustering, title=f"problem correlation ({name})")
            _write_text(out / f"heatmap_{name}.svg", svg)
        print(
            f"{name}: {len(clustering.clusters)} cluster(s), "
            f"{len(clustering.excluded)} problem(s) without a correlation measure"
        )
    return 0


def cmd_confusion(args: argparse.Namespace) -> int:
    table = load_stats(args.stats)
    keys: list[MetricKey] = []
    for p in args.problems_list:
        keys.extend(metric_keys_for(p, args.metric))
    matrix = confusion(table, keys, args.noise)
    probs = matrix.probs.tolist()
    out = _outdir(args)
    if "csv" in args.formats:
        _write_csv(
            out / "confusion.csv",
            ["agent", *matrix.agents],
            ([agent, *row] for agent, row in zip(matrix.agents, probs)),
        )
    if "json" in args.formats:
        doc = {
            "agents": list(matrix.agents),
            "metric": args.metric,
            "noise": args.noise,
            "problems": list(args.problems_list),
            "rows": probs,
        }
        _write_text(out / "confusion.json", dumps_canonical_json(doc))
    print(f"confusion matrix over {len(matrix.agents)} agents, {len(keys)} metric key(s)")
    return 0


def _synth_spec(args: argparse.Namespace) -> SynthSpec:
    kinds: list[Archetype] = []
    for i in range(args.problems):
        name = args.archetype
        if name == "mixed":
            if i % 4 == 3:
                kinds.append(Archetype("duplicate", source=i - 3))
                continue
            name = _MIXED_CYCLE[i % 4]
        kinds.append(Archetype(name.replace("-", "_"), gap=args.gap, sigma=args.sigma))
    return SynthSpec(args.agents, tuple(kinds), args.samples, args.seed)


def cmd_synth(args: argparse.Namespace) -> int:
    spec = _synth_spec(args)
    records = generate(spec)
    _write_csv(
        _outdir(args) / "playthroughs.csv",
        ("agent", "problem", "score", "win"),
        ((r.agent, r.problem, r.score, int(r.win)) for r in records),
    )
    print(
        f"{len(records)} records: {spec.agents} agents x "
        f"{len(spec.archetypes)} problems x {spec.samples_per_cell} samples"
    )
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="infobench",
        description=(
            "Rank and select the most discriminatory benchmark problems from "
            "noisy per-problem performance logs."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def shared(*flags, **options) -> argparse.ArgumentParser:
        """A parent parser holding an option that several commands take."""
        parent = argparse.ArgumentParser(add_help=False)
        parent.add_argument(*flags, **options)
        return parent

    common = shared("--out", type=Path, default=".", help="output directory" + _DEFAULT)
    common.add_argument("--config", help="key=value config file; flags take precedence")
    formats = shared("--format", dest="formats", type=_comma_list, default=",".join(ALL_FORMATS),
                     help="comma-separated output formats" + _DEFAULT)
    stats = shared("--stats", required=True, help="aggregated stats file (.csv or .json)")
    noise = shared("--noise", choices=NOISE_MODES, default="sum",
                   help="how per-agent noise scales combine" + _DEFAULT)
    metric = shared("--metric", choices=SELECTION_MODES, default="combined",
                    help="performance signal(s) to use" + _DEFAULT)

    p = sub.add_parser("ingest", parents=[common, formats],
                       help="aggregate a playthrough CSV into stats files")
    p.add_argument("--input", required=True, help="playthrough CSV (agent,problem,score,win)")
    p.add_argument("--allow-missing", action="store_true",
                   help="drop agents lacking full problem coverage instead of failing")
    p.add_argument("--sigma-floor", type=float, default=SIGMA_FLOOR_DEFAULT,
                   help="lower bound on estimated stddevs" + _DEFAULT)

    sub.add_parser("info-gain", parents=[common, formats, stats, noise],
                   help="rank every problem by information gain")

    p = sub.add_parser("select", parents=[common, formats, stats, metric, noise],
                       help="greedily select the top-k problem set")
    p.add_argument("--k", type=int, default=10, help="number of problems to select" + _DEFAULT)
    p.add_argument("--eps-gain", type=float, default=EPS_GAIN,
                   help="marginal gain resolution in bits" + _DEFAULT)
    p.add_argument("--per-key", action="store_true",
                   help="select single (problem, measure) cells instead of whole problems")

    p = sub.add_parser("correlate", parents=[common, formats, stats],
                       help="correlation matrices, clusters, heatmaps")
    p.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                   help="dendrogram cut height" + _DEFAULT)

    p = sub.add_parser("confusion", parents=[common, formats, stats, metric, noise],
                       help="dump the confusion matrix for a problem set")
    p.add_argument("--problems", dest="problems_list", type=_comma_list, required=True,
                   help="comma-separated problem identifiers")

    p = sub.add_parser("synth", parents=[common], help="generate a synthetic playthrough CSV")
    p.add_argument("--agents", type=int, default=5, help="number of agents" + _DEFAULT)
    p.add_argument("--problems", type=int, default=10, help="number of problems" + _DEFAULT)
    p.add_argument("--archetype", choices=ARCHETYPE_CHOICES, default="mixed",
                   help="problem character; 'mixed' cycles archetypes and adds duplicates"
                   + _DEFAULT)
    p.add_argument("--gap", type=float, default=Archetype.gap,
                   help="mean separation between adjacent agents" + _DEFAULT)
    p.add_argument("--sigma", type=float, default=Archetype.sigma,
                   help="score noise per agent" + _DEFAULT)
    p.add_argument("--samples", type=int, default=SynthSpec.samples_per_cell,
                   help="playthroughs per agent-problem cell" + _DEFAULT)
    p.add_argument("--seed", type=int, default=SynthSpec.seed,
                   help="random seed; pins the whole stream" + _DEFAULT)

    return parser


_COMMANDS = {
    "ingest": cmd_ingest,
    "info-gain": cmd_info_gain,
    "select": cmd_select,
    "correlate": cmd_correlate,
    "confusion": cmd_confusion,
    "synth": cmd_synth,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            # the config file supplies defaults for the chosen command only,
            # so a second parse lets explicit flags win over it
            commands = next(a for a in parser._actions if a.dest == "command")
            command = commands.choices[args.command]
            command.set_defaults(**_config_defaults(command, _read_config_file(args.config)))
            args = parser.parse_args(argv)
        bad = [f for f in getattr(args, "formats", ()) if f not in ALL_FORMATS]
        if bad:
            raise InputError(f"unknown output format(s): {', '.join(bad)}")
        return _COMMANDS[args.command](args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
