"""Command-line front end: ingest logs, rank problems, select subsets,
correlate and cluster, and render heatmaps.

Every command is a batch operation: read files, write files, print a
short summary.  Exit codes are stable for scripting: 0 success, 1 the
requested quantity is undefined for the data (domain error), 2 bad
input or usage.
"""

from __future__ import annotations

import argparse
import math
import sys
import warnings
from pathlib import Path

from . import __version__
from .cluster import DEFAULT_THRESHOLD, cluster, correlation_matrix
from .confusion import DEFAULT_NOISE, NOISE_MODES, confusion
from .errors import DomainError, InputError
from .heatmap import (
    heatmap_lines,
    render_heatmap,  # noqa: F401  (unused here; perfbench/tracing.py wraps cli.render_heatmap)
)
from .infogain import (
    DEFAULT_MODE,
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
    PLAYTHROUGH_HEADER,
    PerformanceTable,
    SIGMA_FLOOR_DEFAULT,
    aggregate,
    canonical_json_pieces,
    dumps_canonical_json,  # noqa: F401  (unused here; perfbench/tracing.py wraps cli.dumps_canonical_json)
    load_stats,
    parse_records_path,
    stats_json_document,
    write_csv,
    write_stats_csv,
)
from .synth import ARCHETYPE_CHOICES, Archetype, SynthSpec, archetypes, generate, write_playthroughs

ALL_FORMATS = ("csv", "json", "svg")

_DEFAULT = " (default: %(default)s)"


def _read_config_file(path: str) -> dict[str, str]:
    """Parse a key=value config file; '#' starts a comment line."""
    values: dict[str, str] = {}
    try:
        # utf-8-sig drops a leading byte-order mark, as the CSV readers do
        text = Path(path).read_text(encoding="utf-8-sig")
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


def _config_actions(command: argparse.ArgumentParser):
    """``(key, action)`` for each option of ``command`` a config file can
    set, keyed by long flag name without ``--``: every option but
    ``--help``, ``--config`` and the required ones."""
    for action in command._actions:
        if action.option_strings and action.dest not in ("help", "config") and not action.required:
            yield action.option_strings[0].lstrip("-"), action


def _config_defaults(command: argparse.ArgumentParser, config: dict[str, str]) -> dict:
    """Typed defaults for one subcommand from config entries keyed by long
    flag name without ``--``.  Keys the command does not take, and its
    required options, are ignored."""
    defaults = {}
    for key, action in _config_actions(command):
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
# Output
# ---------------------------------------------------------------------------


def _write_files(args: argparse.Namespace, files) -> None:
    """Write each ``(name, write)`` of ``files`` into ``--out``, where
    ``write(f)`` fills the open text file.  A .csv, .json or .svg file
    whose format ``--format`` leaves out is skipped; any other file, and
    every file of a command without ``--format``, is written.  A
    ``--format`` that leaves no file is an ``InputError``.  Commands call
    this once, after computing everything, so an error in reading or
    computing leaves no files and no ``--out``.  An ``OSError`` while
    writing stops at the file it hit, which may be left part-written;
    ``--out`` and the files written before it stay."""
    formats = getattr(args, "formats", ALL_FORMATS)
    suffixes = [name.rpartition(".")[2] for name, _ in files]
    chosen = [
        file for file, suffix in zip(files, suffixes)
        if suffix not in ALL_FORMATS or suffix in formats
    ]
    if not chosen:
        offered = ", ".join(f for f in ALL_FORMATS if f in suffixes)
        given = ",".join(formats) or "''"
        raise InputError(
            f"--format {given} selects none of {args.command}'s formats: {offered}"
        )
    args.out.mkdir(parents=True, exist_ok=True)
    for name, write in chosen:
        path = args.out / name
        with open(path, "w", newline="", encoding="utf-8") as f:
            write(f)
        print(f"wrote {path}")


def _json(f, doc) -> None:
    # written piece by piece as made, as heatmap lines are: no whole text is held
    f.writelines(canonical_json_pieces(doc))


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_ingest(args: argparse.Namespace) -> int:
    records = parse_records_path(args.input)
    table = aggregate(records, args.sigma_floor, allow_missing=args.allow_missing)
    _write_files(args, [
        ("stats.csv", lambda f: write_stats_csv(table, f)),
        ("stats.json", lambda f: _json(f, stats_json_document(table))),
    ])
    if args.sigma_floor < SIGMA_FLOOR_DEFAULT and "csv" in args.formats:
        warnings.warn(
            f"stats.csv does not keep --sigma-floor {args.sigma_floor:g}: a command reading it "
            f"floors at {SIGMA_FLOOR_DEFAULT:g}; stats.json keeps the floor"
        )
    # win and score share each pair's count, so over all keys the min,
    # mean and max are the pairs'
    counts = table.counts
    print(f"agents:   {len(table.agents)}")
    print(f"problems: {len(table.problems)}")
    print(f"records:  {len(records)}")
    print(
        "samples per agent-problem pair: "
        f"min {counts.min()} / avg {counts.mean():.1f} / max {counts.max()}"
    )
    for agent, row in zip(table.agents, counts):
        print(f"  {agent}: avg {row.mean():.1f} samples per problem")
    return 0


def _gain_rows(table: PerformanceTable, noise: str) -> list[dict]:
    header = ["problem", *(f"{mode}_bits" for mode in SELECTION_MODES)]
    gains = problem_gains(table, noise)
    columns = zip(table.problems, *(gains[mode].tolist() for mode in SELECTION_MODES))
    rows = [dict(zip(header, values)) for values in columns]
    rows.sort(key=lambda r: (-r["combined_bits"], r["problem"]))
    return rows


def cmd_info_gain(args: argparse.Namespace) -> int:
    table = load_stats(args.stats)
    rows = _gain_rows(table, args.noise)
    _write_files(args, [
        ("info_gain.csv", lambda f: write_csv(f, rows[0].keys(), (r.values() for r in rows))),
        ("info_gain.json", lambda f: _json(f, {
            "noise": args.noise,
            "gains": rows,
            "ranking_by": {
                mode: [
                    r["problem"]
                    for r in sorted(rows, key=lambda r: (-r[f"{mode}_bits"], r["problem"]))
                ]
                for mode in SELECTION_MODES
            },
        })),
    ])
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
    text = _selection_text(report)
    _write_files(args, [
        ("selection.csv", lambda f: write_csv(f, header, (s.values() for s in steps))),
        ("selection.json", lambda f: _json(f, {
            "mode": report.mode,
            "noise": args.noise,
            "steps": steps,
            "stopped_early": report.stopped_early,
            "stop_reason": report.stop_reason,
            "negative_marginals": [
                {"step": n.step, "problem": n.problem, "marginal_bits": n.marginal_bits}
                for n in report.negative_marginals
            ],
        })),
        ("selection.txt", lambda f: f.write(text)),
    ])
    print(text, end="")
    return 0


def _matrix_rows(corr):
    """Each row of the correlation matrix as a list, made as it is read.
    None marks an undefined entry: JSON null, an empty CSV field."""
    return ([None if math.isnan(v) else v for v in row.tolist()] for row in corr.values)


def _measure_files(name: str, corr, clustering, threshold: float) -> list:
    """The correlation, cluster and heatmap files of one measure."""
    return [
        (f"correlation_{name}.csv", lambda f: write_csv(
            f, ["problem", *corr.problems],
            ([p, *row] for p, row in zip(corr.problems, _matrix_rows(corr))))),
        (f"clusters_{name}.csv", lambda f: write_csv(
            f, ("problem", "cluster_id"), sorted(clustering.assignments().items()))),
        (f"correlation_{name}.json", lambda f: _json(f, {
            "measure": name,
            "problems": list(corr.problems),
            "matrix": _matrix_rows(corr),
            "threshold": threshold,
            "clusters": [list(c) for c in clustering.clusters],
            "no_correlation_measure": list(clustering.excluded),
        })),
        (f"heatmap_{name}.svg", lambda f: f.writelines(
            heatmap_lines(corr, clustering, title=f"problem correlation ({name})"))),
    ]


def cmd_correlate(args: argparse.Namespace) -> int:
    table = load_stats(args.stats)
    results = []
    for measure in (Measure.WIN_RATE, Measure.SCORE):
        corr = correlation_matrix(table, measure)
        results.append((measure.value, corr, cluster(corr, args.threshold)))
    _write_files(args, [
        file for result in results for file in _measure_files(*result, args.threshold)
    ])
    for name, _, clustering in results:
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
    _write_files(args, [
        ("confusion.csv", lambda f: write_csv(
            f, ["agent", *matrix.agents], ([a, *row] for a, row in zip(matrix.agents, probs)))),
        ("confusion.json", lambda f: _json(f, {
            "agents": list(matrix.agents),
            "metric": args.metric,
            "noise": args.noise,
            "problems": list(args.problems_list),
            "rows": probs,
        })),
    ])
    print(f"confusion matrix over {len(matrix.agents)} agents, {len(keys)} metric key(s)")
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    kinds = archetypes(args.archetype, args.problems, args.gap, args.sigma)
    spec = SynthSpec(args.agents, kinds, args.samples, args.seed)
    records = generate(spec)
    _write_files(args, [("playthroughs.csv", lambda f: write_playthroughs(spec, records, f))])
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
    noise = shared("--noise", choices=NOISE_MODES, default=DEFAULT_NOISE,
                   help="how per-agent noise scales combine" + _DEFAULT)
    metric = shared("--metric", choices=SELECTION_MODES, default=DEFAULT_MODE,
                    help="performance signal(s) to use" + _DEFAULT)

    p = sub.add_parser("ingest", parents=[common, formats],
                       help="aggregate a playthrough CSV into stats files")
    p.add_argument("--input", required=True,
                   help=f"playthrough CSV ({','.join(PLAYTHROUGH_HEADER)})")
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


def _warning_line(message, category, filename, lineno, line=None) -> str:
    return f"warning: {message}\n"


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # a warning prints as one line, like an error; only the formatter is
    # swapped, so a caller that records warnings still gets them
    default_format, warnings.formatwarning = warnings.formatwarning, _warning_line
    try:
        if args.config:
            # the config file supplies defaults for the chosen command only,
            # so a second parse lets explicit flags win over it
            commands = next(a for a in parser._actions if a.dest == "command")
            config = _read_config_file(args.config)
            unread = config.keys() - {
                key for sub in commands.choices.values() for key, _ in _config_actions(sub)
            }
            if unread:
                warnings.warn(
                    f"config key(s) no command takes from a config file: {', '.join(sorted(unread))}"
                )
            command = commands.choices[args.command]
            command.set_defaults(**_config_defaults(command, config))
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
    finally:
        warnings.formatwarning = default_format


if __name__ == "__main__":
    sys.exit(main())
