"""Command-line front end.

Subcommands: gen-normal, gen-rop, interleave, detect, scatter, sweep.
`detect` exits 0 for a clean trace, 2 when a payload was flagged, and 1
on usage or input errors (all subcommands use 1 for errors).
"""

from __future__ import annotations

import argparse
import io
import json
import os
import re
import sys
from pathlib import Path
from typing import Iterable

from .detector import DEFAULT_CAPACITY, DetectorConfig, run
from .harness import (ROW_FIELDS, SUMMARY_FIELDS, SweepSpec, SweepSpecError,
                      is_json_int, run_sweep, scatter_point, write_csv)
from .trace import (PID_PATTERN, PrivilegeLevel, TraceParseError, _serialized,
                    load_trace, parse_trace)
from .workload import (BenignSpec, GAP_PROFILES, GenerationError,
                       InterleaveSpec, RopSpec, gen_benign, gen_rop,
                       interleave)

EXIT_CLEAN = 0
EXIT_ERROR = 1
EXIT_DETECTED = 2


class _Parser(argparse.ArgumentParser):
    # The detect contract reserves exit code 2 for detections; route
    # argparse usage errors to 1 instead. Subcommand parsers are _Parser
    # too: add_subparsers defaults parser_class to type(parser), and
    # add_parser forwards its keywords to __init__, so passing
    # parser_class= to add_parser raises TypeError.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _fail(message: str) -> int:
    print(f"ropsim: error: {message}", file=sys.stderr)
    return EXIT_ERROR


def _write_out(pieces: Iterable[str], out: str | None) -> int:
    """Write the text `pieces` to the file `out`, or to stdout for None or "-"."""
    to_stdout = out in (None, "-")
    try:
        if to_stdout:
            sys.stdout.writelines(pieces)
            sys.stdout.flush()
        else:
            with open(out, "w", encoding="ascii", newline="") as fh:
                fh.writelines(pieces)
    except OSError as exc:
        if to_stdout:
            # Python flushes stdout again at exit: give what is still
            # buffered somewhere to go, so that flush cannot fail too.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return _fail(f"cannot write {'stdout' if to_stdout else out}: {exc}")
    return EXIT_CLEAN


def _write_trace(generate, spec, out: str | None) -> int:
    """Write the trace `generate(spec)` as `_write_out` does, or fail on its
    `GenerationError`."""
    try:
        trace = generate(spec)
    except GenerationError as exc:
        return _fail(str(exc))
    return _write_out(_serialized(trace), out)


def _detector_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tm", type=int, default=6, metavar="N",
                        help="mispredicted returns per monitor interval (default 6)")
    parser.add_argument("--ti", type=int, default=6, metavar="N",
                        help="assumed max instructions per gadget (default 6)")
    parser.add_argument("--ras-capacity", type=int, default=DEFAULT_CAPACITY,
                        metavar="N",
                        help=f"return-address-stack depth (default {DEFAULT_CAPACITY})")
    parser.add_argument("--no-table", action="store_true",
                        help="disable the per-process lookup table (vulnerable mode)")
    parser.add_argument("--flush-ras-on-switch", action="store_true",
                        help="flush the predictor stack at context switches")


def _config_from(args) -> DetectorConfig:
    return DetectorConfig(t_m=args.tm, t_i=args.ti,
                          table_enabled=not args.no_table,
                          ras_capacity=args.ras_capacity,
                          flush_ras_on_switch=args.flush_ras_on_switch)


def build_parser() -> _Parser:
    parser = _Parser(prog="ropsim",
                     description="Trace-driven ROP detection simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-normal", help="generate a benign trace")
    p.add_argument("--events", type=int, default=100_000, metavar="N")
    p.add_argument("--bursts", type=int, default=8, metavar="N",
                   help="recursion bursts causing benign mispredictions")
    p.add_argument("--max-chain", type=int, default=10, metavar="N",
                   help="cap on consecutive benign mispredictions")
    p.add_argument("--gap-profile", choices=GAP_PROFILES, default="mixed")
    p.add_argument("--ras-capacity", type=int, default=DEFAULT_CAPACITY, metavar="N")
    p.add_argument("--seed", type=int, default=0, metavar="U64")
    p.add_argument("--out", metavar="PATH", help="output file (default stdout)")

    p = sub.add_parser("gen-rop", help="generate a gadget-chain payload trace")
    p.add_argument("-G", "--chain-length", type=int, default=12, metavar="N")
    p.add_argument("--gadget-sizes", metavar="LIST",
                   help="comma-separated instruction counts, one per gadget")
    p.add_argument("--prologue", type=int, default=200, metavar="N",
                   help="benign preamble length in instructions")
    p.add_argument("--offset", type=int, default=0, metavar="N",
                   help="benign mispredictions inserted before the chain")
    p.add_argument("--region", choices=("user", "kernel"), default="user")
    p.add_argument("--seed", type=int, default=0, metavar="U64")
    p.add_argument("--out", metavar="PATH")

    p = sub.add_parser("interleave", help="merge traces under a quantum schedule")
    p.add_argument("spec", metavar="SPEC.json",
                   help='{"parts": {pid: trace-path}, "schedule": [[pid, events], ...]}')
    p.add_argument("--out", metavar="PATH")

    p = sub.add_parser("detect", help="run detection over a trace file")
    p.add_argument("trace", metavar="TRACE")
    _detector_flags(p)

    p = sub.add_parser("scatter",
                       help="per-trace scatter coordinates for a labeled corpus")
    p.add_argument("corpus", metavar="DIR",
                   help="directory of benign_*.trace / rop_*.trace files")
    _detector_flags(p)
    p.add_argument("--out", metavar="PATH")

    p = sub.add_parser("sweep", help="parameter sweep to rows.csv and summary.csv")
    p.add_argument("spec", metavar="SPEC.json")
    p.add_argument("--out", required=True, metavar="DIR")
    return parser


def cmd_gen_normal(args) -> int:
    spec = BenignSpec(total_instructions=args.events,
                      ras_capacity=args.ras_capacity,
                      max_benign_mispredict_chain=args.max_chain,
                      mispredict_burst_count=args.bursts,
                      gap_profile=args.gap_profile,
                      seed=args.seed)
    return _write_trace(gen_benign, spec, args.out)


def cmd_gen_rop(args) -> int:
    sizes = None
    if args.gadget_sizes is not None:
        tokens = args.gadget_sizes.split(",")
        try:  # decimal as a pid is written: no sign, space, `_` or leading zero
            if not all(re.fullmatch(PID_PATTERN, tok) for tok in tokens):
                raise ValueError
            sizes = [int(tok) for tok in tokens]    # a ValueError past `int`'s digit limit
        except ValueError:
            return _fail(f"bad --gadget-sizes value {args.gadget_sizes!r}")
    region = PrivilegeLevel.KERNEL if args.region == "kernel" else PrivilegeLevel.USER
    spec = RopSpec(chain_length=args.chain_length, gadget_sizes=sizes,
                   prologue=args.prologue, alignment_offset=args.offset,
                   address_region=region, seed=args.seed)
    return _write_trace(gen_rop, spec, args.out)


def cmd_interleave(args) -> int:
    try:
        with open(args.spec, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        return _fail(f"cannot read spec: {exc}")
    if not isinstance(doc, dict) or "parts" not in doc or "schedule" not in doc:
        return _fail("spec must contain 'parts' and 'schedule'")
    if (not isinstance(doc["parts"], dict)
            or not all(isinstance(path, str) for path in doc["parts"].values())
            or not all(re.fullmatch(PID_PATTERN, pid) for pid in doc["parts"])):
        return _fail("spec 'parts' must map pids (decimal, no sign or leading zero) to paths")
    if (not isinstance(doc["schedule"], list)
            or not all(isinstance(item, list) and len(item) == 2
                       and all(map(is_json_int, item)) for item in doc["schedule"])):
        return _fail("spec 'schedule' must be a list of [pid, events] integer pairs")
    parts = []
    try:
        for pid, path in sorted(doc["parts"].items(), key=lambda kv: int(kv[0])):
            parts.append((int(pid), parse_trace(Path(path).read_bytes())))
    except TraceParseError as exc:  # which of the parts has the line
        return _fail(f"bad spec: {path}: {exc}")
    except OSError as exc:  # which names its path
        return _fail(f"bad spec: {exc}")
    except ValueError as exc:   # a path no OS accepts, shown as its repr: no NUL byte is written
        return _fail(f"bad spec: part {pid} at {path!r}: {exc}")
    schedule = [(pid, count) for pid, count in doc["schedule"]]
    return _write_trace(interleave, InterleaveSpec(parts=parts, schedule=schedule), args.out)


def cmd_detect(args) -> int:
    try:
        cfg = _config_from(args)
    except ValueError as exc:
        return _fail(str(exc))
    try:  # the trace is read and checked as `run` consumes it
        report = run(load_trace(args.trace), cfg)
    except OSError as exc:
        return _fail(f"cannot read trace: {exc}")
    except TraceParseError as exc:
        return _fail(f"{args.trace}: {exc}")
    if _write_out([report.to_jsonl()], None):
        return EXIT_ERROR
    return EXIT_DETECTED if report.verdicts else EXIT_CLEAN


def cmd_scatter(args) -> int:
    corpus = Path(args.corpus)
    if not corpus.is_dir():
        return _fail(f"not a directory: {corpus}")
    files = sorted(corpus.glob("*.trace"))
    labeled = []
    for path in files:
        name = path.name
        if name.startswith("benign"):
            labeled.append((path, "benign"))
        elif name.startswith("rop"):
            labeled.append((path, "rop"))
        else:
            return _fail(f"cannot label {name!r}: expected benign_* or rop_*")
    if not labeled:
        return _fail(f"no *.trace files in {corpus}")
    try:
        cfg = _config_from(args)
    except ValueError as exc:
        return _fail(str(exc))
    buf = io.StringIO()
    rows = []
    for path, label in labeled:
        try:
            min_n_r, paired_n_i = scatter_point(run(load_trace(path), cfg))
        except (OSError, TraceParseError) as exc:
            return _fail(f"{path}: {exc}")
        rows.append({"trace_id": path.stem, "label": label,
                     "min_n_r": min_n_r, "paired_n_i": paired_n_i})
    write_csv(rows, ["trace_id", "label", "min_n_r", "paired_n_i"], buf)
    return _write_out([buf.getvalue()], args.out)


def cmd_sweep(args) -> int:
    try:
        with open(args.spec, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        spec = SweepSpec.from_mapping(doc)
    except (OSError, json.JSONDecodeError, SweepSpecError) as exc:
        return _fail(f"bad sweep spec: {exc}")
    out_dir = Path(args.out)
    try:  # the directory is made first, so a bad --out fails before the sweep runs
        out_dir.mkdir(parents=True, exist_ok=True)
        rows, summary = run_sweep(spec)
        with open(out_dir / "rows.csv", "w", encoding="ascii", newline="") as fh:
            write_csv(rows, ROW_FIELDS, fh)
        with open(out_dir / "summary.csv", "w", encoding="ascii", newline="") as fh:
            write_csv(summary, SUMMARY_FIELDS, fh)
    except GenerationError as exc:
        return _fail(str(exc))
    except OSError as exc:
        return _fail(f"cannot write {out_dir}: {exc}")
    return _write_out([f"wrote {out_dir / 'rows.csv'} and {out_dir / 'summary.csv'}\n"], None)


_COMMANDS = {
    "gen-normal": cmd_gen_normal,
    "gen-rop": cmd_gen_rop,
    "interleave": cmd_interleave,
    "detect": cmd_detect,
    "scatter": cmd_scatter,
    "sweep": cmd_sweep,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
