"""Command line interface.

Verbs: ingest, classify, evaluate, distribute, rank. Exit codes: 0 on
success, 1 for usage or config errors and for a file that cannot be
opened or written, 2 for data errors, 3 for backend failures after
retries, 130 (128 + SIGINT) on an interrupt.
"""

from __future__ import annotations

import argparse
import sys

from . import pipeline
from .errors import ThemecoderError


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", required=True, help="run config file (YAML)")
    sub.add_argument("--offline", action="store_true", help="forbid remote backends")
    sub.add_argument("--sample-seed", type=int, help="override the sampling seed")
    sub.add_argument("--exemplar-seed", type=int, help="override the exemplar selection seed")
    sub.add_argument("--bootstrap-seed", type=int, help="override the bootstrap seed")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="themecoder",
        description="Theme classification runs over social media corpora.",
    )
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    ingest = subs.add_parser("ingest", help="filter, clean, split, and sample a corpus")
    _add_common(ingest)

    classify = subs.add_parser("classify", help="classify every post against the backend")
    _add_common(classify)
    classify.add_argument("--resume", action="store_true", help="continue an interrupted run")

    evaluate = subs.add_parser("evaluate", help="score stored predictions against gold")
    _add_common(evaluate)
    evaluate.add_argument(
        "--store", action="append", help="results store path (repeatable; default: run dir)"
    )

    distribute = subs.add_parser("distribute", help="theme distribution over classified posts")
    _add_common(distribute)
    distribute.add_argument("--store", help="results store path (default: run dir)")

    rank = subs.add_parser("rank", help="rank a metrics table; no config or model calls")
    rank.add_argument("--metrics-table", required=True, help="delimited table with metric columns")
    rank.add_argument("--out", help="directory to write ranking files into")
    return parser


def _seed_overrides(args: argparse.Namespace) -> dict[str, int]:
    out = {}
    for name in pipeline.SEED_FIELDS:
        value = getattr(args, name, None)
        if value is not None:
            out[name] = value
    return out


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "rank":
            pipeline.cmd_rank(args.metrics_table, args.out)
            return 0
        cfg = pipeline.load_config(
            args.config, overrides=_seed_overrides(args), offline=args.offline
        )
        if args.command == "ingest":
            pipeline.cmd_ingest(cfg)
        elif args.command == "classify":
            pipeline.cmd_classify(cfg, resume=args.resume)
        elif args.command == "evaluate":
            pipeline.cmd_evaluate(cfg, store_paths=args.store)
        elif args.command == "distribute":
            pipeline.cmd_distribute(cfg, store_path=args.store)
        return 0
    except ThemecoderError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:  # a file that cannot be opened or written: a directory in its place, a full disk
        path = exc.filename if exc.filename2 is None else exc.filename2  # the target of a rename
        print(f"error: {exc}" if path is None else f"error: {path}: {exc.strerror}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        hint = "; continue with classify --resume" if args.command == "classify" else ""
        print(f"error: interrupted{hint}", file=sys.stderr)
        return 130


if __name__ == "__main__":
    raise SystemExit(main())
