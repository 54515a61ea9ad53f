"""Command line interface.

Subcommands:
  extract             run the key-frame extraction pipeline on a frame source
  generate-synthetic  build a deterministic synthetic test video + ground truth

Exit codes: 0 ok, 2 bad configuration, 3 ingest error, 4 evaluation error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

from . import synthetic
from .evaluation import DEFAULT_MATCH_WINDOW, EvaluationError
from .extraction import DEFAULT_MIN_BIN_SIZE, DEFAULT_SD_THRESHOLD
from .ingest import MAX_DIMENSION, MIN_DIMENSION, IngestError, SourceSpec
from .pipeline import ConfigError, PipelineConfig, run_pipeline
from .shots import DEFAULT_CUT_THRESHOLD, DEFAULT_MIN_SHOT_LEN

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INGEST = 3
EXIT_EVALUATION = 4


def _parse_size(value: str) -> tuple[int, int]:
    try:
        w, _, h = value.lower().partition("x")
        return int(w), int(h)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected WxH, e.g. 320x240, got {value!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entropykf",
        description="Entropy-based video key-frame extraction")
    sub = parser.add_subparsers(dest="command", required=True)

    ex = sub.add_parser("extract", help="extract key-frames from a frame source")
    ex.add_argument("--input", required=True,
                    help="PGM directory, raw/y4m file, or - for stdin")
    ex.add_argument("--format", required=True, choices=["pgm-dir", "raw", "y4m"],
                    help="how to interpret --input")
    sides = f"{MIN_DIMENSION}..{MAX_DIMENSION}"
    ex.add_argument("--width", type=int, help=f"frame width, {sides} (raw only, required)")
    ex.add_argument("--height", type=int, help=f"frame height, {sides} (raw only, required)")
    ex.add_argument("--cut-threshold", type=float, default=DEFAULT_CUT_THRESHOLD,
                    help="correlation below this is a cut (default %(default)s)")
    ex.add_argument("--min-shot-len", type=int, default=DEFAULT_MIN_SHOT_LEN,
                    help="shots shorter than this merge into their successor (default %(default)s)")
    ex.add_argument("--min-bin-size", type=int, default=DEFAULT_MIN_BIN_SIZE,
                    help="bins need strictly more members than this (default %(default)s)")
    ex.add_argument("--sd-threshold", type=float, default=DEFAULT_SD_THRESHOLD,
                    help="segment-entropy SD at or below this is a duplicate (default %(default)s)")
    ex.add_argument("--fallback-keyframe", action="store_true",
                    help="emit the largest bin's centre when every bin misses the gate")
    ex.add_argument("--gt", dest="ground_truth", metavar="GT", type=Path,
                    help="ground-truth file enabling the evaluation block")
    ex.add_argument("--match-window", type=int, default=DEFAULT_MATCH_WINDOW,
                    help="max |detected - truth| distance for a match (default %(default)s)")
    ex.add_argument("--out", dest="output_dir", metavar="OUT", type=Path, required=True,
                    help="output directory for images and report.json, not the pgm-dir input")
    ex.add_argument("--seed-report", action="store_true",
                    help="omit volatile fields (timestamp) so report.json bytes reproduce")

    gen = sub.add_parser("generate-synthetic",
                         help="generate a seeded synthetic PGM sequence with planted "
                              "cuts, fades, and a repeated scene")
    gen.add_argument("--scenes", type=int, default=3, help="number of distinct scenes")
    gen.add_argument("--frames-per-scene", type=int, default=997,
                     help="frames per scene segment (default 997)")
    gen.add_argument("--size", type=_parse_size, default=(320, 240),
                     help=f"frame size as WxH, each side {sides} (default 320x240)")
    gen.add_argument("--seed", type=int, default=0, help="RNG seed")
    gen.add_argument("--fade-frames", type=int, default=synthetic.DEFAULT_FADE_FRAMES,
                     help="noise frames between segments (default 4)")
    gen.add_argument("--repeat-first", action=argparse.BooleanOptionalAction, default=True,
                     help="append a verbatim repeat of the first scene (default on)")
    gen.add_argument("--out", required=True, help="new or empty directory for the PGM frames")
    gen.add_argument("--gt-out", help="where to write the ground-truth file: outside --out, "
                                      "not a directory, in a directory that exists or "
                                      "that --out creates")
    return parser


def _cmd_extract(args: argparse.Namespace) -> None:
    try:
        spec = SourceSpec(kind=args.format, path=args.input,
                          width=args.width, height=args.height)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    report = run_pipeline(PipelineConfig(source=spec, **{
        f.name: getattr(args, f.name) for f in fields(PipelineConfig) if f.name != "source"}))
    print(f"frames: {report['total_frames']}  shots: {len(report['shots'])}  "
          f"candidates: {len(report['candidates'])}  keyframes: {len(report['keyframes'])}  "
          f"eliminated: {len(report['eliminations'])}")
    if "evaluation" in report:
        ev = report["evaluation"]
        print(f"evaluation: matched {ev['matched']}, redundant {ev['redundant']}, "
              f"missing {ev['missing']}, deviation {ev['deviation']:.4f}, "
              f"compactness {ev['compactness']:.5f}")
    print(f"report: {args.output_dir / 'report.json'}")


def _cmd_generate(args: argparse.Namespace) -> None:
    width, height = args.size
    try:
        layout = synthetic.generate(
            out_dir=args.out, gt_out=args.gt_out,
            scenes=args.scenes, frames_per_scene=args.frames_per_scene,
            width=width, height=height, seed=args.seed,
            fade_frames=args.fade_frames, repeat_first=args.repeat_first)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    print(f"wrote {layout.total_frames} frames ({width}x{height}) to {args.out}")
    if args.gt_out:
        print(f"ground truth ({len(layout.gt_indices)} key-frames): {args.gt_out}")


# each failure a command may raise, with its exit code and stderr label
_FAILURES = {ConfigError: (EXIT_CONFIG, "bad configuration"),
             IngestError: (EXIT_INGEST, "ingest error"),
             EvaluationError: (EXIT_EVALUATION, "evaluation error")}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        (_cmd_extract if args.command == "extract" else _cmd_generate)(args)
    except tuple(_FAILURES) as exc:
        code, kind = next(v for cls, v in _FAILURES.items() if isinstance(exc, cls))
        print(f"entropykf: {kind}: {exc}", file=sys.stderr)
        return code
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
