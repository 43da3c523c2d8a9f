"""ckframe command-line interface.

Run commands read a problem-spec JSON file and write a deterministic
report (JSON or text); `gen` writes example spec files.  Exit codes:
0 checks passed (or vacuous/degenerate), 1 checks failed, 2 input
error, 3 internal error.  CKFRAME_TOL overrides the default check
tolerance; a spec's own tolerances and --tol take precedence over it.
Each is a number in (0, inf), and in (0, 1) for a spec's rank_tol and for
every command but verify-pair, which grade a range inclusion by it.  A
spec file is read as UTF-8 (RFC 8259), whatever the locale.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .errors import BadParams, CkFrameError, ParseError, UnknownKind, ValidationError
from .harness import (
    _CHECK_TOL_UPPERS,
    _RUNNERS,
    _WRITERS,
    GENERATOR_KINDS,
    STATUS_FAILED,
    _decode_json,
    emit_report,
    emit_spec,
    generate_example,
    parse_problem,
    run_command,
)
from .linalg import DEFAULT_CHECK_TOL, _check_tol


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ckframe",
        description="frame-bound and dual-pair diagnostics on finite weighted measure spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd, runner in _RUNNERS.items():
        sp = sub.add_parser(cmd, help=runner.__doc__)
        sp.add_argument("spec", help="path to a problem-spec JSON file")
        sp.add_argument("--out", default=None, help="write the report to this path instead of stdout")
        sp.add_argument("--format", choices=_WRITERS, default="json", help="report format")
        sp.add_argument("--tol", type=float, default=None, help="override the check tolerance")
    gen = sub.add_parser("gen", help="Generate an example problem spec.")
    gen.add_argument("--kind", required=True, choices=GENERATOR_KINDS)
    gen.add_argument("--params", default="{}", help="generator parameters as a JSON object")
    gen.add_argument("--seed", type=int, default=0, help="RNG seed for the random kinds")
    gen.add_argument("--out", default=None, help="write the spec to this path instead of stdout")
    return parser


def _write(out: str | None, payload: str) -> None:
    if out is None:
        sys.stdout.write(payload)
    else:
        Path(out).write_text(payload)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "gen":
            params = _decode_json(args.params, "--params is not valid JSON")
            spec = generate_example(args.kind, params, args.seed)
            _write(args.out, emit_spec(spec))
            return 0

        upper = _CHECK_TOL_UPPERS[args.command]
        tol = None if args.tol is None else _check_tol(args.tol, "--tol", upper)
        env_tol = os.environ.get("CKFRAME_TOL")
        try:
            default_tol = float(env_tol) if env_tol is not None else DEFAULT_CHECK_TOL
        except ValueError as exc:
            raise ValidationError(f"CKFRAME_TOL is not a number: {env_tol!r}") from exc
        default_tol = _check_tol(default_tol, "CKFRAME_TOL", upper)
        try:
            text = Path(args.spec).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"spec is not UTF-8 text: {exc}") from exc
        spec = parse_problem(text)
        report = run_command(spec, args.command, tol_override=tol, default_tol=default_tol)
        _write(args.out, emit_report(report, args.format))
        return 1 if report.status == STATUS_FAILED else 0
    except (ParseError, ValidationError, UnknownKind, BadParams, OSError) as exc:
        print(f"ckframe: input error: {exc}", file=sys.stderr)
        return 2
    except CkFrameError as exc:
        print(f"ckframe: internal error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # pragma: no cover - last-resort guard
        print(f"ckframe: internal error: {exc!r}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
