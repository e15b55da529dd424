"""Command-line harness: verification suites, exhaustive finite-field
enumeration, orbit census, and single-shot Moebius evaluation.

Exit codes form a stable contract: 0 pass, 1 property failure, 2 usage or
configuration error, or a reader that closed stdout early.  Identical
(config, seed) produce byte-identical JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from functools import cache

from .clifford import SolveTooLarge
from .fields import InfiniteField, parse_field
from .halfspace import HalfSpace, InvariantViolation, point_from_json, \
    point_to_json
from .matrices import (NotVahlen, TooLarge, condition3_failure,
                       matrix_from_json, verify_equivalence_exhaustive)
from .quadratic import QuadraticSpace, space_from_json
from .suites import run_verify


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    space: QuadraticSpace
    c: object
    kind: str
    seed: int
    samples: int
    gen_length: int
    as_json: bool


def _load_json_arg(text, what):
    text = text.strip()
    if not text.startswith("{") and not text.startswith("["):
        try:
            with open(text, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise ConfigError(f"cannot read {what} file: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed {what} JSON: {exc}") from exc


def build_config(args):
    try:
        field = parse_field("Q" if args.field is None else args.field)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if args.space is not None:
        data = _load_json_arg(args.space, "space")
        try:
            space = space_from_json(data)
        except (ValueError, KeyError) as exc:
            raise ConfigError(f"bad space: {exc}") from exc
        if args.field is not None and space.field != field:
            raise ConfigError(f"--field {field} conflicts with the space's "
                              f"field {space.field}")
    else:
        space = QuadraticSpace(field, [field.one, -field.one])
    if args.samples < 1:
        raise ConfigError("samples must be >= 1")
    if args.gen_length < 1:
        raise ConfigError("gen-length must be >= 1")
    try:
        c = space.field.parse(args.c)
    except ValueError as exc:
        raise ConfigError(f"bad c: {exc}") from exc
    return RunConfig(space=space, c=c, kind=args.kind, seed=args.seed,
                     samples=args.samples, gen_length=args.gen_length,
                     as_json=args.json)


def cmd_verify(config):
    report = run_verify(config)
    if config.as_json:
        print(json.dumps(report, sort_keys=True))
    else:
        for prop in report["properties"]:
            mark = "PASS" if prop["passed"] else "FAIL"
            print(f"{mark} {prop['name']}")
            if not prop["passed"]:
                print("  counterexample:",
                      json.dumps(prop["counterexample"], sort_keys=True))
        print("all properties passed" if report["passed"]
              else "property failures found")
    return 0 if report["passed"] else 1


def cmd_enumerate(config):
    try:
        report = verify_equivalence_exhaustive(config.space, config.kind)
    except (InfiniteField, TooLarge) as exc:
        raise ConfigError(str(exc)) from exc
    if config.as_json:
        print(json.dumps(report, sort_keys=True))
    else:
        for name, count in sorted(report["counts"].items()):
            print(f"{name}: {count} of {report['matrix_count']} matrices")
        print(f"condition sets equal: {report['condition_sets_equal']}")
        print(f"T invariant under transposition: "
              f"{report['T_star_invariant']}")
    if report["condition_sets_equal"] or not report["T_star_invariant"]:
        return 0
    return 1


def cmd_act(config, matrix_data, point_data, cross_check):
    hs = HalfSpace(config.space, config.c, config.kind)
    try:
        m = matrix_from_json(config.space, matrix_data)
        p = point_from_json(hs, point_data)
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"bad matrix or point: {exc}") from exc
    reason = condition3_failure(m, config.kind)
    if reason is not None:
        print(f"not a {config.kind} Vahlen matrix: {reason}",
              file=sys.stderr)
        return 1
    image = hs.mobius_apply(m, p)
    out = {"result": point_to_json(hs, image)}
    if cross_check:
        via_k = hs.from_K(hs.orthogonal_apply(m, hs.to_K(p)))
        out["k_model_result"] = point_to_json(hs, via_k)
        out["paths_agree"] = via_k == image
    if config.as_json:
        print(json.dumps(out, sort_keys=True))
    else:
        print(json.dumps(out["result"], sort_keys=True))
        if cross_check:
            print("K-model path agrees:", out["paths_agree"])
    if cross_check and not out["paths_agree"]:
        return 1
    return 0


def cmd_orbit(config, group):
    hs = HalfSpace(config.space, config.c, config.kind)
    try:
        report = hs.orbit_census(group)
    except (InfiniteField, TooLarge) as exc:
        raise ConfigError(str(exc)) from exc
    if config.as_json:
        print(json.dumps(report, sort_keys=True))
    else:
        for key in ("kind", "group", "c", "represented", "point_count",
                    "k_count", "orbit_count", "transitive"):
            print(f"{key}: {report[key]}")
        if "norm_subgroup" in report:
            print("norm subgroup:", report["norm_subgroup"])
        print("predictions match:", report["predictions_ok"])
    return 0 if report["predictions_ok"] else 1


def _add_common(parser):
    parser.add_argument("--field", default=None,
                        help='field descriptor: "Q" (default) or "Fp" (e.g. '
                             'F3); must match the field of --space')
    parser.add_argument("--space", default=None,
                        help="space JSON (inline or a file path); default is "
                             "dim 2 with qdiag (1, -1)")
    parser.add_argument("--c", default="1", help="the scalar c")
    parser.add_argument("--kind", default="vector",
                        choices=("vector", "paravector"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--samples", type=int, default=200)
    parser.add_argument("--gen-length", type=int, default=8,
                        dest="gen_length")
    parser.add_argument("--json", action="store_true")


@cache  # built once, on first use; parse_args leaves it unchanged
def make_parser():
    parser = argparse.ArgumentParser(
        prog="vahlen",
        description="Exact verification of Vahlen-group Moebius actions")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the property suites")
    _add_common(p_verify)

    p_enum = sub.add_parser("enumerate",
                            help="exhaustive condition-equivalence check")
    _add_common(p_enum)

    p_act = sub.add_parser("act", help="apply one Moebius transformation")
    _add_common(p_act)
    p_act.add_argument("--matrix", required=True,
                       help="matrix JSON (inline or file path)")
    p_act.add_argument("--point", required=True,
                       help="point JSON (inline or file path)")
    p_act.add_argument("--cross-check", action="store_true",
                       dest="cross_check")

    p_orbit = sub.add_parser("orbit", help="finite-field orbit census")
    _add_common(p_orbit)
    p_orbit.add_argument("--group", default="special",
                         choices=("special", "full"))
    return parser


def _run(args):
    try:
        config = build_config(args)
        if args.command == "verify":
            return cmd_verify(config)
        if args.command == "enumerate":
            return cmd_enumerate(config)
        if args.command == "act":
            matrix_data = _load_json_arg(args.matrix, "matrix")
            point_data = _load_json_arg(args.point, "point")
            return cmd_act(config, matrix_data, point_data, args.cross_check)
        if args.command == "orbit":
            return cmd_orbit(config, args.group)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, SolveTooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NotVahlen, InvariantViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv=None):
    try:
        code = _run(make_parser().parse_args(argv))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: exit 2, and point stdout at devnull so
        # the interpreter's own flush at exit raises nothing either
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
