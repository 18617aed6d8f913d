"""Command-line interface.

Exit codes: 0 success (for ``check``: formula true), 1 for a false formula or
failed validation, 2 on any error (with a machine-readable JSON error record
on stderr).  An exception that is neither a ``KxstitError`` nor an
``OSError`` is reported as ``{"error": "internal", "type": ..., "message":
...}``.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import fields

from . import formula as F
from .axioms import SuitePolicy, derived_theorem_suite, soundness_suite
from .checker import eval_formula, knowledge_report
from .dot import to_dot
from .errors import InvalidBound, KxstitError, SchemaError
from .gen import GenParams, model_grid, random_model
from .model import check_fields, load_model, read_document, validate_frame
from .scenario import bdt_to_kripke, figure1_scenario, load_scenario
from .transform import MAX_MATRIX_WORLDS, actualize, check_bounded_morphism, unravel, validate_window


def _read_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as e:
        raise SchemaError(f"not valid UTF-8: {e}") from None
    return read_document(text)


def _read_model(path):
    doc = _read_json(path)
    if isinstance(doc, dict) and "moments" in doc:
        return bdt_to_kripke(load_scenario(doc))
    return load_model(doc)


def _parse_formula(text, allow_c=False):
    return F.parse(text, allow_common_knowledge=allow_c)


def cmd_validate(args):
    m = _read_model(args.model)
    report = validate_frame(m, args.mode, args.n)
    print("\n".join(report.lines()))
    return 0 if report.ok else 1


def cmd_check(args):
    m = _read_model(args.model)
    value = eval_formula(m, args.world, _parse_formula(args.formula, args.allow_c))
    print("true" if value else "false")
    return 0 if value else 1


def cmd_report(args):
    m = _read_model(args.model)
    rep = knowledge_report(m, args.world, args.agent, _parse_formula(args.formula, args.allow_c))
    print("\n".join(rep.lines()))
    return 0


def cmd_expand(args):
    f = _parse_formula(args.formula, args.allow_c)
    if args.normalize:
        f = F.normalize(f)
    print(F.to_text(f))
    return 0


# every key a suite configuration may set; each takes a non-negative integer
_SUITE_KEYS = dict.fromkeys(
    ("models", "n_bound", "base_seed", "max_fill_depth", "fills_per_schema", "seed",
     "ia_max_agents"), (lambda x: type(x) is int and x >= 0, "a non-negative integer"))


def cmd_soundness(args):
    cfg = _read_json(args.config) if args.config else {}
    if not isinstance(cfg, dict):
        raise SchemaError(f"a suite configuration must be a JSON object, got {type(cfg).__name__}")
    unknown = sorted(set(cfg) - set(_SUITE_KEYS))
    if unknown:
        raise SchemaError(f"unknown suite configuration keys: {unknown}")
    cfg = {"models": args.models, **cfg}  # the flag, unless the configuration sets it
    check_fields(cfg, _SUITE_KEYS)
    # the policy's own defaults stand for the keys the configuration leaves out
    policy = SuitePolicy(**{f.name: cfg[f.name] for f in fields(SuitePolicy) if f.name in cfg})
    count = cfg["models"]
    n_bound = cfg.get("n_bound", 2)
    if n_bound < 1:  # refused before any model is built, as validate refuses it
        raise InvalidBound("n must be positive")
    models = model_grid(count, base_seed=cfg.get("base_seed", 0))
    rep = soundness_suite(models, policy, n_bounds=[n_bound] * count)
    rep2 = derived_theorem_suite(models, policy, n_bounds=[n_bound] * count)
    print("axioms:")
    print("\n".join("  " + line for line in rep.lines()))
    print("derived theorems:")
    print("\n".join("  " + line for line in rep2.lines()))
    return 0 if rep.ok and rep2.ok else 1


def cmd_transform(args):
    m = _read_model(args.model)
    win, proj = unravel(m, args.root, args.depth, require_valid=not args.force)
    if args.kind == "unravel":
        out, mapping, target = win, proj, m
    else:
        mat, mproj = actualize(win, n=args.n, max_worlds=args.max_worlds)
        out, mapping, target = mat, mproj, win
    report = check_bounded_morphism(mapping, out, target)
    frame = validate_window(out, args.mode, 1 if args.n is None else args.n)
    doc = out.to_doc() if args.kind == "unravel" else {
        "kind": "matrix", "worlds": list(out.worlds), "interior": sorted(out.interior)}
    doc["projection"] = {w: mapping[w] for w in sorted(mapping)}
    print(json.dumps(doc, indent=2, sort_keys=True))
    print("\n".join("// " + line for line in report.lines()), file=sys.stderr)
    print("\n".join("// " + line for line in frame.lines()), file=sys.stderr)
    return 0 if report.ok else 1


def cmd_gen(args):
    if args.figure1:
        scenario = figure1_scenario(args.figure1)
        if args.scenario:
            text = scenario.dumps()
        else:
            text = bdt_to_kripke(scenario).dumps()
    else:
        params = GenParams(seed=args.seed, agent_count=args.agents, box_class_count=args.classes)
        text = random_model(params).dumps()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_dot(args):
    m = _read_model(args.model)
    sys.stdout.write(to_dot(m))
    return 0


@functools.cache
def build_parser():
    """The argument parser, built once per process; parsing leaves it as it
    is."""
    p = argparse.ArgumentParser(prog="kxstit",
                                description="model checking and frame analysis for epistemic Xstit structures")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("validate", help="run all frame-condition checks on a model file")
    sp.add_argument("model")
    sp.add_argument("--mode", choices=["actual", "super_additive"], default="actual")
    sp.add_argument("--n", type=int, default=1, help="cell-count bound per settledness class")
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("check", help="evaluate a formula at a world (exit 0 true, 1 false)")
    sp.add_argument("model")
    sp.add_argument("--world", required=True)
    sp.add_argument("--formula", required=True)
    sp.add_argument("--allow-c", dest="allow_c", action="store_true",
                    help="enable the common-knowledge operator C")
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("report", help="knowledge-stage report for an agent at a world")
    sp.add_argument("model")
    sp.add_argument("--world", required=True)
    sp.add_argument("--agent", required=True)
    sp.add_argument("--formula", required=True)
    sp.add_argument("--allow-c", dest="allow_c", action="store_true")
    sp.set_defaults(func=cmd_report)

    sp = sub.add_parser("expand", help="expand macros (and optionally normalize) a formula")
    sp.add_argument("--formula", required=True)
    sp.add_argument("--normalize", action="store_true")
    sp.add_argument("--allow-c", dest="allow_c", action="store_true")
    sp.set_defaults(func=cmd_expand)

    sp = sub.add_parser("soundness", help="axiom validity suites over generated models")
    sp.add_argument("--config", help="JSON suite configuration")
    sp.add_argument("--models", type=int, default=50)
    sp.set_defaults(func=cmd_soundness)

    sp = sub.add_parser("transform", help="unravel (and optionally actualize) a model window")
    sp.add_argument("model")
    sp.add_argument("kind", choices=["unravel", "actualize"])
    sp.add_argument("--root", required=True)
    sp.add_argument("--depth", type=int, default=2)
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--mode", choices=["actual", "super_additive"], default="super_additive")
    sp.add_argument("--force", action="store_true",
                    help="unravel even when the model fails frame validation")
    sp.add_argument("--max-worlds", dest="max_worlds", type=int, default=MAX_MATRIX_WORLDS,
                    help="refuse (exit 2) an actualization with more matrix worlds than this")
    sp.set_defaults(func=cmd_transform)

    sp = sub.add_parser("gen", help="emit a generated model (or the built-in scenario)")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--agents", type=int, default=2)
    sp.add_argument("--classes", type=int, default=2)
    sp.add_argument("--figure1", choices=["a", "b"], help="emit the built-in bomb-squad model")
    sp.add_argument("--scenario", action="store_true",
                    help="with --figure1: emit the scenario document instead of the compiled model")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_gen)

    sp = sub.add_parser("dot", help="graphviz export of a model")
    sp.add_argument("model")
    sp.set_defaults(func=cmd_dot)

    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except KxstitError as e:
        record = {"error": type(e).__name__, "message": str(e)}
        print(json.dumps(record), file=sys.stderr)
        return 2
    except OSError as e:
        print(json.dumps({"error": "OSError", "message": str(e)}), file=sys.stderr)
        return 2
    except Exception as e:
        # e.g. RecursionError on a formula nested too deep for the parser
        record = {"error": "internal", "type": type(e).__name__, "message": str(e)}
        print(json.dumps(record), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
