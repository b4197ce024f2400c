"""Command-line entry point: every operation behind one `mmlab` command with
JSON/CSV I/O, seeded reproducibility, and a manifest beside every output so
any run can be replayed byte for byte.

Exit codes: 0 success, 2 input validation failure (machine-readable error
JSON on stderr), 1 internal error.  A --threads flag is accepted for
symmetry with batch runners but never changes results.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .concentration import (LipschitzFunction, SearchConfig, concentration_curve,
                            gaussian_fit, levy_check, median, tail_check)
from .dynamics import (IsometricAction, is_essential, leader_certificate,
                       leader_empirical, ramsey_verify)
from .generators import FAMILIES, build_space
from .observable import obs_distance
from .spaces import (_EXHAUSTIVE_CAP, ConcentrationCurve, space_from_json,
                     space_to_json, validate_space)
from .transport import MeasurePair, emd


class InputError(Exception):
    pass


def _json_text(obj):
    return json.dumps(obj, sort_keys=True) + "\n"


def _read_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise InputError(f"no such file: {path}")
    except json.JSONDecodeError as e:
        raise InputError(f"invalid JSON in {path}: {e}")


def _read_space(path):
    try:
        return space_from_json(_read_json(path))
    except (KeyError, TypeError) as e:
        raise InputError(f"malformed space file {path}: {e}")


def _read_vector(path):
    data = _read_json(path)
    if not isinstance(data, list):
        raise InputError(f"{path} must hold a JSON array of numbers")
    return np.asarray(data, dtype=float)


def _read_curve(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return ConcentrationCurve.from_csv_text(fh.read())
    except FileNotFoundError:
        raise InputError(f"no such file: {path}")


def _int_list(text):
    try:
        return [int(x) for x in str(text).split(",") if x != ""]
    except ValueError:
        raise InputError(f"expected comma-separated integers, got {text!r}")


def _emit(args, argv, text, inputs, parameters):
    out = getattr(args, "out", None)
    if out:
        Path(out).write_text(text, encoding="utf-8")
        manifest = {"command": args.command,
                    "argv": argv,
                    "inputs": list(inputs),
                    "seed": int(getattr(args, "seed", 0) or 0),
                    "parameters": parameters,
                    "tool_version": __version__}
        Path(str(out) + ".manifest.json").write_text(_json_text(manifest),
                                                     encoding="utf-8")
    else:
        sys.stdout.write(text)


# -- subcommand handlers -------------------------------------------------------

def _generate_descriptor(args):
    """The descriptor of --family's FAMILIES row, or of its _sampled row
    under --samples, each key read from the flag of the same name."""
    # the flags given: --samples 0, its default, means "not sampled"
    given = {k: v for k, v in vars(args).items()
             if v is not None and (v or k != "samples")}
    fam, needs = args.family, FAMILIES[args.family].needs
    if not all(k in given for k in needs):
        raise InputError(f"{fam} needs " + " and ".join(f"--{k}" for k in needs))
    if "samples" in given and fam + "_sampled" in FAMILIES:
        fam += "_sampled"
    row = FAMILIES[fam]
    desc = {"family": fam, **{k: given[k] for k in row.needs + row.options}}
    if "base" in desc:
        try:
            desc["base"] = [float(x) for x in args.base.split(",")]
        except ValueError:
            raise InputError(f"--base must be comma-separated numbers, got {args.base!r}")
    return desc


def _cmd_generate(args, argv):
    desc = _generate_descriptor(args)
    text = _json_text(space_to_json(build_space(desc)))
    _emit(args, argv, text, inputs=[], parameters=desc)
    return 0


def _cmd_validate(args, argv):
    try:
        space = _read_space(args.space)
    except ValueError as e:
        # construction-time rejects (bad weights, ragged matrix) are violations too
        sys.stderr.write(_json_text({"error": "space validation failed",
                                     "violations": [str(e)]}))
        return 2
    violations = validate_space(space)
    if violations:
        sys.stderr.write(_json_text({"error": "space validation failed",
                                     "violations": violations}))
        return 2
    _emit(args, argv, _json_text({"violations": []}),
          inputs=[args.space], parameters={})
    return 0


def _parse_grid(text):
    parts = str(text).split(":")
    if len(parts) != 3:
        raise InputError("--grid must be start:stop:count")
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise InputError("--grid must be start:stop:count with numeric fields")
    if count < 1 or start <= 0 or stop < start:
        raise InputError("--grid needs 0 < start <= stop and count >= 1")
    return np.linspace(start, stop, count)


def _cmd_alpha(args, argv):
    if (args.eps is None) == (args.grid is None):
        raise InputError("alpha needs exactly one of --eps or --grid")
    space = _read_space(args.space)
    # a single --eps is a one-point grid
    grid = [args.eps] if args.grid is None else _parse_grid(args.grid)
    curve = concentration_curve(space, grid, mode=args.mode,
                                cfg=SearchConfig(seed=args.seed), exhaustive_cap=args.cap)
    params = {"mode": args.mode, "cap": args.cap}
    if args.grid is None:
        params["eps"] = args.eps
        text = _json_text({"alpha": float(curve.alpha[0])})
    else:
        params["grid"] = args.grid
        text = curve.to_csv_text()
    _emit(args, argv, text, inputs=[args.space], parameters=params)
    return 0


def _cmd_fit(args, argv):
    if len(args.curves) != len(args.indices):
        raise InputError("--curves and --indices must have matching lengths")
    pairs = [(idx, _read_curve(p)) for idx, p in zip(args.indices, args.curves)]
    fit = gaussian_fit(pairs)
    _emit(args, argv,
          _json_text({"c1": fit.c1, "c2": fit.c2, "residual": fit.residual}),
          inputs=list(args.curves), parameters={"indices": list(args.indices)})
    return 0


def _cmd_levy(args, argv):
    curves = [_read_curve(p) for p in args.curves]
    res = levy_check(curves, threshold=args.threshold, slack=args.slack)
    _emit(args, argv, _json_text({
        "is_levy_trend": res.is_levy_trend,
        "eps": [float(x) for x in res.eps_grid],
        "table": [[float(x) for x in row] for row in res.table],
        "threshold": res.threshold, "slack": res.slack}),
        inputs=list(args.curves),
        parameters={"threshold": args.threshold, "slack": args.slack})
    return 0


def _cmd_emd(args, argv):
    space = _read_space(args.space)
    pair = MeasurePair(_read_vector(args.mu1), _read_vector(args.mu2))
    res = emd(space, pair)
    payload = {"distance": res.distance}
    if args.coupling:
        payload["coupling"] = [[float(x) for x in row] for row in res.witness.joint]
    _emit(args, argv, _json_text(payload),
          inputs=[args.space, args.mu1, args.mu2],
          parameters={"coupling": bool(args.coupling)})
    return 0


def _cmd_obsdist(args, argv):
    X = _read_space(args.x)
    Y = _read_space(args.y)
    cfg = SearchConfig(seed=args.seed, restarts=args.budget,
                       anchor_budget=args.budget)
    res = obs_distance(X, Y, cfg)
    _emit(args, argv, _json_text({
        "upper": res.upper,
        "anchors": [int(res.anchor[0]), int(res.anchor[1])],
        "coupling": [[float(x) for x in row] for row in res.coupling]}),
        inputs=[args.x, args.y], parameters={"budget": args.budget})
    return 0


def _cmd_median(args, argv):
    space = _read_space(args.space)
    f = LipschitzFunction(_read_vector(args.values), constant=args.constant)
    _emit(args, argv, _json_text({"median": median(space, f)}),
          inputs=[args.space, args.values], parameters={"constant": args.constant})
    return 0


def _cmd_tail(args, argv):
    space = _read_space(args.space)
    f = LipschitzFunction(_read_vector(args.values), constant=args.constant)
    res = tail_check(space, f, args.eps)
    _emit(args, argv, _json_text({
        "tail_mass": res.tail_mass, "bound": res.bound,
        "holds": res.holds, "bound_kind": res.bound_kind}),
        inputs=[args.space, args.values],
        parameters={"eps": args.eps, "constant": args.constant})
    return 0


def _cmd_essential(args, argv):
    space = _read_space(args.space)
    doc = _read_json(args.action)
    if not isinstance(doc, dict) or "permutations" not in doc:
        raise InputError(f"{args.action} must hold {{\"permutations\": [...]}}")
    action = IsometricAction(space, doc["permutations"])
    members = _int_list(args.set)
    mask = np.zeros(space.n, dtype=bool)
    for i in members:
        if not 0 <= i < space.n:
            raise InputError(f"set index {i} out of range")
        mask[i] = True
    family = _int_list(args.family)
    for g in family:
        if not 0 <= g < len(action.elements):
            raise InputError(f"family index {g} out of range")
    res = is_essential(action, mask, args.eps, family)
    _emit(args, argv, _json_text({"essential": res.essential, "witness": res.witness}),
          inputs=[args.space, args.action],
          parameters={"set": args.set, "family": args.family, "eps": args.eps})
    return 0


def _cmd_leader(args, argv):
    if args.samples < 0:
        raise InputError(f"--samples must be at least 0 (0 means certificate only), "
                         f"got {args.samples}")
    cert = leader_certificate(args.eps)
    payload = {"threshold": cert.threshold,
               "inessential_certified": cert.inessential_certified}
    if args.samples > 0:
        emp = leader_empirical(args.dim_half, args.samples, args.eps, seed=args.seed)
        payload["violations"] = emp.violations
        payload["sample_count"] = emp.sample_count
    _emit(args, argv, _json_text(payload), inputs=[],
          parameters={"dim_half": args.dim_half, "samples": args.samples,
                      "eps": args.eps})
    return 0


def _cmd_ramsey(args, argv):
    res = ramsey_verify(args.k, args.l, args.r, args.n)
    cx = None
    if res.counterexample is not None:
        h = res.counterexample
        cx = {"n": h.n, "k": h.k, "r": h.r,
              "colors": [int(c) for c in h.colors]}
    _emit(args, argv, _json_text({"all_colorings_contain": res.all_colorings_contain,
                                  "counterexample": cx}),
          inputs=[], parameters={"k": args.k, "l": args.l, "r": args.r, "n": args.n})
    return 0


def _cmd_replay(args, argv):
    doc = _read_json(args.manifest)
    stored = doc.get("argv") if isinstance(doc, dict) else None
    if not isinstance(stored, list) or not all(isinstance(a, str) for a in stored):
        raise InputError(f"{args.manifest} has no usable argv list")
    if stored and stored[0] == "replay":
        raise InputError(f"{args.manifest} replays another manifest; "
                         "replay that manifest's own command instead")
    return _dispatch([str(a) for a in stored])


# -- parser --------------------------------------------------------------------

def _build_parser():
    top = argparse.ArgumentParser(prog="mmlab",
                                  description="finite metric-measure space laboratory")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", help="output file (stdout when omitted)")
        p.add_argument("--threads", type=int, default=1,
                       help="accepted for batch symmetry; results never depend on it")
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("generate", help="emit a generated space as JSON")
    p.add_argument("--family", required=True,
                   choices=[f for f in FAMILIES if not f.endswith("_sampled")])
    p.add_argument("--n", type=int)
    p.add_argument("--dim", type=int)
    p.add_argument("--p", type=int)
    p.add_argument("--samples", type=int, default=0)
    p.add_argument("--metric", choices=("euclidean", "geodesic"), default="euclidean")
    p.add_argument("--base", help="comma-separated base weights for product")
    common(p)
    p.set_defaults(handler=_cmd_generate)

    p = sub.add_parser("validate", help="check metric/measure axioms")
    p.add_argument("--space", required=True)
    common(p)
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("alpha", help="concentration function value or curve")
    p.add_argument("--space", required=True)
    p.add_argument("--eps", type=float)
    p.add_argument("--grid", help="start:stop:count for a CSV curve")
    p.add_argument("--mode", choices=("exact", "lower"), default="exact")
    p.add_argument("--cap", type=int, default=_EXHAUSTIVE_CAP)
    common(p)
    p.set_defaults(handler=_cmd_alpha)

    p = sub.add_parser("fit", help="gaussian decay fit over curves")
    p.add_argument("--curves", nargs="+", required=True)
    p.add_argument("--indices", nargs="+", type=int, required=True)
    common(p)
    p.set_defaults(handler=_cmd_fit)

    p = sub.add_parser("levy", help="vanishing-trend check over curves")
    p.add_argument("--curves", nargs="+", required=True)
    p.add_argument("--threshold", type=float, default=0.05)
    p.add_argument("--slack", type=float, default=0.02)
    common(p)
    p.set_defaults(handler=_cmd_levy)

    p = sub.add_parser("emd", help="transportation distance")
    p.add_argument("--space", required=True)
    p.add_argument("--mu1", required=True)
    p.add_argument("--mu2", required=True)
    p.add_argument("--coupling", action="store_true",
                   help="include the witness coupling (quadratic payload)")
    common(p)
    p.set_defaults(handler=_cmd_emd)

    about = ("observable distance estimate: a lower bound against the one-point "
             "space, certified neither way for other pairs")
    p = sub.add_parser("obsdist", help=about, description=about)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--budget", type=int, default=8)
    common(p)
    p.set_defaults(handler=_cmd_obsdist)

    p = sub.add_parser("median", help="median of a function on a space")
    p.add_argument("--space", required=True)
    p.add_argument("--values", required=True)
    p.add_argument("--constant", type=float, default=1.0)
    common(p)
    p.set_defaults(handler=_cmd_median)

    p = sub.add_parser("tail", help="median tail-mass bound check")
    p.add_argument("--space", required=True)
    p.add_argument("--values", required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--constant", type=float, default=1.0)
    common(p)
    p.set_defaults(handler=_cmd_tail)

    p = sub.add_parser("essential", help="common point of translated thickenings")
    p.add_argument("--space", required=True)
    p.add_argument("--action", required=True)
    p.add_argument("--set", required=True, help="comma-separated point indices")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--family", required=True, help="comma-separated element indices")
    common(p)
    p.set_defaults(handler=_cmd_essential)

    p = sub.add_parser("leader", help="block-sphere inessential-set demonstration")
    p.add_argument("--dim-half", dest="dim_half", type=int, default=150)
    p.add_argument("--samples", type=int, default=0)
    p.add_argument("--eps", type=float, required=True)
    common(p)
    p.set_defaults(handler=_cmd_leader)

    p = sub.add_parser("ramsey", help="exhaustive monochromatic-subset check")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    common(p)
    p.set_defaults(handler=_cmd_ramsey)

    p = sub.add_parser("replay", help="re-run a stored manifest")
    p.add_argument("--manifest", required=True)
    p.set_defaults(handler=_cmd_replay)

    return top


def _dispatch(argv):
    args = _build_parser().parse_args(argv)
    if getattr(args, "seed", 0) < 0:  # replay takes no --seed
        raise InputError(f"--seed must be at least 0, got {args.seed}")
    return args.handler(args, argv)


def main(argv=None):
    argv = list(sys.argv[1:]) if argv is None else [str(a) for a in argv]
    try:
        return _dispatch(argv)
    except InputError as e:
        sys.stderr.write(_json_text({"error": str(e)}))
        return 2
    except (ValueError, OSError) as e:
        sys.stderr.write(_json_text({"error": str(e)}))
        return 2
    except Exception as e:
        sys.stderr.write(_json_text({"error": f"internal error: {e!r}"}))
        return 1


if __name__ == "__main__":
    sys.exit(main())
