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

# the parser needs FAMILIES and _EXHAUSTIVE_CAP; each handler imports the
# rest of what it runs, so a command loads only its own modules
from . import __version__
from .generators import FAMILIES, build_space
from .spaces import (_EXHAUSTIVE_CAP, ConcentrationCurve, space_from_json,
                     space_to_json, validate_space)

_GRID_CAP = 10_000  # most eps values --grid may ask for


class InputError(Exception):
    pass


def _json_text(obj):
    return json.dumps(obj, sort_keys=True) + "\n"


def _read_text(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except FileNotFoundError:
        raise InputError(f"no such file: {path}")


def _read_json(path):
    try:
        return json.loads(_read_text(path))
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


def _index_list(text, size, what):
    """The comma-separated integers of text, each refused outside [0, size)."""
    try:
        out = [int(x) for x in str(text).split(",") if x != ""]
    except ValueError:
        raise InputError(f"expected comma-separated integers, got {text!r}")
    for i in out:
        if not 0 <= i < size:
            raise InputError(f"{what} index {i} out of range")
    return out


def _emit(args, argv, text, parameters=None):
    """Write text to --out with a manifest beside it, or to stdout.  The
    manifest's inputs are the command's FILE flags in table order, and its
    parameters every other flag of the command that holds a value, unless
    the caller passes its own."""
    if not args.out:
        sys.stdout.write(text)
        return
    inputs, given = [], {}
    for flag, kw in COMMANDS[args.command][1].items():
        dest = flag[2:].replace("-", "_")
        value = getattr(args, dest)
        if kw.get("metavar") == "FILE":
            inputs += value if isinstance(value, list) else [value]
        elif value is not None:
            given[dest] = value
    manifest = {"command": args.command,
                "argv": argv,
                "inputs": inputs,
                "seed": args.seed,
                "parameters": given if parameters is None else parameters,
                "tool_version": __version__}
    Path(args.out).write_text(text, encoding="utf-8")
    Path(args.out + ".manifest.json").write_text(_json_text(manifest), encoding="utf-8")


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
    _emit(args, argv, text, desc)
    return 0


def _cmd_validate(args, argv):
    try:
        space = _read_space(args.space)
    except ValueError as e:
        # construction-time rejects (bad weights, ragged matrix) are violations too
        violations = [str(e)]
    else:
        violations = validate_space(space)
    if violations:
        sys.stderr.write(_json_text({"error": "space validation failed",
                                     "violations": violations}))
        return 2
    _emit(args, argv, _json_text({"violations": []}))
    return 0


def _parse_grid(text):
    parts = str(text).split(":")
    if len(parts) != 3:
        raise InputError("--grid must be start:stop:count")
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise InputError("--grid must be start:stop:count with numeric fields")
    if not (count >= 1 and start > 0 and stop >= start):
        raise InputError("--grid needs 0 < start <= stop and count >= 1")
    if count > _GRID_CAP:
        raise InputError(f"--grid count {count} is over the cap {_GRID_CAP}")
    if not np.isfinite(stop):
        raise InputError(f"--grid needs a finite stop, got {parts[1]!r}")
    grid = np.linspace(start, stop, count)
    if not (np.diff(grid) > 0).all():  # start == stop, or too close for count
        raise InputError(f"--grid must give ascending eps values, got {text!r}")
    return grid


def _cmd_alpha(args, argv):
    from .concentration import SearchConfig, concentration_curve
    if (args.eps is None) == (args.grid is None):
        raise InputError("alpha needs exactly one of --eps or --grid")
    space = _read_space(args.space)
    # a single --eps is a one-point grid
    grid = [args.eps] if args.grid is None else _parse_grid(args.grid)
    curve = concentration_curve(space, grid, mode=args.mode,
                                cfg=SearchConfig(seed=args.seed), exhaustive_cap=args.cap)
    text = (_json_text({"alpha": float(curve.alpha[0])}) if args.grid is None
            else curve.to_csv_text())
    _emit(args, argv, text)
    return 0


def _cmd_fit(args, argv):
    from .concentration import gaussian_fit
    if len(args.curves) != len(args.indices):
        raise InputError("--curves and --indices must have matching lengths")
    pairs = [(idx, ConcentrationCurve.from_csv_text(_read_text(p)))
             for idx, p in zip(args.indices, args.curves)]
    fit = gaussian_fit(pairs)
    _emit(args, argv, _json_text({"c1": fit.c1, "c2": fit.c2, "residual": fit.residual}))
    return 0


def _cmd_levy(args, argv):
    from .concentration import levy_check
    curves = [ConcentrationCurve.from_csv_text(_read_text(p)) for p in args.curves]
    res = levy_check(curves, threshold=args.threshold, slack=args.slack)
    _emit(args, argv, _json_text({
        "is_levy_trend": res.is_levy_trend,
        "eps": res.eps_grid.tolist(),
        "table": res.table.tolist(),
        "threshold": res.threshold, "slack": res.slack}))
    return 0


def _cmd_emd(args, argv):
    from .transport import MeasurePair, emd
    space = _read_space(args.space)
    pair = MeasurePair(_read_vector(args.mu1), _read_vector(args.mu2))
    res = emd(space, pair)
    payload = {"distance": res.distance}
    if args.coupling:
        payload["coupling"] = res.witness.joint.tolist()
    _emit(args, argv, _json_text(payload))
    return 0


def _cmd_obsdist(args, argv):
    from .concentration import SearchConfig
    from .observable import obs_distance
    X = _read_space(args.x)
    Y = _read_space(args.y)
    cfg = SearchConfig(seed=args.seed, restarts=args.budget,
                       anchor_budget=args.budget)
    res = obs_distance(X, Y, cfg)
    _emit(args, argv, _json_text({
        "upper": res.upper,
        "anchors": [int(res.anchor[0]), int(res.anchor[1])],
        "coupling": res.coupling.tolist()}))
    return 0


def _cmd_median(args, argv):
    from .concentration import LipschitzFunction, median
    space = _read_space(args.space)
    f = LipschitzFunction(_read_vector(args.values), constant=args.constant)
    _emit(args, argv, _json_text({"median": median(space, f)}))
    return 0


def _cmd_tail(args, argv):
    from .concentration import LipschitzFunction, tail_check
    space = _read_space(args.space)
    f = LipschitzFunction(_read_vector(args.values), constant=args.constant)
    res = tail_check(space, f, args.eps)
    _emit(args, argv, _json_text({
        "tail_mass": res.tail_mass, "bound": res.bound,
        "holds": res.holds, "bound_kind": res.bound_kind}))
    return 0


def _cmd_essential(args, argv):
    from .dynamics import IsometricAction, is_essential
    space = _read_space(args.space)
    doc = _read_json(args.action)
    if not isinstance(doc, dict) or "permutations" not in doc:
        raise InputError(f"{args.action} must hold {{\"permutations\": [...]}}")
    action = IsometricAction(space, doc["permutations"])
    mask = np.zeros(space.n, dtype=bool)
    mask[_index_list(args.set, space.n, "set")] = True
    family = _index_list(args.family, len(action.elements), "family")
    res = is_essential(action, mask, args.eps, family)
    _emit(args, argv, _json_text({"essential": res.essential, "witness": res.witness}))
    return 0


def _cmd_leader(args, argv):
    from .dynamics import leader_certificate, leader_empirical
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
    _emit(args, argv, _json_text(payload))
    return 0


def _cmd_ramsey(args, argv):
    from .dynamics import ramsey_verify
    res = ramsey_verify(args.k, args.l, args.r, args.n)
    cx = None
    if res.counterexample is not None:
        h = res.counterexample
        cx = {"n": h.n, "k": h.k, "r": h.r,
              "colors": h.colors.tolist()}
    _emit(args, argv, _json_text({"all_colorings_contain": res.all_colorings_contain,
                                  "counterexample": cx}))
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


# -- command table -------------------------------------------------------------

# name -> (help, {flag: add_argument keywords}).  A flag of metavar FILE names
# input files, the manifest's inputs.  Every command but replay also takes the
# _COMMON flags.  Each is run by the _cmd_<name> of this module, looked up at
# every call, so a wrapper set on that module attribute runs instead.
_FILE = {"required": True, "metavar": "FILE"}
COMMANDS = {
    "generate": ("emit a generated space as JSON", {
        "--family": {"required": True,
                     "choices": [f for f in FAMILIES if not f.endswith("_sampled")]},
        "--n": {"type": int}, "--dim": {"type": int}, "--p": {"type": int},
        "--samples": {"type": int, "default": 0},
        "--metric": {"choices": ("euclidean", "geodesic"), "default": "euclidean"},
        "--base": {"help": "comma-separated base weights for product"}}),
    "validate": ("check metric/measure axioms", {"--space": _FILE}),
    "alpha": ("concentration function value or curve", {
        "--space": _FILE, "--eps": {"type": float},
        "--grid": {"help": "start:stop:count for a CSV curve"},
        "--mode": {"choices": ("exact", "lower"), "default": "exact"},
        "--cap": {"type": int, "default": _EXHAUSTIVE_CAP}}),
    "fit": ("gaussian decay fit over curves", {
        "--curves": {**_FILE, "nargs": "+"},
        "--indices": {"nargs": "+", "type": int, "required": True}}),
    "levy": ("vanishing-trend check over curves", {
        "--curves": {**_FILE, "nargs": "+"},
        "--threshold": {"type": float, "default": 0.05},
        "--slack": {"type": float, "default": 0.02}}),
    "emd": ("transportation distance", {
        "--space": _FILE, "--mu1": _FILE, "--mu2": _FILE,
        "--coupling": {"action": "store_true",
                       "help": "include the witness coupling (quadratic payload)"}}),
    "obsdist": ("observable distance estimate: a lower bound against the one-point "
                "space, certified neither way for other pairs", {
        "--x": _FILE, "--y": _FILE, "--budget": {"type": int, "default": 8}}),
    "median": ("median of a function on a space", {
        "--space": _FILE, "--values": _FILE, "--constant": {"type": float, "default": 1.0}}),
    "tail": ("median tail-mass bound check", {
        "--space": _FILE, "--values": _FILE,
        "--eps": {"type": float, "required": True},
        "--constant": {"type": float, "default": 1.0}}),
    "essential": ("common point of translated thickenings", {
        "--space": _FILE, "--action": _FILE,
        "--set": {"required": True, "help": "comma-separated point indices"},
        "--eps": {"type": float, "required": True},
        "--family": {"required": True, "help": "comma-separated element indices"}}),
    "leader": ("block-sphere inessential-set demonstration", {
        "--dim-half": {"type": int, "default": 150}, "--samples": {"type": int, "default": 0},
        "--eps": {"type": float, "required": True}}),
    "ramsey": ("exhaustive monochromatic-subset check",
               {f"--{k}": {"type": int, "required": True} for k in "klrn"}),
    "replay": ("re-run a stored manifest", {"--manifest": _FILE}),
}
_COMMON = {
    "--out": {"help": "output file (stdout when omitted)"},
    "--threads": {"type": int, "default": 1,
                  "help": "accepted for batch symmetry; results never depend on it"},
    "--seed": {"type": int, "default": 0}}


def _build_parser():
    top = argparse.ArgumentParser(prog="mmlab",
                                  description="finite metric-measure space laboratory")
    sub = top.add_subparsers(dest="command", required=True)
    for name, (about, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=about, description=about)
        for flag, kw in {**flags, **(_COMMON if name != "replay" else {})}.items():
            p.add_argument(flag, **kw)
    return top


def _dispatch(argv):
    args = _build_parser().parse_args(argv)
    if getattr(args, "seed", 0) < 0:  # replay takes no --seed
        raise InputError(f"--seed must be at least 0, got {args.seed}")
    if getattr(args, "threads", 1) < 1:
        raise InputError(f"--threads must be at least 1, got {args.threads}")
    return globals()[f"_cmd_{args.command}"](args, argv)


def main(argv=None):
    argv = list(sys.argv[1:]) if argv is None else [str(a) for a in argv]
    try:
        return _dispatch(argv)
    except (InputError, ValueError, OSError) as e:
        sys.stderr.write(_json_text({"error": str(e)}))
        return 2
    except Exception as e:
        sys.stderr.write(_json_text({"error": f"internal error: {e!r}"}))
        return 1


if __name__ == "__main__":
    sys.exit(main())
