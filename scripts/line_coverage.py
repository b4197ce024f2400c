"""Report the lines of the mmlab package that a command never runs.

A line tracer from the standard library alone.  It puts a sitecustomize.py
on PYTHONPATH that installs sys.settrace in every Python process the command
starts, so CLI subprocesses count too.  Each process writes the lines it ran
when it exits.  The script then prints every executable line of the package
that no process ran, and a summary.  It reports and does not gate: its exit
status is the command's.

Usage:
    PYTHONPATH=src python3 scripts/line_coverage.py -- python3 -m pytest -q
    PYTHONPATH=src python3 scripts/line_coverage.py -- python3 -m mmlab.cli leader --eps 0.1
"""

import argparse
import dis
import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time
import types

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mmlab"

# runs at the start of every traced interpreter; its two settings come from
# the environment, so a process started from any directory finds them
SITECUSTOMIZE = '''\
import atexit, json, os, sys, threading

_package = os.environ["LINE_COVERAGE_PACKAGE"] + os.sep
_results = os.environ["LINE_COVERAGE_RESULTS"]
_ran = {}    # package file -> lines run
_files = {}  # co_filename -> its set in _ran, or None outside the package


def _lines(code):
    path = code.co_filename
    if path not in _files:
        real = os.path.realpath(path)
        _files[path] = _ran.setdefault(real, set()) if real.startswith(_package) else None
    return _files[path]


def _call(frame, event, arg):
    lines = _lines(frame.f_code)
    if lines is None:
        return None
    lines.add(frame.f_lineno)

    def line(frame, event, arg):
        lines.add(frame.f_lineno)
        return line
    return line


@atexit.register
def _dump():
    sys.settrace(None)
    path = os.path.join(_results, f"{os.getpid()}-{id(_ran)}.json")
    with open(path, "w") as fh:
        json.dump({f: sorted(lines) for f, lines in _ran.items()}, fh)


sys.settrace(_call)
threading.settrace(_call)
'''


def executable_lines(path):
    """Line numbers that start an instruction of the module or of any code
    object nested in it."""
    stack, lines = [compile(path.read_text(encoding="utf-8"), str(path), "exec")], set()
    while stack:
        code = stack.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line is not None)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("command", nargs=argparse.REMAINDER,
                    help="the command to run, after --")
    args = ap.parse_args()
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not command:
        ap.error("no command given")

    work = pathlib.Path(tempfile.mkdtemp(prefix="line-coverage-"))
    try:
        (work / "site").mkdir()
        (work / "results").mkdir()
        (work / "site" / "sitecustomize.py").write_text(SITECUSTOMIZE, encoding="utf-8")
        env = dict(os.environ, LINE_COVERAGE_PACKAGE=str(PACKAGE),
                   LINE_COVERAGE_RESULTS=str(work / "results"))
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(work / "site"), os.environ.get("PYTHONPATH")]))
        start = time.perf_counter()
        code = subprocess.run(command, env=env).returncode
        seconds = time.perf_counter() - start
        ran, processes = {}, 0
        for result in (work / "results").glob("*.json"):
            processes += 1
            for path, lines in json.loads(result.read_text()).items():
                ran.setdefault(path, set()).update(lines)
    finally:
        shutil.rmtree(work)

    total = unrun = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        lines = executable_lines(path)
        missed = sorted(lines - ran.get(str(path), set()))
        total += len(lines)
        unrun += len(missed)
        source = path.read_text(encoding="utf-8").splitlines()
        shown = os.path.relpath(path)
        for line in missed:
            print(f"{shown}:{line}: {source[line - 1].strip()}")
    print(f"{unrun} of {total} executable lines never ran, "
          f"across {processes} processes in {seconds:.1f} s")
    return code


if __name__ == "__main__":
    sys.exit(main())
