"""Smoke runs of the scripts under scripts/, which nothing else imports: each
must still run against the library's current API."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_scripts_run(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    runs = [
        (["cube_curves.py", "--min-n", "4", "--max-n", "6", "--out-dir", str(tmp_path)],
         f"wrote 3 curves to {tmp_path}/"),
        (["obs_convergence.py", "--dims", "2", "4", "6"],
         "trend non-increasing within slack 0.02: True"),
        (["sphere_mc.py", "--dims", "2", "--samples", "500", "--eps", "0.5"],
         " dim    eps        cap     search       gap"),
    ]
    for (script, *argv), line in runs:
        r = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *argv],
                           capture_output=True, text=True, env=env, timeout=120)
        assert r.returncode == 0, (script, r.stderr)
        assert line in r.stdout.splitlines(), (script, r.stdout)
    assert sorted(p.name for p in tmp_path.glob("*.csv")) == [
        "cube_04.csv", "cube_05.csv", "cube_06.csv"]


def test_line_coverage_counts_cli_subprocesses():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    script = [sys.executable, str(ROOT / "scripts" / "line_coverage.py"), "--", sys.executable]
    # a parent that runs the CLI as its child: both processes are traced
    ramsey = [sys.executable, "-m", "mmlab.cli", "ramsey", "--k", "2", "--l", "3", "--r", "2",
              "--n", "5"]
    r = subprocess.run(script + ["-c", f"import subprocess; subprocess.run({ramsey!r}, check=True)"],
                       capture_output=True, text=True, env=env, cwd=ROOT, timeout=120)
    assert r.returncode == 0, r.stderr
    *lines, summary = r.stdout.splitlines()
    assert re.fullmatch(r"\d+ of \d+ executable lines never ran, across 2 processes in \S+ s",
                        summary), summary
    unrun = {line.split(": ", 1)[1] for line in lines if line.startswith("src/mmlab/cli.py:")}
    assert "res = ramsey_verify(args.k, args.l, args.r, args.n)" not in unrun
    assert "cert = leader_certificate(args.eps)" in unrun
    # the report does not gate: the exit status is the command's
    r = subprocess.run(script + ["-c", "raise SystemExit(3)"],
                       capture_output=True, text=True, env=env, cwd=ROOT, timeout=120)
    assert r.returncode == 3 and "across 1 processes" in r.stdout
