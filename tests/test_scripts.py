"""Smoke runs of the scripts under scripts/, which nothing else imports: each
must still run against the library's current API."""

import os
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
