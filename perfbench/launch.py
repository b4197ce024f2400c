"""Run one `mmlab` command in this process, as the installed `mmlab` script
would, with mmlab imported from the checkout's src/.

    python3 perfbench/launch.py [--trace-out FILE] <mmlab arguments>

With --trace-out it times `import mmlab.cli`, installs the tracer's
wrappers, runs the command and writes the layer totals to FILE as JSON.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def main(argv):
    if argv[:1] != ["--trace-out"]:
        from mmlab.cli import main as mmlab_main
        return mmlab_main(argv)
    out, argv = argv[1], argv[2:]
    sys.path.insert(1, HERE)
    import tracer
    cli, import_s, scipy_s = tracer.timed_import("mmlab.cli")
    trace = tracer.Tracer()
    trace.install(tracer.TARGETS)
    try:
        return cli.main(argv)
    finally:
        trace.uninstall()
        layers = trace.take()
        layers["cli.import"] = {"s": import_s, "scipy_s": scipy_s, "calls": 1}
        with open(out, "w") as fh:
            json.dump({"layers": layers, "absent": trace.absent}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
