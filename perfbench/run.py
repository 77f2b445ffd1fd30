#!/usr/bin/env python3
"""Build the benchmark from the source tree it sits in, then run it.

    python3 perfbench/run.py --workload metro --seed 1 --seconds 25 --trace 0

Run from the repository root. Every argument is passed to the benchmark
binary (see main.go). The Go build cache, its temporary files, the
binary and the traced run's spans all live under .bench_build/ at the
repository root, so nothing is written outside the checkout. Exits
non-zero, without printing a result, when the simulator's source is not
present or does not build.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def main():
    for need in ("go.mod", "internal"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("%s not found at %s: the benchmark builds the simulator from its source tree" % (need, ROOT))
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOMODCACHE": os.path.join(BUILD, "gomodcache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOFLAGS": "",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
        "CGO_ENABLED": "0",
    })
    binary = os.path.join(BUILD, "perfbench", "perfbench")
    try:
        build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                               stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    except OSError as e:
        fail("cannot run the go toolchain: %s" % e)
    if build.returncode != 0:
        sys.stderr.write(build.stdout)
        fail("build failed")
    sys.exit(subprocess.run([binary] + sys.argv[1:], cwd=ROOT, env=env).returncode)


if __name__ == "__main__":
    main()
