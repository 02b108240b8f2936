#!/usr/bin/env python3
"""Build and run the benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the perfbench Go package with every cache and temporary file kept
under the build directory (CARGO_TARGET_DIR when set, else .bench_build),
then runs it from the checkout root with the same arguments. The last line
of standard output is the benchmark's JSON result. Exits non-zero, without
a result, if the build fails (for example outside a full checkout).
"""
import os
import subprocess
import sys


def main() -> int:
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOMODCACHE": os.path.join(build, "gopath", "pkg", "mod"),
        "GOTMPDIR": os.path.join(build, "gotmp"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOENV": "off",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOTELEMETRY": "off",
    })
    for key in ("GOCACHE", "GOMODCACHE", "GOTMPDIR", "XDG_CONFIG_HOME"):
        os.makedirs(env[key], exist_ok=True)
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                           stdout=sys.stderr, timeout=850)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    tmp = os.path.join(build, "tmp")
    run = subprocess.run([binary, "--dir", tmp] + sys.argv[1:], cwd=root, env=env, timeout=175)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
