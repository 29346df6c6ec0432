#!/usr/bin/env python3
"""Build and run the repository's benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

A run builds the program from source with dune (the first build in a
checkout compiles everything; later ones are no-ops), then runs the
OCaml benchmark program, which prints human-readable lines followed by one JSON
result line.  Workloads: verify_corpus, explore_deep, opt_large (see
perfbench/README.md).  Its work happens in a
process group of its own; whatever it leaves behind is killed and
waited for before this script exits.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
PSOPT = os.path.join("_build", "default", "bin", "psopt.exe")
SCRATCH = ".perfbench"


def run_timeout_s(seconds):
    """How long a run may take before it is killed.

    A run measures for at most three times --seconds; the traced
    verify_corpus run adds about 90 s of daemon requests and knee search
    that do not depend on --seconds.  At --seconds 20 and below this is
    170 s, inside a three-minute limit.
    """
    return max(170, 4 * seconds + 90)


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    # The benchmark needs the repository's sources next to it.
    for path in ("dune-project", "lib", "bin", os.path.join("perfbench", "dune")):
        if not os.path.exists(path):
            fail("not at the root of a checkout: %s is missing" % path)
    cmd = ["dune", "build", "--root", ".", "./perfbench/perfbench.exe", "./bin/psopt.exe"]
    try:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if r.returncode != 0:
        fail("build failed (exit %d)" % r.returncode)


def group_alive(pgid):
    try:
        os.killpg(pgid, 0)
        return True
    except ProcessLookupError:
        return False
    except PermissionError:
        return True


def reap_group(proc):
    """Kill whatever is left in the benchmark's process group and wait for it.

    The benchmark process leads the group; it is reaped first, since a
    zombie still counts as a member of its group.
    """
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.time() + 30
    while group_alive(proc.pid) and time.time() < deadline:
        time.sleep(0.05)


def run_bench(args, timeout=170):
    proc = subprocess.Popen([EXE] + args, stdout=subprocess.PIPE, start_new_session=True, text=True)

    def on_signal(signum, _frame):
        reap_group(proc)
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        reap_group(proc)
        fail("benchmark timed out after %d s" % timeout)
    finally:
        reap_group(proc)
    return proc.returncode, out


def self_test():
    build()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    code, out = run_bench(["--list-metrics"])
    if code != 0:
        fail("--list-metrics failed")
    emitted = {"end_to_end": [], "per_layer": []}
    for line in out.splitlines():
        kind, name, unit = line.split()
        emitted[kind].append((name, unit))
    ok = True
    for kind in ("end_to_end", "per_layer"):
        declared = [(m["name"], m["unit"]) for m in spec[kind]]
        same = declared == emitted[kind]
        print("%-58s %s" % ("metric names and units match BENCHMARK.json " + kind, "ok" if same else "FAILED"))
        ok = ok and same
    names = {w["name"] for w in spec["workloads"]}
    same = names == {"verify_corpus", "explore_deep", "opt_large"}
    print("%-58s %s" % ("workloads match BENCHMARK.json", "ok" if same else "FAILED"))
    ok = ok and same
    code, out = run_bench(["--self-test", "--scratch", SCRATCH])
    sys.stdout.write(out)
    return 0 if ok and code == 0 else 1


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1))
    p.add_argument("--self-test", action="store_true")
    a = p.parse_args()
    if a.self_test:
        sys.exit(self_test())
    if a.workload is None or a.seed is None or a.seconds is None or a.trace is None:
        fail("--workload, --seed, --seconds and --trace are required")
    if a.seconds < 1:
        fail("--seconds must be positive")
    build()
    code, out = run_bench([
        "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
        "--trace", str(a.trace), "--scratch", SCRATCH, "--psopt", PSOPT,
    ], timeout=run_timeout_s(a.seconds))
    sys.stdout.write(out)
    sys.stdout.flush()
    sys.exit(code)


if __name__ == "__main__":
    main()
