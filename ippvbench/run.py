#!/usr/bin/env python3
"""Build and run the exact top-k LhCDS benchmark.

Run from the root of a checkout:

    python3 ippvbench/run.py --workload ippv-h2 --seed 1 --seconds 15 --trace 0

The first run compiles the program (through its own sbt build) together
with the benchmark sources in this directory, and keeps the classpath
under .bench_build/; later runs reuse it until a source file changes.
The measurement then runs in one JVM, and its last stdout line is the
JSON result.
"""
import argparse
import os
import pathlib
import shutil
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "ippvbench"
CLASSPATH = BUILD / "classpath.txt"

# a run must end within 180 s, or 900 s when it also builds
BUILD_TIMEOUT_S = 840
RUN_LIMIT_S = 175
BUILD_RUN_LIMIT_S = 895
JVM_FLAGS = ["-Xms2g", "-Xmx2g", "-XX:+UseParallelGC"]


def fail(msg):
    print(msg, file=sys.stderr)
    sys.exit(2)


def sources():
    """Every file the build reads: the program's build and sources, and ours."""
    for base in (ROOT / "src" / "main", ROOT / "project", HERE / "src" / "main", HERE / "project"):
        if base.is_dir():
            yield from (p for p in base.rglob("*") if p.is_file() and "target" not in p.parts)
    for f in (ROOT / "build.sbt", HERE / "build.sbt"):
        if f.is_file():
            yield f


def sbt_env():
    """sbt resolves offline from the local caches unless told otherwise."""
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    repos = pathlib.Path.home() / ".sbt" / "repositories"
    if "SBT_OPTS" not in env and repos.is_file():
        env["SBT_OPTS"] = ("-Dsbt.override.build.repos=true "
                           f"-Dsbt.repository.config={repos} -Dsbt.offline=true")
    return env


def build():
    """Returns the classpath, and whether this call had to build it."""
    if not (ROOT / "build.sbt").is_file() or not (ROOT / "src" / "main" / "scala").is_dir():
        fail(f"program sources not found: {ROOT} needs build.sbt and src/main/scala")
    if CLASSPATH.is_file():
        stamp = CLASSPATH.stat().st_mtime
        if all(p.stat().st_mtime < stamp for p in sources()):
            return CLASSPATH.read_text().strip(), False
    if shutil.which("sbt") is None:
        fail("sbt not found on PATH")
    BUILD.mkdir(parents=True, exist_ok=True)
    cmd = ["sbt", "--batch", "-Dsbt.server.autostart=false", "-Dsbt.log.noformat=true",
           "export ippvbench/Runtime/fullClasspath"]
    try:
        proc = subprocess.run(cmd, cwd=HERE, env=sbt_env(), stdin=subprocess.DEVNULL,
                              capture_output=True, text=True, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"build timed out after {BUILD_TIMEOUT_S} s")
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    if proc.returncode != 0 or not lines or lines[-1].startswith("["):
        sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
        fail(f"build failed (sbt exit code {proc.returncode})")
    # class directories and the Scala library first: the JVM searches the
    # entries in order, and the program's build puts its unmanaged jars
    # ahead of scala-library, which slows and unsettles JVM start
    entries = lines[-1].strip().split(os.pathsep)
    rank = lambda e: 0 if not e.endswith(".jar") else 1 if "scala-library" in e else 2
    cp = os.pathsep.join(sorted(entries, key=rank))
    CLASSPATH.write_text(cp + "\n")
    return cp, True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()

    start = time.monotonic()
    cp, built = build()
    timeout = (BUILD_RUN_LIMIT_S if built else RUN_LIMIT_S) - (time.monotonic() - start)
    java = shutil.which("java")
    if java is None:
        fail("java not found on PATH")
    cmd = [java, *JVM_FLAGS, "-cp", cp, "ippvbench.Main",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--launch-ns", str(time.time_ns())]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL)
    try:
        code = proc.wait(timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("benchmark timed out")
    sys.exit(code)


if __name__ == "__main__":
    main()
