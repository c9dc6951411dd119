#!/usr/bin/env python3
"""Build file of the benchmark package.

Compiles the program's main sources (`src/main/scala`) together with the
benchmark's own sources (`perfbench/src`) with the Scala compiler that
ships in the Spark distribution (`$SPARK_HOME/jars`), into
`<build dir>/perfbench/classes`. A stamp over every source file lets
repeated runs in the same checkout skip the build.

    python3 perfbench/build.py            # build if sources changed
    python3 perfbench/build.py --force    # always rebuild
"""
import glob
import hashlib
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PROGRAM_SOURCES = os.path.join(ROOT, "src", "main", "scala")
BENCH_SOURCES = os.path.join(ROOT, "perfbench", "src")


class BuildError(Exception):
    pass


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def spark_jars():
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = os.path.dirname(os.path.dirname(os.path.realpath(submit)))
    jars = os.path.join(home, "jars") if home else ""
    if not glob.glob(os.path.join(jars, "scala-compiler-*.jar")):
        raise BuildError("no Spark distribution with a Scala compiler found; set SPARK_HOME")
    return jars


def java():
    home = os.environ.get("JAVA_HOME")
    exe = os.path.join(home, "bin", "java") if home else shutil.which("java")
    if not exe or not os.path.exists(exe):
        raise BuildError("no java executable found; set JAVA_HOME")
    return exe


def sources():
    program = sorted(glob.glob(os.path.join(PROGRAM_SOURCES, "**", "*.scala"), recursive=True))
    if not program:
        raise BuildError("program sources not found under src/main/scala")
    bench = sorted(glob.glob(os.path.join(BENCH_SOURCES, "**", "*.scala"), recursive=True))
    if not bench:
        raise BuildError("benchmark sources not found under perfbench/src")
    return program + bench


def stamp_of(files, jars):
    h = hashlib.sha256(jars.encode())
    for f in files:
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def build(force=False):
    """Compile if needed; return the classpath to run the benchmark with."""
    jars = spark_jars()
    files = sources()
    out = os.path.join(build_dir(), "perfbench")
    classes = os.path.join(out, "classes")
    stamp_file = os.path.join(out, "stamp")
    stamp = stamp_of(files, jars)
    classpath = classes + os.pathsep + os.path.join(jars, "*")
    if not force and os.path.exists(stamp_file):
        with open(stamp_file) as fh:
            if fh.read() == stamp:
                return classpath
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(classes)
    cmd = [java(), "-Xss8m", "-Xmx1g", "-XX:-UsePerfData", "-cp", os.path.join(jars, "*"),
           "scala.tools.nsc.Main", "-usejavacp", "-nowarn", "-d", classes,
           "-cp", os.path.join(jars, "*")] + files
    print(f"[perfbench] compiling {len(files)} sources", file=sys.stderr, flush=True)
    proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr, timeout=850)
    if proc.returncode != 0:
        raise BuildError(f"scalac failed with exit code {proc.returncode}")
    with open(stamp_file, "w") as fh:
        fh.write(stamp)
    return classpath


if __name__ == "__main__":
    try:
        build(force="--force" in sys.argv[1:])
    except BuildError as e:
        print(f"[perfbench] build failed: {e}", file=sys.stderr)
        sys.exit(2)
