#!/usr/bin/env python3
"""Run one benchmark workload and print its result.

    python3 perfbench/run.py --workload paper-audit --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Builds the program and the benchmark from source on first use (see
build.py), then starts one JVM for the run. The JVM prints a readable
report and, as the last line of stdout, the JSON result. With --trace 1
the result holds the per-layer metrics and the span and JFR files are
left under <build dir>/perfbench/trace. Workloads, metrics and the
predictions they test are described in perfbench/README.md.
"""
import argparse
import os
import signal
import subprocess
import sys
import time

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import build  # noqa: E402

HEAP = "2g"
RUN_TIMEOUT_S = 170

JAVA_OPTS = [
    f"-Xms{HEAP}",
    f"-Xmx{HEAP}",
    "-Xmn128m",
    "-XX:+UseG1GC",
    "-XX:-UsePerfData",
    "-XX:ReservedCodeCacheSize=512m",
    "-XX:+IgnoreUnrecognizedVMOptions",
    "--add-opens=java.base/java.lang=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.invoke=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.reflect=ALL-UNNAMED",
    "--add-opens=java.base/java.io=ALL-UNNAMED",
    "--add-opens=java.base/java.net=ALL-UNNAMED",
    "--add-opens=java.base/java.nio=ALL-UNNAMED",
    "--add-opens=java.base/java.util=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent.atomic=ALL-UNNAMED",
    "--add-opens=java.base/jdk.internal.ref=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.ch=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.cs=ALL-UNNAMED",
    "--add-opens=java.base/sun.security.action=ALL-UNNAMED",
    "--add-opens=java.base/sun.util.calendar=ALL-UNNAMED",
    "-Djdk.reflect.useDirectMethodHandle=false",
    "-Dio.netty.tryReflectionSetAccessible=true",
]


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--selftest", action="store_true", help="only check the benchmark's correctness gate")
    a = p.parse_args()
    if not a.selftest and (a.workload is None or a.seed is None or a.seconds is None):
        p.error("--workload, --seed and --seconds are required")

    try:
        classpath = build.build()
        java = build.java()
    except (build.BuildError, subprocess.TimeoutExpired) as e:
        print(f"[perfbench] build failed: {e}", file=sys.stderr)
        return 2

    out = os.path.join(build.build_dir(), "perfbench", "trace" if a.trace else "run")
    tmp = os.path.join(build.build_dir(), "perfbench", "tmp")
    os.makedirs(tmp, exist_ok=True)
    cmd = [java] + JAVA_OPTS + [f"-Djava.io.tmpdir={tmp}", "-cp", classpath]
    if a.selftest:
        cmd += ["perfbench.SelfTest"]
    else:
        cmd += ["perfbench.Main", "--workload", a.workload, "--seed", str(a.seed),
                "--seconds", str(a.seconds), "--trace", str(a.trace), "--out", out,
                "--refs", os.path.join(build.ROOT, "perfbench", "refs")]
    # Spark's scratch space: the environment variable wins over the
    # spark.local.dir setting, so pin it inside the checkout as well.
    env = dict(os.environ, SPARK_LOCAL_IP="127.0.0.1", SPARK_LOCAL_DIRS=os.path.join(out, "spark-local"))
    env.pop("SPARK_EXECUTOR_DIRS", None)
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=build.ROOT, env=env, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
        print(f"[perfbench] JVM exited with {code} after {time.monotonic() - t0:.1f} s", file=sys.stderr)
        return code
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("[perfbench] run did not finish in time; killed", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
