#!/usr/bin/env python3
"""Compile the D3L program (src/main/scala) and the benchmark (perfbench/src)
into .bench_build/classes with the Scala compiler that ships in Spark's jars.

Run from the repository root:  python3 perfbench/build.py
A build is skipped when no source file changed since the last one.
"""
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

BUILD_DIR = Path(".bench_build")
CLASSES = BUILD_DIR / "classes"
STAMP = BUILD_DIR / "classes.sha256"
SOURCE_DIRS = [Path("src/main/scala"), Path("perfbench/src")]


def spark_jars() -> Path:
    """Jar directory of the Spark installation (SPARK_HOME, else spark-submit's)."""
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = str(Path(submit).resolve().parent.parent)
    if not home or not (Path(home) / "jars").is_dir():
        sys.exit("perfbench: Spark not found; set SPARK_HOME")
    return Path(home) / "jars"


def java() -> str:
    """The java launcher of JAVA_HOME, else the one on PATH."""
    home = os.environ.get("JAVA_HOME")
    return str(Path(home) / "bin" / "java") if home else "java"


def sources() -> list:
    for d in SOURCE_DIRS:
        if not d.is_dir():
            sys.exit(f"perfbench: {d} not found; run from the repository root")
    return sorted(p for d in SOURCE_DIRS for p in d.rglob("*.scala"))


def build() -> Path:
    """Compiles when needed and returns the classes directory."""
    files = sources()
    digest = hashlib.sha256()
    for f in files:
        digest.update(str(f).encode())
        digest.update(f.read_bytes())
    stamp = digest.hexdigest()
    if CLASSES.is_dir() and STAMP.is_file() and STAMP.read_text() == stamp:
        return CLASSES
    shutil.rmtree(CLASSES, ignore_errors=True)
    CLASSES.mkdir(parents=True)
    cmd = [java(), "-XX:-UsePerfData", "-Xmx2g", "-cp", str(spark_jars() / "*"), "scala.tools.nsc.Main",
           "-usejavacp", "-nowarn", "-d", str(CLASSES)] + [str(f) for f in files]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")
    STAMP.write_text(stamp)
    return CLASSES


if __name__ == "__main__":
    print(build())
