#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The engine libraries and the benchmark binary are compiled from this checkout
into $CARGO_TARGET_DIR (default: .bench_build), then the binary runs the
workload. The binary's last line of standard output is the JSON result; its
exit status is passed through. Build output goes to standard error.
"""

import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def build_dir() -> Path:
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def tree_hash() -> str:
    """A hash of the sources built: src/ and this directory."""
    digest = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        files = (p for p in top.rglob("*")
                 if p.is_file() and "__pycache__" not in p.parts)
        for path in sorted(files):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "tree-" + digest.hexdigest()[:12]


def commit_stamp() -> str:
    """The git commit when there is one, else the source-tree hash.

    A commit whose src/ or perfbench/ differs from the working tree gets the
    tree hash appended, so a run of uncommitted changes is never stamped as
    its parent.
    """
    if (ROOT / ".git").exists():
        try:
            git = ["git", "-C", str(ROOT)]
            head = subprocess.run([*git, "rev-parse", "HEAD"], capture_output=True,
                                  text=True, check=True).stdout.strip()
            dirty = subprocess.run([*git, "status", "--porcelain", "--", "src", "perfbench"],
                                   capture_output=True, text=True, check=True).stdout
            return f"{head}+dirty-{tree_hash()}" if dirty.strip() else head
        except (OSError, subprocess.CalledProcessError):
            pass
    return tree_hash()


def build(out: Path) -> Path:
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    # Keep the compiler's temporary files inside the build tree too.
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    if not (out / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(HERE), "-B", str(out),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr, env=env)
    subprocess.run(["cmake", "--build", str(out), "--target", "eadt_perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr, env=env)
    return out / "eadt_perfbench"


def main() -> int:
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print(f"perfbench: engine sources not found under {ROOT}/src",
              file=sys.stderr)
        return 2
    try:
        binary = build(build_dir())
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2
    sys.stdout.flush()
    cmd = [str(binary), *sys.argv[1:], "--commit", commit_stamp()]
    return subprocess.run(cmd, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
