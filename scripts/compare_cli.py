"""Compare the CLI's outputs of the working tree with those of a git revision.

    python3 scripts/compare_cli.py --base REV

exports REV's ``src`` with ``git archive`` into a temporary directory, runs a
fixed list of ``python -m fracoc`` cases from both source trees, each in a
fresh directory of its own, and checks that every case leaves the same exit
status, stdout, stderr and output files, byte for byte.  It prints one line
per case, naming the first output that differs, and exits 1 if any differs.
Standard library only.
"""

from __future__ import annotations

import argparse
import io
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CASES = (
    *(["solve", "--example", ex, "--alpha", a, "--n", "200"]
      for ex in ("lq", "solved", "rotation", "zero") for a in ("0.3", "0.5", "1")),
    ["solve", "--example", "lq", "--alpha", "0.1", "--n", "400"],
    ["solve", "--example", "lq", "--alpha", "0.25", "--n", "200"],
    ["converge", "--example", "solved", "--alpha", "0.5", "--n-list", "50,100,200,400"],
    ["converge", "--example", "solved", "--alpha", "0.75", "--n-list", "100,200,400,800"],
    ["converge", "--example", "lq", "--alpha", "1", "--n-list", "100,200,400,800"],
    ["noether", "--example", "rotation", "--alpha", "0.75", "--n", "300"],
    ["noether", "--example", "rotation", "--alpha", "1", "--n", "400"],
)


def export(rev: str, dest: Path) -> Path:
    """REV's ``src`` directory, unpacked under ``dest``."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
        archive.extractall(dest, **safe)
    return dest / "src"


def run(src: Path, args: list[str], cwd: Path) -> dict[str, bytes]:
    """Everything one case leaves: exit status, streams and written files."""
    cwd.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-m", "fracoc", *args, "--out", "out.csv"],
                          cwd=cwd, env=env, capture_output=True)
    outputs = {"exit status": str(done.returncode).encode(),
               "stdout": done.stdout, "stderr": done.stderr}
    for path in sorted(cwd.iterdir()):
        outputs[path.name] = path.read_bytes()
    return outputs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    cfg = parser.parse_args(argv)
    differ = 0
    with tempfile.TemporaryDirectory(prefix="compare_cli-") as tmp:
        base_src = export(cfg.base, Path(tmp) / "base")
        for i, args in enumerate(CASES):
            base = run(base_src, args, Path(tmp) / f"base-{i}")
            head = run(ROOT / "src", args, Path(tmp) / f"head-{i}")
            first = next((name for name in sorted(base.keys() | head.keys())
                          if base.get(name) != head.get(name)), None)
            differ += first is not None
            print(f"{'same' if first is None else 'DIFFERS'}: {' '.join(args)}"
                  + ("" if first is None else f" (first difference: {first})"))
    print(f"{len(CASES) - differ} of {len(CASES)} cases byte-identical to {cfg.base}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
