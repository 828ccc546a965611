"""Paired benchmark runs of two git revisions, with a per-metric summary.

    python3 scripts/ab_bench.py --base REV [--head REV] --workload W [--pairs 10] [--seconds S]

exports both revisions (``--head`` defaults to HEAD, so commit a change
first) with ``git archive`` into two sibling temporary directories whose
names have equal length, since ``peak_rss_mb`` moves with the length of
the path.  For each seed i = 1..pairs it runs

    bench/run.py --workload W --seed i --seconds S --trace 0

in both trees with the running interpreter and the inherited environment,
the base first on odd seeds and the head first on even ones.  Per metric it
prints the base median [q1, q3], the head median and in how many pairs the
head read lower (ties count for neither).  It exits 1 if any run is not
``correct``, fails an op or gives no summary.  Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def export(rev: str, dest: Path) -> Path:
    """REV's whole tree, unpacked into ``dest``."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
        archive.extractall(dest, **safe)
    return dest


def run(tree: Path, workload: str, seed: int, seconds: float | None) -> dict | None:
    """The JSON summary of one untraced benchmark run, or None if it gave none."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--trace", "0"] + ([] if seconds is None else ["--seconds", str(seconds)])
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    try:
        return json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(done.stderr)
        return None


def ok(result: dict | None) -> bool:
    return result is not None and result["correct"] is True and result["failed"] == 0


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """q1, median and q3, inclusive of the extremes."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summary(base: list[dict[str, float]], head: list[dict[str, float]]) -> list[str]:
    """One line per metric of paired runs, run i of ``base`` with run i of ``head``."""
    lines = []
    for name in base[0]:
        b = [r[name] for r in base]
        h = [r[name] for r in head]
        q1, median, q3 = quartiles(b)
        lower = sum(y < x for x, y in zip(b, h))
        lines.append(f"{name}: base {median:.4g} [{q1:.4g}, {q3:.4g}], "
                     f"head {statistics.median(h):.4g}, head lower in {lower}/{len(h)}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--head", default="HEAD", help="git revision to measure")
    parser.add_argument("--workload", required=True, help="benchmark workload")
    parser.add_argument("--pairs", type=int, default=10, help="seeds, one pair each")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run; bench/run.py's default if omitted")
    cfg = parser.parse_args(argv)
    results = {"base": [], "head": []}
    with tempfile.TemporaryDirectory(prefix="ab_bench-") as tmp:
        trees = {side: export(getattr(cfg, side), Path(tmp) / side) for side in results}
        for seed in range(1, cfg.pairs + 1):
            order = ("base", "head") if seed % 2 else ("head", "base")
            for side in order:
                result = run(trees[side], cfg.workload, seed, cfg.seconds)
                results[side].append(result)
                values = "" if result is None else ", ".join(
                    f"{k} {m['value']:.4g}" for k, m in result["metrics"].items())
                print(f"seed {seed} {side}: {'ok' if ok(result) else 'FAILED'} {values}",
                      file=sys.stderr, flush=True)
    runs = results["base"] + results["head"]
    if not all(map(ok, runs)):
        print(f"{sum(not ok(r) for r in runs)} of {len(runs)} runs not correct")
        return 1
    metrics = {side: [{k: m["value"] for k, m in r["metrics"].items()} for r in rs]
               for side, rs in results.items()}
    print(f"{cfg.workload}: {cfg.head} against {cfg.base}, {cfg.pairs} pairs")
    print("\n".join(summary(metrics["base"], metrics["head"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
