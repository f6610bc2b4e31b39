"""One sha256 per CLI run on the shipped configs, to compare the output of two trees.

    python tools/cli_artifacts.py OUT
    python tools/cli_artifacts.py --check RECORD

For each ``configs/*.json`` of the tree that holds this script, each of the
six commands and the seeds 0 and 7, runs ``python -m picardop`` from that
tree's ``src`` in a fresh process, with ``OUT`` as the working directory and
a relative ``--out``, so no artifact records where ``OUT`` lies. Prints a
record: a head of ``#`` lines giving the Python, numpy and BLAS versions and
the BLAS thread count, which the bytes depend on, then one line per run: the
config, the command, the seed and a sha256 over the exit code, stdout, stderr
and each artifact's relative name and bytes.

``--check RECORD`` reruns every run in a temporary directory and prints the
lines that differ from ``RECORD``: exit 0 when none do, 1 when some do. When
the head differs from ``RECORD``'s, it prints both heads and exits 3 without
running, since the bytes need not hold on another environment.
``tools/cli_artifacts.txt`` is the record of this tree.
"""

from __future__ import annotations

import ctypes
import difflib
import hashlib
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

TREE = Path(__file__).resolve().parent.parent
COMMANDS = ("solve", "rates", "frechet-check", "gnn-cert", "pign", "sweep")
SEEDS = (0, 7)


def run_digest(config: Path, command: str, seed: int, out: Path) -> str:
    """The sha256 of one run of ``command`` on ``config``, its artifacts written under
    ``out``/runs."""
    rel = Path("runs") / config.stem / command / str(seed)
    env = dict(os.environ, PYTHONPATH=str(TREE / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "picardop", command, "--config", str(config),
         "--out", str(rel), "--seed", str(seed)],
        cwd=out, env=env, capture_output=True, check=False)
    h = hashlib.sha256()
    for part in (str(proc.returncode).encode(), proc.stdout, proc.stderr):
        h.update(len(part).to_bytes(8, "little") + part)
    for path in sorted(p for p in (out / rel).rglob("*") if p.is_file()):
        name, data = str(path.relative_to(out / rel)).encode(), path.read_bytes()
        h.update(len(name).to_bytes(8, "little") + name + len(data).to_bytes(8, "little") + data)
    return h.hexdigest()


def environment() -> list:
    """The head of a record: the Python, numpy and BLAS versions, and the thread
    count of numpy's bundled OpenBLAS (None where it cannot be read)."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = None
    for path in sorted((Path(np.__file__).resolve().parent.parent / "numpy.libs")
                       .glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        get = next((getattr(lib, name) for name in ("scipy_openblas_get_num_threads64_",
                                                    "openblas_get_num_threads")
                    if hasattr(lib, name)), None)
        if get is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            threads = get()
            break
    return [f"# python {platform.python_version()}", f"# numpy {np.__version__}",
            f"# blas {blas.get('name')} {blas.get('version')}", f"# blas_threads {threads}"]


def record_lines(out: Path):
    """The record's run lines, one per run, each yielded when its run ends."""
    for config in sorted((TREE / "configs").glob("*.json")):
        for command in COMMANDS:
            for seed in SEEDS:
                yield f"{config.name} {command} {seed} {run_digest(config, command, seed, out)}"


def check(record: Path) -> int:
    """Rerun every run and diff the record against ``record``; the exit code."""
    want = record.read_text().splitlines()
    head, env = [line for line in want if line.startswith("#")], environment()
    if head != env:
        print(f"environment differs from {record}'s; runs not compared", *head,
              "this environment:", *env, sep="\n")
        return 3
    with tempfile.TemporaryDirectory() as tmp:
        got = head + list(record_lines(Path(tmp)))
    diff = list(difflib.unified_diff(want, got, str(record), "this tree", lineterm=""))
    if diff:
        print(*diff, sep="\n")
        return 1
    print(f"all {len(got) - len(head)} runs match {record}")
    return 0


def main() -> int:
    if len(sys.argv) == 3 and sys.argv[1] == "--check":
        return check(Path(sys.argv[2]))
    if len(sys.argv) != 2 or sys.argv[1].startswith("-"):
        print("usage: python tools/cli_artifacts.py OUT | --check RECORD", file=sys.stderr)
        return 2
    out = Path(sys.argv[1]).resolve()
    out.mkdir(parents=True, exist_ok=True)
    print(*environment(), sep="\n")
    for line in record_lines(out):
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
