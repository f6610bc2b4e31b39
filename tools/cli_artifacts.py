"""One sha256 per CLI run on the shipped configs, to compare the output of two trees.

    python tools/cli_artifacts.py OUT

For each ``configs/*.json`` of the tree that holds this script, each of the
six commands and the seeds 0 and 7, runs ``python -m picardop`` from that
tree's ``src`` in a fresh process, with ``OUT`` as the working directory and
a relative ``--out``, so no artifact records where ``OUT`` lies. Prints one
line per run: the config, the command, the seed and a sha256 over the exit
code, stdout, stderr and each artifact's relative name and bytes.

Run it once per tree, each time with an empty ``OUT``, and diff the two
outputs: equal lines mean byte-identical runs.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

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


def main() -> int:
    if len(sys.argv) != 2:
        print("usage: python tools/cli_artifacts.py OUT", file=sys.stderr)
        return 2
    out = Path(sys.argv[1]).resolve()
    out.mkdir(parents=True, exist_ok=True)
    for config in sorted((TREE / "configs").glob("*.json")):
        for command in COMMANDS:
            for seed in SEEDS:
                print(f"{config.name} {command} {seed} "
                      f"{run_digest(config, command, seed, out)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
