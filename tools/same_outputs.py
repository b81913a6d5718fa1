"""Compare the relconv CLI's outputs at a git revision with the working tree's.

    python3 tools/same_outputs.py <rev>

unpacks `git archive <rev> src` into a temporary directory and runs one
fixed list of CLI commands (`commands`) on that tree and on the working
tree's src/, each command in its own process.  Every JSON report, CSV and
stdout (with stderr and the exit code) is compared byte for byte after
masking wall_ms: the value of each JSON "wall_ms" key and every field of a
CSV's wall_ms column.  It prints one `identical|DIFFERENT <file>` line per
file, then a count, and exits 1 on any difference; a <rev> that git cannot
archive prints one `error:` line and exits 2.
"""

from __future__ import annotations

import io
import os
import re
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]

_JSON_WALL = re.compile(r'("wall_ms": )[^,\n}]+')
_CSV_COMMA = re.compile(r',(?=(?:[^"]*"[^"]*")*[^"]*$)')  # a comma outside quotes


def masked(name: str, text: str) -> str:
    """text with every wall_ms value replaced by *, as a CSV when name ends in .csv."""
    if not name.endswith(".csv"):
        return _JSON_WALL.sub(r"\1*", text)
    lines = text.splitlines(keepends=True)
    header = _CSV_COMMA.split(lines[0].rstrip("\r\n")) if lines else []
    if "wall_ms" not in header:
        return text
    k = header.index("wall_ms")
    out = lines[:1]
    for line in lines[1:]:
        body = line.rstrip("\r\n")
        fields = _CSV_COMMA.split(body)
        if k < len(fields):
            fields[k] = "*"
        out.append(",".join(fields) + line[len(body):])
    return "".join(out)


def float_tent_csv(path: Path, N: int = 160) -> None:
    """A float tent above the parabola, apex (1/2, 1.125): 25,256 F0 violations at N = 160.

    Written here rather than by either tree's write_csv, so both trees read the same bytes.
    """
    x = np.arange(N + 1) / N
    v = np.where(x <= 0.5, 1.125 * x / 0.5, 1.125 * (1.0 - x) / 0.5)
    path.write_bytes(b"i,x,value\r\n" + "".join(f"{i},{i}/{N},{y!r}\r\n" for i, y in enumerate(v.tolist())).encode())


def commands(tent: Path) -> dict[str, list[str]]:
    """name -> argv; {name} in an argument is the command's name.

    42 commands, whose reports and CSVs with their stdouts make 111 files.
    """
    out = ["--out", "{name}.json"]
    cmds = {}
    # below p = 2 the pull sweeps read most rows by their span windows: 0.5
    # below p = 1, and 1.25 between 1 and 1.5; 1.9999 mixes symmetric, window
    # and whole-row reads, and pushes too at N = 512; 1.999999 reads
    # symmetric triples alone at N = 160 and 255, and some rows whole at 512
    sup = [(p, n) for p in ("1", "1.5", "1.9", "1.9999", "1.999999", "2", "3") for n in (160, 255, 512)]
    for p, n in sup + [(p, n) for p in ("0.5", "1.25") for n in (160, 255)]:
        cmds[f"sup-p{p}-n{n}"] = ["estimate-sup", "--p", p, "--n", str(n), "--csv", "{name}.csv", *out]
    # 203 sweeps of symmetric reads, as rounding moves the iterate; and span
    # windows at a tol near rounding, where p = 1.5 still stops, as at 1e-9,
    # at its seventh sweep, which moves no value
    for p, n, tol in (("2", "160", "1e-20"), ("1.5", "255", "1e-15")):
        cmds[f"sup-p{p}-n{n}-tol{tol}"] = ["estimate-sup", "--p", p, "--n", n, "--tol", tol,
                                           "--csv", "{name}.csv", *out]
    for klass in ("F0", "strong", "Fm:2", "Fm:5"):
        cmds[f"F-{klass.replace(':', '')}-256"] = ["check-class", "--fn", "builtin:F", "--class", klass, "--n", "256", *out]
    for n in (64, 96):
        for klass in ("F", "F0", "strong"):
            cmds[f"tent-exact-{klass}-{n}"] = ["check-class", "--fn", "builtin:tent:1/4,4/5", "--class", klass,
                                               "--n", str(n), *out]
    # reports of many writer chunks, one per record kind: 25,256 float
    # Violations, 8,211 exact (Fraction) ones and 5,760 TupleViolations
    cmds["tent-float-F0"] = ["check-class", "--fn", str(tent), "--class", "F0", *out]
    cmds["tent-exact-F0-256"] = ["check-class", "--fn", "builtin:tent:1/4,4/5", "--class", "F0", "--n", "256", *out]
    cmds["tent-Fm2-480"] = ["check-class", "--fn", "builtin:tent:1/2,9/8", "--class", "Fm:2", "--n", "480", *out]
    cmds["verify-catalog"] = ["verify-catalog", "--out", "{name}.csv"]
    cmds["profile-csv"] = ["profile", "--group", "Z2xZ6", "--s", "basis", "--format", "csv", "--out", "{name}.csv"]
    return cmds


def run_all(src: Path, outdir: Path, cmds: dict[str, list[str]]) -> None:
    """Run every command on the package in src, writing its files and stdout into outdir."""
    outdir.mkdir()
    env = {**os.environ, "PYTHONPATH": str(src)}
    for name, argv in cmds.items():
        proc = subprocess.run([sys.executable, "-m", "relconv", *(a.format(name=name) for a in argv)],
                              cwd=outdir, env=env, capture_output=True, text=True)
        (outdir / f"{name}.stdout").write_text(f"{proc.stdout}[stderr]\n{proc.stderr}[exit {proc.returncode}]\n")


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/same_outputs.py <rev>", file=sys.stderr)
        return 2
    archive = subprocess.run(["git", "archive", argv[0], "src"], cwd=ROOT, capture_output=True)
    if archive.returncode:
        print(f"error: git archive {argv[0]} src: {' '.join(archive.stderr.decode(errors='replace').split())}",
              file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(tmp / "base", **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
        tent = tmp / "tent-float.csv"
        float_tent_csv(tent)
        cmds = commands(tent)
        run_all(tmp / "base" / "src", tmp / "a", cmds)
        run_all(ROOT / "src", tmp / "b", cmds)
        names = sorted({p.name for d in ("a", "b") for p in (tmp / d).iterdir()})
        different = 0
        for name in names:
            a, b = (tmp / d / name for d in ("a", "b"))
            same = a.exists() and b.exists() and \
                masked(name, a.read_bytes().decode()) == masked(name, b.read_bytes().decode())
            different += not same
            print(f"{'identical' if same else 'DIFFERENT'} {name}")
    print(f"{len(names)} files, {different} different")
    return 1 if different else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
