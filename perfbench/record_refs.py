"""Record the reference outputs of the benchmark's fixed jobs.

The references in refs/ were recorded at the seed commit.  Record them again
only in a change that alters those outputs on purpose, and say why:

    python3 perfbench/record_refs.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil

import run


def main() -> None:
    run._import_program()
    import checks
    import workloads

    workdir = run.OUT / f"refs-{os.getpid()}"
    refs = {"catalog": {}, "scan": {}}
    try:
        for workload, kind in (("catalog", "catalog"), ("scan", "reference")):
            for job in workloads.build(workload, 0, workdir / workload):
                if job.kind != kind:
                    continue
                with contextlib.redirect_stdout(io.StringIO()):
                    rc = job.run()
                data = checks.load(job, rc)
                refs[workload][job.name] = data["rows"] if kind == "catalog" else {"rc": rc, "report": data["report"]}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, table in refs.items():
        path = run.HERE / "refs" / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        lines = (f"{json.dumps(key)}: {json.dumps(value, sort_keys=True)}" for key, value in sorted(table.items()))
        path.write_text("{\n" + ",\n".join(lines) + "\n}\n")  # one job per line
        print(f"wrote {len(table)} references to {path}")


if __name__ == "__main__":
    main()
