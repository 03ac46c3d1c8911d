"""Write the seed-code reference that run.py checks outputs against.

    python3 perfbench/make_reference.py

For each workload it runs the five commands on the default seed and stores,
under reference/: the error and pole-error columns of each CSV (gzip, 17
significant digits, as written), the functional value of each approximant in
the build artifact, and the sha256 of every output on seeds 0-10.
Every command must exit 0 without a Python warning on every seed.  Only
rerun it when a change is meant to move the reference, and say so.
"""

import csv
import gzip
import io
import json
import os
import sys
import tempfile

import check
import workloads
from run import BLAS_THREADS, THREAD_VARS
from worker import COMMANDS, OUTPUT_NAMES, import_package, sha256, study

HASH_SEEDS = range(11)


def environment():
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "blas_threads": int(BLAS_THREADS),
        "machine": platform.machine(),
    }


def run_study(cli, config, outdir):
    path = os.path.join(outdir, "config.json")
    with open(path, "w") as fh:
        json.dump(config, fh)
    for op in study(cli, path, outdir):
        out = os.path.join(outdir, OUTPUT_NAMES[op["command"]])
        problems = check.check_output(op["command"], config, out)
        if op["rc"] != 0 or op["warnings"] or problems:
            sys.exit(f"{op['command']}: rc {op['rc']}, {op['warnings']} warnings, {problems}")


def error_columns(text):
    rows = check.read_csv(text)
    cols = [i for i, name in enumerate(rows[0]) if check.is_error_column(name)]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for row in rows:
        writer.writerow([row[i] for i in cols])
    return buf.getvalue()


def main():
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    pademor = import_package()
    os.makedirs(check.REFERENCE_DIR, exist_ok=True)
    env = environment()
    for name in workloads.WORKLOADS:
        ref = {"seed": workloads.DEFAULT_SEED, "environment": env,
               "rtol": check.RTOL, "atol": check.ATOL,
               "errors_files": {}, "sha256": {}}
        for seed in HASH_SEEDS:
            with tempfile.TemporaryDirectory(dir=check.REFERENCE_DIR) as tmp:
                run_study(pademor.cli, workloads.make_config(name, seed), tmp)
                ref["sha256"][str(seed)] = {
                    c: sha256(os.path.join(tmp, OUTPUT_NAMES[c])) for c in COMMANDS}
                if seed != workloads.DEFAULT_SEED:
                    continue
                with open(os.path.join(tmp, OUTPUT_NAMES["build"])) as fh:
                    ref["functional_values"] = [
                        a["diagnostics"]["functional_value"]
                        for a in json.load(fh)["approximants"]]
                for command in COMMANDS[1:]:
                    with open(os.path.join(tmp, OUTPUT_NAMES[command]), newline="") as fh:
                        text = error_columns(fh.read())
                    fname = f"{name}.{command}.errors.csv.gz"
                    # mtime=0 keeps the archive bytes reproducible.
                    with open(os.path.join(check.REFERENCE_DIR, fname), "wb") as raw:
                        with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as gz:
                            gz.write(text.encode())
                    ref["errors_files"][command] = fname
            print(f"{name} seed {seed} done", flush=True)
        with open(os.path.join(check.REFERENCE_DIR, f"{name}.json"), "w") as fh:
            json.dump(ref, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
