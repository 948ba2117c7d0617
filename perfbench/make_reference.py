"""Regenerate reference.json: the outputs every benchmark op must reproduce.

    python3 perfbench/make_reference.py

Runs every entry of every workload's input pool once through
`fracdyn.cli.main` from this checkout and stores its standard output and
report.kv. Only regenerate on purpose, when a change is meant to alter
the program's results, and say so with the change.
"""

import json
import shutil
import sys

import run
import workloads as wl


def _run(cli, op, workdir):
    run.fresh_outputs(workdir)
    code, _, _, stdout, stderr = run.run_in_process(cli, op, workdir)
    if code != 0:
        sys.exit(f"{' '.join(op.argv[:3])}... exited {code}: {stderr}")
    return stdout


def _report(workdir, directory=wl.OUT):
    return (workdir / directory / "report.kv").read_text(encoding="utf-8")


def main():
    cli = run.import_tree()
    workdir = run.WORK / "reference"
    shutil.rmtree(workdir, ignore_errors=True)
    (workdir / wl.INPUTS).mkdir(parents=True)
    reference = {}
    try:
        for rel, text in wl.paper_inputs().items():
            (workdir / rel).write_text(text, encoding="utf-8")
        paper = reference["paper-cli"] = {}
        for op in wl.paper_ops():
            entry = paper[op.key] = {wl.STDOUT: _run(cli, op, workdir)}
            if op.argv[0] == "simulate":
                entry[f"{wl.OUT}/report.kv"] = _report(workdir)

        long = reference["long-horizon"] = {}
        for epsilon in wl.LONG_EPSILONS:
            op = wl.Op("simulate", wl.simulate_argv(wl.LONG_STEPS, epsilon))
            long[epsilon] = {wl.STDOUT: _run(cli, op, workdir),
                             f"{wl.OUT}/report.kv": _report(workdir)}

        pool = wl.scan_pool()
        paths = []
        for index, gains in enumerate(pool):
            path = workdir / wl.INPUTS / f"pool{index:03d}.cfg"
            path.write_text(wl.config_text(gains, wl.SCAN_STEPS, f"{wl.OUT}/p{index:03d}"),
                            encoding="utf-8")
            paths.append(path.relative_to(workdir).as_posix())
        _run(cli, wl.Op("sweep", ("sweep", *paths, "--jobs", str(wl.SCAN_JOBS))), workdir)
        reference["gain-scan"] = {
            "gains": pool,
            "verdict": wl.scan_verdicts(pool),
            "report": [_report(workdir, f"{wl.OUT}/p{i:03d}") for i in range(len(pool))],
        }

        oracle = reference["oracle-convergence"] = {}
        for x0 in wl.ORACLE_X0:
            oracle[x0] = {wl.STDOUT: _run(cli, wl.Op("convergence", wl.ORACLE_ARGS + ("--x0", x0)),
                                          workdir)}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(wl.REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {wl.REFERENCE_PATH}")


if __name__ == "__main__":
    main()
