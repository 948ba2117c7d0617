"""The files of one run: trajectory.csv, fig1.svg..figd.svg and report.kv.

trajectory.csv is a `step,t,x1..xd` header and one row per grid point,
every float at %.17g, so it reads back bit for bit. Its rows are filled
into templates whose step and t columns are already text, one % call per
chunk of 256 rows. A chunk's template depends only on its first step, its
times and d, so the last 64 formatted are kept: trajectories written one
after another on one grid of up to 16384 rows format each chunk once, and
a longer grid keeps none. The plots keep their x-side the same way (see
svgplot). The CSV keeps every point at any length.
A CsvWriter formats the same rows in a forked process while the run that
computes them goes on. It and a sweep's writers are forked by `fork` and
reaped by `reap` where `writer_count` picks them; while they live,
collections skip the objects they share with the forking process.
"""

import functools
import gc
import itertools
import os
import shutil
import tempfile
from pathlib import Path

import numpy as np

from .numkit import _fmt, _kv_join
from .svgplot import line_chart

__all__ = [
    "CsvWriter",
    "distance",
    "fork",
    "reap",
    "write_artifacts",
    "write_csv",
    "write_plots_and_report",
    "writer_count",
]

# Rows per template: bounds each template and the tuple of values formatted
# into it. Longer chunks were no faster.
_ROWS = 256
# Chunk templates kept, about 1 MB for 5-D rows: every chunk of a grid that
# a sweep batch of two or more 5-D runs can have (solver.BATCH_BYTES //
# (2 * 8 * 5) = 16384 rows).
_MEMO_CHUNKS = 64


@functools.lru_cache(maxsize=_MEMO_CHUNKS)
def _row_template(start, times, dim):
    """The text of rows `start`.. at `times`, the float64 bytes of their
    times, with their step and t columns formatted and a %.17g for each of
    `dim` values."""
    row = "%d,%.17g" + ",%%.17g" * dim + "\n"
    chunk = np.frombuffer(times).tolist()
    return (row * len(chunk)) % tuple(
        itertools.chain.from_iterable(zip(itertools.count(start), chunk)))


def _row_templates(times, dim):
    """Yield the templates of the rows at `times`, _ROWS rows at a time.

    A grid of more than _MEMO_CHUNKS chunks skips the memo: each chunk
    would be evicted before the next trajectory on it came back to it."""
    if len(times) <= _ROWS * _MEMO_CHUNKS:
        template = _row_template
    else:
        template = _row_template.__wrapped__
    for start in range(0, len(times), _ROWS):
        yield template(start, times[start:start + _ROWS].tobytes(), dim)


def _row_blocks(states):
    """The consecutive blocks of `states` that `_csv_text` takes, _ROWS rows
    each but the last."""
    return (states[start:start + _ROWS] for start in range(0, len(states), _ROWS))


def _read_blocks(stream, n_rows, dim):
    """The blocks of `_row_blocks` of an (n_rows, dim) array whose raw float64
    bytes binary `stream` delivers in row order; EOFError if it ends early."""
    for start in range(0, n_rows, _ROWS):
        shape = (min(_ROWS, n_rows - start), dim)
        data = stream.read(8 * shape[0] * dim)
        if len(data) < 8 * shape[0] * dim:
            raise EOFError("the rows ended early")
        yield np.frombuffer(data).reshape(shape)


def _csv_text(times, dim, blocks):
    """Yield the text of trajectory.csv: its header, then the rows of each of
    `blocks`, the (rows, `dim`) state arrays of `_row_blocks`.

    `blocks` may be a generator, so the rows can be formatted as they are
    computed; no text or list of the whole table is built.
    """
    yield "step,t," + ",".join(f"x{i + 1}" for i in range(dim)) + "\n"
    for block, template in zip(blocks, _row_templates(times, dim)):
        yield template % tuple(block.ravel().tolist())


def write_csv(path, traj):
    """Write trajectory `traj` to `path` as CSV."""
    with open(path, "w", encoding="utf-8") as out:
        out.writelines(_csv_text(traj.times, traj.states.shape[1], _row_blocks(traj.states)))


# Writing one member's artifacts inline takes about 2 ms plus 1 us per
# trajectory value (5-D model: 3.5 ms at N=300, 12 ms at N=2000). Forking and
# reaping a batch's writers costs about 10 ms; on two CPUs, sweeps of one
# batch were no faster forked below 0.05 s of inline writing (4 configs at
# N=2000), faster in some series of runs and slower in others up to about
# 0.1 s (12 at N=1000, 6 or 8 at N=2000) and faster in most series from
# about 0.1 s (16 at N=1000, 12 at N=2000). The same rule decides whether
# a lone simulate streams its trajectory.csv to a forked writer: the 5-D
# model forks from N=19599 (0.1 s), and paper-scale runs (N=500, 4.5 ms)
# write inline. With the second CPU free, a streamed 5-D run was about as
# fast as an inline one at N=2000 and faster from N=5000 on; at N=60000 it
# took 1.11 s against 1.31 s, faster in 10 of 10 fresh-process pairs.
WRITE_MEMBER_S = 2e-3
WRITE_VALUE_S = 1e-6
FORK_MIN_WRITE_S = 0.1


def _cpu_count():
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def writer_count(shapes):
    """How many forked writers should write the runs whose trajectories have
    the (N+1, d) `shapes`: 0, to write them inline, where there is no
    os.fork, on one CPU or below FORK_MIN_WRITE_S of estimated inline
    writing; else one per CPU, but no more than the runs."""
    cpus = _cpu_count() if hasattr(os, "fork") else 1
    seconds = sum(WRITE_MEMBER_S + WRITE_VALUE_S * rows * dim for rows, dim in shapes)
    if cpus < 2 or seconds < FORK_MIN_WRITE_S:
        return 0
    return min(cpus, len(shapes))


def fork(body):
    """Run `body()` in a forked process, which leaves by os._exit (flushing
    no buffered output of this one) with status 0 only if `body` returned;
    its pid, for `reap`. OSError if there is no process to spare.

    Until reap, collections skip the objects the two processes share: a full
    one writes to every object it scans, and each page it writes is then
    copied (N=20000, two CPUs: 1500 page faults, 11-16 ms of a 0.2-0.3 s run)."""
    gc.freeze()
    try:
        pid = os.fork()
    except OSError:
        gc.unfreeze()
        raise
    if pid == 0:
        status = 1
        try:
            body()
            status = 0
        finally:
            os._exit(status)
    return pid


def reap(pids):
    """Wait for the forked processes `pids`, emptying the list, and let
    collections cover every object again; True if all exited with 0."""
    ok = True
    while pids:
        ok = os.waitpid(pids[-1], 0)[1] == 0 and ok
        pids.pop()
    gc.unfreeze()
    return ok


_END = b"."  # follows the last row sent to a CsvWriter


def _copy_spool(spool, path):
    """Create `path`, and its directory if need be, with the text in `spool`."""
    path.parent.mkdir(parents=True, exist_ok=True)
    spool.seek(0)
    with open(path, "wb") as out:
        shutil.copyfileobj(spool.buffer, out)


class CsvWriter:
    """A forked process that formats a run's trajectory.csv from its states
    as they are computed, for a run that goes on meanwhile.

    The states reach it through a pipe as raw float64 bytes. A send waits
    while the pipe is full, so a writer that falls behind holds the run
    back. The text goes to an anonymous temporary file, encoded as
    write_csv encodes it. Only once `commit` has followed the last row does
    the writer create the output directory and copy that text into the
    file; a run that fails, or a process that dies, closes the pipe early,
    and the writer leaves nothing behind. It touches no standard stream.
    The constructor raises OSError, as `fork` does, if there is no process
    to spare.
    """

    def __init__(self, path, times, dim):
        read, self.fd = os.pipe()

        def body():
            os.close(self.fd)
            with open(read, "rb") as pipe, \
                    tempfile.TemporaryFile("w+", encoding="utf-8") as spool:
                spool.writelines(_csv_text(times, dim, _read_blocks(pipe, len(times), dim)))
                if pipe.read(len(_END)) != _END:
                    raise EOFError("the run ended without a commit")
                _copy_spool(spool, path)

        try:
            self.pid = fork(body)
        except OSError:
            os.close(read)
            os.close(self.fd)
            raise
        os.close(read)

    def send(self, data):
        """Pass `data`, the next rows as a (rows, dim) array or _END, on to the
        writer; once a write fails (the writer is gone), the rest is dropped."""
        view = memoryview(data).cast("B")
        try:
            while view and self.fd is not None:
                view = view[os.write(self.fd, view):]
        except OSError:  # BrokenPipeError if the writer is gone
            self._close()

    def commit(self):
        """Tell the writer that every row has been sent: it writes the file."""
        self.send(_END)

    def _close(self):
        if self.fd is not None:
            os.close(self.fd)
            self.fd = None

    def reap(self):
        """Close the pipe and wait for the writer; True if it wrote the file."""
        self._close()
        return reap([self.pid])


def distance(x, target):
    """Euclidean distance from state `x` to `target`.

    np.linalg.norm squares the components, so it overflows to inf for a
    distance above about 1.3e154. Only then is the norm taken again, of the
    difference divided by its largest component, so every smaller distance
    keeps the bits of the plain norm.
    """
    with np.errstate(over="ignore"):
        diff = x - target
        dist = np.linalg.norm(diff)
        if np.isinf(dist) and np.isfinite(diff).all():
            scale = np.max(np.abs(diff))
            dist = scale * np.linalg.norm(diff / scale)
    return dist


def _write_report_kv(path, cfg, traj, target):
    final = traj.states[-1]
    pairs = [
        ("system", cfg.system),
        ("alpha", _fmt(cfg.alpha)),
        ("h", _fmt(cfg.h)),
        ("steps", str(cfg.steps)),
        ("seed", str(cfg.seed)),
    ]
    for i, v in enumerate(traj.states[0], start=1):
        pairs.append((f"x0_{i}", _fmt(v)))
    for i, v in enumerate(final, start=1):
        pairs.append((f"final_{i}", _fmt(v)))
    if target is not None:
        for i, v in enumerate(target, start=1):
            pairs.append((f"target_{i}", _fmt(v)))
        pairs.append(("initial_distance", _fmt(distance(traj.states[0], target))))
        pairs.append(("final_distance", _fmt(distance(final, target))))
    path.write_text(_kv_join(pairs) + "\n", encoding="utf-8")


def write_artifacts(cfg, traj, target):
    """Write trajectory.csv, fig1.svg..figd.svg and report.kv of one run of
    config `cfg`, with target point `target` or None, to cfg.output_dir.

    Touches no standard stream: sweep writers run it in forked processes.
    """
    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    write_csv(outdir / "trajectory.csv", traj)
    write_plots_and_report(cfg, traj, target)


def write_plots_and_report(cfg, traj, target):
    """Write fig1.svg..figd.svg and report.kv, the files of write_artifacts
    but the CSV, to the existing cfg.output_dir."""
    outdir = Path(cfg.output_dir)
    for i in range(traj.states.shape[1]):
        chart = line_chart(traj.states[:, i], y_label=f"x^{i + 1}(n)")
        (outdir / f"fig{i + 1}.svg").write_text(chart, encoding="utf-8")
    _write_report_kv(outdir / "report.kv", cfg, traj, target)
