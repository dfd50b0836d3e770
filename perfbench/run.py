"""The qch benchmark: one workload, timed end to end or traced per layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload suite-small --seed 1 --seconds 30 --trace 0

The package is imported from ``src/`` of that checkout and driven in-process
through ``qch.cli.main``.  After an untimed warm-up pass, passes over the
workload's command list, each with fresh inputs drawn from the seed, are
repeated until ``--seconds`` is spent.  Every command's output is checked
after it returns; the checks are not timed.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``:

* ``--trace 0``: ``wall_ref_s``, the median time of one pass rescaled to a
  fixed machine speed (see ``reference``); ``setup_s``, the median time from
  spawning a fresh interpreter until ``qch`` is imported and the inputs
  exist, over several spawns, rescaled the same way; and ``peak_rss_mb``,
  the peak resident memory of this process;
* ``--trace 1``: the per-layer metrics of ``layers.METRICS``.  Times are
  medians over traced passes, counts those of the first traced pass, and
  ``trace.overhead_s`` compares the traced passes' rescaled time with that
  of untraced passes in the same run.

The lines before the last give the environment and a readable summary.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import workloads
from layers import METRICS, Patches, Recorder, Tracer, inject_curv_dot_fault
from reference import CHUNK_S, kernel_seconds, rescale

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark."""


def import_qch():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import qch.cli
    except ImportError as exc:
        raise SetupError(f"cannot import qch from {src}: {exc}") from exc
    if not Path(qch.cli.__file__).resolve().is_relative_to(src.resolve()):
        raise SetupError(f"qch was imported from {qch.cli.__file__}, not from {src}")
    return qch.cli


def setup(workload, seed, workdir):
    """Import ``qch`` and draw the inputs of the first pass."""
    cli = import_qch()
    workloads.commands(workload, seed, 0, workdir)
    return cli


def probe_setup(workload, seed, workdir):
    """Seconds from spawning a fresh interpreter until it has set up, as
    measured and rescaled to the reference speed like the pass times."""
    before = kernel_seconds()
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--probe", "--workload", workload,
         "--seed", str(seed), "--workdir", str(workdir)],
        capture_output=True, text=True, timeout=120, check=False,
    )
    if proc.returncode != 0:
        raise SetupError(f"set-up probe failed: {proc.stderr.strip()}")
    # CLOCK_MONOTONIC is system-wide on Linux, so the child's reading compares
    seconds = float(proc.stdout.split()[-1]) - started
    return seconds, rescale(seconds, before, kernel_seconds())


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "ram_gb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30,
        "counts": "flops and bytes are computed from tensor shapes, not measured",
    }


def _blas_threads():
    """OpenBLAS's thread count, or None for another BLAS."""
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "lib*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


class Runner:
    """Runs passes over a workload's command lists and checks their outputs.

    Pass 0 is a warm-up that is checked but not timed; every later pass
    draws fresh inputs (see ``workloads.commands``).
    """

    def __init__(self, cli, workload, seed, workdir):
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.next_pass = 0
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.digests = []

    def run_pass(self):
        """One pass over a command list.

        Returns the seconds spent in ``qch``, the same rescaled to the
        reference speed (see ``reference``), and the bytes the CLI wrote.
        """
        commands = workloads.commands(self.workload, self.seed, self.next_pass, self.workdir)
        self.next_pass += 1
        busy = rescaled = chunk = 0.0
        written = 0
        digest = hashlib.sha256()
        before = kernel_seconds()
        for i, cmd in enumerate(commands):
            out, err = io.StringIO(), io.StringIO()
            started = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = self.cli.main(cmd.argv)
            except Exception:  # a crash is a failed command, not a failed benchmark
                code = None
                err.write(traceback.format_exc())
            chunk += time.perf_counter() - started
            if chunk >= CHUNK_S or i == len(commands) - 1:
                after = kernel_seconds()
                busy += chunk
                rescaled += rescale(chunk, before, after)
                before, chunk = after, 0.0
            reason = workloads.check(cmd, code)
            self.attempted += 1
            if reason is not None:
                self.failed += 1
                if len(self.failures) < 5:
                    self.failures.append(f"{' '.join(cmd.argv)}: {reason} {err.getvalue()}")
            written += len(out.getvalue().encode())
            for path in cmd.outputs:
                if path.exists():
                    written += path.stat().st_size
                    digest.update(path.read_bytes())
                    # a command that overwrote a file still being written back
                    # to disk would wait for it; every command writes afresh
                    path.unlink()
        self.digests.append(digest.hexdigest())
        return busy, rescaled, written

    def repeat(self, seconds, on_pass=None):
        """Run passes while another one still fits in ``seconds``.

        Returns the passes' wall times and rescaled times.
        """
        walls, rescaled = [], []
        start = time.monotonic()
        while True:
            wall, ref, written = self.run_pass()
            walls.append(wall)
            rescaled.append(ref)
            if on_pass is not None:
                on_pass(written)
            elapsed = time.monotonic() - start
            if elapsed + statistics.median(walls) > seconds:
                return walls, rescaled


def _summary(name, values):
    q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return f"{name} n={len(values)} q1={q[0]:.4f} median={q[1]:.4f} q3={q[2]:.4f}"


def timed_run(runner, args, workdir):
    probes = [probe_setup(args.workload, args.seed, workdir) for _ in range(SETUP_PROBES)]
    setups = [ref for _, ref in probes]
    runner.run_pass()
    walls, rescaled = runner.repeat(args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"# {_summary('raw_wall_s', walls)}; {_summary('wall_ref_s', rescaled)}; "
          f"{_summary('raw_setup_s', [raw for raw, _ in probes])}; "
          f"{_summary('setup_s', setups)}")
    return {
        "wall_ref_s": (statistics.median(rescaled), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def traced_run(runner, args):
    """Traced passes, then as many untraced ones for the overhead.

    Times are medians over the traced passes.  Counts come from the first
    traced pass, whose inputs depend on the seed alone, so they repeat
    exactly across runs.
    """
    runner.run_pass()
    passes = []
    with Tracer() as tracer:

        def collect(written):
            passes.append(dict(tracer.recorder.metrics(), **{"cli.bytes_written": written}))
            tracer.recorder = Recorder()

        _, traced = runner.repeat(args.seconds / 2, collect)
    _, untraced = runner.repeat(args.seconds / 2)
    per_layer = {
        key: statistics.median(p[key] for p in passes) if METRICS[key] in ("s", "ms")
        else passes[0][key]
        for key in passes[0]
    }
    per_layer["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    per_layer["failed_frac"] = runner.failed / runner.attempted
    print(f"# traced: {_summary('wall_ref_s', traced)}; untraced: "
          f"{_summary('wall_ref_s', untraced)}; first traced pass report digest "
          f"{runner.digests[1]}")
    return {key: (per_layer[key], unit) for key, unit in METRICS.items()}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--fault", action="store_true",
                   help="perturb every curv_dot result, so the output checks must fail")
    p.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--workdir", type=Path, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.probe:
        setup(args.workload, args.seed, args.workdir)
        print(time.monotonic())
        return 0

    workdir = ROOT / ".bench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        cli = setup(args.workload, args.seed, workdir)
        print("# env " + json.dumps(environment()))
        runner = Runner(cli, args.workload, args.seed, workdir)
        if args.fault:
            inject_curv_dot_fault(Patches())
        measured = traced_run(runner, args) if args.trace else timed_run(runner, args, workdir)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    for line in runner.failures:
        print(f"# failed: {line}")
    print(f"# attempted={runner.attempted} failed={runner.failed} "
          f"failed_frac={runner.failed / runner.attempted}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in measured.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
