"""Checks that the benchmark's own results can be trusted.

Run from the root of a source checkout (takes about a minute and, for
theorem1-wide, 2.6 GB of memory):

    python3 perfbench/selfcheck.py

It asserts that

* a run whose ``curv_dot`` results are perturbed reports failed commands;
* two traced runs with the same seed report identical counts and write
  byte-identical reports;
* every per-layer metric of BENCHMARK.json is reported, with the predicted
  zeros (no derivation work in profile-sweep, no profile work in the verify
  workloads) and the known ``curv_dot`` call counts.

It also reports, without failing, whether the known profile defect that
``workloads.R0_LOW`` steers around still reproduces.

Exit status 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SECONDS = "2"
# r(L) is about 140 here, and the right boundary residual of about 1.3e-12
# exceeds the CLI's absolute 1e-12 tolerance, so the command exits 1
KNOWN_DEFECT = ["profile", "report", "--r0", "0.27588406258585685",
                "--L", "17.952562351447572", "--k", "3", "--n", "2"]
CURV_DOT_CALLS = {"suite-small": 4380, "theorem1-wide": 2, "profile-sweep": 0}
PROFILE_CALLS = ("profiles.solve.calls", "profiles.ab2.calls")


def bench(workload, trace, *extra):
    """Run the benchmark once: ``(result object, report digest)``."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", SECONDS, "--trace", str(trace), *extra],
        capture_output=True, text=True, timeout=600, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    digest = next((ln.rsplit(" ", 1)[1] for ln in lines if "report digest" in ln), None)
    return json.loads(lines[-1]), digest


def values(result):
    return {k: v["value"] for k, v in result["metrics"].items()}


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    per_layer = [m["name"] for m in spec["per_layer"]]
    failures = []

    def expect(ok, what):
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    faulty, _ = bench("suite-small", 0, "--fault")
    expect(faulty["failed"] > 0 and faulty["correct"] is False,
           f"fault injection is caught: failed {faulty['failed']}/{faulty['attempted']}")

    for workload, calls in CURV_DOT_CALLS.items():
        first, digest = bench(workload, 1)
        got = values(first)
        expect(first["correct"] and first["failed"] == 0, f"{workload}: outputs correct")
        expect(sorted(got) == sorted(per_layer), f"{workload}: every per-layer metric reported")
        expect(got["derivation.curv_dot.calls"] == calls,
               f"{workload}: {got['derivation.curv_dot.calls']} curv_dot calls, expected {calls}")
        if workload != "profile-sweep":
            expect(all(got[k] == 0 for k in PROFILE_CALLS), f"{workload}: no profile calls")
        if workload == "theorem1-wide":
            continue  # one traced run of it is enough; it is the costly one
        second, digest2 = bench(workload, 1)
        counts = [k for k, m in first["metrics"].items() if m["unit"] not in ("s", "ms")]
        differing = [k for k in counts if got[k] != values(second)[k]]
        expect(not differing, f"{workload}: counts repeat exactly {differing or ''}")
        expect(digest is not None and digest == digest2, f"{workload}: reports byte-identical")

    code = subprocess.run([sys.executable, "-m", "qch", *KNOWN_DEFECT], capture_output=True,
                          env=dict(os.environ, PYTHONPATH=str(HERE.parent / "src")),
                          timeout=60, check=False).returncode
    if code == 1:
        print(f"known defect still reproduces (exit 1): qch {' '.join(KNOWN_DEFECT)}")
    else:
        print(f"known defect gone (exit {code}): profile-sweep can draw r0 from 0.25 again")

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
