#!/usr/bin/env python3
"""Self-test for tools/prof: pc_sampler.c records PCs, symbolize.py names them.

Builds the sampler and a small position-independent program that spends its
CPU time in one function, spin_here, runs the program under LD_PRELOAD for
half a second of CPU time, and checks that symbolize.py charges most of the
samples to spin_here.  Runs under ctest as `pc_sampler_selftest`, and exits
77 (skipped) where there is no C compiler, nm or readelf.
"""

import glob
import os
import shutil
import subprocess
import sys
import tempfile

REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SAMPLER = os.path.join(REPO_ROOT, "tools", "prof", "pc_sampler.c")
SYMBOLIZE = os.path.join(REPO_ROOT, "tools", "prof", "symbolize.py")
SKIP = 77

BUSY_PROGRAM = r"""
#include <time.h>
volatile unsigned long sink;
__attribute__((noinline)) void spin_here(void) {
  for (unsigned long i = 0; i < 1000000; ++i) sink += i * i;
}
int main(void) {
  const clock_t end = clock() + CLOCKS_PER_SEC / 2;
  while (clock() < end) spin_here();
  return 0;
}
"""


def main():
    cc = shutil.which("cc") or shutil.which("gcc")
    if cc is None or not shutil.which("nm") or not shutil.which("readelf"):
        print("skipped: needs a C compiler, nm and readelf")
        return SKIP
    with tempfile.TemporaryDirectory() as tmp:
        sampler = os.path.join(tmp, "pc_sampler.so")
        busy_src = os.path.join(tmp, "busy.c")
        busy = os.path.join(tmp, "busy")
        with open(busy_src, "w") as f:
            f.write(BUSY_PROGRAM)
        subprocess.run([cc, "-O2", "-Wall", "-Wextra", "-Werror", "-shared",
                        "-fPIC", "-o", sampler, SAMPLER], check=True)
        subprocess.run([cc, "-O1", "-fPIE", "-pie", "-o", busy, busy_src],
                       check=True)

        env = dict(os.environ, LD_PRELOAD=sampler,
                   PC_SAMPLER_OUT=os.path.join(tmp, "prof"))
        subprocess.run([busy], env=env, check=True)
        outputs = glob.glob(os.path.join(tmp, "prof.*.pcs"))
        if len(outputs) != 1 or not os.path.isfile(
                outputs[0][:-len(".pcs")] + ".maps"):
            print(f"FAIL: expected one .pcs/.maps pair, got {outputs}")
            return 1

        prefix = outputs[0][:-len(".pcs")]
        report = subprocess.run(
            [sys.executable, SYMBOLIZE, prefix, "--top", "3"],
            check=True, capture_output=True, text=True).stdout
        print(report)
        lines = report.splitlines()
        total = int(lines[0].split()[0])
        top_samples, top_share = lines[1].split()[:2]
        # 0.5 s of CPU at the timer's tick (100-1000 Hz) is 50-500 samples.
        if total < 20:
            print(f"FAIL: only {total} samples")
            return 1
        if "spin_here" not in lines[1] or float(top_share.rstrip("%")) < 50:
            print("FAIL: spin_here is not the top row with most samples")
            return 1
        print(f"OK: spin_here has {top_samples} of {total} samples")
    return 0


if __name__ == "__main__":
    sys.exit(main())
