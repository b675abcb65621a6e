"""Run ringfisher commands one at a time and fail if one peaks above a resident-memory bound.

    python .github/peak_rss.py BOUND_MB LABEL ARGS [LABEL ARGS ...]

ARGS is one ringfisher command line as a single shell-quoted string. This
script is a small launcher, so each child's ru_maxrss is its own and not an
inherited image. It prints one line per command, ``LABEL: peak RSS ... MB,
wall ... s``, and exits nonzero when a command fails or the largest peak is
above BOUND_MB.
"""

import os
import shlex
import subprocess
import sys
import time


def main(argv: list[str]) -> int:
    if len(argv) < 3 or len(argv) % 2 == 0:
        sys.exit(__doc__)
    bound_mb, runs = float(argv[0]), argv[1:]
    worst = 0.0
    for label, command in zip(runs[::2], runs[1::2]):
        start = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, "-m", "ringfisher", *shlex.split(command)], stdout=subprocess.DEVNULL
        )
        _, status, usage = os.wait4(child.pid, 0)
        if os.waitstatus_to_exitcode(status) != 0:
            sys.exit(f"{label} failed")
        peak_mb = usage.ru_maxrss / 1024
        worst = max(worst, peak_mb)
        print(f"{label}: peak RSS {peak_mb:.1f} MB, wall {time.perf_counter() - start:.3f} s", flush=True)
    return int(worst > bound_mb)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
