"""Spawn each ``python -m infobench`` argv of the JSON list in ``argv[1]``
from this small process and print, as JSON, ``[exit status, own peak RSS
in MB]`` for each step run, stopping after the first that fails.  A
child spawned straight from pytest would read pytest's high-water RSS
as its own ``ru_maxrss``.  Steps' stdout is discarded."""

import json
import os
import sys

# ru_maxrss counts KiB on Linux and bytes on macOS
UNITS_PER_MB = 1 << 20 if sys.platform == "darwin" else 1 << 10


def main(steps: list[list[str]]) -> None:
    quiet = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]
    results = []
    for argv in steps:
        pid = os.posix_spawn(sys.executable, [sys.executable, "-m", "infobench", *argv],
                             os.environ, file_actions=quiet)
        _, status, usage = os.wait4(pid, 0)
        results.append([os.waitstatus_to_exitcode(status), usage.ru_maxrss / UNITS_PER_MB])
        if results[-1][0]:
            break
    print(json.dumps(results))


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
