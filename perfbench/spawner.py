"""Start and time child processes on behalf of run.py, from a small process.

A child's ``ru_maxrss`` counts the memory image of the process that spawned
it, so children are spawned from this process, started with ``python -S``
and importing only builtins (about 8 MB), rather than from the harness.

Protocol, one line per child on stdin: ``OUT<TAB>ERR<TAB>ARGV...``, with
ARGV[0] an absolute executable path.  The child's stdin is /dev/null and its
stdout and stderr go to the files OUT and ERR.  One reply line per child on
stdout: ``WALL_SECONDS MAXRSS_KB EXIT_CODE``, wall time from spawn to exit.
A child still running after TIMEOUT seconds (the first argument) is killed.
"""

import os
import signal
import sys
import time


def main() -> int:
    timeout = int(sys.argv[1])
    child = 0

    def kill(signum, frame):
        if child:
            os.kill(child, signal.SIGKILL)

    signal.signal(signal.SIGALRM, kill)
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    for line in sys.stdin:
        out, err, *argv = line.rstrip("\n").split("\t")
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, out, flags, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, err, flags, 0o644),
        ]
        start = time.perf_counter()
        child = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
        signal.alarm(timeout)
        _, status, usage = os.wait4(child, 0)
        wall = time.perf_counter() - start
        child = 0
        signal.alarm(0)
        sys.stdout.write(f"{wall!r} {usage.ru_maxrss} {os.waitstatus_to_exitcode(status)}\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
