"""Starts `sdcd` for the daemon check scripts and keeps its evidence when a check fails.

The daemon's stderr goes to a file in the check's work directory, never to a pipe, so a
chatty daemon cannot block on a full pipe. When the checked block raises -- an assertion,
a timeout, anything -- the harness prints that file and the daemon's id-less `status`
health line to stderr before re-raising, and the daemon is killed on the way out.
"""

import contextlib
import os
import subprocess
import sys
import time


def _print_evidence(ctl, socket, daemon, stderr_path):
    print("--- sdcd evidence ---", file=sys.stderr)
    if daemon.poll() is None:
        try:
            status = subprocess.run([ctl, "--socket", socket, "status"],
                                    capture_output=True, text=True, timeout=5)
            print(f"last status: {(status.stdout or status.stderr).strip()}",
                  file=sys.stderr)
        except subprocess.TimeoutExpired:
            print("last status: no reply within 5 s", file=sys.stderr)
    else:
        print(f"sdcd exited with status {daemon.returncode}", file=sys.stderr)
    with open(stderr_path, errors="replace") as f:
        print(f"sdcd stderr ({stderr_path}):\n{f.read()}", file=sys.stderr)
    print("--- end sdcd evidence ---", file=sys.stderr)


@contextlib.contextmanager
def running_daemon(sdcd, ctl, workdir, lanes):
    """Yields (daemon, socket path) once `sdcd --lanes <lanes>` answers `ping`."""
    socket = os.path.join(workdir, "sdcd.sock")
    stderr_path = os.path.join(workdir, "sdcd.stderr")
    with open(stderr_path, "w") as stderr_file:
        daemon = subprocess.Popen([sdcd, "--socket", socket, "--lanes", str(lanes)],
                                  stderr=stderr_file)
    try:
        deadline = time.time() + 10
        while True:
            if os.path.exists(socket) and subprocess.run(
                    [ctl, "--socket", socket, "ping"],
                    capture_output=True).returncode == 0:
                break
            assert time.time() < deadline, "sdcd did not come up within 10 s"
            assert daemon.poll() is None, "sdcd died at startup"
            time.sleep(0.05)
        yield daemon, socket
    except BaseException:
        _print_evidence(ctl, socket, daemon, stderr_path)
        raise
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait()
