"""Builds the program under test and the benchmark's native tool from the
checkout's sources, in Release, into the build directory."""

import os
import signal
import subprocess


class BuildError(Exception):
    pass


def build_dir(root):
    """CARGO_TARGET_DIR when set (relative paths are taken from the
    checkout root), else .bench_build."""
    return os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or
                        ".bench_build")


def ensure_built(root):
    """Configures once and brings the targets up to date; returns the paths
    of (altroute_cli, perfbench_tool, perfbench_calibrate)."""
    bdir = build_dir(root)
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench", "native"),
                      "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", "altroute_cli",
                  "perfbench_tool", "perfbench_calibrate", "-j", jobs])
    with open(log_path, "ab") as log:
        for cmd in steps:
            _run_group(cmd, log, log_path)
    return (os.path.join(bdir, "altroute", "tools", "altroute_cli"),
            os.path.join(bdir, "perfbench_tool"),
            os.path.join(bdir, "perfbench_calibrate"))


def _run_group(cmd, log, log_path, timeout_s=840):
    """Runs `cmd` in its own process group, so a timeout stops the compilers
    it spawned too."""
    try:
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                                stdin=subprocess.DEVNULL,
                                start_new_session=True)
    except OSError as e:
        raise BuildError("cannot run %s: %s" % (cmd[0], e)) from e
    try:
        code = proc.wait(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise BuildError("%s timed out; see %s" % (" ".join(cmd[:2]),
                                                    log_path))
    if code != 0:
        raise BuildError("%s exited with %d; see %s" % (" ".join(cmd[:2]),
                                                         code, log_path))
