"""The host-speed reference: perfbench_calibrate run beside the window.

The benchmark runs on shared hosts whose speed drifts by a quarter or more
within minutes, and a run's wall times drift with it. A fixed program timed
at the same moments drifts the same way, so the run's wall times are scaled
by REFERENCE_S over that program's median repetition beside the window.
The reference uses none of the repository's code, so a change to the
program moves the scaled figures as much as the wall times.
"""

import subprocess

from harness import server

# Median seconds per repetition of perfbench_calibrate beside a study_mix
# window on the development host (see perfbench/README.md). A scaled figure
# is what the wall time would have been at that speed; only the ratio of
# two runs matters, so the constant only sets the scale.
REFERENCE_S = 0.0052


class Reference:
    """Context manager: `with Reference(path) as ref:` runs the reference
    for the body; afterwards `ref.seconds` is its median repetition and
    `ref.reps` how many it ran."""

    def __init__(self, path):
        self.path = path
        self.proc = None
        self.seconds = None
        self.reps = 0

    def __enter__(self):
        self.proc = subprocess.Popen(
            [self.path], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True,
            preexec_fn=server.exit_with_parent)
        return self

    def __exit__(self, exc_type, exc, tb):
        try:
            out, err = self.proc.communicate(timeout=30)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
        if exc_type is not None:
            return False
        if self.proc.returncode != 0:
            raise RuntimeError("perfbench_calibrate exited with %d: %s" %
                               (self.proc.returncode, err.strip()))
        median, reps = out.split()
        self.seconds, self.reps = float(median), int(reps)
        return False

    def scale(self):
        """Factor that turns wall times into times at the reference speed."""
        return REFERENCE_S / self.seconds
