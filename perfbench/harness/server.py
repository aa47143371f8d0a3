"""Spawning and stopping `altroute_cli serve`."""

import ctypes
import json
import os
import re
import signal
import subprocess
import time

from harness import httpclient
from harness import stats

_SERVING = re.compile(r"on http://127\.0\.0\.1:(\d+)/")


class ServerError(Exception):
    pass


def exit_with_parent():
    """Runs in the child before exec: the kernel kills the server if the
    benchmark process dies first, so no server outlives a killed run."""
    pr_set_pdeathsig = 1
    ctypes.CDLL(None, use_errno=True).prctl(pr_set_pdeathsig, signal.SIGKILL)


class Server:
    """One serve process on an ephemeral port, stdout and stderr in files
    under `workdir`."""

    def __init__(self, cli, args, workdir, tag):
        self.cli = cli
        self.args = list(args)
        self.workdir = workdir
        self.tag = tag
        self.proc = None
        self.port = None
        self.counter = httpclient.ConnectionCounter()

    def start(self, timeout_s=150.0):
        """Spawns the server and waits for the first 200 from /readyz.
        Returns the seconds from spawn to that answer."""
        out_path = os.path.join(self.workdir, "%s.out" % self.tag)
        err_path = os.path.join(self.workdir, "%s.err" % self.tag)
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            begin = time.perf_counter()
            self.proc = subprocess.Popen(
                [self.cli, "serve"] + self.args + ["--port", "0"],
                stdout=out, stderr=err, stdin=subprocess.DEVNULL,
                preexec_fn=exit_with_parent)
        deadline = begin + timeout_s
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise ServerError("serve exited with %d; see %s" %
                                  (self.proc.returncode, err_path))
            if self.port is None:
                with open(out_path, "rb") as f:
                    m = _SERVING.search(f.read().decode("utf-8", "replace"))
                if m:
                    self.port = int(m.group(1))
            if self.port is not None:
                try:
                    status, _ = self.get("/readyz")
                    if status == 200:
                        return time.perf_counter() - begin
                except httpclient.HttpError:
                    pass
            time.sleep(0.0005)
        raise ServerError("serve not ready after %.0f s" % timeout_s)

    def client(self, counter=None):
        return httpclient.HttpClient(self.port, counter or self.counter)

    def get(self, target, method="GET"):
        client = self.client()
        try:
            status, _, body = client.request(method, target)
        finally:
            client.close()
        return status, body

    def get_json(self, target):
        status, body = self.get(target)
        if status != 200:
            raise ServerError("%s answered %d" % (target, status))
        return json.loads(body)

    def metrics(self):
        status, body = self.get("/metrics")
        if status != 200:
            raise ServerError("/metrics answered %d" % status)
        return stats.parse_prometheus(body.decode("utf-8"))

    def vm_hwm_mb(self):
        """Peak resident set (VmHWM) of the server process, in MiB."""
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise ServerError("no VmHWM for pid %d" % self.proc.pid)

    def stop(self):
        """SIGTERM, then SIGKILL after 10 s; always waits for the exit."""
        if self.proc is None or self.proc.poll() is not None:
            return
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
