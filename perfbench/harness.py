"""Building the program and running its processes from the checkout root."""

import os
import shutil
import signal
import socket
import subprocess
import time

BUILD_DIR = os.path.join(".bench_build", "dune")
REDF = os.path.join(BUILD_DIR, "default", "bin", "redf.exe")
REPLAY = os.path.join(BUILD_DIR, "default", "perfbench", "replay", "replay.exe")

SOURCES = ["dune-project", "bin/redf.ml", "lib"]


class BenchError(Exception):
    """The benchmark cannot run here (no program sources, failed build)."""


def check_sources():
    missing = [p for p in SOURCES if not os.path.exists(p)]
    if missing:
        raise BenchError("not a checkout of the program (missing %s)" % ", ".join(missing))


def build(targets):
    """Build from source into .bench_build (dune's shared cache off, so
    nothing is written outside the checkout)."""
    os.makedirs(os.path.dirname(BUILD_DIR), exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--build-dir", os.path.abspath(BUILD_DIR), "--profile", "release",
           "--display", "quiet"] + targets
    r = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                       text=True, timeout=850)
    if r.returncode != 0:
        raise BenchError("build failed:\n" + r.stdout[-4000:])


def workdir(name):
    path = os.path.join(".bench_build", "w", "%s-%d" % (name, os.getpid()))
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def write_lines(path, lines):
    with open(path, "w") as f:
        for line in lines:
            f.write(line)
            f.write("\n")


def batch(lines, path):
    """Uncached serial reference answers: redf batch --cache-size 0 -j 1."""
    write_lines(path, lines)
    r = subprocess.run([REDF, "batch", path, "--cache-size", "0", "-j", "1"],
                       stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=170)
    if r.returncode != 0:
        raise BenchError("reference batch failed: " + r.stderr.decode()[-2000:])
    out = r.stdout.decode().split("\n")
    if out and out[-1] == "":
        out.pop()
    if len(out) != len(lines):
        raise BenchError("reference batch answered %d of %d lines" % (len(out), len(lines)))
    return out


def vm_hwm_mb(pid):
    """Peak resident set (VmHWM) of a live process, in MB."""
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError("no VmHWM for pid %d" % pid)


class Daemon:
    """A redf serve process on a Unix socket."""

    def __init__(self, args, sock_path, log_path):
        self.sock_path = sock_path
        self.log = open(log_path, "ab")
        self.t_spawn = time.perf_counter()
        self.proc = subprocess.Popen([REDF] + args + ["--socket", sock_path],
                                     stdin=subprocess.DEVNULL, stdout=self.log, stderr=self.log)

    def connect(self, timeout=60.0):
        """Connect once the socket accepts; returns the connected socket."""
        deadline = time.perf_counter() + timeout
        while True:
            if self.proc.poll() is not None:
                raise BenchError("daemon exited with %d before listening" % self.proc.returncode)
            s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                s.connect(self.sock_path)
                return s
            except OSError:
                s.close()
                if time.perf_counter() > deadline:
                    raise BenchError("daemon did not listen within %.0f s" % timeout)
                time.sleep(0.0005)

    def peak_rss_mb(self):
        return vm_hwm_mb(self.proc.pid)

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()
        return self.proc.returncode


class LineConn:
    """A blocking line-oriented client connection."""

    def __init__(self, sock):
        self.sock = sock
        self.rfile = sock.makefile("rb")

    def send(self, line):
        self.sock.sendall(line.encode() + b"\n")

    def recv(self):
        r = self.rfile.readline()
        if not r:
            raise BenchError("connection closed by the server")
        return r[:-1].decode()

    def roundtrip(self, line):
        self.send(line)
        return self.recv()

    def pipeline(self, lines):
        """Send every line, then read every response (small batches only:
        the server buffers the responses meanwhile)."""
        self.sock.sendall(("\n".join(lines) + "\n").encode())
        return [self.recv() for _ in lines]

    def close(self):
        self.rfile.close()
        self.sock.close()

