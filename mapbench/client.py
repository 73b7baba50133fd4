"""Drives one oregami_serve daemon over its stdin/stdout pipes.

A single thread writes job lines and reads result lines through
non-blocking pipes and a selector, so the client never blocks on either
direction. Every time is taken at the client with time.perf_counter();
the daemon's own wall_ms field is never used, because it starts at
admission and so leaves out the time a job waits in the pipe and in the
daemon's input reader.
"""

import collections
import os
import selectors
import subprocess
import time

now = time.perf_counter

# A daemon that stays silent this long with work outstanding is stuck.
STALL_S = 60.0


class DaemonError(RuntimeError):
    pass


class Daemon:
    """One running oregami_serve process."""

    def __init__(self, exe, args, stderr_path):
        self.spawned = now()
        with open(stderr_path, "wb") as err:
            self.proc = subprocess.Popen([exe, *args], stdin=subprocess.PIPE,
                                         stdout=subprocess.PIPE, stderr=err)
        self._in = self.proc.stdin.fileno()
        self._out = self.proc.stdout.fileno()
        os.set_blocking(self._in, False)
        os.set_blocking(self._out, False)
        self._sel = selectors.DefaultSelector()
        self._sel.register(self._out, selectors.EVENT_READ)
        self._pending = bytearray()
        self._partial = b""
        self._writing = False
        self.eof = False
        self.rusage = None

    def send(self, line):
        self._pending += line
        self._flush()

    def _flush(self):
        if self._pending:
            try:
                n = os.write(self._in, self._pending)
                del self._pending[:n]
            except BlockingIOError:
                pass
            except BrokenPipeError as e:
                raise DaemonError("daemon closed its input") from e
        want = bool(self._pending)
        if want != self._writing:
            if want:
                self._sel.register(self._in, selectors.EVENT_WRITE)
            else:
                self._sel.unregister(self._in)
            self._writing = want

    def poll(self, timeout):
        """Result lines that arrived within `timeout` s, as (time, line)."""
        got = []
        for key, _ in self._sel.select(max(0.0, timeout)):
            if key.fd == self._in:
                self._flush()
                continue
            data = os.read(self._out, 1 << 20)
            t = now()
            if not data:
                self.eof = True
                self._sel.unregister(self._out)
                continue
            lines = (self._partial + data).split(b"\n")
            self._partial = lines.pop()
            got.extend((t, line) for line in lines if line)
        return got

    def close(self):
        """EOF on stdin, drain stdout, reap; returns the remaining lines."""
        while self._pending:
            self.poll(1.0)
        if self._writing:
            self._sel.unregister(self._in)
            self._writing = False
        self.proc.stdin.close()
        rest = []
        deadline = now() + STALL_S
        while not self.eof:
            if now() > deadline:
                raise DaemonError("daemon did not drain")
            rest.extend(self.poll(1.0))
        self.proc.stdout.close()
        _, status, self.rusage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        if self.proc.returncode != 0:
            raise DaemonError("daemon exited with code %d"
                              % self.proc.returncode)
        return rest

    def kill(self):
        if self.proc.returncode is None and self.rusage is None:
            self.proc.kill()
            self.proc.wait()


def result_id(line):
    """The id of a result line, read without parsing the JSON."""
    end = line.index(b'"', 7)
    return line[7:end].decode()


class Tally:
    """Per-request times of one phase: due, sent, answered."""

    def __init__(self):
        self.due = {}
        self.sent = {}
        self.answer = {}  # id -> (receive time, line)
        self.order = []   # ids in send order

    def record_send(self, rid, due, sent):
        self.due[rid] = due
        self.sent[rid] = sent
        self.order.append(rid)

    def record_answers(self, got):
        for t, line in got:
            self.answer[result_id(line)] = (t, line)
        return len(got)

    def lags_ms(self):
        return [(self.sent[r] - self.due[r]) * 1e3 for r in self.order]


def _check_alive(daemon, last_answer):
    """Raises when requests are outstanding but no answer can come."""
    if daemon.eof:
        raise DaemonError("daemon exited with requests outstanding")
    if now() - last_answer > STALL_S:
        raise DaemonError("no answer for %.0f s" % STALL_S)


def closed_loop(daemon, rounds, window, seconds, tally):
    """Keeps `window` requests outstanding, sending whole rounds.

    `rounds` yields lists of (id, line). The first round always runs; a
    later one starts only while fewer than `seconds` have passed, so
    every run measures whole rounds. A request is due when a slot frees;
    it is timed from its send.
    """
    queue = collections.deque()
    start = now()
    outstanding = 0
    last_answer = start
    free_since = collections.deque([start] * window)
    rounds = iter(rounds)
    first = True
    while True:
        lines = []
        while outstanding < window:
            if not queue:
                if not first and now() - start >= seconds:
                    break
                batch = next(rounds, None)
                if batch is None:
                    break
                queue.extend(batch)
                first = False
            rid, line = queue.popleft()
            tally.record_send(rid, free_since.popleft(), now())
            lines.append(line)
            outstanding += 1
        if lines:
            daemon.send(b"".join(lines))
        if outstanding == 0:
            return
        got = daemon.poll(1.0)
        if got:
            last_answer = got[-1][0]
            free_since.extend(t for t, _ in got)
            outstanding -= tally.record_answers(got)
        else:
            _check_alive(daemon, last_answer)
