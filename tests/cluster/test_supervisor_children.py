"""The supervisor's children are bare forks: how each one starts, fails
and ends.

``ClusterSupervisor`` starts a shard, router or standby with
``os.fork`` and reads one JSON line from a pipe, where it once used
``multiprocessing``.  What that library did for a child is done here
by hand, so each part of it is pinned: a child that fails before it is
up says why and exits 1 with its traceback; every child is reaped
(no zombie) after ``stop`` and after ``kill_shard``; and a child's
stdin is ``/dev/null``.
"""

import contextlib
import os

import pytest

from repro.cluster.supervisor import ClusterSupervisor
from repro.service import server


def reaped(pid: int) -> bool:
    """Whether ``pid`` is no longer a child of this process to wait for:
    a live child answers ``(0, 0)`` and a zombie its status."""
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def child_pids(supervisor: ClusterSupervisor) -> list:
    state = supervisor.state()
    return [child["pid"]
            for kind in ("shards", "routers", "standbys")
            for child in state[kind]]


def test_a_child_that_fails_before_it_reports_says_why(monkeypatch,
                                                       capfd):
    """The shard's constructor raises in the child: the supervisor
    raises with that reason and the child's exit code, the traceback is
    on stderr, and the child is reaped before ``start`` returns."""
    def refuse(**_):
        raise ValueError("no pool for this shard")
    monkeypatch.setattr(server, "TerpService", refuse)
    supervisor = ClusterSupervisor(shards=1)
    with pytest.raises(RuntimeError) as raised:
        supervisor.start()
    assert str(raised.value) == (
        "shard 0 failed to start: "
        "ValueError('no pool for this shard') (exit code 1)")
    err = capfd.readouterr().err
    assert "Traceback (most recent call last)" in err
    assert "ValueError: no pool for this shard" in err
    # Nothing was started, so nothing is left: no zombie either.
    assert all(child.process is None for child in supervisor._shards)


def test_every_child_is_reaped_after_a_kill_and_after_stop(tmp_path):
    supervisor = ClusterSupervisor(shards=2, pool_dir=str(tmp_path),
                                   replicas=True)
    supervisor.start()
    try:
        first = child_pids(supervisor)
        assert len(first) == 5 and all(first)
        killed = supervisor.kill_shard(0)
        assert reaped(killed)
        assert supervisor.wait_for_shard(0)
        second = child_pids(supervisor)
        assert killed not in second
        assert not any(reaped(pid) for pid in second)
    finally:
        supervisor.stop()
    assert [pid for pid in set(first + second) if not reaped(pid)] == []


@contextlib.contextmanager
def stdin_from_a_pipe():
    """This process's fd 0 is a pipe for the duration, so a child that
    kept it would show ``pipe:[...]``, not ``/dev/null``."""
    read_end, write_end = os.pipe()
    saved = os.dup(0)
    os.dup2(read_end, 0)
    try:
        yield
    finally:
        os.dup2(saved, 0)
        for fd in (saved, read_end, write_end):
            os.close(fd)


def test_a_childs_stdin_is_dev_null():
    with stdin_from_a_pipe():
        supervisor = ClusterSupervisor(shards=2)
        supervisor.start()
    try:
        stdins = {os.readlink(f"/proc/{pid}/fd/0")
                  for pid in child_pids(supervisor)}
    finally:
        supervisor.stop()
    assert stdins == {"/dev/null"}
