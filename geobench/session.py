"""One local Ray session per benchmark run, and time limits on ops.

The session lives in its own temp directory and is torn down by
shutting Ray down and then ending any process this run started that
is still alive. Only descendants of this process are touched; no
other Ray session on the machine is.
"""

from __future__ import annotations

import os
import shutil
import signal
import tempfile
import threading
import time

class OpTimeout(Exception):
    pass


def call_with_limit(fn, limit_s: float):
    """Run ``fn()`` in a daemon thread and wait at most ``limit_s``.

    A stalled op raises OpTimeout here instead of hanging the run; its
    thread is abandoned and the session must be torn down after it."""
    box: dict = {}

    def target():
        try:
            box["out"] = fn()
        except BaseException as e:  # noqa: BLE001 - handed to the caller
            box["err"] = e

    t = threading.Thread(target=target, daemon=True)
    t.start()
    t.join(limit_s)
    if t.is_alive():
        raise OpTimeout(f"op exceeded {limit_s:.0f} s")
    if "err" in box:
        raise box["err"]
    return box["out"]


def _descendants(root: int) -> list[int]:
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        ppid = int(stat[stat.rindex(")") + 2 :].split()[1])
        children.setdefault(ppid, []).append(int(entry))
    out, todo = [], [root]
    while todo:
        for c in children.get(todo.pop(), []):
            out.append(c)
            todo.append(c)
    return out


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().split(")")[-1].split()[0] != "Z"
    except OSError:
        return False


def reap(pids: list[int], grace_s: float = 5.0) -> None:
    """SIGTERM, then SIGKILL, the given pids; wait until each is gone."""
    for sig, wait in ((signal.SIGTERM, grace_s), (signal.SIGKILL, grace_s)):
        live = [p for p in pids if _alive(p)]
        if not live:
            break
        for p in live:
            try:
                os.kill(p, sig)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + wait
        while time.monotonic() < deadline and any(_alive(p) for p in live):
            time.sleep(0.05)
    for p in pids:
        try:
            os.waitpid(p, os.WNOHANG)
        except ChildProcessError:
            pass


def nproc() -> int:
    """CPUs this process may use, as GNU ``nproc`` counts them: the
    affinity mask, overridden by OMP_NUM_THREADS when that is set."""
    n = len(os.sched_getaffinity(0))
    omp = os.environ.get("OMP_NUM_THREADS", "").split(",")[0]
    return int(omp) if omp.isdigit() and int(omp) > 0 else n


class RaySession:
    """``ray.init`` with ``num_cpus`` = nproc in a private temp dir.

    ``pin`` restricts this process, and so every process it starts
    (Ray's too), to nproc CPUs of its affinity mask: the CPU count Ray
    is given is then the CPU count the session gets. Left to spread
    over more CPUs, Ray's processes made run-to-run spreads of a
    benchmark run two to three times wider."""

    def __init__(self, work_dir: str, worker_env: dict | None = None):
        self.work_dir = work_dir
        self.worker_env = worker_env or {}
        self.num_cpus = nproc()
        self.temp_dir = None
        self.init_s = None

    def pin(self) -> None:
        # The last CPUs of the mask; the first ones tend to take
        # device interrupts.
        os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[-self.num_cpus :])

    def start(self) -> "RaySession":
        import ray
        import ray.data

        # The session stays inside the checkout unless the checkout's
        # path is too long for Ray's socket paths: at most 107 bytes,
        # of which Ray's "/session_.../sockets/plasma_store" takes 64.
        base = os.path.join(self.work_dir, "ray")
        short = len(base) + len("/geobench-12345678") <= 107 - 64
        if short:
            os.makedirs(base, exist_ok=True)
        self.temp_dir = tempfile.mkdtemp(prefix="geobench-", dir=base if short else None)
        # Workers inherit this process's environment through the raylet.
        os.environ.update(self.worker_env)
        t0 = time.perf_counter()
        ray.init(
            num_cpus=self.num_cpus,
            include_dashboard=False,
            log_to_driver=False,
            logging_level="ERROR",
            object_store_memory=256 * 1024 * 1024,
            _system_config={"preallocate_plasma_memory": True},
            _temp_dir=self.temp_dir,
        )
        self.init_s = time.perf_counter() - t0
        ctx = ray.data.DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.print_on_execution_start = False
        return self

    def close(self, limit_s: float = 15.0) -> None:
        import ray

        mine = _descendants(os.getpid())
        try:
            call_with_limit(ray.shutdown, limit_s)
        except OpTimeout:
            pass
        reap(mine + _descendants(os.getpid()))
        if self.temp_dir:
            shutil.rmtree(self.temp_dir, ignore_errors=True)
