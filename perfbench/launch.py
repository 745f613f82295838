"""Run one `idealhash` CLI call in a fresh process and time it.

The package is not installed and `python -m idealhash.cli` has no
`__main__` entry (it exits 0 with no output), so every call goes through
`python -c "from idealhash.cli import main; main()" ARGS` with `src` on
PYTHONPATH.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

LAUNCH = "from idealhash.cli import main; main()"
IMPORT_ONLY = "import idealhash.cli"
CALL_TIMEOUT_S = 150.0


def launch_argv(argv, code: str = LAUNCH) -> list[str]:
    return [sys.executable, "-c", code, *argv]


def launch_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    # calls run one at a time; without this numpy's OpenBLAS starts a thread
    # per core at import, and startup time then follows the other core's load
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    env.pop("PYTHONSTARTUP", None)
    # a leftover IDEALHASH_* override would change every default the calls rely on
    for key in [k for k in env if k.startswith("IDEALHASH_")]:
        del env[key]
    return env


@dataclass(frozen=True)
class Outcome:
    returncode: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    maxrss_kb: int


def run_process(cmd: list[str], env: dict[str, str], cwd: Path, scratch: Path) -> Outcome:
    """Spawn `cmd`, wait for it with `os.wait4`, and return its output and rusage.

    Output goes to files under `scratch` so the parent never has to drain
    pipes while it waits; wall time runs from spawn to reap.
    """
    out_path, err_path = scratch / "call.out", scratch / "call.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=cwd)
        killer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here; Popen must not wait again
    return Outcome(
        returncode=proc.returncode,
        stdout=out_path.read_bytes(),
        stderr=err_path.read_bytes(),
        wall_s=wall,
        maxrss_kb=usage.ru_maxrss,
    )
