"""Tests of the benchmark itself; run with `python3 -m pytest bench`."""

import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _run(cwd, *args):
    """Run the benchmark in a session of its own; the result carries the
    session id as ``pid``."""
    with subprocess.Popen([sys.executable, "bench/run.py", *args], cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, start_new_session=True) as proc:
        stdout, stderr = proc.communicate(timeout=300)
    result = subprocess.CompletedProcess(proc.args, proc.returncode,
                                         stdout, stderr)
    result.pid = proc.pid
    return result


def _session_members(sid):
    """Processes still in session ``sid`` (Linux /proc), zombies too."""
    members = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[3]) == sid:
            members.append(stat.parent.name)
    return members


def test_smoke_runs_every_workload_and_prints_every_metric():
    # --smoke checks each metric BENCHMARK.json names against the output,
    # with its unit; seed 1 exercises the letter renaming.
    proc = _run(ROOT, "--smoke", "--seed", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "smoke ok"
    # Every process the run started (crossval pools, traced and untraced)
    # has ended with it.
    if Path("/proc/self/stat").exists():
        assert _session_members(proc.pid) == []


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = _run(tmp_path, "--workload", "tag-heldout", "--seconds", "1")
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        assert not line.startswith("{"), line
