"""Acceptance: SIGKILL a campaign halfway, resume, bit-identical report;
the killed server's workers exit on their own.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.campaign.runner import CampaignConfig, run_campaign
from repro.service import RetryPolicy, ServiceClient
from repro.service.server import ServiceServer

_SRC = Path(__file__).resolve().parents[2] / "src"

_CHILD = """
import sys, time
import repro.campaign.runner as runner
from repro.campaign.runner import CampaignConfig, run_campaign
from repro.service import RetryPolicy, ServiceClient
from repro.service.server import ServiceServer

# Throttle shard completion so the parent can SIGKILL mid-campaign at a
# deterministic point; the *records* are unaffected (pure functions).
_orig = runner.compute_shard
def _slow(*args, **kwargs):
    time.sleep(0.05)
    return _orig(*args, **kwargs)
runner.compute_shard = _slow

config = CampaignConfig.from_suite(
    "c17", samples=300, shard_size=5, p_stuck_on=0.01, p_stuck_off=0.05
)
with ServiceServer(("tcp", "127.0.0.1", 0), jobs=2) as server:
    _kind, host, port = server.address
    factory = lambda: ServiceClient(
        tcp=(host, port), timeout=60.0, retry=RetryPolicy(base_delay_s=0.01)
    )
    run_campaign(config, factory, checkpoint=sys.argv[1], streams=1)
print("DONE")
"""


def _children(pid: int) -> list[int]:
    """Pids whose parent is ``pid``, read from ``/proc``."""
    children = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:  # the process exited meanwhile
            continue
        if int(stat.rpartition(")")[2].split()[1]) == pid:
            children.append(int(entry.name))
    return children


def _pid_alive(pid: int) -> bool:
    """Whether ``pid`` is a live process; a zombie counts as dead."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:  # reaped, or gone
        return False
    return stat.rpartition(")")[2].split()[0] not in ("Z", "X", "x")


def _config() -> CampaignConfig:
    return CampaignConfig.from_suite(
        "c17", samples=300, shard_size=5, p_stuck_on=0.01, p_stuck_off=0.05
    )


def test_sigkill_halfway_then_resume_matches_uninterrupted(tmp_path):
    ckpt = tmp_path / "ckpt.ndjson"
    env = dict(os.environ, PYTHONPATH=str(_SRC))
    child = subprocess.Popen(
        [sys.executable, "-c", _CHILD, str(ckpt)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        # Wait for a few durably-journalled shards, then pull the plug.
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            if ckpt.exists() and ckpt.read_text().count("\n") >= 5:
                break
            time.sleep(0.01)
        else:
            pytest.fail("campaign child never journalled its first shards")
        workers = _children(child.pid)
        child.send_signal(signal.SIGKILL)
        child.wait(timeout=30)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait(timeout=30)
    assert child.returncode == -signal.SIGKILL

    # The child's workers notice they were orphaned and exit.
    assert workers, "the campaign child never started its workers"
    deadline = time.monotonic() + 10.0
    while any(map(_pid_alive, workers)) and time.monotonic() < deadline:
        time.sleep(0.05)
    orphans = [pid for pid in workers if _pid_alive(pid)]
    for pid in orphans:
        os.kill(pid, signal.SIGKILL)
    assert not orphans, f"workers {orphans} outlived their SIGKILLed server"

    with ServiceServer(("tcp", "127.0.0.1", 0), jobs=2) as server:
        _kind, host, port = server.address

        def factory() -> ServiceClient:
            return ServiceClient(
                tcp=(host, port), timeout=60.0, retry=RetryPolicy(base_delay_s=0.01)
            )

        resumed = run_campaign(_config(), factory, checkpoint=ckpt, streams=2)
        baseline = run_campaign(_config(), factory, streams=2)

    # Zero lost, zero duplicated samples: the resumed campaign's yield
    # curve is bit-identical to an uninterrupted run's.
    assert resumed.result_dict() == baseline.result_dict()
    assert resumed.samples == 300
    assert resumed.shards["total"] == 60
    assert resumed.shards["resumed"] >= 3  # the SIGKILL left real progress behind
    assert resumed.shards["resumed"] + resumed.shards["computed"] == 60
