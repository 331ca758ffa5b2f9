"""The offline path loads none of the online stack (DESIGN.md §1).

Core, amt, engine (minus :mod:`repro.engine.aio`) and durability run the
analytics jobs without an event loop, a socket or a shard.  Each case
runs in a fresh interpreter, because this test process has long since
imported everything, and reports which of the online modules the case
left loaded.
"""

from __future__ import annotations

import importlib
import json
import os
import pkgutil
import subprocess
import sys

import pytest

import repro

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: Modules an offline process must not load: the event loop and what it
#: drags in, sqlite (only its journal store needs it), and the online
#: layers themselves.
ONLINE = (
    "asyncio",
    "ssl",
    "socket",
    "subprocess",
    "sqlite3",
    "repro.engine.aio",
    "repro.gateway",
    "repro.cluster",
)

_SERVICE = """
from repro.amt.market import SimulatedMarket
from repro.amt.pool import PoolConfig, WorkerPool
from repro.system import CDAS
from repro.tsa.app import movie_query
from repro.tsa.tweets import generate_tweets


def system():
    pool = WorkerPool.from_config(PoolConfig(size=60), seed=7)
    return CDAS.with_default_jobs(SimulatedMarket(pool, seed=7), seed=7)


def run(journal=None):
    service = system().service(max_in_flight=2, journal=journal)
    service.submit(
        "twitter-sentiment", movie_query("rio", 0.9),
        tweets=generate_tweets(["rio"], per_movie=8, seed=8),
        gold_tweets=generate_tweets(["gold"], per_movie=6, seed=9),
        worker_count=3, batch_size=4,
    )
    service.run_until_idle()
    if journal is not None:
        service.close()
"""

OFFLINE_CASES = {
    "import repro": "import repro",
    "service run to idle": _SERVICE + "run()",
    "file-journaled run": _SERVICE + "run(JOURNAL)",
    "recover": _SERVICE
    + """
run(JOURNAL)
from repro.durability import recover

recover(JOURNAL, system()).run_until_idle()
""",
    "import repro.cli": "import repro.cli",
}


def _loaded_after(code: str, modules: tuple[str, ...], tmp_path) -> list[str]:
    """Run ``code`` in a fresh interpreter; the ``modules`` it left loaded."""
    script = "\n".join(
        [
            "import json, sys",
            f"JOURNAL = {str(tmp_path / 'run.journal.jsonl')!r}",
            f"ONLINE = {modules!r}",
            code,
            "print(json.dumps([m for m in ONLINE if m in sys.modules]))",
        ]
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("case", sorted(OFFLINE_CASES))
def test_the_offline_path_loads_no_online_module(case, tmp_path):
    assert _loaded_after(OFFLINE_CASES[case], ONLINE, tmp_path) == []


def test_the_gateway_loads_neither_the_router_nor_the_worker(tmp_path):
    cluster = ("repro.cluster.router", "repro.cluster.worker")
    assert _loaded_after("import repro.gateway", cluster, tmp_path) == []


def _packages() -> list[str]:
    return ["repro"] + [
        info.name
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if info.ispkg
    ]


@pytest.mark.parametrize("package", _packages())
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
