"""The ``http_open`` server: the benchmark's own launcher for the gateway.

Mirrors ``cdas-repro serve --http`` (one service named ``svc`` built
with ``CDAS.gateway`` over the calibrated demo system, served by
``GatewayServer``) with a file journal and the benchmark's tenants
(``TENANTS`` plus the over-budget ``BROKE``):

    python3 perfbench/server.py --seed 2012 --journal J [--spans S]

It prints ``READY <port>`` once it accepts connections and serves until
its standard input closes.  Then it stops, closes the journal, writes
its span file when ``--spans`` is given, and prints ``STATS <json>``
with its peak RSS and the CPU seconds its event-loop thread used while
serving.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import inputs  # noqa: E402
from common import peak_rss_mb  # noqa: E402

TENANTS = ("acme", "globex", "initech", "umbrella")
#: The over-budget tenant, and its cap: below any query's projection,
#: so every one of its plan-gated submits draws a 402.
BROKE = "broke"
BROKE_CAP = 0.01
SLOTS = 4
POOL_SIZE = 200


def token(tenant: str) -> str:
    return f"{tenant}-token"


async def serve(args: argparse.Namespace) -> dict:
    from repro.gateway import GatewayServer

    app = inputs.build(args.seed, POOL_SIZE).gateway(
        {token(t): t for t in (*TENANTS, BROKE)},
        name="svc",
        max_in_flight=SLOTS,
        journal=args.journal,
        journal_meta={"seed": args.seed},
    )
    service = app.mux["svc"]
    for index, tenant in enumerate(TENANTS):
        service.register_tenant(tenant, priority=1.0 + index % 2)
    service.register_tenant(BROKE, budget_cap=BROKE_CAP)
    loop = asyncio.get_running_loop()
    async with GatewayServer(app) as server:
        cpu_start = time.thread_time()
        print(f"READY {server.port}", flush=True)
        # Serve until the client closes our stdin.
        await loop.run_in_executor(None, sys.stdin.read)
        cpu = time.thread_time() - cpu_start
    await service.aclose()
    service.service.close()
    return {"cpu_s": cpu}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--journal", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args()

    tracer = None
    if args.spans:
        import layers
        from tracer import Tracer

        tracer = Tracer()
        layers.instrument(tracer)
    stats = asyncio.run(serve(args))
    if tracer is not None:
        tracer.restore()
        tracer.count("proc.cpu", cpu_s=stats["cpu_s"])
        tracer.write(Path(args.spans))
    stats["peak_rss_mb"] = peak_rss_mb()
    print(f"STATS {json.dumps(stats)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
