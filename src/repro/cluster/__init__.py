"""Horizontal scale-out: sharded worker pools, multi-process serving.

The layering (DESIGN.md §14), bottom-up:

* :mod:`repro.cluster.shards` — pure placement math: weighted
  rendezvous hashing for tenant → shard homes, per-shard seeds;
* :mod:`repro.cluster.rpc` — length-prefixed JSON frames over one
  socketpair per worker, made before the fork, riding the durability
  codec for rich values;
* :mod:`repro.cluster.workloads` — the closed registry of shard-local
  CDAS recipes workers build from (pool slices via
  :meth:`WorkerPool.partition`);
* :mod:`repro.cluster.worker` — one shard process: the existing async
  service behind a read-dispatch loop, pushing progress/terminal/stats;
* :mod:`repro.cluster.router` — the front door: fork, route, observe,
  rebalance, respawn, and stop a shard by closing its connection;
  duck-types ``ServiceMux`` so ``GatewayApp`` serves it unchanged.

The router's names load on first access (``from repro.cluster import
ShardRouter``), so importing :mod:`repro.cluster.rpc` alone never loads
the router or the worker.
"""

import importlib

from repro.cluster.rpc import RpcClient, RpcError, ShardDied
from repro.cluster.shards import assign_shard, shard_names, shard_seed
from repro.cluster.workloads import WORKLOADS, build_workload

#: The router's exports load on first use, so a process that only needs
#: the RPC framing (the gateway catching ``ShardDied``) never loads the
#: router or the worker it forks.
_ROUTER_EXPORTS = frozenset(
    {"RemotePlan", "RemoteQueryHandle", "RemoteShardService", "ShardRouter"}
)

__all__ = [
    "RemotePlan",
    "RemoteQueryHandle",
    "RemoteShardService",
    "ShardRouter",
    "RpcClient",
    "RpcError",
    "ShardDied",
    "assign_shard",
    "shard_names",
    "shard_seed",
    "WORKLOADS",
    "build_workload",
]


def __getattr__(name: str):
    if name not in _ROUTER_EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module("repro.cluster.router"), name)
