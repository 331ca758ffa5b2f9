"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list``
    Show every regenerable experiment (paper tables/figures + ablations).
``run <id> [--seed N]``
    Regenerate one experiment and print its rows.
``report [--seed N]``
    Print the full paper-vs-measured report (EXPERIMENTS.md content).
``plan --accuracy C --budget B --mu MU --rate K --window W``
    Cost/accuracy planning for a streaming query (§3.1 economics).
``serve [--slots N] [--seed N] [--progress-every E] [--asyncio] [--pre-admit]
[--journal PATH]``
    Drive mixed TSA + IT queries from two tenants through one long-lived
    scheduler service, printing per-handle progress lines (DESIGN.md §7).
    With ``--asyncio`` the same workload runs through a
    :class:`~repro.engine.aio.ServiceMux` — one async service per tenant
    group, multiplexed on one event loop, progress streamed from
    ``handle.updates()`` (DESIGN.md §8).  With ``--pre-admit`` each query
    takes the plan-first lifecycle: projected into a ``QueryPlan``,
    reserved at admission, then ``submit(plan=...)`` (DESIGN.md §10).
    With ``--journal PATH`` every action and progress mark is written to
    a crash-recoverable write-ahead journal (DESIGN.md §12).
``recover JOURNAL``
    Rebuild the ``serve`` demo service from its journal: re-execute the
    journaled run (from the newest snapshot when one exists), verify it
    record by record, resume whatever was interrupted, and print the
    recovered outcomes plus the replay counters (DESIGN.md §12).
``explain [--seed N] [--tenant-budget CAP]``
    Print the demo queries' EXPLAIN-style plans (workers per item,
    expected accuracy, projected HITs and spend) plus the admission
    preview against the tenants' remaining budget — REJECT decisions
    carry the counter-offer.  Pure: nothing is submitted or published.
``record --out TRACE [--scenario S] [--seed N] [--slow DELAY]``
    Run a named scenario against a fresh simulated market (optionally
    slowed to exercise wall-clock waiting) while recording every market
    interaction to a versioned JSONL trace (DESIGN.md §9); prints the
    trace fingerprint and the pinned outcome digest.
``replay TRACE [--time-scale S]``
    Replay a recorded trace through a fresh engine and verify the run
    reproduces the recording bit for bit — exits non-zero with the
    structured divergence when it does not.  ``--time-scale`` stretches
    the recorded arrival timestamps (0 compresses all waiting away,
    1 reproduces the recording's pacing).
``lint [PATHS] [--root DIR]``
    Run the cdas-lint invariant checker (DESIGN.md §15): determinism in
    the sans-IO core and async purity.  Exits 1 on any finding, 0 when
    the tree is clean, 2 on a missing path.  Same module as
    ``python -m repro.analysis``.
"""

from __future__ import annotations

import argparse
from collections.abc import Sequence

from repro.amt.pricing import PriceSchedule
from repro.core.budget import plan_query
from repro.experiments.base import DEFAULT_SEED
from repro.util.records import digest

__all__ = ["main", "experiment_registry"]


def experiment_registry():
    """Paper experiments plus the ablation studies."""
    from repro.experiments import all_experiments
    from repro.experiments.ablations import (
        run_aggregator_comparison,
        run_colluder_ablation,
        run_cross_job_ablation,
        run_domain_pruning_ablation,
        run_spammer_ablation,
    )
    from repro.experiments.latency_study import run_latency_study

    registry = dict(all_experiments())
    registry.update(
        {
            "ablation-spammers": run_spammer_ablation,
            "ablation-colluders": run_colluder_ablation,
            "ablation-domain-pruning": run_domain_pruning_ablation,
            "ablation-aggregators": run_aggregator_comparison,
            "ablation-cross-job": run_cross_job_ablation,
            "latency-study": run_latency_study,
        }
    )
    return registry


def _cmd_list(_args: argparse.Namespace) -> int:
    for experiment_id in experiment_registry():
        print(experiment_id)
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    registry = experiment_registry()
    if args.experiment not in registry:
        print(f"unknown experiment {args.experiment!r}; try: python -m repro list")
        return 2
    result = registry[args.experiment](args.seed)
    if args.csv:
        print(result.to_csv(), end="")
    else:
        print(result.render())
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.report import build_report

    print(build_report(args.seed))
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    schedule = PriceSchedule(worker_reward=args.reward, platform_fee=args.fee)
    plan = plan_query(
        required_accuracy=args.accuracy,
        budget=args.budget,
        schedule=schedule,
        mean_accuracy=args.mu,
        items_per_unit=args.rate,
        window=args.window,
    )
    print(f"workers per item   : {plan.workers_per_item}")
    print(f"expected accuracy  : {plan.expected_accuracy:.4f}")
    print(f"projected cost     : ${plan.projected_cost:.2f}")
    print(f"limited by         : {plan.limited_by}")
    return 0


def _positive_int(value: str) -> int:
    parsed = int(value)
    if parsed <= 0:
        raise argparse.ArgumentTypeError(f"must be ≥ 1, got {value}")
    return parsed


def _http_addr(value: str) -> tuple[str, int]:
    """Parse ``HOST:PORT`` (``:8080`` → 127.0.0.1:8080; port 0 = ephemeral)."""
    host, sep, port = value.rpartition(":")
    if not sep:
        raise argparse.ArgumentTypeError(f"expected HOST:PORT, got {value!r}")
    try:
        port_num = int(port)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad port in {value!r}") from None
    if not 0 <= port_num <= 65535:
        raise argparse.ArgumentTypeError(f"port out of range in {value!r}")
    return host or "127.0.0.1", port_num


def _progress_line(handle, progress=None) -> str:
    if progress is None:
        progress = handle.progress()
    estimate = (
        "  n/a"
        if progress.accuracy_estimate is None
        else f"{progress.accuracy_estimate:5.2f}"
    )
    return (
        f"  [{handle.tenant:<6}] {handle.query.subject:<8} "
        f"{progress.state.value:<9} answered {progress.items_answered:3d}  "
        f"hits {progress.hits_completed}+{progress.hits_in_flight}  "
        f"est {estimate}  spend ${progress.spend:.2f}"
    )


def _serve_workload(seed: int):
    """Build the mixed TSA + IT demo workload the serve paths share."""
    from repro.amt.market import SimulatedMarket
    from repro.amt.pool import PoolConfig, WorkerPool
    from repro.it.images import generate_images
    from repro.system import CDAS
    from repro.tsa.tweets import generate_tweets, tweet_to_question

    pool = WorkerPool.from_config(PoolConfig(size=200), seed=seed)
    cdas = CDAS.with_default_jobs(SimulatedMarket(pool, seed=seed), seed=seed)
    gold = generate_tweets(["gold-movie"], per_movie=12, seed=seed + 1)
    cdas.calibrate(
        [tweet_to_question(t) for t in gold], workers_per_hit=10, hits=1
    )
    tweets = generate_tweets(["rio", "solaris"], per_movie=18, seed=seed + 2)
    images = generate_images(per_subject=1, seed=seed + 3)[:3]
    gold_images = generate_images(per_subject=1, seed=seed + 4)
    return cdas, tweets, gold, images, gold_images


def _serve_requests(tweets, gold, images, gold_images):
    """The demo submissions the serve/explain paths share:
    ``(tenant, job, query, inputs)``."""
    from repro.tsa.app import movie_query

    tsa_inputs = dict(
        tweets=tweets, gold_tweets=gold, worker_count=5, batch_size=6
    )
    return [
        ("acme", "twitter-sentiment", movie_query("rio", 0.9), tsa_inputs),
        ("globex", "twitter-sentiment", movie_query("solaris", 0.9), tsa_inputs),
        (
            "globex",
            "image-tagging",
            movie_query("images", 0.9),
            dict(images=images, gold_images=gold_images, worker_count=5),
        ),
    ]


def _plan_line(plan) -> str:
    return (
        f"  plan [{plan.tenant:<6}] {plan.query.subject:<8} "
        f"{plan.projected_hits} HITs  ${plan.projected_cost:.2f} projected  "
        f"reserves ${plan.upfront_reservation:.2f}"
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    """Mixed multi-tenant workload on one scheduler service (DESIGN.md §7)."""
    import asyncio

    if args.processes > 1:
        # The multi-process path spawns shard workers that each build
        # their own CDAS (repro.cluster.workloads); nothing to build here.
        if args.http is None:
            print("--processes N needs --http (shards serve the gateway)")
            return 2
        if args.use_asyncio:
            print("--http already runs on asyncio; drop --asyncio")
            return 2
        try:
            return asyncio.run(_serve_http_cluster(args))
        except KeyboardInterrupt:
            return 0
    cdas, tweets, gold, images, gold_images = _serve_workload(args.seed)
    if args.http is not None:
        if args.use_asyncio:
            print("--http already runs on asyncio; drop --asyncio")
            return 2
        try:
            return asyncio.run(
                _serve_http(cdas, tweets, gold, images, gold_images, args)
            )
        except KeyboardInterrupt:
            return 0
    if args.use_asyncio:
        if args.journal is not None:
            print("--journal drives one durable service; drop --asyncio "
                  "(the mux runs two services, which would need two journals)")
            return 2
        return asyncio.run(
            _serve_asyncio(cdas, tweets, gold, images, gold_images, args)
        )

    service = cdas.service(max_in_flight=args.slots, journal=args.journal)
    service.register_tenant("acme", priority=2.0)
    service.register_tenant("globex", priority=1.0)
    requests = _serve_requests(tweets, gold, images, gold_images)
    if args.pre_admit:
        # Plan-first lifecycle: project, reserve, then execute (§10).
        plans = [
            service.plan(job, query, tenant=tenant, **inputs)
            for tenant, job, query, inputs in requests
        ]
        for plan in plans:
            print(_plan_line(plan))
        handles = [service.submit(plan=plan) for plan in plans]
    else:
        handles = [
            service.submit(job, query, tenant=tenant, **inputs)
            for tenant, job, query, inputs in requests
        ]
    admission = (
        "plan-first reservations" if args.pre_admit else "weighted-priority admission"
    )
    print(
        f"serving {len(handles)} queries from 2 tenants "
        f"({args.slots} publish slots, {admission})"
    )
    events = 0
    while service.step():
        events += 1
        if events % args.progress_every == 0:
            # Flushed eagerly: `serve` is watched through pipes (tee, CI
            # logs, a crashed run's last output) where block buffering
            # would hold the lines that matter most.
            print(f"-- after {events} submissions --", flush=True)
            for handle in handles:
                print(_progress_line(handle), flush=True)
    print("-- service idle --")
    for handle in handles:
        print(_progress_line(handle), flush=True)
    print(
        f"total spend ${cdas.total_cost:.2f} "
        f"(acme ${service.tenant_spend('acme'):.2f}, "
        f"globex ${service.tenant_spend('globex'):.2f})"
    )
    if args.journal is not None:
        from repro.durability import outcome_digest

        service.flush_journal()
        print(
            f"journal {args.journal}: {service.journal_offset} records, "
            f"outcome digest {outcome_digest(service)}"
        )
        service.close()
    return 0


async def _serve_asyncio(cdas, tweets, gold, images, gold_images, args) -> int:
    """The same workload through a ServiceMux: one async service per
    tenant group on one event loop, progress streamed from updates()."""
    import asyncio

    from repro.engine.aio import ServiceMux

    mux = ServiceMux()
    acme = mux.add(
        "acme", cdas.async_service(max_in_flight=args.slots, name="acme")
    )
    globex = mux.add(
        "globex", cdas.async_service(max_in_flight=args.slots, name="globex")
    )
    acme.register_tenant("acme", priority=2.0)
    globex.register_tenant("globex", priority=1.0)
    requests = _serve_requests(tweets, gold, images, gold_images)
    handles = []
    for tenant, job, query, inputs in requests:
        if args.pre_admit:
            plan = mux.plan(tenant, job, query, tenant=tenant, **inputs)
            print(_plan_line(plan))
            handles.append(mux.submit(tenant, plan=plan))
        else:
            handles.append(mux.submit(tenant, job, query, tenant=tenant, **inputs))
    print(
        f"serving {len(handles)} queries from 2 tenants on one event loop "
        f"(ServiceMux: 2 services, {args.slots} publish slots each)"
    )

    async def watch(handle) -> None:
        updates = 0
        async for snapshot in handle.updates():
            updates += 1
            if updates % args.progress_every == 0 or handle.done:
                print(_progress_line(handle, snapshot), flush=True)

    async with mux:
        watchers = [asyncio.create_task(watch(h)) for h in handles]
        await mux.gather(*handles)
        await asyncio.gather(*watchers)
    print("-- mux idle --")
    for handle in handles:
        print(_progress_line(handle))
    print(
        f"total spend ${cdas.total_cost:.2f} "
        f"(acme ${acme.tenant_spend('acme'):.2f}, "
        f"globex ${globex.tenant_spend('globex'):.2f})"
    )
    return 0


#: Demo bearer tokens the HTTP gateway accepts (token → tenant).
GATEWAY_TOKENS = {"acme-token": "acme", "globex-token": "globex"}


def _journal_has_records(path) -> bool:
    """Does a serve journal already hold data worth recovering?"""
    import os

    return os.path.exists(str(path)) and os.path.getsize(str(path)) > 0


async def _serve_http(cdas, tweets, gold, images, gold_images, args) -> int:
    """Stand the demo workload up behind the HTTP gateway (DESIGN.md §13).

    One journaled-or-not scheduler service named ``svc``, bearer tokens
    for the two demo tenants, and the demo corpora registered as named
    input presets so `curl`-sized request bodies can submit real jobs.
    With ``--journal``, an existing non-empty journal is *recovered*
    instead of truncated: every query id the previous process
    acknowledged resolves again, which is how a killed gateway restarts.
    """
    import asyncio

    from repro.gateway import GatewayServer

    host, port = args.http
    presets = {
        "demo-tsa": dict(
            tweets=tweets, gold_tweets=gold, worker_count=5, batch_size=6
        ),
        "demo-it": dict(
            images=images, gold_images=gold_images, worker_count=5
        ),
    }
    resume = args.journal is not None and _journal_has_records(args.journal)
    app = cdas.gateway(
        GATEWAY_TOKENS,
        name="svc",
        presets=presets,
        max_in_flight=args.slots,
        journal=args.journal,
        journal_meta={"seed": args.seed},
        resume=resume,
    )
    service = app.mux["svc"]
    if resume:
        print(
            f"recovered {len(service.handles)} queries from journal "
            f"{args.journal}",
            flush=True,
        )
    else:
        # Tenant registrations are journaled, so the resume path gets
        # them back from the replay rather than re-registering.
        service.register_tenant(
            "acme", priority=2.0, budget_cap=args.tenant_budget
        )
        service.register_tenant(
            "globex", priority=1.0, budget_cap=args.tenant_budget
        )
    async with GatewayServer(app, host=host, port=port) as server:
        # The smoke tests parse this line for the bound (ephemeral) port.
        print(f"gateway listening on {server.url}", flush=True)
        print(
            "tenants: acme (acme-token), globex (globex-token); "
            "presets: demo-tsa, demo-it",
            flush=True,
        )
        try:
            await server.serve_forever()
        except asyncio.CancelledError:
            pass
    return 0


async def _serve_http_cluster(args: argparse.Namespace) -> int:
    """Multi-process serving: N shard workers behind one gateway.

    ``cdas-repro serve --http HOST:PORT --processes N`` spawns one
    worker process per shard (each building the same demo workload over
    its slice of the worker pool — DESIGN.md §14), routes tenants to
    shards by weighted rendezvous hashing, and serves the *same* HTTP
    surface as the single-process path.  With ``--journal BASE`` each
    shard writes ``BASE.<shard>``; a killed worker is respawned on its
    own journal and acknowledged query ids survive.
    """
    import asyncio

    from repro.cluster import ShardRouter
    from repro.gateway import GatewayServer
    from repro.gateway.app import GatewayApp
    from repro.gateway.auth import TokenAuth
    from repro.it.images import generate_images
    from repro.tsa.tweets import generate_tweets

    host, port = args.http
    seed = args.seed
    # The same demo corpora _serve_workload builds, minus the CDAS (each
    # shard worker builds and calibrates its own).
    gold = generate_tweets(["gold-movie"], per_movie=12, seed=seed + 1)
    tweets = generate_tweets(["rio", "solaris"], per_movie=18, seed=seed + 2)
    images = generate_images(per_subject=1, seed=seed + 3)[:3]
    gold_images = generate_images(per_subject=1, seed=seed + 4)
    presets = {
        "demo-tsa": dict(
            tweets=tweets, gold_tweets=gold, worker_count=5, batch_size=6
        ),
        "demo-it": dict(
            images=images, gold_images=gold_images, worker_count=5
        ),
    }
    router = ShardRouter(
        args.processes,
        workload="demo",
        seed=seed,
        journal=args.journal,
        max_in_flight=args.slots,
    )
    async with router:
        app = GatewayApp(router, TokenAuth(GATEWAY_TOKENS), presets=presets)
        if router.recovered_queries:
            print(
                f"recovered {router.recovered_queries} queries from "
                f"journals {args.journal}.*",
                flush=True,
            )
        # Worker-side registration is idempotent, so registering after a
        # journal recovery is safe (unlike the single-process resume).
        await router.register_tenant(
            "acme", priority=2.0, budget_cap=args.tenant_budget
        )
        await router.register_tenant(
            "globex", priority=1.0, budget_cap=args.tenant_budget
        )
        async with GatewayServer(app, host=host, port=port) as server:
            # The smoke tests parse this line for the bound port.
            print(f"gateway listening on {server.url}", flush=True)
            print(
                f"shards: {', '.join(router.shard_order)}; "
                "tenants: acme (acme-token), globex (globex-token); "
                "presets: demo-tsa, demo-it",
                flush=True,
            )
            try:
                await server.serve_forever()
            except asyncio.CancelledError:
                pass
    return 0


def _cmd_recover(args: argparse.Namespace) -> int:
    """Rebuild the `serve` demo service from its journal (DESIGN.md §12).

    The journal header pins the seed and service shape; the workload
    factory here must match the one that wrote the journal (`serve`'s).
    Recovery re-executes the run — from the newest valid snapshot when
    one exists — verifying every regenerated record against the journal,
    then resumes and finishes whatever the crash interrupted.
    """
    from repro.durability import RecoveryError, open_store, outcome_digest
    from repro.durability.journal import check_header

    store = open_store(args.journal)
    records = store.read_records()
    if not records:
        print(f"journal {args.journal} is empty; nothing to recover")
        return 2
    header = check_header(records[0], f"{args.journal}: ")
    seed = header.get("seed")
    if seed is None:
        seed = args.seed
    cdas, *_ = _serve_workload(seed)
    try:
        service = cdas.recover(store, use_snapshot=not args.no_snapshot)
    except RecoveryError as exc:
        print(f"RECOVERY FAILED: {exc}")
        return 1
    print(
        f"recovered {len(service.handles)} queries from "
        f"{service.journal_offset} journal records "
        f"(re-executed {service.replayed_records} records / "
        f"{service.replayed_events} market events)"
    )
    service.run_until_idle()
    for handle in service.handles:
        print(_progress_line(handle), flush=True)
    print(f"outcome digest     : {outcome_digest(service)}")
    service.close()
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    """EXPLAIN the demo queries: plan tables + admission previews (§10).

    Plans each of the mixed TSA/IT demo queries against the service —
    workers per item, expected accuracy, projected spend vs. the tenants'
    remaining budget — and prints the admission decision (with the
    counter-offer on rejections).  Nothing is submitted or published:
    planning is pure.
    """
    cdas, tweets, gold, images, gold_images = _serve_workload(args.seed)
    service = cdas.service(max_in_flight=args.slots)
    service.register_tenant(
        "acme", priority=2.0, budget_cap=args.tenant_budget
    )
    service.register_tenant(
        "globex", priority=1.0, budget_cap=args.tenant_budget
    )
    published_before = cdas.market.published_hits
    for tenant, job, query, inputs in _serve_requests(
        tweets, gold, images, gold_images
    ):
        plan = service.plan(job, query, tenant=tenant, **inputs)
        print(plan.describe())
        decision = service.preadmit(plan)
        if decision.admitted:
            limit = (
                "uncapped budget"
                if decision.limit is None
                else f"remaining ${decision.limit:.4f}"
            )
            print(
                f"  admission          : ADMIT "
                f"(${decision.upfront:.4f} within {limit})"
            )
        else:
            print(f"  admission          : REJECT ({decision.reason})")
            print(f"  {decision.counter_offer.describe()}")
        print()
    if cdas.market.published_hits != published_before:
        raise RuntimeError(
            "explain published HITs — a projector touched the market"
        )
    print("planning is pure: nothing was submitted, reserved or published")
    return 0


def _cmd_record(args: argparse.Namespace) -> int:
    from repro.scenarios import record_scenario

    report = record_scenario(
        args.scenario, args.out, seed=args.seed, delay=args.slow
    )
    ledger = report.outcome["ledger"]
    print(f"recorded scenario  : {report.scenario} (seed {report.seed})")
    print(f"trace file         : {report.trace_path}")
    print(f"trace fingerprint  : {report.fingerprint}")
    print(f"outcome digest     : {digest(report.outcome)[:16]}")
    print(
        f"market activity    : {ledger['charged_assignments']} assignments "
        f"charged, {ledger['cancelled_assignments']} cancelled "
        f"(${ledger['total_cost']:.2f} spent, ${ledger['avoided_cost']:.2f} avoided)"
    )
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    from repro.amt.trace import TraceDivergence, TraceError
    from repro.scenarios import replay_scenario

    try:
        report = replay_scenario(args.trace, time_scale=args.time_scale)
    except TraceError as exc:
        print(f"trace unreadable: {exc}")
        return 2
    except TraceDivergence as exc:
        print(f"REPLAY DIVERGED: {exc}")
        return 1
    print(f"replayed scenario  : {report.scenario} (seed {report.seed})")
    print(f"trace fingerprint  : {report.fingerprint}")
    print(f"outcome digest     : {digest(report.outcome)[:16]}")
    print("replay reproduced the recording bit for bit")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    import cProfile
    import io
    import pstats

    from repro.scenarios import build_market, run_scenario

    market = build_market(args.seed)
    profiler = cProfile.Profile()
    profiler.enable()
    outcome = run_scenario(args.scenario, market, args.seed)
    profiler.disable()

    print(f"profiled scenario  : {args.scenario} (seed {args.seed})")
    print(f"outcome digest     : {digest(outcome)[:16]}")
    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stats.sort_stats(args.sort)
    stats.print_stats(args.top)
    print(f"cProfile top {args.top} by {args.sort}:")
    print(stream.getvalue())
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import run as run_lint_cli

    return run_lint_cli(args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CDAS reproduction: regenerate the paper's experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list regenerable experiments").set_defaults(
        func=_cmd_list
    )

    run_p = sub.add_parser("run", help="regenerate one experiment")
    run_p.add_argument("experiment", help="experiment id, e.g. fig7")
    run_p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    run_p.add_argument(
        "--csv", action="store_true", help="emit the rows as CSV instead of a table"
    )
    run_p.set_defaults(func=_cmd_run)

    report_p = sub.add_parser("report", help="print the full report")
    report_p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    report_p.set_defaults(func=_cmd_report)

    plan_p = sub.add_parser("plan", help="cost/accuracy planning (§3.1)")
    plan_p.add_argument("--accuracy", type=float, required=True, help="required C")
    plan_p.add_argument("--budget", type=float, required=True, help="dollars")
    plan_p.add_argument("--mu", type=float, required=True, help="mean worker accuracy")
    plan_p.add_argument("--rate", type=int, required=True, help="items per time unit K")
    plan_p.add_argument("--window", type=int, required=True, help="time units w")
    plan_p.add_argument("--reward", type=float, default=0.01, help="m_c per assignment")
    plan_p.add_argument("--fee", type=float, default=0.005, help="m_s per assignment")
    plan_p.set_defaults(func=_cmd_plan)

    serve_p = sub.add_parser(
        "serve",
        help="run mixed TSA+IT queries through one scheduler service",
    )
    serve_p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    serve_p.add_argument(
        "--slots",
        type=_positive_int,
        default=4,
        help="max_in_flight publish slots",
    )
    serve_p.add_argument(
        "--progress-every",
        type=_positive_int,
        default=10,
        help="print per-handle progress every N submissions",
    )
    serve_p.add_argument(
        "--asyncio",
        dest="use_asyncio",
        action="store_true",
        help="run through a ServiceMux on one asyncio event loop "
        "(one async service per tenant group, progress via updates())",
    )
    serve_p.add_argument(
        "--pre-admit",
        dest="pre_admit",
        action="store_true",
        help="plan-first lifecycle: project each query into a QueryPlan, "
        "reserve its cost at admission, then submit(plan=...)",
    )
    serve_p.add_argument(
        "--journal",
        default=None,
        metavar="PATH",
        help="write-ahead journal for the service (``.sqlite``/``.db`` "
        "suffixes select the sqlite store); a crashed run resumes with "
        "`python -m repro recover PATH`",
    )
    serve_p.add_argument(
        "--http",
        type=_http_addr,
        default=None,
        metavar="HOST:PORT",
        help="serve the workload behind the HTTP gateway instead of "
        "driving it to completion (':8080' binds 127.0.0.1:8080, port 0 "
        "picks an ephemeral one); composes with --journal, and a "
        "non-empty journal is recovered so acknowledged query ids "
        "survive a crash",
    )
    serve_p.add_argument(
        "--processes",
        type=_positive_int,
        default=1,
        metavar="N",
        help="with --http: shard the workload across N worker processes "
        "behind a tenant-routing front door (each shard owns a disjoint "
        "slice of the worker pool; --journal BASE becomes per-shard "
        "BASE.<shard> journals with automatic respawn-and-recover)",
    )
    serve_p.add_argument(
        "--tenant-budget",
        type=float,
        default=None,
        metavar="CAP",
        help="budget cap applied to both demo tenants on the --http "
        "gateway (uncapped when omitted); small caps demonstrate the "
        "402 counter-offer",
    )
    serve_p.set_defaults(func=_cmd_serve)

    recover_p = sub.add_parser(
        "recover",
        help="rebuild the serve demo service from its journal and "
        "finish the interrupted run",
    )
    recover_p.add_argument("journal", help="journal written by `serve --journal`")
    recover_p.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        help="workload seed fallback for headers without one "
        "(normally pinned by the journal header)",
    )
    recover_p.add_argument(
        "--no-snapshot",
        action="store_true",
        help="ignore snapshots and re-execute the whole journal",
    )
    recover_p.set_defaults(func=_cmd_recover)

    explain_p = sub.add_parser(
        "explain",
        help="print EXPLAIN-style cost plans + admission previews for "
        "the demo queries (nothing is submitted)",
    )
    explain_p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    explain_p.add_argument(
        "--slots", type=_positive_int, default=4, help="max_in_flight publish slots"
    )
    explain_p.add_argument(
        "--tenant-budget",
        type=float,
        default=None,
        metavar="CAP",
        help="budget cap applied to both demo tenants (uncapped when "
        "omitted); small caps demonstrate REJECT + counter-offer",
    )
    explain_p.set_defaults(func=_cmd_explain)

    from repro.scenarios import SCENARIOS

    record_p = sub.add_parser(
        "record",
        help="record a scenario run to a replayable market trace",
    )
    record_p.add_argument(
        "--scenario",
        choices=sorted(SCENARIOS),
        default="mixed-service",
        help="named workload to drive (see repro.scenarios)",
    )
    record_p.add_argument("--out", required=True, help="trace file to write")
    record_p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    record_p.add_argument(
        "--slow",
        type=float,
        default=None,
        metavar="DELAY",
        help="wrap the market in SlowBackend(DELAY) so recorded "
        "timestamps carry real wall-clock waiting",
    )
    record_p.set_defaults(func=_cmd_record)

    replay_p = sub.add_parser(
        "replay",
        help="replay a recorded trace and verify bit-for-bit reproduction",
    )
    replay_p.add_argument("trace", help="trace file recorded with `record`")
    replay_p.add_argument(
        "--time-scale",
        type=float,
        default=0.0,
        help="stretch recorded arrival timestamps (0 = fully "
        "compressed, 1 = the recording's own pacing)",
    )
    replay_p.set_defaults(func=_cmd_replay)

    profile_p = sub.add_parser(
        "profile",
        help="run a scenario under cProfile; print its outcome digest "
        "and the top-N hot spots (DESIGN.md §11)",
    )
    profile_p.add_argument(
        "scenario",
        choices=sorted(SCENARIOS),
        help="named workload to profile (see repro.scenarios)",
    )
    profile_p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    profile_p.add_argument(
        "--top",
        type=_positive_int,
        default=15,
        help="how many pstats rows to print",
    )
    profile_p.add_argument(
        "--sort",
        choices=("cumulative", "tottime", "ncalls"),
        default="cumulative",
        help="pstats sort key",
    )
    profile_p.set_defaults(func=_cmd_profile)

    from repro.analysis import add_arguments as add_lint_arguments

    lint_p = sub.add_parser(
        "lint",
        help="check the structural invariants (cdas-lint, DESIGN.md §15)",
    )
    add_lint_arguments(lint_p)
    lint_p.set_defaults(func=_cmd_lint)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
