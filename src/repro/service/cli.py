"""CLI front end of the verdict service: ``serve``, ``query``, ``loadgen``.

Run a daemon over a persistent store::

    python -m repro serve --port 7464 --store sqlite://verdicts.sqlite

Ask it who wins (scenario instance or inline spec)::

    python -m repro query --connect 127.0.0.1:7464 --scenario separations --index 3
    python -m repro query --connect 127.0.0.1:7464 \
        --arbiter 3-colorable --family cycle --n 9 --scheme sequential

Measure it::

    python -m repro loadgen --connect 127.0.0.1:7464 --scenario smoke --duration 2
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys
from functools import partial
from typing import Any, Dict, Optional

from repro.service.client import (
    DEFAULT_PORT,
    ServiceClient,
    ServiceError,
    format_address,
    parse_address,
)
from repro.service.server import ServiceConfig, VerdictServer, VerdictService


def add_service_commands(commands: argparse._SubParsersAction) -> None:
    """Register ``serve`` / ``query`` / ``loadgen`` on the top-level parser."""
    serve = commands.add_parser("serve", help="run the online verdict daemon")
    serve.add_argument("--host", default="127.0.0.1", help="TCP bind host")
    serve.add_argument("--port", type=int, default=DEFAULT_PORT, help="TCP bind port (0: ephemeral)")
    serve.add_argument("--socket", default=None, metavar="PATH", help="serve on a UNIX socket instead of TCP")
    serve.add_argument("--store", default=None, metavar="PATH", help="persistent SQLite verdict store (sqlite:// scheme or a bare path)")
    serve.add_argument("--workers", type=int, default=1, metavar="N", help="run a supervised pool of N worker daemons behind a fingerprint-hash router (requires a --store file the workers share)")
    serve.add_argument("--probe-interval", type=float, default=0.5, help="pool supervisor: seconds between worker health probes")
    serve.add_argument("--restart-backoff", type=float, default=0.25, help="pool supervisor: first restart backoff (doubles per crash, capped)")
    serve.add_argument("--lru-size", type=int, default=4096, help="tier-1 in-process LRU capacity")
    serve.add_argument("--max-pending", type=int, default=64, help="admission bound: queries past it get 'overloaded'")
    serve.add_argument("--http", type=int, default=None, metavar="PORT", help="also serve the HTTP operations console on this port (0: ephemeral)")
    serve.add_argument("--http-host", default="127.0.0.1", help="HTTP console bind host")
    serve.add_argument("--faults", default=None, metavar="SPEC", help="arm fault injection at startup (e.g. 'store-get-error=0.5:for=5'); also settable live via the admin op")
    serve.add_argument("--breaker-threshold", type=int, default=5, help="consecutive store failures before the store tier's breaker opens")
    serve.add_argument("--breaker-reset", type=float, default=5.0, help="seconds an open breaker waits before a half-open probe")
    serve.add_argument("--deadline-ms", type=int, default=None, help="default server-side deadline per request (requests may carry their own)")
    serve.add_argument("--drain-seconds", type=float, default=5.0, help="graceful-drain budget on SIGTERM/SIGINT (0: stop immediately)")
    serve.add_argument("--profile-hz", type=float, default=None, metavar="HZ", help="start the continuous sampling profiler at this rate (view at /profile; also controllable live via the admin op)")
    serve.add_argument("--log-level", choices=("debug", "info", "warning", "error"), default=None, help="structured-log threshold (default: REPRO_LOG_LEVEL env or info)")
    serve.set_defaults(handler=_command_serve)

    query = commands.add_parser("query", help="ask a running daemon who wins one game")
    query.add_argument("--connect", default=f"127.0.0.1:{DEFAULT_PORT}", metavar="ADDR", help="daemon address (host:port or unix:PATH)")
    query.add_argument("--timeout", type=float, default=30.0, help="request timeout in seconds")
    query.add_argument("--scenario", default=None, help="registered scenario name")
    query.add_argument("--instance", default=None, help="instance name within --scenario")
    query.add_argument("--index", type=int, default=None, help="instance index within --scenario")
    query.add_argument("--arbiter", default=None, help="inline spec: arbiter name (e.g. 3-colorable)")
    query.add_argument("--family", default=None, help="inline spec: graph family (cycle, path, grid, ...)")
    query.add_argument("--n", type=int, default=None, help="inline spec: node-count parameter")
    query.add_argument("--rows", type=int, default=None, help="inline spec: grid rows")
    query.add_argument("--cols", type=int, default=None, help="inline spec: grid cols")
    query.add_argument("--degree", type=int, default=None, help="inline spec: random-regular degree")
    query.add_argument("--seed", type=int, default=None, help="inline spec: generator seed")
    query.add_argument("--scheme", default=None, help="inline spec: identifier scheme (small, sequential, random)")
    query.add_argument("--prefix", default=None, help="inline spec: quantifier prefix override (e.g. E, A)")
    query.add_argument("--stats", action="store_true", help="fetch daemon statistics instead of querying")
    query.add_argument("--ping", action="store_true", help="liveness probe instead of querying")
    query.set_defaults(handler=_command_query)

    loadgen = commands.add_parser("loadgen", help="closed-loop load test against a running daemon")
    loadgen.add_argument("--connect", default=f"127.0.0.1:{DEFAULT_PORT}", metavar="ADDR", help="daemon address (host:port or unix:PATH)")
    loadgen.add_argument("--scenario", default="smoke", help="scenario whose instances form the workload")
    loadgen.add_argument("--workload", choices=("hot", "inline", "mixed"), default="hot", help="payload shape (hot: scenario indices; inline: cycle specs)")
    loadgen.add_argument("--clients", type=int, default=4, help="concurrent closed-loop clients")
    loadgen.add_argument("--requests", type=int, default=None, help="stop after this many requests")
    loadgen.add_argument("--duration", type=float, default=None, help="stop after this many seconds")
    loadgen.add_argument("--timeout", type=float, default=30.0, help="per-request timeout in seconds")
    loadgen.add_argument("--retries", type=int, default=0, help="retry retryable failures up to this many extra times (backoff + jitter)")
    loadgen.add_argument("--chaos", default=None, metavar="SPEC", help="arm this fault spec on the daemon for the run and clear it after")
    loadgen.set_defaults(handler=_command_loadgen)

    top = commands.add_parser("top", help="live terminal dashboard over a daemon's HTTP console")
    top.add_argument("--connect", default=None, metavar="ADDR", help="HTTP console address (host:port; default 127.0.0.1:7465)")
    top.add_argument("--interval", type=float, default=1.0, help="refresh interval in seconds")
    top.add_argument("--once", action="store_true", help="print one snapshot and exit (no ANSI screen control)")
    top.add_argument("--count", type=int, default=None, help="exit after this many refreshes")
    top.set_defaults(handler=_command_top)

    trace = commands.add_parser("trace", help="export a daemon's recent traces as Chrome trace-event JSON (Perfetto-loadable)")
    trace.add_argument("--connect", default=None, metavar="ADDR", help="HTTP console address (host:port; default 127.0.0.1:7465)")
    trace.add_argument("--export", default="-", metavar="FILE", help="write the trace JSON here ('-': stdout)")
    trace.add_argument("--limit", type=int, default=200, help="most recent traces to export (max 500)")
    trace.set_defaults(handler=_command_trace)


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
def _install_stop_handlers(loop: asyncio.AbstractEventLoop, stop: asyncio.Event) -> None:
    """Route SIGTERM *and* SIGINT to the same graceful-drain event.

    On loops without ``add_signal_handler`` (non-POSIX), a plain signal
    handler does the same job -- Ctrl-C must drain in-flight requests,
    never raise ``KeyboardInterrupt`` mid-request and drop them.
    """
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, stop.set)
        except NotImplementedError:  # pragma: no cover -- non-POSIX loops
            signal.signal(
                signum, lambda _s, _f: loop.call_soon_threadsafe(stop.set)
            )


async def _serve_until_signal(args, listener, target, pages: str, shutdown) -> int:
    """Serve *listener* (and, with ``--http``, the console over *target*)
    until SIGTERM/SIGINT, then stop the console and await *shutdown*."""
    from repro.obs.log import get_logger

    log = get_logger("repro.serve")
    console = None
    if args.http is not None:
        from repro.obs.http import ConsoleServer

        console = ConsoleServer(target, host=args.http_host, port=args.http)
        http_host, http_port = await console.start()
        log.info("console-started", url=f"http://{http_host}:{http_port}/", pages=pages)
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    _install_stop_handlers(loop, stop)
    try:
        serving = asyncio.ensure_future(listener.serve_forever())
        stopping = asyncio.ensure_future(stop.wait())
        await asyncio.wait({serving, stopping}, return_when=asyncio.FIRST_COMPLETED)
        serving.cancel()
    finally:
        if console is not None:
            await console.stop()
        await shutdown()
    log.info("stopped")
    return 0


async def _serve(args: argparse.Namespace) -> int:
    from repro.obs.log import configure as configure_logging, get_logger

    if args.log_level is not None:
        configure_logging(level=args.log_level)
    if args.workers > 1:
        return await _serve_pool(args)
    log = get_logger("repro.serve")
    config = ServiceConfig(
        lru_size=args.lru_size,
        max_pending=args.max_pending,
        breaker_threshold=args.breaker_threshold,
        breaker_reset_seconds=args.breaker_reset,
        default_deadline_seconds=(
            args.deadline_ms / 1000.0 if args.deadline_ms is not None else None
        ),
        profile_hz=args.profile_hz,
    )
    service = VerdictService(store=args.store, config=config)
    if args.faults:
        service.faults.configure_spec(args.faults)
        log.info("faults-armed", spec=args.faults)
    server = VerdictServer(
        service, host=args.host, port=args.port, socket_path=args.socket
    )
    address = await server.start()
    log.info("listening", address=format_address(address))
    if args.store:
        log.info("store-attached", store=args.store)
    if args.profile_hz is not None:
        log.info("profiler-started", hz=args.profile_hz)
    # Graceful drain: stop listening, answer in-flight requests, then
    # flush pending store writes inside service.close().
    return await _serve_until_signal(
        args,
        server,
        service,
        "/stats /metrics /profile /traces /bench",
        partial(server.stop, drain_seconds=max(0.0, args.drain_seconds)),
    )


def _worker_passthrough_args(args: argparse.Namespace) -> list:
    """The serve flags each pool worker inherits from the supervisor line."""
    passthrough = [
        "--lru-size", str(args.lru_size),
        "--max-pending", str(args.max_pending),
        "--breaker-threshold", str(args.breaker_threshold),
        "--breaker-reset", str(args.breaker_reset),
        "--drain-seconds", str(args.drain_seconds),
    ]
    if args.deadline_ms is not None:
        passthrough += ["--deadline-ms", str(args.deadline_ms)]
    if args.faults:
        passthrough += ["--faults", args.faults]
    if args.log_level is not None:
        passthrough += ["--log-level", args.log_level]
    return passthrough


async def _serve_pool(args: argparse.Namespace) -> int:
    from repro.obs.log import get_logger
    from repro.service.pool import PoolConfig, WorkerPool

    log = get_logger("repro.serve")
    if not args.store:
        print("--workers needs --store (the pool shares one verdict store)", file=sys.stderr)
        return 2
    pool = WorkerPool(
        store=args.store,
        config=PoolConfig(
            workers=args.workers,
            probe_interval=args.probe_interval,
            restart_backoff=args.restart_backoff,
            drain_seconds=max(0.1, args.drain_seconds),
            forward_timeout=max(5.0, args.drain_seconds + 5.0),
        ),
        host=args.host,
        port=args.port,
        socket_path=args.socket,
        worker_args=_worker_passthrough_args(args),
    )
    try:
        address = await pool.start()
    except ValueError as error:
        await pool.stop()
        print(error, file=sys.stderr)
        return 2
    log.info("pool-listening", address=format_address(address), workers=args.workers)
    # Rolling drain: each worker gets SIGTERM and its drain budget in
    # turn, so in-flight requests finish before the process goes away.
    return await _serve_until_signal(
        args, pool, pool, "/healthz /stats /metrics", pool.stop
    )


def _command_serve(args: argparse.Namespace) -> int:
    try:
        return asyncio.run(_serve(args))
    except KeyboardInterrupt:  # pragma: no cover -- direct ^C without handler
        return 0


# ----------------------------------------------------------------------
# query
# ----------------------------------------------------------------------
def _inline_spec(args: argparse.Namespace) -> Optional[Dict[str, Any]]:
    spec: Dict[str, Any] = {}
    for key in ("arbiter", "family", "n", "rows", "cols", "degree", "seed", "scheme", "prefix"):
        value = getattr(args, key)
        if value is not None:
            spec[key] = value
    return spec or None


def _command_query(args: argparse.Namespace) -> int:
    address = parse_address(args.connect)
    spec = _inline_spec(args)
    if not args.stats and not args.ping:
        if (args.scenario is None) == (spec is None):
            print(
                "query needs exactly one of --scenario (with --instance or --index) "
                "or an inline spec (--arbiter/--family/...)",
                file=sys.stderr,
            )
            return 2
        if args.scenario is not None and (args.instance is None) == (args.index is None):
            print("--scenario needs exactly one of --instance or --index", file=sys.stderr)
            return 2
    try:
        with ServiceClient(address, timeout=args.timeout) as client:
            if args.ping:
                client.ping()
                print(json.dumps({"ok": True, "pong": True}))
                return 0
            if args.stats:
                print(json.dumps(client.stats(), indent=2, sort_keys=True))
                return 0
            if args.scenario is not None:
                response = client.query_scenario(
                    args.scenario, instance=args.instance, index=args.index, check=False
                )
            else:
                response = client.query_spec(check=False, **spec)
    except (OSError, ServiceError) as error:
        print(f"cannot reach verdict service at {args.connect}: {error}", file=sys.stderr)
        return 1
    print(json.dumps(response, indent=2, sort_keys=True))
    return 0 if response.get("ok") else 3


# ----------------------------------------------------------------------
# loadgen
# ----------------------------------------------------------------------
def _command_loadgen(args: argparse.Namespace) -> int:
    from repro.service.loadgen import (
        inline_cycle_payloads,
        interleave,
        run_load,
        scenario_payloads,
    )

    address = parse_address(args.connect)
    if args.workload == "hot":
        payloads = scenario_payloads(args.scenario)
    elif args.workload == "inline":
        payloads = inline_cycle_payloads()
    else:
        payloads = interleave(scenario_payloads(args.scenario), inline_cycle_payloads())
    try:
        report = run_load(
            address,
            payloads,
            clients=args.clients,
            total=args.requests,
            duration=args.duration,
            label=args.workload,
            timeout=args.timeout,
            retries=args.retries,
            chaos=args.chaos,
        )
    except (OSError, ServiceError) as error:
        print(f"cannot reach verdict service at {args.connect}: {error}", file=sys.stderr)
        return 1
    print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    return 0


# ----------------------------------------------------------------------
# top
# ----------------------------------------------------------------------
def _command_top(args: argparse.Namespace) -> int:
    from repro.obs.top import run_top

    return run_top(
        connect=args.connect,
        interval=args.interval,
        once=args.once,
        count=args.count,
    )


# ----------------------------------------------------------------------
# trace export
# ----------------------------------------------------------------------
def _command_trace(args: argparse.Namespace) -> int:
    import urllib.error
    import urllib.request

    from repro.obs.http import DEFAULT_HTTP_PORT

    address = args.connect or f"127.0.0.1:{DEFAULT_HTTP_PORT}"
    if "://" not in address:
        address = f"http://{address}"
    limit = max(1, min(args.limit, 500))
    url = f"{address.rstrip('/')}/traces/export.json?limit={limit}"
    try:
        with urllib.request.urlopen(url, timeout=10.0) as response:
            document = response.read().decode("utf-8")
    except (urllib.error.URLError, OSError) as error:
        print(f"cannot fetch {url}: {error}", file=sys.stderr)
        return 1
    if args.export == "-":
        print(document)
    else:
        with open(args.export, "w", encoding="utf-8") as handle:
            handle.write(document)
        events = len(json.loads(document).get("traceEvents", []))
        print(
            f"wrote {events} trace events to {args.export} "
            "(load at https://ui.perfetto.dev or chrome://tracing)",
            file=sys.stderr,
        )
    return 0
