"""The operations console: a stdlib-only HTTP surface over one daemon.

:class:`ConsoleServer` binds a tiny asyncio HTTP/1.1 listener next to the
JSON-lines daemon (same event loop, same :class:`VerdictService
<repro.service.server.VerdictService>`) and serves:

* ``/stats`` -- the exact ``stats`` wire payload as JSON (what
  ``python -m repro top`` polls),
* ``/metrics`` -- the Prometheus text exposition of the daemon's
  registry,
* browse pages -- ``/scenarios``, ``/scenarios/<name>``, ``/verdicts``,
  ``/sessions``, ``/traces`` -- rendered as plain HTML tables for a
  browser, or as JSON with ``?format=json``.

The server handles ``GET``/``HEAD`` only, answers every request with
``Connection: close``, and never blocks the event loop on store I/O:
scenario key computation and store reads run on the loop's default worker
pool, same as the daemon's own tier-2 path.  No third-party dependency is
involved anywhere -- the parser accepts exactly the request shape that
browsers, ``curl`` and Prometheus scrapers emit.
"""

from __future__ import annotations

import asyncio
import html
import itertools
import json
import urllib.parse
from typing import Any, Dict, List, Optional, Tuple

#: The conventional console port ("RK" on a phone keypad is taken; 7465
#: spells nothing and collides with nothing registered).
DEFAULT_HTTP_PORT = 7465

#: Pagination defaults/caps for the store-backed browse pages.
DEFAULT_PAGE_SIZE = 50
MAX_PAGE_SIZE = 500

_STYLE = """
body { font-family: ui-monospace, Menlo, Consolas, monospace; margin: 2rem;
       background: #111; color: #ddd; }
a { color: #7ad; } h1, h2 { color: #fff; font-weight: 600; }
table { border-collapse: collapse; margin: 1rem 0; }
th, td { border: 1px solid #444; padding: 0.25rem 0.6rem; text-align: left; }
th { background: #222; } tr:nth-child(even) td { background: #1a1a1a; }
.true { color: #7d7; } .false { color: #d77; } .nav { margin: 0.5rem 0; }
"""


class _HttpError(Exception):
    """An error the console answers with a status page instead of a 500."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


def _page(title: str, body: str) -> str:
    return (
        "<!doctype html><html><head><meta charset='utf-8'>"
        f"<title>{html.escape(title)}</title><style>{_STYLE}</style></head>"
        f"<body><h1>{html.escape(title)}</h1>{body}</body></html>"
    )


def _table(headers: List[str], rows: List[List[str]]) -> str:
    """An HTML table from pre-escaped cell strings."""
    head = "".join(f"<th>{cell}</th>" for cell in headers)
    body = "".join(
        "<tr>" + "".join(f"<td>{cell}</td>" for cell in row) + "</tr>" for row in rows
    )
    return f"<table><tr>{head}</tr>{body}</table>"


def _verdict_cell(verdict: bool) -> str:
    return f"<span class='{str(bool(verdict)).lower()}'>{bool(verdict)}</span>"


def _int_param(params: Dict[str, str], name: str, default: int, maximum: int) -> int:
    raw = params.get(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise _HttpError(400, f"query parameter {name!r} must be an integer") from None
    if value < 1:
        raise _HttpError(400, f"query parameter {name!r} must be positive")
    return min(value, maximum)


class ConsoleServer:
    """The HTTP console bound to one :class:`VerdictService`.

    Must be started (and stopped) on the same event loop the service's
    coroutines run on -- :class:`~repro.service.server.ServerThread` does
    both on its background loop when given an ``http_port``.
    """

    def __init__(self, service, host: str = "127.0.0.1", port: int = 0) -> None:
        self.service = service
        self.host = host
        self.port = port
        self.address: Optional[Tuple[str, int]] = None
        self._server: Optional[asyncio.AbstractServer] = None

    async def start(self) -> Tuple[str, int]:
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        sockname = self._server.sockets[0].getsockname()
        self.address = (sockname[0], sockname[1])
        return self.address

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request_line = await asyncio.wait_for(reader.readline(), timeout=10.0)
            if not request_line:
                return
            parts = request_line.decode("latin-1").strip().split()
            if len(parts) != 3:
                await self._send(writer, 400, "text/plain; charset=utf-8", b"bad request\n")
                return
            method, target, _version = parts
            # Drain (and ignore) the headers; the console is read-only.
            while True:
                line = await asyncio.wait_for(reader.readline(), timeout=10.0)
                if not line or line in (b"\r\n", b"\n"):
                    break
            if method not in ("GET", "HEAD"):
                await self._send(
                    writer, 405, "text/plain; charset=utf-8", b"GET and HEAD only\n"
                )
                return
            try:
                status, content_type, body = await self._route(target)
            except _HttpError as error:
                status = error.status
                content_type = "text/plain; charset=utf-8"
                body = (error.message + "\n").encode("utf-8")
            except Exception as error:  # noqa: BLE001 -- console must not die
                status = 500
                content_type = "text/plain; charset=utf-8"
                body = (repr(error) + "\n").encode("utf-8")
            await self._send(writer, status, content_type, body, head=method == "HEAD")
        except (asyncio.TimeoutError, ConnectionResetError, BrokenPipeError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _send(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        content_type: str,
        body: bytes,
        head: bool = False,
    ) -> None:
        reason = _STATUS_TEXT.get(status, "Unknown")
        header = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: close\r\n\r\n"
        )
        writer.write(header.encode("latin-1") + (b"" if head else body))
        await writer.drain()

    # ------------------------------------------------------------------
    async def _route(self, target: str) -> Tuple[int, str, bytes]:
        parsed = urllib.parse.urlsplit(target)
        path = urllib.parse.unquote(parsed.path).rstrip("/") or "/"
        params = dict(urllib.parse.parse_qsl(parsed.query))
        as_json = params.get("format") == "json"
        if path == "/":
            return self._overview()
        if path == "/healthz":
            return self._healthz()
        if path == "/stats":
            return self._json(self.service.stats())
        if path == "/stats/history":
            return self._stats_history(params)
        if path == "/metrics":
            text = self.service.registry.render_prometheus()
            return 200, "text/plain; version=0.0.4; charset=utf-8", text.encode("utf-8")
        if path == "/scenarios":
            return self._scenarios(as_json)
        if path.startswith("/scenarios/"):
            return await self._scenario_detail(path[len("/scenarios/"):], params, as_json)
        if path == "/verdicts":
            return await self._verdicts(params, as_json)
        if path == "/sessions":
            return self._sessions(as_json)
        if path == "/traces/export.json":
            return self._traces_export(params)
        if path == "/traces":
            return self._traces(params, as_json)
        if path == "/profile":
            return self._profile(params, as_json)
        if path == "/bench":
            return self._bench(params, as_json)
        raise _HttpError(404, f"no such page: {path}")

    def _json(self, payload: Any) -> Tuple[int, str, bytes]:
        body = json.dumps(payload, indent=2, sort_keys=False, default=str)
        return 200, "application/json; charset=utf-8", (body + "\n").encode("utf-8")

    def _healthz(self) -> Tuple[int, str, bytes]:
        """Load-balancer liveness: 200 = route traffic here, 503 = don't.

        The answer comes from the service's own :meth:`healthz` predicate
        (draining or an open store breaker means 503), so external probers
        and the pool supervisor agree on what "healthy" means.
        """
        probe = getattr(self.service, "healthz", None)
        if probe is None:
            healthy, detail = True, {"healthy": True}
        else:
            healthy, detail = probe()
        body = json.dumps(detail, sort_keys=True) + "\n"
        status = 200 if healthy else 503
        return status, "application/json; charset=utf-8", body.encode("utf-8")

    def _html(self, title: str, body: str) -> Tuple[int, str, bytes]:
        return 200, "text/html; charset=utf-8", _page(title, body).encode("utf-8")

    # ------------------------------------------------------------------
    def _overview(self) -> Tuple[int, str, bytes]:
        stats = self.service.stats()
        requests = stats.get("requests", {})
        links = "".join(
            f"<li><a href='{href}'>{html.escape(label)}</a></li>"
            for href, label in (
                ("/healthz", "liveness probe (200/503)"),
                ("/stats", "stats (JSON)"),
                ("/stats/history", "stats history (JSON samples)"),
                ("/metrics", "metrics (Prometheus)"),
                ("/scenarios", "scenarios"),
                ("/verdicts", "stored verdicts"),
                ("/sessions", "dynamic sessions"),
                ("/traces", "recent traces"),
                ("/traces/export.json", "trace export (Chrome/Perfetto)"),
                ("/profile", "profiler (folded stacks)"),
                ("/bench", "benchmark history"),
            )
        )
        summary = _table(
            ["uptime (s)", "queries", "mutates", "errors", "pending", "sessions"],
            [[
                html.escape(str(stats.get("uptime_seconds"))),
                str(requests.get("query", 0)),
                str(requests.get("mutate", 0)),
                str(stats.get("errors", 0)),
                str(stats.get("pending", 0)),
                str(stats.get("dynamic", {}).get("sessions", 0)),
            ]],
        )
        return self._html("repro verdict daemon", summary + f"<ul>{links}</ul>")

    def _scenarios(self, as_json: bool) -> Tuple[int, str, bytes]:
        from repro.sweep.scenarios import all_scenarios

        entries = [
            {
                "name": scenario.name,
                "description": scenario.description,
                "tags": list(scenario.tags),
            }
            for scenario in all_scenarios()
        ]
        if as_json:
            return self._json({"scenarios": entries})
        rows = [
            [
                f"<a href='/scenarios/{urllib.parse.quote(entry['name'])}'>"
                f"{html.escape(entry['name'])}</a>",
                html.escape(entry["description"]),
                html.escape(", ".join(entry["tags"])),
            ]
            for entry in entries
        ]
        return self._html("Scenarios", _table(["name", "description", "tags"], rows))

    async def _scenario_detail(
        self, name: str, params: Dict[str, str], as_json: bool
    ) -> Tuple[int, str, bytes]:
        from repro.sweep.scenarios import scenario_names

        if name not in scenario_names():
            raise _HttpError(404, f"unknown scenario: {name}")
        page = _int_param(params, "page", 1, 1_000_000)
        per_page = _int_param(params, "per_page", DEFAULT_PAGE_SIZE, MAX_PAGE_SIZE)
        loop = asyncio.get_running_loop()
        # Key fingerprinting and the store read are real work: worker pool.
        keys = await loop.run_in_executor(None, self.service.resolver.scenario_keys, name)
        start = (page - 1) * per_page
        window = keys[start : start + per_page]
        store = self.service.store
        stored: Dict[str, bool] = {}
        if store is not None and window:
            stored = await loop.run_in_executor(None, store.get_many, window)
        entries = [
            {
                "index": start + offset,
                "key": key,
                "verdict": stored.get(key),
            }
            for offset, key in enumerate(window)
        ]
        payload = {
            "scenario": name,
            "instances": len(keys),
            "stored": len(stored),
            "page": page,
            "per_page": per_page,
            "entries": entries,
        }
        if as_json:
            return self._json(payload)
        rows = [
            [
                str(entry["index"]),
                html.escape(entry["key"]),
                _verdict_cell(entry["verdict"])
                if entry["verdict"] is not None
                else "<em>not stored</em>",
            ]
            for entry in entries
        ]
        nav = self._pager(f"/scenarios/{urllib.parse.quote(name)}", page, per_page,
                          more=start + per_page < len(keys))
        body = (
            f"<p>{len(keys)} instances, {len(stored)} of this page stored.</p>"
            + _table(["#", "key", "verdict"], rows)
            + nav
        )
        return self._html(f"Scenario {name}", body)

    async def _verdicts(
        self, params: Dict[str, str], as_json: bool
    ) -> Tuple[int, str, bytes]:
        store = self.service.store
        page = _int_param(params, "page", 1, 1_000_000)
        per_page = _int_param(params, "per_page", DEFAULT_PAGE_SIZE, MAX_PAGE_SIZE)
        if store is None:
            payload = {"total": 0, "page": page, "per_page": per_page, "entries": []}
            if as_json:
                return self._json(payload)
            return self._html("Stored verdicts", "<p>No store attached.</p>")
        loop = asyncio.get_running_loop()

        def read_page() -> Tuple[int, List[Dict[str, Any]]]:
            start = (page - 1) * per_page
            window = list(itertools.islice(store.items(), start, start + per_page))
            return len(store), [
                {"key": key, "verdict": verdict, "name": name, "seconds": seconds}
                for key, (verdict, name, seconds) in window
            ]

        total, entries = await loop.run_in_executor(None, read_page)
        payload = {"total": total, "page": page, "per_page": per_page, "entries": entries}
        if as_json:
            return self._json(payload)
        rows = [
            [
                html.escape(entry["key"]),
                _verdict_cell(entry["verdict"]),
                html.escape(entry["name"]),
                f"{entry['seconds']:.6f}",
            ]
            for entry in entries
        ]
        nav = self._pager("/verdicts", page, per_page, more=page * per_page < total)
        body = f"<p>{total} stored verdicts.</p>" + _table(
            ["key", "verdict", "name", "solve seconds"], rows
        ) + nav
        return self._html("Stored verdicts", body)

    def _sessions(self, as_json: bool) -> Tuple[int, str, bytes]:
        sessions = {
            name: session.info() for name, session in self.service.sessions.items()
        }
        if as_json:
            return self._json({"sessions": sessions})
        rows = [
            [
                html.escape(name),
                str(info.get("mutate_batches", 0)),
                str(info.get("deltas_applied", 0)),
                str(info.get("queries", 0)),
                html.escape(json.dumps({
                    k: v for k, v in info.items()
                    if k not in ("mutate_batches", "deltas_applied", "queries")
                }, default=str)),
            ]
            for name, info in sorted(sessions.items())
        ]
        return self._html(
            "Dynamic sessions",
            _table(["session", "mutate batches", "deltas", "queries", "info"], rows)
            if rows
            else "<p>No dynamic sessions open.</p>",
        )

    def _traces(self, params: Dict[str, str], as_json: bool) -> Tuple[int, str, bytes]:
        limit = _int_param(params, "limit", 50, 500)
        traces = self.service.traces.snapshot(limit)
        if as_json:
            return self._json({"traces": traces, **self.service.traces.stats()})
        rows = [
            [
                str(trace.get("trace_id")),
                html.escape(str(trace.get("op"))),
                html.escape(str(trace.get("name", ""))),
                html.escape(str(trace.get("source", ""))),
                str(trace.get("total_ms")),
                html.escape(
                    " ".join(
                        f"{span.get('span')}={span.get('ms')}ms"
                        for span in trace.get("spans", [])
                    )
                ),
            ]
            for trace in traces
        ]
        return self._html(
            "Recent traces",
            _table(["id", "op", "name", "source", "total ms", "spans"], rows)
            if rows
            else "<p>No traces recorded yet.</p>",
        )

    def _stats_history(self, params: Dict[str, str]) -> Tuple[int, str, bytes]:
        limit = _int_param(params, "limit", 120, 1000)
        registry = self.service.registry
        return self._json(
            {"samples": registry.samples(limit), **registry.sample_stats()}
        )

    def _traces_export(self, params: Dict[str, str]) -> Tuple[int, str, bytes]:
        from repro.obs.export import chrome_trace

        limit = _int_param(params, "limit", 200, 500)
        document = chrome_trace(self.service.traces.snapshot(limit))
        body = json.dumps(document, default=str)
        return 200, "application/json; charset=utf-8", body.encode("utf-8")

    def _profile(self, params: Dict[str, str], as_json: bool) -> Tuple[int, str, bytes]:
        profiler = getattr(self.service, "profiler", None)
        if profiler is None:
            raise _HttpError(404, "no profiler attached to this daemon")
        if as_json:
            top = _int_param(params, "top", 20, 200)
            return self._json(profiler.snapshot(top))
        # Default: raw folded stacks, one per line -- flamegraph.pl food.
        folded = profiler.folded()
        if not folded and not profiler.running:
            folded = (
                "# profiler not running -- start with `repro serve --profile-hz N`\n"
                "# or the admin op: profile-start"
            )
        return 200, "text/plain; charset=utf-8", (folded + "\n").encode("utf-8")

    def _bench(self, params: Dict[str, str], as_json: bool) -> Tuple[int, str, bytes]:
        from repro.obs import history as bench_history

        # Resolved per request, so the page follows $BENCH_OUTPUT_DIR.
        history_path = bench_history.default_history_path()
        records = bench_history.read_history(history_path)
        limit = _int_param(params, "limit", 50, 500)
        records = records[-limit:]
        if as_json:
            return self._json({"path": str(history_path), "records": records})
        if not records:
            return self._html(
                "Benchmark history",
                f"<p>No records at {html.escape(str(history_path))}. "
                "Run <code>repro bench</code> to append some.</p>",
            )
        newest = records[-1]
        context = newest.get("context") or {}
        meta = (
            f"<p>{len(records)} records; newest "
            f"{html.escape(str(context.get('git_sha', '?')))[:12]} at "
            f"{html.escape(str(newest.get('started', '?')))}.</p>"
        )
        return self._html(
            "Benchmark history",
            meta
            + _table(
                ["workload", "metric", "unit", "latest", "trend", "n"],
                [
                    [
                        html.escape(workload),
                        html.escape(name),
                        html.escape(unit),
                        f"{values[-1]:g}",
                        html.escape(bench_history.sparkline(values, width=40)),
                        str(len(values)),
                    ]
                    for (workload, name), (unit, values) in bench_history.metric_series(
                        records
                    ).items()
                ],
            ),
        )

    def _pager(self, base: str, page: int, per_page: int, more: bool) -> str:
        links = []
        if page > 1:
            links.append(
                f"<a href='{base}?page={page - 1}&per_page={per_page}'>&larr; prev</a>"
            )
        if more:
            links.append(
                f"<a href='{base}?page={page + 1}&per_page={per_page}'>next &rarr;</a>"
            )
        return f"<p class='nav'>{' | '.join(links)}</p>" if links else ""
