"""``socket_paced``: the full front door, open loop then closed loop.

One ``ServeClient`` connection pushes into ``IngestServer`` →
``ServeSession`` → the 2-shard fleet.  The standing queries are windowed
grouped aggregates plus selections over two streams.

- **Open loop** (the first :data:`PACED_SHARE` of ``--seconds``): pushes of
  16 events fall due at a fixed offered rate of :data:`RATE` events/s,
  about a quarter of what the closed loop drains, and are sent at their due
  time whatever happened before.  A second thread probes freshness back
  to back: for the last push sent, time from its due time until the
  server's ``accepted_events`` caught up (stage 1, ``accept``), until
  ``ServeSession.barrier()`` returned (stage 2, ``pump``) and until
  ``ping()`` returned (stage 3).  If the generator falls behind its
  schedule the run is void: a growing backlog would otherwise read as
  lower latency.
- **Closed loop**: :data:`BURSTS` bursts of 128-event pushes sent back
  to back, as fast as flow control admits, each stopped at a confirmed
  worker barrier (accepted → barrier → ping); ``drain_eps`` is the median
  burst rate.

Oracle: ``verify_equivalence`` of the fleet's outputs against an offline
replay of the session's arrival log.
"""

from __future__ import annotations

import threading
import time

from perfbench import common, host, inputs
from perfbench.common import UNTRACED, Counter, Outcome
from perfbench.host import HostSpeed
from perfbench.spans import Tracer
from perfbench.stats import median, percentile

#: Offered open-loop rate, events/s.
RATE = 20000.0
#: Share of ``--seconds`` spent in the open loop.
PACED_SHARE = 0.5
#: Closed-loop bursts, and events in each.  A burst is four times what the
#: session queue and credit window hold, so its rate is the pipeline's,
#: not the buffers'.
BURSTS = 7
BURST_EVENTS = 65536
#: A run is void when the open loop achieves less of the offered rate ...
MIN_ACHIEVED = 0.95
#: ... or its generator ends further behind schedule than this (seconds).
MAX_FINAL_LAG = 0.1
#: Poll interval while waiting for the server to accept sent events.
POLL = 0.0005
#: Longest wait for the server to accept what was sent.
ACCEPT_TIMEOUT = 60.0


def _await_accepted(server, target: int, tracer: Tracer) -> None:
    deadline = time.perf_counter() + ACCEPT_TIMEOUT
    with tracer.span("serve.accept"):
        while server.accepted_events < target:
            if time.perf_counter() > deadline:
                raise RuntimeError(
                    f"server accepted {server.accepted_events} of {target} "
                    f"events within {ACCEPT_TIMEOUT}s"
                )
            time.sleep(POLL)


class _Prober:
    """Back-to-back freshness probes on their own thread."""

    def __init__(self, server, session, fleet, tracer, counter):
        self.server = server
        self.session = session
        self.fleet = fleet
        self.tracer = tracer
        self.counter = counter
        #: ``(events sent, due time of the last one)``, set by the sender.
        self.progress = (0, 0.0)
        self.start = 0.0
        self.stages = {"fresh": [], "accept": [], "pump": [], "ping": []}
        self._done = threading.Event()
        self._error = None
        self._thread = threading.Thread(target=self._loop, name="perfbench-prober")

    def begin(self, start: float) -> None:
        self.start = start
        self._thread.start()

    def end(self) -> None:
        self._done.set()
        self._thread.join()
        if self._error is not None:
            raise self._error

    def _loop(self) -> None:
        try:
            seen = 0
            while not self._done.is_set():
                sent, due = self.progress
                if sent == seen:
                    time.sleep(POLL)
                    continue
                seen = sent
                self._probe(sent, self.start + due)
        except BaseException as error:  # re-raised by end()
            self._error = error

    def _probe(self, sent: int, due: float) -> None:
        tracer = self.tracer
        with tracer.span("bench.probe"):
            _await_accepted(self.server, sent, tracer)
            accepted = time.perf_counter()
            with tracer.span("serve.barrier"):
                self.counter.attempt(self.session.barrier)
            barrier = time.perf_counter()
            with tracer.span("shard.ping"):
                self.counter.attempt(self.fleet.ping)
            pinged = time.perf_counter()
        self.stages["fresh"].append(pinged - due)
        self.stages["accept"].append(accepted - due)
        self.stages["pump"].append(barrier - accepted)
        self.stages["ping"].append(pinged - barrier)


def _paced(client, prober: _Prober, pushes, tracer, counter) -> dict:
    """Send each push at its due time, probing freshness meanwhile."""
    lags, sends = [], []
    events = 0
    start = time.perf_counter()
    prober.begin(start)
    try:
        for due, stream, batch in pushes:
            target = start + due
            delay = target - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            now = time.perf_counter()
            lags.append(now - target)
            with tracer.span("serve.send", trace_id=f"push-{events}"):
                counter.attempt(client.send, stream, batch)
            sends.append(time.perf_counter() - now)
            events += len(batch)
            prober.progress = (client.sent_events, due)
        finished = time.perf_counter()
    finally:
        prober.end()
    interval = pushes[1][0] - pushes[0][0]
    return {
        "events": events,
        "offered": events / (len(lags) * interval),
        "achieved": events / (finished - start),
        "lags": lags,
        "sends": sends,
    }


def _bursts(client, server, session, fleet, pool, first, tracer, counter) -> dict:
    """:data:`BURSTS` closed-loop bursts of :data:`BURST_EVENTS` events,
    cycling the push ``pool`` from push ``first``; each burst is sent back
    to back and timed to a confirmed worker barrier.  Event timestamps
    continue from the client's sent count."""
    sends, rates = [], []
    waits = client.credit_waits
    index = first
    events = 0
    wall = 0.0
    for __ in range(BURSTS):
        started = time.perf_counter()
        with tracer.span("bench.burst"):
            burst = 0
            while burst < BURST_EVENTS:
                stream, rows = pool[index % len(pool)]
                index += 1
                batch = list(enumerate(rows, client.sent_events))
                now = time.perf_counter()
                with tracer.span("serve.send"):
                    counter.attempt(client.send, stream, batch)
                sends.append(time.perf_counter() - now)
                burst += len(batch)
            _await_accepted(server, client.sent_events, tracer)
            with tracer.span("serve.barrier"):
                counter.attempt(session.barrier)
            with tracer.span("shard.ping"):
                counter.attempt(fleet.ping)
        elapsed = time.perf_counter() - started
        rates.append(burst / elapsed)
        events += burst
        wall += elapsed
    return {
        "wall": wall,
        "events": events,
        "rates": rates,
        "next": index,
        "sends": sends,
        "credit_waits": client.credit_waits - waits,
    }


def run(seed: int, seconds: float, tracer: Tracer) -> Outcome:
    from repro.serve.drive import ServeSession
    from repro.serve.ingest import IngestServer
    from repro.serve.protocol import ServeClient
    from repro.streams import Schema

    paced_seconds = seconds * PACED_SHARE
    data = inputs.socket_inputs(seed, RATE, paced_seconds)
    schema = Schema.numbered(data.width)
    sources = {name: schema for name in data.streams}
    # Only set-up is scaled to the reference host's speed here.  The closed
    # loop is paced by credit round trips through the ingest thread, the
    # pump and two busy workers, not by the main thread's CPU, and scaling
    # it by the main thread's reference passes widened its spread over ten
    # seeds from 0.11 to 0.19.
    out = Outcome(speed={"setup": HostSpeed()})
    counter = Counter()
    lifecycle: list = []
    fleet, setups = common.repeated_setups(
        1 if tracer.enabled else common.SETUPS, out.speed["setup"],
        sources, data.queries, tracer, counter, lifecycle,
    )
    try:
        with ServeSession(fleet, record=True) as session:
            # The standing queries went straight to the fleet; the arrival
            # log must still open with them for the replay.
            for text, query_id in data.queries:
                session.log.record_register(text, query_id)
            with IngestServer(session, port=0) as server:
                client = ServeClient(*server.address, client_id="perfbench")
                try:
                    prober = _Prober(server, session, fleet, tracer, counter)
                    paced = _paced(client, prober, data.paced, tracer, counter)
                    if tracer.enabled:
                        with tracer.span("bench.untraced_pass"):
                            untraced = _bursts(
                                client, server, session, fleet, data.closed, 0,
                                UNTRACED, counter,
                            )
                        first = untraced["next"]
                        busy_before = common.busy_seconds(fleet)
                    else:
                        first = 0
                    closed = _bursts(
                        client, server, session, fleet, data.closed, first,
                        tracer, counter,
                    )
                    if tracer.enabled:
                        busy_after = common.busy_seconds(fleet)
                finally:
                    client.close()
            report = session.finish()
        rss = host.tree_peak_rss_mb()
        captured = fleet.captured
    finally:
        fleet.close()

    played = common.replay(session.log.entries, sources, tracer)
    outputs = common.verify_per_query(
        captured, played.runtime.captured, session.log, sources
    )

    fresh = prober.stages["fresh"]
    lags = paced["lags"]
    tail = lags[-max(1, len(lags) // 10):]
    out.valid = (
        paced["achieved"] >= MIN_ACHIEVED * paced["offered"]
        and median(tail) <= MAX_FINAL_LAG
    )
    out.attempted, out.failed = counter.attempted, counter.failed
    out.samples = {
        "lifecycle": [s * 1e3 for s in lifecycle],
        "fresh": [s * 1e3 for s in fresh],
        "gen_lag": [s * 1e3 for s in lags],
    }
    if not tracer.enabled:
        out.e2e = {
            "setup_s": median(setups),
            "drain_eps": median(closed["rates"]),
            "peak_rss_mb": rss,
        }
    out.notes.append(
        f"open loop: offered {paced['offered']:.0f} ev/s, achieved "
        f"{paced['achieved']:.0f} ev/s, generator lag p50 "
        f"{median(lags) * 1e3:.2f} ms, last tenth {median(tail) * 1e3:.2f} ms"
        + ("" if out.valid else "  -> INVALID: the backlog grew")
    )
    out.notes.append(
        f"closed loop: {BURSTS} bursts of {BURST_EVENTS} events, "
        f"{min(closed['rates']):.0f}-{max(closed['rates']):.0f} ev/s; "
        f"{outputs} outputs identical to the offline replay, which ran "
        f"the events at {common.inline_eps(played):.0f} ev/s on one thread"
    )
    if tracer.enabled:
        out.layers.update(
            {
                "serve.send_ms_p50": percentile(closed["sends"], 50) * 1e3,
                "serve.send_ms_p99": percentile(closed["sends"], 99) * 1e3,
                "serve.credit_waits": closed["credit_waits"],
                "serve.accept_ms_p50": percentile(prober.stages["accept"], 50) * 1e3,
                "serve.pump_ms_p50": percentile(prober.stages["pump"], 50) * 1e3,
                "serve.ship_ms_p99": report.ship_p99_ms,
                "serve.gen_lag_ms_p99": percentile(lags, 99) * 1e3,
            }
        )
        # No shard.ship_us_per_event here: the program's pump thread calls
        # process_batch, out of reach of the benchmark's spans.
        out.layers.update(
            common.fleet_layer_metrics(
                busy_before, busy_after, closed["wall"], prober.stages["ping"]
            )
        )
        out.layers.update(common.inline_layer_metrics(played))
        out.layers["shard.lifecycle_overhead_ms_p50"] = (
            median(lifecycle) - median(played.register)
        ) * 1e3
        out.layers["lang.parse_us_p50"] = common.parse_us_p50(data.queries, tracer)
        out.layers["streams.pack_us_per_event"] = common.pack_us_per_event(
            sources, [(stream, rows) for __, stream, rows in data.paced], tracer
        )
        out.layers["trace.overhead_pct"] = (
            (closed["wall"] / closed["events"])
            / (untraced["wall"] / untraced["events"])
            - 1.0
        ) * 100.0
    return out
