"""End-to-end tests of the HTTP front door over real sockets.

Each test boots a real :class:`FrontDoorServer` (asyncio, ephemeral port,
background thread) with small in-process replicas and talks to it through
:class:`FrontDoorClient` — the same transport the load generator and chaos
driver use.  Covered: correct answers vs Yen, deadline budgets (504),
overload shedding (429 + ``Retry-After``), replica failover, degraded
serving from the stale cache vs strict mode, maintenance rounds and the
health/metrics surfaces.
"""

from __future__ import annotations

import json
import socket
import struct
import threading
import time
import urllib.request

import pytest

from repro.algorithms import yen_k_shortest_paths
from repro.frontdoor import (
    FrontDoorClient,
    RetryPolicy,
    build_replicas,
    start_front_door,
)
from repro.frontdoor import server as frontdoor_server
from repro.frontdoor.server import MAX_K
from repro.graph import WeightUpdate, road_network
from repro.graph.errors import EdgeNotFoundError
from repro.workloads import KSPQuery

#: The ``/query`` outcome counters; every request lands in exactly one.
QUERY_OUTCOMES = (
    "served_ok", "served_degraded", "shed_overload", "shed_deadline_infeasible",
    "deadline_exceeded", "no_replica_available", "bad_requests", "internal_errors",
)


@pytest.fixture(scope="module")
def graph():
    return road_network(6, 6, seed=3)


@pytest.fixture()
def front_door(graph):
    replicas = build_replicas(graph, num_replicas=2, engine="yen")
    with start_front_door(replicas) as handle:
        yield handle


@pytest.fixture()
def client(front_door):
    with FrontDoorClient.for_url(
        front_door.url, retry_policy=RetryPolicy(seed=1)
    ) as active_client:
        yield active_client


class TestQueryPath:
    def test_answers_match_yen(self, graph, front_door, client):
        for source, target in [(0, 35), (5, 30), (12, 23)]:
            result = client.query(source, target, k=3)
            assert result.status == 200
            assert not result.degraded
            expected = yen_k_shortest_paths(graph, source, target, 3)
            got = [path["distance"] for path in result.paths]
            assert got == pytest.approx([path.distance for path in expected])

    def test_response_carries_routing_metadata(self, front_door, client):
        result = client.query(0, 35, k=2)
        payload = result.payload
        assert payload["graph_version"] == 0
        assert payload["degraded"] is False
        assert payload["replica"] in (0, 1)
        assert payload["attempts"] == 1

    def test_same_key_routes_to_same_replica(self, front_door, client):
        first = client.query(3, 32, k=2).payload["replica"]
        for _ in range(3):
            assert client.query(3, 32, k=2).payload["replica"] == first

    def test_bad_request_is_400(self, front_door, client):
        status, payload, _headers = client._request(
            "POST", "/query", {"source": "zero", "target": 5, "k": 2}, {}, 5.0
        )
        assert status == 400
        assert "error" in payload

    def test_missing_route_is_404(self, front_door, client):
        status, _payload, _headers = client._request(
            "GET", "/no-such-route", None, {}, 5.0
        )
        assert status == 404

    def test_unknown_vertex_is_404(self, front_door, client):
        result = client.query(0, 10_000, k=2)
        assert result.status == 404


class TestDeadlines:
    def test_infeasible_deadline_is_shed_not_computed(self, front_door, client):
        # A microscopic budget cannot cover even one batch: the server must
        # shed at admission (503 deadline) or the client gives up (504);
        # either way no wrong answer and no hung request.
        result = client.query(1, 34, k=2, budget_ms=0.5)
        assert result.status in (503, 504)

    def test_default_budget_succeeds(self, front_door, client):
        assert client.query(2, 33, k=2).status == 200

    def test_deadline_spent_waiting_on_stalled_replica_is_504(self, graph):
        # The first replica of the key's route is stalled past the budget:
        # the front door's wait for its answer times out at the deadline,
        # and the failover to the second replica finds the budget spent.
        replicas = build_replicas(graph, num_replicas=2, engine="yen", stall_seconds=0.6)
        with start_front_door(replicas, degraded_mode=False) as handle:
            server = handle.server
            handle.run_on_loop(server.replicas[server.router.order((0, 35, 2))[0]].stall, 1)
            with FrontDoorClient.for_url(handle.url) as raw:
                status, payload, _headers = raw._request(
                    "POST", "/query", {"source": 0, "target": 35, "k": 2},
                    {"X-Deadline-Ms": "150"}, timeout=5.0,
                )
            assert status == 504
            assert "deadline exceeded" in payload["error"]
            counters = handle.health()["counters"]
            assert counters["deadline_exceeded"] == 1
            assert counters["requests_total"] == sum(counters[name] for name in QUERY_OUTCOMES)

    def test_deadline_lapsed_in_replica_queue_is_504(self, graph):
        # The replica finds the slot's deadline passed when it drains its
        # queue (its clock runs ten seconds ahead here) while the caller is
        # still waiting: the slot is served as expired, the waiter fails
        # with DeadlineExceededError and the front door answers 504 without
        # failing over, since a live replica replied.
        replicas = build_replicas(graph, num_replicas=2, engine="yen")
        with start_front_door(replicas, degraded_mode=False) as handle:
            server = handle.server
            first = server.router.order((0, 35, 2))[0]
            pipeline = server.replicas[first].service.pipeline
            next_batch = pipeline.next_batch
            pipeline.next_batch = lambda now=None: next_batch(time.perf_counter() + 10.0)
            with FrontDoorClient.for_url(handle.url) as raw:
                status, payload, _headers = raw._request(
                    "POST", "/query", {"source": 0, "target": 35, "k": 2},
                    {"X-Deadline-Ms": "5000"}, timeout=10.0,
                )
            assert status == 504
            assert "deadline exceeded" in payload["error"]
            assert pipeline.deadline_expired.value == 1
            assert server.breakers[first].state == "closed"
            counters = handle.health()["counters"]
            assert counters["deadline_exceeded"] == 1
            assert counters["requests_total"] == sum(counters[name] for name in QUERY_OUTCOMES)


class TestFailoverAndDegraded:
    def test_failover_hides_a_dead_replica(self, graph, front_door, client):
        server = front_door.server
        # Kill one replica: every key fails over to the survivor.
        front_door.run_on_loop(server.replicas[0].kill)
        for source, target in [(0, 35), (7, 28), (14, 21)]:
            result = client.query(source, target, k=2)
            assert result.status == 200
            assert result.payload["replica"] == 1
            expected = yen_k_shortest_paths(graph, source, target, 2)
            assert [path["distance"] for path in result.paths] == pytest.approx(
                [path.distance for path in expected]
            )
        assert front_door.health()["counters"]["failovers"] > 0

    def test_degraded_serving_from_stale_cache(self, front_door, client):
        server = front_door.server
        warm = client.query(0, 35, k=2)
        assert warm.status == 200
        for replica in server.replicas.values():
            front_door.run_on_loop(replica.kill)
        stale = client.query(0, 35, k=2)
        assert stale.status == 200
        assert stale.degraded
        assert stale.payload["stale_graph_version"] == 0
        assert [path["distance"] for path in stale.paths] == [
            path["distance"] for path in warm.paths
        ]
        # The degraded body is rendered on demand from the remembered paths:
        # same fields in the same order as the fresh answer's core.
        shared = ["source", "target", "k", "paths", "graph_version"]
        assert list(stale.payload) == shared + ["degraded", "stale_graph_version"]
        assert [stale.payload[name] for name in shared] == [
            warm.payload[name] for name in shared
        ]
        assert front_door.health()["counters"]["served_degraded"] == 1

    def test_uncached_key_fails_when_all_replicas_down(self, front_door, client):
        server = front_door.server
        for replica in server.replicas.values():
            front_door.run_on_loop(replica.kill)
        result = client.query(4, 31, k=2, budget_ms=250.0)
        assert result.status == 503

    def test_strict_mode_never_serves_stale(self, graph):
        replicas = build_replicas(graph, num_replicas=2, engine="yen")
        with start_front_door(replicas, degraded_mode=False) as handle:
            with FrontDoorClient.for_url(handle.url) as strict_client:
                warm = strict_client.query(0, 35, k=2)
                assert warm.status == 200
                server = handle.server
                for replica in server.replicas.values():
                    handle.run_on_loop(replica.kill)
                result = strict_client.query(0, 35, k=2, budget_ms=250.0)
                assert result.status == 503
                assert handle.health()["counters"]["served_degraded"] == 0

    def test_engine_failure_fails_over_and_trips_the_breaker(self, graph):
        # The key's primary replica answers every batch with an engine
        # error: each request is answered by the other replica on its second
        # attempt, and the primary's breaker opens after failure_threshold
        # such errors.
        replicas = build_replicas(graph, num_replicas=2, engine="yen")
        with start_front_door(replicas, degraded_mode=False) as handle:
            server = handle.server
            primary, other = server.router.order((0, 35, 2))

            def broken(queries):
                raise RuntimeError("engine failure")

            server.replicas[primary].service.engine.answer_many = broken
            breaker = server.breakers[primary]
            with FrontDoorClient.for_url(handle.url) as raw:
                for _ in range(breaker.failure_threshold):
                    result = raw.query(0, 35, k=2)
                    assert result.status == 200
                    assert result.payload["replica"] == other
                    assert result.payload["attempts"] == 2
                assert handle.run_on_loop(lambda: breaker.trips) == 1
            counters = handle.health()["counters"]
            assert counters["failovers"] == breaker.failure_threshold
            assert counters["internal_errors"] == 0

    def test_breaker_opens_after_repeated_refusals(self, front_door, client):
        server = front_door.server
        front_door.run_on_loop(server.replicas[0].kill)
        for offset in range(6):
            client.query(offset, 35 - offset, k=2, budget_ms=300.0)
        assert server.breaker_trips_total() >= 1


class TestMaintenance:
    def test_round_bumps_version_and_changes_answers(self, graph, front_door, client):
        before = client.query(0, 35, k=2)
        edges = list(graph.edges())[:4]
        response = client.maintenance([(u, v, w * 2.0) for u, v, w in edges])
        assert response == {"applied": 4, "graph_version": 1}
        after = client.query(0, 35, k=2)
        assert after.status == 200
        assert after.payload["graph_version"] == 1
        assert not after.degraded
        assert before.payload["graph_version"] == 0

    def test_killed_replica_receives_the_round_too(self, graph, front_door, client):
        server = front_door.server
        front_door.run_on_loop(server.replicas[1].kill)
        edges = list(graph.edges())[:2]
        client.maintenance([(u, v, w * 1.5) for u, v, w in edges])
        front_door.run_on_loop(server.replicas[1].revive)
        # Both replicas answer at the same version after the revive.
        versions = {
            client.query(s, t, k=2).payload["graph_version"]
            for s, t in [(0, 35), (7, 28), (9, 26), (3, 32)]
        }
        assert versions == {1}

    def test_killed_replica_round_runs_off_the_event_loop(
        self, graph, front_door, client, monkeypatch
    ):
        """Index maintenance is tens of ms: on the loop thread it would stall
        ``/healthz``, ``/metrics`` and every socket.  A dead replica's round
        goes through its own (idle) batch thread like a live one's."""
        server = front_door.server
        dead = server.replicas[1]
        front_door.run_on_loop(dead.kill)
        ran_on = []
        step = dead.service.maintenance_step

        def recording_step(updates):
            ran_on.append(threading.current_thread().name)
            return step(updates)

        monkeypatch.setattr(dead.service, "maintenance_step", recording_step)
        edges = list(graph.edges())[:2]
        response = client.maintenance([(u, v, w * 1.5) for u, v, w in edges])
        assert response["graph_version"] == 1
        assert len(ran_on) == 1 and ran_on[0].startswith("replica-1")
        assert {r.service.graph.version for r in server.replicas.values()} == {1}
        # Revived, it serves at the new version: kill the other so the
        # answer can only be its own.
        front_door.run_on_loop(dead.revive)
        front_door.run_on_loop(server.replicas[0].kill)
        answer = client.query(0, 35, k=2)
        assert answer.status == 200 and not answer.degraded
        assert answer.payload["replica"] == 1
        assert answer.payload["graph_version"] == 1


class TestObservability:
    def test_healthz_document(self, front_door, client):
        health = client.health()
        assert health["status"] == "ok"
        assert health["degraded_mode"] is True
        assert len(health["replicas"]) == 2
        for entry in health["replicas"]:
            assert entry["alive"] is True
            assert entry["breaker"] == "closed"

    def test_metrics_exposition(self, front_door, client):
        client.query(0, 35, k=2)
        with urllib.request.urlopen(f"{front_door.url}/metrics", timeout=10) as resp:
            text = resp.read().decode("utf-8")
        assert "frontdoor_requests_total 1" in text
        assert "frontdoor_breaker_state" in text

    def test_healthz_counters_are_the_metrics_series(self, graph):
        replicas = build_replicas(graph, num_replicas=2, engine="yen", queue_capacity=1)
        with start_front_door(replicas) as handle:
            server = handle.server
            with FrontDoorClient.for_url(handle.url) as raw:
                assert raw.query(0, 35, k=2).status == 200
                # Failover: the key's primary refuses, the other answers.
                down = server.router.order((7, 28, 2))[0]
                handle.run_on_loop(server.replicas[down].kill)
                assert raw.query(7, 28, k=2).payload["attempts"] == 2
                handle.run_on_loop(server.replicas[down].revive)
                # Bad requests: an unknown vertex and a malformed body.
                assert raw.query(0, 10_000, k=2).status == 404
                status, _, _ = raw._request("POST", "/query", {"source": 0}, {}, 5.0)
                assert status == 400
                status, _, _ = raw._request("POST", "/maintenance", {"updates": 1}, {}, 5.0)
                assert status == 400
                # Fill both one-slot queues without waking their workers:
                # a new key is shed, a key answered before is served stale.
                for replica in server.replicas.values():
                    handle.run_on_loop(
                        replica.service.submit, KSPQuery(query_id=-1, source=3, target=30, k=2)
                    )
                status, _, _ = raw._request(
                    "POST", "/query", {"source": 14, "target": 21, "k": 2}, {}, 5.0
                )
                assert status == 429
                assert raw.query(0, 35, k=2).degraded
            counters = handle.health()["counters"]
            with urllib.request.urlopen(f"{handle.url}/metrics", timeout=10) as resp:
                lines = resp.read().decode("utf-8").splitlines()
        assert list(counters) == [
            "requests_total", "served_ok", "served_degraded", "shed_overload",
            "shed_deadline_infeasible", "deadline_exceeded", "no_replica_available",
            "failovers", "bad_requests", "internal_errors", "maintenance_rounds",
            "maintenance_rejected",
        ]
        for name in ("served_ok", "served_degraded", "shed_overload", "failovers",
                     "bad_requests", "maintenance_rejected"):
            assert counters[name] > 0, name
        for name, value in counters.items():
            assert f"frontdoor_{name} {value}" in lines, name

    def test_oversized_body_is_rejected(self, front_door):
        # Declare a 2 MiB body but send none: the server must refuse from
        # the Content-Length alone, before buffering anything.
        host, _, port = front_door.url.split("//", 1)[-1].partition(":")
        with socket.create_connection((host, int(port)), timeout=10) as sock:
            sock.sendall(
                b"POST /query HTTP/1.1\r\n"
                b"Host: frontdoor\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: 2097152\r\n"
                b"\r\n"
            )
            status_line = sock.makefile("rb").readline()
        assert b"413" in status_line


class TestMalformedFraming:
    """Hostile framing gets a 400 and a closed connection; the server lives on."""

    @staticmethod
    def _exchange(front_door, request: bytes, half_close: bool = False) -> bytes:
        host, _, port = front_door.url.split("//", 1)[-1].partition(":")
        with socket.create_connection((host, int(port)), timeout=10) as sock:
            sock.sendall(request)
            if half_close:
                sock.shutdown(socket.SHUT_WR)
            with sock.makefile("rb") as stream:
                return stream.read()  # to EOF: the server must close

    @pytest.mark.parametrize("value", [b"twelve", b"-5", b"1e3", b"0x10"])
    def test_invalid_content_length_is_400(self, front_door, client, value):
        response = self._exchange(
            front_door,
            b"POST /query HTTP/1.1\r\nHost: frontdoor\r\n"
            b"Content-Length: " + value + b"\r\n\r\n",
        )
        assert response.startswith(b"HTTP/1.1 400 ")
        assert b"Connection: close" in response
        assert client.query(0, 35, k=2).status == 200

    def test_body_cut_short_is_400(self, front_door, client):
        response = self._exchange(
            front_door,
            b"POST /query HTTP/1.1\r\nHost: frontdoor\r\n"
            b"Content-Length: 64\r\n\r\n" + b'{"source": 0, "tar',
            half_close=True,
        )
        assert response.startswith(b"HTTP/1.1 400 ")
        assert b"shorter than Content-Length" in response
        assert client.query(0, 35, k=2).status == 200

    def test_reset_mid_body_leaves_the_server_up(self, front_door, client):
        host, _, port = front_door.url.split("//", 1)[-1].partition(":")
        sock = socket.create_connection((host, int(port)), timeout=10)
        sock.sendall(
            b"POST /query HTTP/1.1\r\nHost: frontdoor\r\n"
            b"Content-Length: 64\r\n\r\n" + b'{"source"'
        )
        # SO_LINGER 0 turns close() into a RST instead of a FIN.
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        sock.close()
        assert client.query(0, 35, k=2).status == 200
        assert client.health()["status"] == "ok"

    def test_stalled_body_is_408(self, front_door, monkeypatch):
        """A writer that stops mid-body, socket open, is told so and dropped
        instead of pinning its handler task for good."""
        monkeypatch.setattr(frontdoor_server, "_BODY_READ_TIMEOUT", 0.2)
        host, _, port = front_door.url.split("//", 1)[-1].partition(":")
        with socket.create_connection((host, int(port)), timeout=10) as sock:
            sock.sendall(
                b"POST /maintenance HTTP/1.1\r\nHost: frontdoor\r\n"
                b"Content-Length: 64\r\n\r\n" + b'{"updates": [[0, 1'
            )
            with sock.makefile("rb") as stream:  # nothing more is sent
                response = stream.read()  # to EOF: the server must close
        assert response.startswith(b"HTTP/1.1 408 ")
        assert b"Connection: close" in response
        assert not front_door.server._connections
        with FrontDoorClient.for_url(front_door.url) as fresh:
            assert fresh.query(0, 35, k=2).status == 200
            assert fresh.health()["status"] == "ok"

    def test_idle_keep_alive_connection_is_not_timed_out(
        self, front_door, client, monkeypatch
    ):
        """Only the body read is bounded: a client that sits on its one
        connection longer than the bound is answered on it, not retried."""
        monkeypatch.setattr(frontdoor_server, "_BODY_READ_TIMEOUT", 0.05)
        assert client.query(0, 35, k=2).status == 200
        time.sleep(0.2)
        again = client.query(0, 35, k=2)
        assert again.status == 200 and again.attempts == 1
        assert client.retries == 0


class TestHostileInputs:
    """Well-framed requests with hostile *values*: a 4xx JSON error, never
    an empty reply or a 200, and no collateral damage — the next well-formed
    query on a fresh connection answers, ``/healthz`` says ``ok`` and no
    breaker has been charged a failure."""

    @staticmethod
    def _post(front_door, path: str, body: bytes, headers: bytes = b""):
        """One raw exchange; returns ``(status, decoded JSON payload)``."""
        response = TestMalformedFraming._exchange(
            front_door,
            b"POST " + path.encode() + b" HTTP/1.1\r\nHost: frontdoor\r\n"
            b"Connection: close\r\n" + headers
            + b"Content-Length: " + str(len(body)).encode() + b"\r\n\r\n" + body,
        )
        assert response, "the server closed the socket without answering"
        head, _, payload = response.partition(b"\r\n\r\n")
        return int(head.split(b" ", 2)[1]), json.loads(payload)

    @staticmethod
    def _assert_unharmed(front_door):
        with FrontDoorClient.for_url(front_door.url) as fresh:
            assert fresh.query(0, 35, k=2).status == 200
            assert fresh.health()["status"] == "ok"
        for breaker in front_door.server.breakers.values():
            assert breaker.state == "closed"
            assert breaker.trips == 0

    def test_maintenance_on_unknown_edge_is_400(self, graph, front_door):
        assert not graph.has_edge(0, 35)
        status, payload = self._post(
            front_door, "/maintenance", b'{"updates": [[0, 1, 2.5], [0, 35, 1.0]]}'
        )
        assert status == 400
        assert "(0, 35)" in payload["error"]
        # The in-process entry point refuses the same round the same way.
        with pytest.raises(EdgeNotFoundError):
            front_door.apply_maintenance(
                [WeightUpdate(0, 1, 2.5), WeightUpdate(0, 35, 1.0)]
            )
        # Nothing of the rejected round was applied — not even its valid edge.
        assert front_door.health()["counters"]["maintenance_rounds"] == 0
        for replica in front_door.server.replicas.values():
            assert replica.service.graph.version == 0
        self._assert_unharmed(front_door)

    def test_rejected_maintenance_is_not_a_bad_query(self, front_door):
        """Regression: a rejected ``/maintenance`` post (bad JSON, unknown
        edge, bad weight) was counted in ``bad_requests``, the ``/query``
        error count; it has its own counter on ``/healthz`` and ``/metrics``."""
        before = front_door.health()["counters"]
        for body in (
            b'{"updates": [[0, 1',
            b'{"updates": [[0, 35, 1.0]]}',
            b'{"updates": [[0, 1, -2.0]]}',
        ):
            status, _ = self._post(front_door, "/maintenance", body)
            assert status == 400
        after = front_door.health()["counters"]
        assert after["bad_requests"] == before["bad_requests"]
        assert after["maintenance_rejected"] == before["maintenance_rejected"] + 3
        assert after["maintenance_rounds"] == before["maintenance_rounds"]
        with urllib.request.urlopen(f"{front_door.url}/metrics", timeout=10) as resp:
            text = resp.read().decode("utf-8")
        assert f"frontdoor_maintenance_rejected {after['maintenance_rejected']}" in text
        self._assert_unharmed(front_door)

    @pytest.mark.parametrize(
        "body",
        [
            b'{"source": 0.9, "target": 35, "k": 2}',
            b'{"source": "0", "target": 35, "k": 2.7}',
            b'{"source": true, "target": 35, "k": true}',
            b'{"source": 0, "target": 35.0, "k": 2}',
            b'{"source": 0, "target": 35, "k": "2"}',
        ],
    )
    def test_non_integer_query_fields_are_400(self, front_door, body):
        """Regression: ``int()`` coerced floats, numeric strings and
        booleans, so these answered 200 for a query nobody asked."""
        before = front_door.health()["counters"]
        status, payload = self._post(front_door, "/query", body)
        assert status == 400
        assert "integer" in payload["error"]
        after = front_door.health()["counters"]
        assert after["bad_requests"] == before["bad_requests"] + 1
        assert after["served_ok"] == before["served_ok"]
        self._assert_unharmed(front_door)

    @pytest.mark.parametrize(
        "body",
        [
            b'{"updates": [[0.7, 1.2, 2.5]]}',
            b'{"updates": [["0", 1, 2.5]]}',
            b'{"updates": [[false, 1, 2.5]]}',
            b'{"updates": [[0, 1, "2.5"]]}',
            b'{"updates": [[0, 1, true]]}',
        ],
    )
    def test_non_integer_edge_or_non_number_weight_is_400(self, front_door, body):
        """Regression: ``int()`` / ``float()`` coerced these into a valid
        round on edge (0, 1), which then applied with a 200."""
        status, _payload = self._post(front_door, "/maintenance", body)
        assert status == 400
        counters = front_door.health()["counters"]
        assert counters["maintenance_rejected"] == 1
        assert counters["maintenance_rounds"] == 0
        assert counters["bad_requests"] == 0
        for replica in front_door.server.replicas.values():
            assert replica.service.graph.version == 0
        self._assert_unharmed(front_door)

    def test_unexpected_handler_error_is_500_and_the_server_lives(
        self, front_door, monkeypatch, capsys
    ):
        def explode():
            raise RuntimeError("handler bug")

        monkeypatch.setattr(front_door.server, "metrics_registry", explode)
        response = TestMalformedFraming._exchange(
            front_door,
            b"GET /metrics HTTP/1.1\r\nHost: frontdoor\r\nConnection: close\r\n\r\n",
        )
        assert response.startswith(b"HTTP/1.1 500 ")
        assert b"RuntimeError" in response
        assert "handler bug" in capsys.readouterr().err  # traceback recorded
        self._assert_unharmed(front_door)
        assert front_door.health()["counters"]["internal_errors"] == 1

    @pytest.mark.parametrize("budget", [b"nan", b"inf"])
    def test_non_finite_deadline_is_400(self, front_door, budget):
        for _ in range(3):
            status, payload = self._post(
                front_door, "/query", b'{"source": 0, "target": 35, "k": 2}',
                headers=b"X-Deadline-Ms: " + budget + b"\r\n",
            )
            assert status == 400
            assert "deadline" in payload["error"]
        self._assert_unharmed(front_door)

    def test_infinite_weight_is_400(self, front_door):
        status, payload = self._post(
            front_door, "/maintenance", b'{"updates": [[0, 1, Infinity]]}'
        )
        assert status == 400
        assert "finite" in payload["error"]
        self._assert_unharmed(front_door)

    def test_unbounded_k_is_400(self, front_door):
        # On the parent this pinned the replica's only batch thread far past
        # the 500 ms budget; the cap answers before any work is admitted.
        for k in (MAX_K + 1, 200_000):
            status, payload = self._post(
                front_door, "/query",
                b'{"source": 0, "target": 35, "k": %d}' % k,
                headers=b"X-Deadline-Ms: 500\r\n",
            )
            assert status == 400
            assert str(MAX_K) in payload["error"]
        # A JSON ``Infinity`` is not an integer.
        status, _payload = self._post(
            front_door, "/query", b'{"source": 0, "target": 35, "k": Infinity}'
        )
        assert status == 400
        assert all(worker.idle for worker in front_door.server.workers.values())
        self._assert_unharmed(front_door)


class TestOverload:
    def test_queue_full_returns_429_with_retry_after(self, graph):
        # Tiny admission queue + a stalled replica: submits pile up until
        # the queue refuses, which must surface as 429 + Retry-After.
        replicas = build_replicas(
            graph, num_replicas=1, engine="yen",
            queue_capacity=2, max_batch_size=2, stall_seconds=0.3,
        )
        with start_front_door(replicas) as handle:
            handle.run_on_loop(handle.server.replicas[0].stall, 50)
            import threading

            lock = threading.Lock()
            outcomes = []

            def fire(index: int) -> None:
                local = FrontDoorClient.for_url(handle.url)
                try:
                    # One raw exchange, no client-side retry loop: observe
                    # the shed response and its headers as sent.
                    status, _payload, headers = local._request(
                        "POST", "/query",
                        {"source": index, "target": 35 - index, "k": 2},
                        {"X-Deadline-Ms": "250.0"},
                        timeout=5.0,
                    )
                    with lock:
                        outcomes.append((status, headers.get("retry-after")))
                finally:
                    local.close()

            threads = [
                threading.Thread(target=fire, args=(i,)) for i in range(12)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            counters = handle.health()["counters"]
            shed = counters["shed_overload"]
            deadline_shed = counters["shed_deadline_infeasible"]
            # Under this much pressure requests must be refused early —
            # queue-full (429) or deadline-infeasible (503) shedding.
            assert shed + deadline_shed > 0
            shed_responses = [
                (status, retry_after)
                for status, retry_after in outcomes
                if status in (429, 503)
            ]
            assert shed_responses
            for _status, retry_after in shed_responses:
                # Every shed response advertises a positive backoff hint.
                assert retry_after is not None
                assert float(retry_after) > 0.0
