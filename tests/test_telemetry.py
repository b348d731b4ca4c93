import json
import socket
import time

import pytest

from gateracer.metrics import MetricsLogger, MetricsRecord
from gateracer.telemetry import MetricsServer, parse_address


def recv_lines(conn, n, timeout=5.0):
    conn.settimeout(timeout)
    buf = b""
    deadline = time.time() + timeout
    while buf.count(b"\n") < n and time.time() < deadline:
        chunk = conn.recv(4096)
        if not chunk:
            break
        buf += chunk
    return buf.decode("utf-8").splitlines()


def test_parse_address():
    assert parse_address("127.0.0.1:9000") == ("127.0.0.1", 9000)
    assert parse_address("127.0.0.1:0") == ("127.0.0.1", 0)
    assert parse_address("localhost:65535") == ("localhost", 65535)
    for bad in ("9000", "host:", "127.0.0.1:65536", "127.0.0.1:70000",
                "127.0.0.1:-1", "127.0.0.1:99999999999999999999"):
        with pytest.raises(ValueError):
            parse_address(bad)


def test_client_receives_published_lines():
    server = MetricsServer("127.0.0.1", 0)
    try:
        client = socket.create_connection(server.address)
        time.sleep(0.2)  # let the accept loop register the client
        lines = [json.dumps({"i": i}) for i in range(50)]
        for line in lines:
            server.publish(line)
        got = recv_lines(client, 50)
        assert got == lines
        client.close()
    finally:
        server.close()


def test_publish_without_clients_is_noop():
    server = MetricsServer("127.0.0.1", 0)
    try:
        for i in range(100):
            server.publish(f'{{"i": {i}}}')
    finally:
        server.close()


def test_slow_client_is_dropped_not_blocking():
    server = MetricsServer("127.0.0.1", 0, queue_size=4)
    try:
        client = socket.create_connection(server.address)
        time.sleep(0.2)
        # a client that never reads: small queue overflows, publish keeps
        # returning promptly and the client gets disconnected
        t0 = time.time()
        for i in range(20_000):
            server.publish("x" * 100)
        assert time.time() - t0 < 10.0
        # server side should eventually consider the client gone
        time.sleep(0.2)
        server.publish("after")
        client.close()
    finally:
        server.close()


def test_metrics_logger_mirrors_to_telemetry(tmp_path):
    server = MetricsServer("127.0.0.1", 0)
    try:
        client = socket.create_connection(server.address)
        time.sleep(0.2)
        logger = MetricsLogger(tmp_path / "m.jsonl", telemetry=server)
        rec = MetricsRecord(event="episode", global_step=10, episode=1,
                            episodic_return=1.5, gates_passed=2,
                            collisions=0, duration=3.0, policy_loss=None,
                            value_loss=None, approx_kl=None,
                            clip_fraction=None)
        logger.write(rec)
        logger.close()
        file_lines = (tmp_path / "m.jsonl").read_text().splitlines()
        net_lines = recv_lines(client, 1)
        assert file_lines == net_lines == [rec.to_json()]
        parsed = json.loads(net_lines[0])
        assert parsed["event"] == "episode" and parsed["gates_passed"] == 2
        client.close()
    finally:
        server.close()
