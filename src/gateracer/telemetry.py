"""TCP telemetry: streams metrics lines to connected clients as they are
produced. Publishing never blocks training; a client whose bounded queue
fills up is dropped and disconnected."""

from __future__ import annotations

import queue
import socket
import threading

_SENTINEL = None
# records a client may fall behind by before it is dropped
DEFAULT_QUEUE_SIZE = 4096


class _Client:
    def __init__(self, conn: socket.socket, maxsize: int):
        self.conn = conn
        self.queue: queue.Queue = queue.Queue(maxsize=maxsize)
        self.alive = True
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.thread.start()

    def _run(self):
        try:
            while True:
                line = self.queue.get()
                if line is _SENTINEL:
                    break
                self.conn.sendall((line + "\n").encode("utf-8"))
        except OSError:
            pass
        finally:
            self.alive = False
            try:
                self.conn.close()
            except OSError:
                pass

    def offer(self, line: str) -> bool:
        try:
            self.queue.put_nowait(line)
            return True
        except queue.Full:
            return False

    def shutdown(self):
        self.alive = False
        try:
            self.queue.put_nowait(_SENTINEL)
        except queue.Full:
            try:
                self.conn.close()
            except OSError:
                pass


class MetricsServer:
    """Accepts TCP clients; each receives every record published after it
    connected, newline-delimited JSON, no further framing."""

    def __init__(self, host: str, port: int,
                 queue_size: int = DEFAULT_QUEUE_SIZE):
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self.sock.bind((host, port))
        self.sock.listen()
        self.address = self.sock.getsockname()
        self.queue_size = queue_size
        self._clients: list[_Client] = []
        self._lock = threading.Lock()
        self._closed = False
        self._accept_thread = threading.Thread(target=self._accept_loop,
                                               daemon=True)
        self._accept_thread.start()

    def _accept_loop(self):
        while not self._closed:
            try:
                conn, _ = self.sock.accept()
            except OSError:
                break
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            with self._lock:
                self._clients.append(_Client(conn, self.queue_size))

    def publish(self, line: str) -> None:
        with self._lock:
            keep = []
            for client in self._clients:
                if not client.alive:
                    continue
                if client.offer(line):
                    keep.append(client)
                else:
                    # slow client: drop it rather than stall training
                    client.shutdown()
            self._clients = keep

    def close(self) -> None:
        self._closed = True
        try:
            self.sock.close()
        except OSError:
            pass
        with self._lock:
            clients, self._clients = self._clients, []
        for client in clients:
            client.shutdown()
            client.thread.join(timeout=5.0)


def parse_address(addr: str) -> tuple[str, int]:
    host, _, port = addr.rpartition(":")
    if not host or not port.isdigit() or int(port) > 65535:
        raise ValueError(f"bad metrics address '{addr}', want host:port "
                         "with a port in 0-65535")
    return host, int(port)
