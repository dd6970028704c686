"""Endpoint strings shared by the daemon and its clients.

Two flavors::

    unix:/run/repro/tuning.sock      # AF_UNIX path
    tcp:127.0.0.1:7453               # AF_INET host:port

``parse_endpoint`` validates, :func:`bind_listener` builds the server
socket (unlinking a stale unix socket left by a SIGKILLed daemon),
:func:`connect` builds a client socket with a connect timeout.
"""

from __future__ import annotations

import os
import socket
from typing import Tuple, Union

from ..errors import ServeError

__all__ = ["bind_listener", "connect", "parse_endpoint"]

Parsed = Tuple[str, Union[str, Tuple[str, int]]]


def parse_endpoint(endpoint: str) -> Parsed:
    """``("unix", path)`` or ``("tcp", (host, port))``."""
    scheme, _, rest = endpoint.partition(":")
    if scheme == "unix":
        if not rest:
            raise ServeError(f"unix endpoint needs a path: {endpoint!r}")
        return "unix", rest
    if scheme == "tcp":
        host, _, port = rest.rpartition(":")
        if not host or not port:
            raise ServeError(
                f"tcp endpoint must be tcp:HOST:PORT: {endpoint!r}")
        try:
            return "tcp", (host, int(port))
        except ValueError as exc:
            raise ServeError(f"bad tcp port in {endpoint!r}: {exc}") from exc
    raise ServeError(
        f"endpoint {endpoint!r} must start with 'unix:' or 'tcp:'")


def bind_listener(endpoint: str) -> socket.socket:
    """A listening server socket for ``endpoint`` (backlog 64)."""
    kind, address = parse_endpoint(endpoint)
    if kind == "unix":
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            # a previous daemon SIGKILLed here left the socket file; a
            # *live* daemon would still answer on it, so try connecting
            # first and only unlink a dead socket
            if os.path.exists(address):
                probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                try:
                    probe.settimeout(0.25)
                    probe.connect(address)
                except OSError:
                    os.unlink(address)
                else:
                    probe.close()
                    raise ServeError(
                        f"another daemon is already listening on {address!r}")
                finally:
                    probe.close()
            sock.bind(address)
        except OSError as exc:
            sock.close()
            raise ServeError(f"cannot bind {endpoint!r}: {exc}") from exc
        except ServeError:
            sock.close()
            raise
    else:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            sock.bind(address)
        except OSError as exc:
            sock.close()
            raise ServeError(f"cannot bind {endpoint!r}: {exc}") from exc
    sock.listen(64)
    return sock


def connect(endpoint: str, timeout: float) -> socket.socket:
    """A connected client socket (raises ``OSError`` family on failure)."""
    kind, address = parse_endpoint(endpoint)
    if kind == "unix":
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(timeout)
        try:
            sock.connect(address)
        except BaseException:
            sock.close()
            raise
        return sock
    return socket.create_connection(address, timeout=timeout)
