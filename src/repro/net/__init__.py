"""Networked front-ends: wire protocol, secure sessions, servers.

* :mod:`repro.net.message` — protocol codec + authenticated channels;
* :mod:`repro.net.server` — cost-modeled front-end used by the
  Fig. 18 / Fig. 19 / Table 1 experiments;
* :mod:`repro.net.tcp` — a real localhost TCP deployment with remote
  attestation, for examples and integration tests.
"""

from repro.net.message import (
    Request,
    Response,
    SecureChannel,
    STATUS_BUSY,
    STATUS_ERROR,
    STATUS_MISS,
    STATUS_OK,
    decode_request,
    decode_response,
    encode_request,
    encode_response,
)
from repro.net.server import (
    FRONTEND_DIRECT,
    FRONTEND_HOTCALLS,
    FRONTEND_OCALL,
    NetworkedServer,
    make_secure_channels,
)
from repro.net.tcp import TCPShieldClient, TCPShieldServer

__all__ = [
    "FRONTEND_DIRECT",
    "FRONTEND_HOTCALLS",
    "FRONTEND_OCALL",
    "NetworkedServer",
    "Request",
    "Response",
    "STATUS_BUSY",
    "STATUS_ERROR",
    "STATUS_MISS",
    "STATUS_OK",
    "SecureChannel",
    "TCPShieldClient",
    "TCPShieldServer",
    "decode_request",
    "decode_response",
    "encode_request",
    "encode_response",
    "make_secure_channels",
]
