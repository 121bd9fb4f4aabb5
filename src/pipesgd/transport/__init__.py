"""One-sided notify-write transport with in-process and TCP backends."""

from .base import (
    CONTROL_SEGMENT,
    LatencyModel,
    Notifications,
    Segment,
    TransportBase,
    WriteRequest,
)
from .inproc import InprocTransport, InprocWorld
from .tcp import TcpTransport, bind_listener
from .wire import (
    HEADER_SIZE,
    HELLO_SIZE,
    FrameHeader,
    pack_hello,
    pack_write_notify,
    unpack_hello,
    unpack_write_notify,
)

__all__ = [
    "CONTROL_SEGMENT",
    "HEADER_SIZE",
    "HELLO_SIZE",
    "FrameHeader",
    "LatencyModel",
    "Notifications",
    "Segment",
    "TransportBase",
    "WriteRequest",
    "pack_hello",
    "pack_write_notify",
    "unpack_hello",
    "unpack_write_notify",
    "InprocTransport",
    "InprocWorld",
    "TcpTransport",
    "bind_listener",
]
