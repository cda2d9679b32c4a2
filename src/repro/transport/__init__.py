"""Endpoint transports: TCP (DCTCP/CUBIC/BBR) and RDMA RC."""

from .congestion import BbrCC, CongestionControl, CubicCC, DctcpCC
from .flow import FlowRecord
from .rdma import RDMA_HEADER_BYTES, RdmaRequester, RdmaResponder
from .tcp import TCP_HEADER_BYTES, TcpReceiver, TcpSender

__all__ = [
    "BbrCC", "CongestionControl", "CubicCC", "DctcpCC",
    "FlowRecord",
    "RDMA_HEADER_BYTES", "RdmaRequester", "RdmaResponder",
    "TCP_HEADER_BYTES", "TcpReceiver", "TcpSender",
]
