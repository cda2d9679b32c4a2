"""Datacenter workload models: flow-size distributions."""

from .flowsizes import (
    ALIBABA_STORAGE, DCTCP_WEB_SEARCH, GOOGLE_ALL_RPC, GOOGLE_SEARCH_RPC,
    META_HADOOP, META_KEY_VALUE, WORKLOADS, FlowSizeDistribution,
)

__all__ = [
    "ALIBABA_STORAGE", "DCTCP_WEB_SEARCH", "GOOGLE_ALL_RPC",
    "GOOGLE_SEARCH_RPC", "META_HADOOP", "META_KEY_VALUE", "WORKLOADS",
    "FlowSizeDistribution",
]
