"""Headless-browser page-load model.

- :class:`BrowserSession` — per-origin client state across visits
- :class:`PageLoader` / :class:`BrowserConfig` — one visit's machinery
- :class:`NetworkClient` — pooled connections over the simulated link
- :class:`BrowserCache` / :class:`ServiceWorkerHost` — the cache layers
- :mod:`metrics` — the fetch timeline and PLT
"""

from .cache_layer import BrowserCache, CachePlan
from .engine import BrowserConfig, BrowserSession, PageLoader
from .fetcher import (CONNECTIONS_PER_ORIGIN, NetworkClient, OriginHandler,
                      OriginUnreachable)
from .js import ScriptModel, extract_js_fetches, kind_from_url
from .metrics import FetchEvent, FetchSource, PageLoadResult
from .sw_host import ServiceWorkerHost
from .trace import render_waterfall, to_har, to_har_json

__all__ = [
    "BrowserSession", "PageLoader", "BrowserConfig",
    "NetworkClient", "OriginHandler",
    "CONNECTIONS_PER_ORIGIN", "OriginUnreachable",
    "BrowserCache", "CachePlan", "ServiceWorkerHost",
    "ScriptModel", "extract_js_fetches", "kind_from_url",
    "FetchEvent", "FetchSource", "PageLoadResult",
    "to_har", "to_har_json", "render_waterfall",
]
