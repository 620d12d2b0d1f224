"""Resource-hint planning (103 Early Hints / Vroom-style URL lists).

§5's third alternative: instead of pushing bytes, the server tells the
client *which URLs it will need* before the client's own dependency
resolution discovers them.  The client starts those fetches immediately
— saving discovery latency (the parse/execute delays before nested
resources are found) but, unlike CacheCatalyst, saving **no
revalidation round trips**: every hinted fetch still goes through
normal cache semantics.

The planner mirrors the Catalyst server's visibility: DOM-visible
resources plus (optionally) stylesheet children.  JS-discovered
resources stay invisible — the same static-analysis boundary §3
acknowledges.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..html.css import extract_css_refs
from ..html.parser import (ResourceKind, extract_resources, is_same_origin,
                           parse_html)
from .site import OriginSite

__all__ = ["HintPlanner"]


@dataclass
class HintPlanner:
    """Computes the Early-Hints URL list for an HTML response."""

    site: OriginSite
    #: hint stylesheet children too (the server parsed the CSS anyway)
    include_css_children: bool = True
    #: Vroom-style offline profiling: the operator has recorded which
    #: URLs each script fetches in production, so JS-discovered resources
    #: get hinted too (this is what makes Vroom effective — and what
    #: requires the heavyweight offline pipeline the paper contrasts
    #: CacheCatalyst's simplicity against)
    include_profiled_js: bool = True

    def hint_urls(self, markup: str) -> list[str]:
        """Same-origin URLs to hint, document order, children last."""
        refs = extract_resources(parse_html(markup), base_url="")
        urls: list[str] = []
        seen: set[str] = set()

        def add(url: str) -> None:
            if url in seen:
                return
            if not is_same_origin(self.site.origin, url):
                return
            if self.site.resource_spec(url) is None:
                return
            seen.add(url)
            urls.append(url)

        for ref in refs:
            add(ref.url)
        if self.include_profiled_js:
            for ref in refs:
                if ref.kind is not ResourceKind.SCRIPT:
                    continue
                self._add_profiled_children(ref.url, add, depth=0)
        if self.include_css_children:
            for ref in refs:
                if ref.kind is not ResourceKind.STYLESHEET:
                    continue
                # read the stylesheet without counting a request; the
                # child set is version-stable, so time 0 is equivalent
                body = self.site.standin_body(ref.url, 0.0)
                if body is None:
                    continue
                for child in extract_css_refs(
                        body.decode(errors="replace")):
                    add(child.url)
        return urls

    def _add_profiled_children(self, script_url: str, add, depth: int,
                               max_depth: int = 4) -> None:
        """Recursively hint a script's profiled fetch set.

        Dynamic (personalised) resources are skipped: the profile can
        record their URLs but prefetching them is useless — the response
        depends on the session.
        """
        if depth >= max_depth:
            return
        spec = self.site.resource_spec(script_url)
        if spec is None:
            return
        for child_url in spec.children:
            child = self.site.resource_spec(child_url)
            if child is None or child.dynamic:
                continue
            add(child_url)
            self._add_profiled_children(child_url, add, depth + 1)
