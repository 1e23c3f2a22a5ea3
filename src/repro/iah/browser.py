"""A household device's browser, with and without the HPoP in the path.

Experiment E11 compares the user-perceived latency of loading pages
through the Internet@home cache (LAN round trips on hits) against
fetching directly from origins over the WAN. Both run the shared page
fetch with their own per-object target and booking.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.http.client import PageFetcher
from repro.http.content import WebPage
from repro.http.messages import HttpRequest
from repro.iah.service import OBJECT_ROUTE, VISIT_ROUTE
from repro.iah.web import Website
from repro.net.node import Host


@dataclass
class PageVisitResult:
    """Timing and provenance of one page visit."""

    site: str
    url: str
    started_at: float
    completed_at: float
    object_count: int = 0
    bytes_total: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    lateral_hits: int = 0

    @property
    def duration(self) -> float:
        return self.completed_at - self.started_at

    @property
    def hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses + self.lateral_hits
        return (self.cache_hits + self.lateral_hits) / total if total else 0.0


class HomeBrowser(PageFetcher):
    """Loads pages either through the home HPoP or straight from origins."""

    def load_via_hpop(
        self,
        hpop_host: Host,
        site: Website,
        url: str,
        on_done: Callable[[PageVisitResult], None],
        record_visit: bool = True,
    ) -> None:
        """Fetch every page object through the HPoP's Internet@home cache.

        Page structure comes from the site's public metadata (a real
        browser learns it by parsing HTML); the cache work happens on
        the per-object fetches.
        """
        page = self._page(site, url)
        if record_visit:
            self.client.request(
                hpop_host,
                HttpRequest("POST", VISIT_ROUTE,
                            body={"site": site.name, "url": url},
                            body_size=120),
                lambda resp, stats: None, port=443,
                on_error=lambda exc: None)

        def account(result: PageVisitResult, resp) -> None:
            # A failed fetch is booked as a miss.
            provenance = (resp.headers.get("X-Cache", "miss") if resp.ok
                          else "miss")
            if provenance in ("hit", "revalidated"):
                result.cache_hits += 1
            elif provenance == "lateral":
                result.lateral_hits += 1
            else:
                result.cache_misses += 1

        self._visit(
            site, page,
            lambda obj: (hpop_host,
                         HttpRequest("POST", OBJECT_ROUTE,
                                     body={"site": site.name,
                                           "object": obj.name},
                                     body_size=150),
                         443),
            account, on_done)

    def load_via_origin(
        self,
        site: Website,
        url: str,
        on_done: Callable[[PageVisitResult], None],
    ) -> None:
        """The no-HPoP baseline: fetch everything over the WAN."""

        def account(result: PageVisitResult, _resp) -> None:
            result.cache_misses += 1

        self._visit(
            site, self._page(site, url),
            lambda obj: (site.host,
                         HttpRequest("GET",
                                     f"{site.objects_prefix}/{obj.name}",
                                     host=site.name),
                         site.port),
            account, on_done)

    @staticmethod
    def _page(site: Website, url: str) -> WebPage:
        page = site.catalog.page(url)
        if page is None:
            raise KeyError(f"{site.name} has no page {url}")
        return page

    def _visit(self, site: Website, page: WebPage, target_for, account,
               on_done) -> None:
        """Fetch every object of ``page``; ``account`` books each
        response's provenance, ``on_done`` gets the result."""
        result = PageVisitResult(site=site.name, url=page.url,
                                 started_at=self.sim.now,
                                 completed_at=self.sim.now,
                                 object_count=page.object_count)

        def booked(_obj, resp) -> None:
            if resp is None:
                return  # a failed exchange books nothing
            if resp.ok:
                result.bytes_total += resp.body_size
            account(result, resp)

        def visited() -> None:
            result.completed_at = self.sim.now
            on_done(result)

        self._fetch_all(list(page.all_objects()), target_for, booked, visited)
