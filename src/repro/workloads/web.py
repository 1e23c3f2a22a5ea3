"""Web catalog and request-stream generation (NoCDN/Internet@home benches)."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, List, Tuple

from repro.http.content import ContentCatalog, WebObject, WebPage
from repro.util.rng import zipf_weights


@dataclass
class CatalogSpec:
    """Shape of a generated site catalog."""

    num_pages: int = 20
    objects_per_page_min: int = 3
    objects_per_page_max: int = 12
    container_size_mean: int = 30_000
    object_size_mean: int = 60_000
    size_sigma: float = 0.8


def generate_catalog(spec: CatalogSpec, rng: random.Random,
                     name_prefix: str = "site") -> ContentCatalog:
    """A catalog of pages with log-normal object sizes."""
    catalog = ContentCatalog()
    for p in range(spec.num_pages):
        container = WebObject(
            f"{name_prefix}-p{p}.html",
            max(2_000, int(rng.lognormvariate(0, spec.size_sigma)
                           * spec.container_size_mean)),
            content_type="text/html")
        count = rng.randint(spec.objects_per_page_min,
                            spec.objects_per_page_max)
        embedded = tuple(
            WebObject(
                f"{name_prefix}-p{p}-o{i}.bin",
                max(1_000, int(rng.lognormvariate(0, spec.size_sigma)
                               * spec.object_size_mean)))
            for i in range(count)
        )
        catalog.add_page(WebPage(url=f"/p{p}", container=container,
                                 embedded=embedded))
    return catalog


def make_catalog(num_pages: int = 1, objects_per_page: int = 4,
                 object_size: int = 50_000,
                 container_size: int = 20_000) -> ContentCatalog:
    """A fixed-shape catalog: every page and object the same size."""
    catalog = ContentCatalog()
    for p in range(num_pages):
        url = f"/page{p}"
        container = WebObject(f"page{p}.html", container_size,
                              content_type="text/html")
        embedded = tuple(
            WebObject(f"page{p}-obj{i}.bin", object_size)
            for i in range(objects_per_page)
        )
        catalog.add_page(WebPage(url=url, container=container,
                                 embedded=embedded))
    return catalog


class ZipfPagePopularity:
    """Draws page URLs with Zipf popularity — the web's request shape."""

    def __init__(self, catalog: ContentCatalog, alpha: float,
                 rng: random.Random) -> None:
        self.pages = [page.url for page in catalog.pages()]
        if not self.pages:
            raise ValueError("catalog has no pages")
        self.weights = list(zipf_weights(len(self.pages), alpha))
        self.rng = rng

    def draw(self) -> str:
        return self.rng.choices(self.pages, weights=self.weights, k=1)[0]

    def draw_many(self, count: int) -> List[str]:
        return [self.draw() for _ in range(count)]


def poisson_arrivals(rate_per_sec: float, duration: float,
                     rng: random.Random) -> Iterator[float]:
    """Arrival times of a Poisson request process."""
    if rate_per_sec <= 0:
        return
    t = 0.0
    while True:
        t += rng.expovariate(rate_per_sec)
        if t >= duration:
            return
        yield t
