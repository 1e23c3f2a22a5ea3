"""Web content model: objects, pages, and origin catalogs.

An object is (name, version, size); its "bytes" are derived
deterministically so SHA-256 integrity checks are real (a tampered
object is represented by substituting different bytes — see
:func:`repro.util.crypto.derive_payload`). A page is a container object
plus embedded objects, the structure NoCDN's wrapper page describes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Dict, Iterator, List, Optional

from repro.util.crypto import content_hash


@dataclass(frozen=True)
class WebObject:
    """One addressable object (HTML container, image, script, ...)."""

    name: str
    size: int
    version: int = 1
    content_type: str = "application/octet-stream"

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError(f"size must be non-negative, got {self.size}")
        if self.version < 1:
            raise ValueError(f"version must be >= 1, got {self.version}")

    @cached_property
    def sha256(self) -> str:
        """The real SHA-256 over the object's (derived) bytes.

        Computed on first read and kept in this instance's ``__dict__``
        (``cached_property`` writes there, past the frozen
        ``__setattr__``). Every field is frozen and a new version is a
        new instance (:meth:`bump_version`, :meth:`tampered`,
        ``dataclasses.replace``), so the digest never goes stale; the
        cache lives exactly as long as the object does.
        """
        return content_hash(self.name, self.version, self.size)

    @property
    def etag(self) -> str:
        return f'"{self.name}-v{self.version}"'

    def bump_version(self) -> "WebObject":
        """The object after an update (new version, new bytes, new hash)."""
        return replace(self, version=self.version + 1)

    def tampered(self) -> "WebObject":
        """What a malicious peer would serve: same name/size, wrong bytes.

        Modeled as a distinct version so the derived payload — and hence
        the SHA-256 — differs from the genuine object.
        """
        return replace(self, version=self.version + 1_000_000)


@dataclass(frozen=True)
class WebPage:
    """A container object plus its recursively embedded objects."""

    url: str
    container: WebObject
    embedded: tuple = ()

    def all_objects(self) -> Iterator[WebObject]:
        yield self.container
        yield from self.embedded

    @property
    def total_size(self) -> int:
        return sum(obj.size for obj in self.all_objects())

    @property
    def object_count(self) -> int:
        return 1 + len(self.embedded)


class ContentCatalog:
    """An origin's authoritative object store, with versioned updates."""

    def __init__(self) -> None:
        self._objects: Dict[str, WebObject] = {}
        self._pages: Dict[str, WebPage] = {}

    def add_object(self, obj: WebObject) -> None:
        self._objects[obj.name] = obj

    def add_page(self, page: WebPage) -> None:
        self._pages[page.url] = page
        for obj in page.all_objects():
            self._objects[obj.name] = obj

    def object(self, name: str) -> Optional[WebObject]:
        return self._objects.get(name)

    def page(self, url: str) -> Optional[WebPage]:
        return self._pages.get(url)

    def update_object(self, name: str) -> WebObject:
        """Publish a new version of ``name``; pages referencing it follow."""
        current = self._objects.get(name)
        if current is None:
            raise KeyError(f"no object named {name!r}")
        updated = current.bump_version()
        self._objects[name] = updated
        for url, page in list(self._pages.items()):
            if page.container.name == name:
                self._pages[url] = WebPage(url=page.url, container=updated,
                                           embedded=page.embedded)
            elif any(o.name == name for o in page.embedded):
                new_embedded = tuple(
                    updated if o.name == name else o for o in page.embedded
                )
                self._pages[url] = WebPage(url=page.url, container=page.container,
                                           embedded=new_embedded)
        return updated

    def pages(self) -> List[WebPage]:
        return list(self._pages.values())

    def objects(self) -> List[WebObject]:
        return list(self._objects.values())

    def __len__(self) -> int:
        return len(self._objects)
