"""HTTP message and content-model tests."""

import dataclasses

import pytest

import repro.util.crypto as crypto
from repro.http.content import ContentCatalog, WebObject, WebPage
from repro.http.messages import (
    HttpRequest,
    HttpResponse,
    locked,
    not_found,
    not_modified,
    ok,
    partial_content,
    unauthorized,
)


class TestHttpRequest:
    def test_basic(self):
        req = HttpRequest("GET", "/index.html")
        assert req.wire_size == 400
        assert req.if_none_match is None

    def test_body_adds_to_wire_size(self):
        req = HttpRequest("PUT", "/f", body_size=1000)
        assert req.wire_size == 1400

    def test_conditional_header(self):
        req = HttpRequest("GET", "/f", headers={"If-None-Match": '"v1"'})
        assert req.if_none_match == '"v1"'

    def test_webdav_methods_allowed(self):
        for method in ("PROPFIND", "MKCOL", "LOCK", "UNLOCK", "COPY", "MOVE"):
            HttpRequest(method, "/dav/x")

    def test_invalid_method(self):
        with pytest.raises(ValueError):
            HttpRequest("BREW", "/coffee")

    def test_invalid_path(self):
        with pytest.raises(ValueError):
            HttpRequest("GET", "no-slash")

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            HttpRequest("GET", "/f", range=(10, 5))
        HttpRequest("GET", "/f", range=(0, 10))  # valid


class TestHttpResponse:
    def test_ok(self):
        resp = ok(body_size=100)
        assert resp.ok and resp.status == 200
        assert resp.wire_size == 400

    def test_max_age_parsing(self):
        resp = ok(headers={"Cache-Control": "public, max-age=3600"})
        assert resp.max_age == 3600
        assert not resp.no_store

    def test_no_store(self):
        resp = ok(headers={"Cache-Control": "no-store"})
        assert resp.no_store
        assert resp.max_age is None

    def test_malformed_max_age(self):
        resp = ok(headers={"Cache-Control": "max-age=banana"})
        assert resp.max_age is None

    def test_helpers(self):
        assert not_modified().status == 304
        assert not_found("/x").status == 404
        assert unauthorized("attic").headers["WWW-Authenticate"].startswith("Basic")
        assert locked().status == 423
        assert partial_content(50).status == 206

    def test_invalid_status(self):
        with pytest.raises(ValueError):
            HttpResponse(99)


class TestWebObject:
    def test_hash_is_real_and_version_sensitive(self):
        obj = WebObject("logo.png", 2048)
        assert len(obj.sha256) == 64
        assert obj.sha256 != obj.bump_version().sha256

    def test_tampered_differs_but_same_shape(self):
        obj = WebObject("app.js", 4096)
        bad = obj.tampered()
        assert bad.name == obj.name and bad.size == obj.size
        assert bad.sha256 != obj.sha256

    def test_etag_tracks_version(self):
        obj = WebObject("a", 10)
        assert obj.etag != obj.bump_version().etag

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            WebObject("x", -1)
        with pytest.raises(ValueError):
            WebObject("x", 10, version=0)

    @pytest.mark.parametrize("size", [0, 1, 31, 32, 33, 4096, 50_001])
    def test_hash_is_the_digest_of_the_derived_bytes(self, size):
        obj = WebObject("app.js", size)
        for variant in (obj, obj.bump_version(), obj.tampered(),
                        obj.bump_version().tampered()):
            assert variant.sha256 == crypto.sha256_hex(crypto.derive_payload(
                variant.name, variant.version, variant.size))

    def test_hash_is_computed_once_per_instance(self, monkeypatch):
        calls = []
        real = crypto.derive_payload
        monkeypatch.setattr(crypto, "derive_payload",
                            lambda *a: calls.append(a) or real(*a))
        obj = WebObject("app.js", 4096)
        assert "sha256" not in vars(obj)
        first = obj.sha256
        assert obj.sha256 is first and vars(obj)["sha256"] == first
        assert calls == [("app.js", 1, 4096)]

    def test_every_new_instance_starts_uncached(self):
        obj = WebObject("app.js", 4096)
        obj.sha256
        for fresh in (dataclasses.replace(obj), dataclasses.replace(obj, size=10),
                      obj.bump_version(), obj.tampered()):
            assert "sha256" not in vars(fresh)
        resized = dataclasses.replace(obj, size=10)
        assert resized.sha256 == crypto.content_hash("app.js", 1, 10)
        # The cache is not a field: equality and hashing ignore it.
        twin = WebObject("app.js", 4096)
        assert twin == obj and hash(twin) == hash(obj)

    def test_stays_frozen(self):
        obj = WebObject("app.js", 4096)
        assert obj.__dataclass_params__.frozen
        for name in ("version", "size", "sha256"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, name, 2)


class TestWebPage:
    def make_page(self):
        container = WebObject("index.html", 20_000, content_type="text/html")
        embedded = tuple(WebObject(f"img{i}.jpg", 50_000) for i in range(4))
        return WebPage(url="/index.html", container=container, embedded=embedded)

    def test_totals(self):
        page = self.make_page()
        assert page.object_count == 5
        assert page.total_size == 20_000 + 4 * 50_000

    def test_all_objects_order(self):
        page = self.make_page()
        objs = list(page.all_objects())
        assert objs[0].name == "index.html"
        assert len(objs) == 5


class TestContentCatalog:
    def test_add_and_get(self):
        catalog = ContentCatalog()
        obj = WebObject("a", 10)
        catalog.add_object(obj)
        assert catalog.object("a") is obj
        assert catalog.object("zzz") is None

    def test_page_registers_objects(self):
        catalog = ContentCatalog()
        page = WebPage("/p", WebObject("p.html", 100),
                       embedded=(WebObject("i.png", 200),))
        catalog.add_page(page)
        assert catalog.object("i.png") is not None
        assert catalog.page("/p") is page
        assert len(catalog) == 2

    def test_update_object_bumps_version_everywhere(self):
        catalog = ContentCatalog()
        img = WebObject("i.png", 200)
        page = WebPage("/p", WebObject("p.html", 100), embedded=(img,))
        catalog.add_page(page)
        updated = catalog.update_object("i.png")
        assert updated.version == 2
        refreshed = catalog.page("/p")
        assert refreshed.embedded[0].version == 2

    def test_update_container_object(self):
        catalog = ContentCatalog()
        page = WebPage("/p", WebObject("p.html", 100))
        catalog.add_page(page)
        catalog.update_object("p.html")
        assert catalog.page("/p").container.version == 2

    def test_update_unknown_raises(self):
        with pytest.raises(KeyError):
            ContentCatalog().update_object("nope")
