"""Each served object is hashed once, and verification stays exact.

``WebObject.sha256`` is cached per instance, the origin reads it into
every wrapper, and the loader reads it for a whole object served by
one source. So ``k`` loads of one page derive and hash the page's
payload bytes once per object, where they used to do it ``2·k`` times
(once in each wrapper, once in each verification). Chunked objects are
still assembled and hashed chunk by chunk, and a tampering peer's
fresh ``tampered()`` instance still mismatches.
"""

import pathlib
import sys

import pytest

import repro.util.crypto as crypto
from repro.experiments import discover, load_experiment
from repro.nocdn.peer import NoCdnPeerService
from repro.workloads.web import make_catalog

from tests.nocdn.harness import NoCdnWorld

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


@pytest.fixture
def derivations(monkeypatch):
    """Every ``derive_payload`` call, wherever the function was imported."""
    calls = []
    real = crypto.derive_payload

    def counting(name, version, size):
        calls.append((name, version, size))
        return real(name, version, size)

    for module in list(sys.modules.values()):
        if getattr(module, "derive_payload", None) is real:
            monkeypatch.setattr(module, "derive_payload", counting)
    return calls


@pytest.mark.parametrize("loads", [1, 3])
def test_k_loads_hash_each_page_object_once(derivations, loads):
    world = NoCdnWorld()
    page = world.catalog.page("/page0")
    for _ in range(loads):
        result = world.load_page("/page0")
        assert result.corrupted == [] and not result.direct_mode
    assert sorted(derivations) == sorted(
        (o.name, o.version, o.size) for o in page.all_objects())


def test_a_tampered_object_is_hashed_for_real(derivations):
    world = NoCdnWorld(peer_services=[NoCdnPeerService(tamper=True)])
    page = world.catalog.page("/page0")
    result = world.load_page("/page0")
    assert len(result.corrupted) == page.object_count
    assert result.bytes_from_origin == page.total_size
    tampered = {(o.name, o.version + 1_000_000, o.size)
                for o in page.all_objects()}
    assert tampered <= set(derivations)


class TestChunkedVerification:
    """Chunk lengths that are not multiples of 32 bytes, so a chunk's
    bytes depend on its offset (``derive_payload`` repeats a 32-byte
    block)."""

    SIZE, CHUNK = 300_001, 100_003

    def world(self, services):
        catalog = make_catalog(objects_per_page=1, object_size=self.SIZE)
        world = NoCdnWorld(peer_services=services, catalog=catalog,
                           chunk_size=self.CHUNK)
        return world, catalog.page("/page0")

    def test_honest_chunks_verify(self):
        world, page = self.world([NoCdnPeerService(), NoCdnPeerService()])
        result = world.load_page("/page0")
        assert self.CHUNK % 32 and self.SIZE % self.CHUNK % 32
        assert result.corrupted == []
        assert result.bytes_from_peers == page.total_size

    def test_tampering_peer_is_detected_and_recovered(self):
        tamperer = NoCdnPeerService(tamper=True)
        world, page = self.world([tamperer, NoCdnPeerService()])
        result = world.load_page("/page0")
        corrupted = {name for name, _peer in result.corrupted}
        assert corrupted
        # Every peer that served a chunk of a corrupted object is named.
        assert tamperer.peer_id in {peer for _name, peer in result.corrupted}
        sizes = {o.name: o.size for o in page.all_objects()}
        assert result.bytes_from_origin == sum(sizes[n] for n in corrupted)
        reports = sum(info.corruption_reports
                      for info in world.provider.peers.values())
        assert reports == len(result.corrupted)

    def test_a_range_no_source_could_serve_is_missing_not_clean(self):
        """Every source of one chunk fails and the origin copy is gone:
        the zero-length stand-in for that chunk must not verify as the
        genuine object, and the peers that served the other chunks are
        neither blamed nor credited."""
        first, second = NoCdnPeerService(), NoCdnPeerService()
        world, page = self.world([first, second])
        name = "page0-obj0.bin"
        warm = world.load_page("/page0")  # both peers cache the object
        assert warm.corrupted == [] and warm.missing == []
        first.signup_for(world.provider.site_name).cache.invalidate(name)
        del world.catalog._objects[name]
        records_before = world.loader.records_sent
        result = world.load_page("/page0")
        assert result.missing == [name]
        assert result.corrupted == []
        assert {peer for _obj, peer in result.peer_failures} == {
            first.peer_id}
        # One usage record: the container's. The object's genuine
        # chunks were never verified, so they earn nothing.
        assert world.loader.records_sent - records_before == 1
        assert result.bytes_from_peers < page.total_size
        assert result.bytes_from_origin == 0


def test_e7_integrity_facts_are_unchanged():
    report = load_experiment(discover(REPO_ROOT / "benchmarks")["e7"])()
    assert report.all_claims_hold
    assert [tuple(row) for row in report.rows] == [
        ("content tampering", 6, 6, "none (hash check + origin recovery)"),
        ("record inflation", 4, 4, "payment denied"),
        ("record replay", 6, 6, "no double payment"),
        ("over-cap claim", 1, 1, "claim bounded by wrapper authorization"),
        ("client+peer collusion", 1, 1, "flagged for review / capping"),
    ]
    assert [c.measured for c in report.claims] == [
        "6 corruptions, 3/3 pages complete",
        "trust=0.0156, expelled=True",
        "4 rejected, payable=0",
        "accepted stayed 6, 6 replays rejected",
        "rejected_over_cap=1",
        "flagged=['nbhd0-home0-hpop']",
    ]
