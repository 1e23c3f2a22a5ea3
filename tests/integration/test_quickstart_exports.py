"""The quickstart flow under each instrument: same seed, same bytes.

An attic PUT from inside the home and a GET from across the WAN (the
flow of ``examples/quickstart.py``), once traced and once scraped into
a TSDB, each run twice from one seed. The exports must be
byte-identical and must actually carry data — an empty trace or TSDB
would be byte-identical too.
"""

from repro.attic.service import DataAtticService
from repro.hpop.core import Household, Hpop, User
from repro.http.client import HttpClient
from repro.http.messages import HttpRequest
from repro.net.topology import build_city
from repro.obs.document import Document, to_text
from repro.obs.report import load_trace, trace_sections
from repro.obs.timeseries import TimeSeriesDB
from repro.sim.engine import Simulator
from repro.util.units import kib
from repro.webdav.server import basic_auth


def run_quickstart(traced=False, scraped=False):
    """Returns ``(tracer, tsdb)``; the one not asked for is None."""
    sim = Simulator(seed=7)
    tracer = sim.enable_tracing() if traced else None
    city = build_city(sim, homes_per_neighborhood=4,
                      server_sites={"coffee-shop": 1})
    home = city.neighborhoods[0].homes[0]
    household = Household(name="smith", users=[
        User(name="ann", password="pw", devices=[home.devices[0]])])
    hpop = Hpop(home.hpop_host, city.network, household)
    hpop.install(DataAtticService())
    hpop.start()
    inside = HttpClient(home.devices[0], city.network)
    tsdb = None
    if scraped:
        tsdb = TimeSeriesDB(sim, interval=0.01)
        tsdb.add_registry(city.network.metrics, source="net")
        tsdb.add_registry(inside.metrics, source="client")
        tsdb.start()

    headers = basic_auth("ann", "pw")
    statuses = []
    inside.request(hpop.host,
                   HttpRequest("PUT", "/attic/ann/notes.txt",
                               headers=headers, body="notes",
                               body_size=kib(64)),
                   lambda resp, stats: statuses.append(resp.status),
                   port=443)
    sim.run()
    laptop = city.server_sites["coffee-shop"].servers[0]
    HttpClient(laptop, city.network).request(
        hpop.host,
        HttpRequest("GET", "/attic/ann/notes.txt", headers=headers),
        lambda resp, stats: statuses.append(resp.status),
        port=443)
    sim.run()
    assert statuses == [201, 200]
    return tracer, tsdb


def test_traced_quickstart_is_byte_identical_and_reportable(tmp_path):
    tracer, _ = run_quickstart(traced=True)
    tracer.export_jsonl(str(tmp_path / "a.jsonl"))
    run_quickstart(traced=True)[0].export_jsonl(str(tmp_path / "b.jsonl"))
    blob = (tmp_path / "a.jsonl").read_bytes()
    assert blob
    assert blob == (tmp_path / "b.jsonl").read_bytes()

    # The report renders from that same byte-identical export.
    trace = load_trace(str(tmp_path / "a.jsonl"))
    assert trace.spans()
    assert trace.events()
    report = to_text(Document(sections=trace_sections(trace)))
    for section in ("== Span latency (simulated time) ==",
                    "== Critical path of slowest span",
                    "== Trace hotspots by event label =="):
        assert section in report
    assert "http.request" in report


def test_scraped_quickstart_is_byte_identical_and_populated(tmp_path):
    _, tsdb = run_quickstart(scraped=True)
    tsdb.export_jsonl(str(tmp_path / "a.jsonl"))
    run_quickstart(scraped=True)[1].export_jsonl(str(tmp_path / "b.jsonl"))
    blob = (tmp_path / "a.jsonl").read_bytes()
    assert blob
    assert blob == (tmp_path / "b.jsonl").read_bytes()
    assert {s.kind for s in tsdb.series.values()} == {"counter", "gauge"}
    assert any(len(s.points) > 3 for s in tsdb.series.values())
