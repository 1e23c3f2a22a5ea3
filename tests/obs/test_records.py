"""The one record format: canonical JSON Lines, written and read back."""

import pytest

from repro.obs.records import ARTIFACTS, encode, read_jsonl, write_jsonl
from repro.workloads.chaos import ChaosWorld


def test_encoding_is_canonical(tmp_path):
    assert encode({"b": 1, "a": [1.5, None]}) == '{"a":[1.5,null],"b":1}'
    path = str(tmp_path / "log.jsonl")
    assert write_jsonl(path, iter([{"z": 0}, {"y": "é"}])) == 2
    with open(path, encoding="utf-8") as fh:
        assert fh.read() == '{"z":0}\n{"y":"\\u00e9"}\n'


def test_reader_skips_blank_lines(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_text('{"a":1}\n\n  \n{"a":2}\n', encoding="utf-8")
    assert list(read_jsonl(str(path))) == [{"a": 1}, {"a": 2}]


@pytest.fixture(scope="module")
def exported(tmp_path_factory):
    """A traced, scraped, controlled chaos run and its exported set."""
    out = tmp_path_factory.mktemp("chaos")
    world = ChaosWorld(101)
    world.sim.enable_tracing(capacity=262144)
    world.enable_telemetry()
    world.enable_controller()
    world.run()
    world.export(out)
    return world, out


def in_memory(world, key):
    """The records a log holds before it is exported."""
    if key == "faults":
        return world.injector.events
    if key == "control":
        return world.controller.events
    if key == "slo":
        monitor = world.slo_monitor
        return monitor.events + [{"kind": "verdict", **verdict}
                                 for verdict in monitor.verdicts()]
    if key == "tsdb":
        return [world.tsdb.series[name].to_dict()
                for name in sorted(world.tsdb.series)]
    return [span.to_dict() for span in world.sim.tracer.spans()]


@pytest.mark.parametrize("key", ["faults", "control", "slo", "tsdb", "trace"])
def test_every_export_reads_back_as_its_records(exported, key):
    world, out = exported
    records = list(read_jsonl(str(out / ARTIFACTS[key])))
    assert records and records == in_memory(world, key)
