"""The daemon's metric output is frozen: keys, order, types, HELP/TYPE
lines and every deterministic count, for one fixed in-process drive.

``fixtures/metrics_frozen.json`` was captured by running this file as
a script at the parent commit of the PR that moved every series into
the table in :mod:`repro.service.metrics`; a refactor of how the
series are declared must reproduce it exactly (since then it has
gained one family's lines, ``terpd_repl_ack_wait_ns``, and nothing
else).  The cluster half
replays two stored shard reports (captured from live durable shards,
one warm restart each) through ``aggregate_metrics`` and allows the
merged report to differ from the parent's only where the parent was
wrong: ``runtime.silent_percent`` (summed), ``recovery.epoch_wall_ns``
(summed), and the two ``recovery`` lists (first shard's only).
"""

import json
import os
import re
import tempfile

from repro.cluster.aggregate import aggregate_metrics
from repro.core.units import MIB
from repro.service.client import RemoteError, SyncTerpClient
from repro.service.server import ServiceThread, TerpService

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "fixtures", "metrics_frozen.json")
#: Counts the drive fixes exactly (everything else is timing).
DETERMINISTIC = ("requests", "errors", "batches", "attaches",
                 "detaches", "sessions_opened", "replays_served", "ops",
                 "wire_frames")
#: Prometheus samples whose values depend on the clock.
MASKED = re.compile(
    r"^(terpd_(?:(?:request|sweep|repl_ack)_latency|repl_ack_wait)_ns_\w+"
    r"(?:\{[^}]*\})?"
    r"|terpd_sweep_runs_total) \S+$", re.MULTILINE)
#: A budget no drive outlives: nothing is ever force-detached.
LONG_EW_NS = 600_000_000_000


def shape(tree, path=""):
    """The ordered ``path: JSON type`` lines of a tree."""
    out = [f"{path}: {type(tree).__name__}"]
    if isinstance(tree, dict):
        for key, value in tree.items():
            out += shape(value, f"{path}.{key}" if path else key)
    return out


def jsonable(tree):
    return json.loads(json.dumps(tree, default=str))


def cycle(client, name, oid, payload):
    client.attach(name)
    client.write(oid, payload)
    client.psync(name)
    assert client.read(oid, len(payload)) == payload
    client.detach(name)


def drive_single():
    """200 tenant cycles over 8 PMOs, one batch, one refused op, one
    replayed rid; then every metric read path, once each."""
    service = TerpService(port=0, seed=7, session_ew_ns=LONG_EW_NS)
    with ServiceThread(service) as svc, \
            SyncTerpClient(port=svc.bound_port, user="frozen") as client:
        oids = {}
        for i in range(200):
            name = f"pmo-{i % 8}"
            if name not in oids:
                client.create(name, MIB)
                client.attach(name)
                oids[name] = client.pmalloc(name, 64)
                client.detach(name)
            cycle(client, name, oids[name], bytes([i % 251]) * 64)
        client.batch([("attach", {"name": "pmo-0"}),
                      ("read_u64", {"oid": oids["pmo-0"].pack()}),
                      ("detach", {"name": "pmo-0"})])
        # The detach's rid again: a replay (mutating ops are what the
        # cache keeps; a second execution would be refused).
        client._next_id -= 1
        client.detach("pmo-0")
        try:
            client.attach("no-such-pmo")
        except RemoteError:
            pass
        client.ping()
        report = client.metrics()
        registry = client.call("metrics", raw=True)["registry"]
        prometheus = client.prometheus()
        dump = jsonable(svc.dump_observability())
    return {
        "metrics_shape": shape(report),
        "registry_shape": shape(registry),
        "dump_shape": shape(dump),
        "deterministic": {key: report["global"][key]
                          for key in DETERMINISTIC},
        "prometheus": MASKED.sub(r"\1 *", prometheus).splitlines(),
    }


def drive_shards(root):
    """Two durable shards, each killed with a window open and warm
    restarted, then two sessions overlapping on its PMOs (so some
    attaches are silent): the raw per-shard reports a router would
    merge."""
    reports = []
    for index in range(2):
        kwargs = dict(port=0, seed=7, session_ew_ns=LONG_EW_NS,
                      pool_dir=os.path.join(root, f"shard-{index}"),
                      shard_index=index, shard_count=2)
        names = [f"s{index}-pmo-{n}" for n in range(3 + index)]
        oids = {}
        thread = ServiceThread(TerpService(**kwargs))
        with SyncTerpClient(port=thread.start().bound_port,
                            user="a") as a:
            for name in names:
                a.create(name, MIB, mode=0o666)
                a.attach(name)
                oids[name] = a.pmalloc(name, 64)
                a.psync(name)
            thread.kill()                   # every window still open
        thread = ServiceThread(TerpService(**kwargs))
        port = thread.start().bound_port
        with SyncTerpClient(port=port, user="a") as a, \
                SyncTerpClient(port=port, user="b") as b:
            for name in names:
                a.attach(name)
                for i in range(2 + 3 * index):
                    b.attach(name)          # silent: a still holds it
                    b.write(oids[name], bytes([i]) * 64)
                    b.psync(name)
                    b.detach(name)
                a.detach(name)
            report = a.call("metrics", raw=True)
        thread.stop()
        report.setdefault("shard", index)
        reports.append(report)
    return reports


def test_single_daemon_output_is_frozen():
    with open(FIXTURE, encoding="utf-8") as fh:
        frozen = json.load(fh)["single"]
    got = jsonable(drive_single())
    for part in frozen:
        assert got[part] == frozen[part], part


def test_two_shard_merge_is_frozen_but_for_the_corrected_fields():
    with open(FIXTURE, encoding="utf-8") as fh:
        frozen = json.load(fh)["cluster"]
    reports, parent = frozen["reports"], frozen["merged_at_parent"]
    merged = jsonable(aggregate_metrics(
        json.loads(json.dumps(reports)), sessions=2))
    calls = [r["runtime"]["attach_calls"] + r["runtime"]["detach_calls"]
             for r in reports]
    percents = [r["runtime"]["silent_percent"] for r in reports]
    assert all(0 < p < 100 for p in percents) and calls[0] != calls[1]
    assert parent["runtime"]["silent_percent"] == sum(percents)
    corrected = {
        ("runtime", "silent_percent"): sum(
            p * c for p, c in zip(percents, calls)) / sum(calls),
        ("recovery", "epoch_wall_ns"): min(
            r["recovery"]["epoch_wall_ns"] for r in reports),
        ("recovery", "downtime_ns"): max(
            r["recovery"]["downtime_ns"] for r in reports),
        ("recovery", "pmos_quarantined"): [],
        ("recovery", "pmos_denied"): [],
    }
    for (section, key), value in corrected.items():
        if isinstance(value, float):
            assert abs(merged[section][key] - value) < 1e-9, key
        else:
            assert merged[section][key] == value, key
        merged[section][key] = parent[section][key]
    # Everything else: same keys, same order, same values.
    assert json.dumps(merged) == json.dumps(parent)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory(prefix="terp-frozen-") as tmp:
        shard_reports = drive_shards(tmp)
    document = {
        "single": drive_single(),
        "cluster": {
            "reports": shard_reports,
            "merged_at_parent": aggregate_metrics(
                json.loads(json.dumps(shard_reports)), sessions=2),
        },
    }
    os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
    with open(FIXTURE, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=1)
        fh.write("\n")
