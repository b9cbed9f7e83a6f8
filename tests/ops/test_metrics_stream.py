"""The observe plane: streaming metrics that never perturb the run.

Three layers under test:

* :class:`StreamingObserver` — per-cycle rows into a bounded queue;
  a full queue drops-and-counts, publishing never blocks.
* :class:`MetricsServer` + the ``python -m repro.ops tail`` CLI — the
  rows reach a real local socket as newline-delimited JSON and a
  stdlib-only tailer reads them back.
* The acceptance bar: attaching the observer (and at 1K nodes, a live
  server with a tailing client) leaves the committed fig2/fig5 goldens
  bit-for-bit unchanged — every probe is a pure read.
"""

import io
import json
import pathlib
import threading
import time

import pytest

from repro.experiments import fig2_indegree, fig5_hub_defense
from repro.experiments.scale import Scale
from repro.experiments.scenarios import build_secure_overlay
from repro.ops import MetricsServer, StreamingObserver
from repro.ops.__main__ import main as ops_main
from repro.ops.checkpoint import save_checkpoint
from repro.sim.engine import Engine, SimConfig
from repro.sim.transport import ENV_TRANSPORT

GOLDEN = pathlib.Path(__file__).parent.parent / "properties" / "golden"

_CAPTURES = {
    "fig2": lambda: fig2_indegree.render(
        fig2_indegree.run_fig2(scale=Scale.SMOKE, seed=1)
    ),
    "fig5": lambda: fig5_hub_defense.render(
        fig5_hub_defense.run_fig5(scale=Scale.SMOKE, seed=1)
    ),
}


def _small_overlay(**kwargs):
    return build_secure_overlay(n=20, malicious=2, seed=7, **kwargs)


# -- StreamingObserver ------------------------------------------------


def test_observer_rows_bracket_the_run():
    overlay = _small_overlay()
    observer = StreamingObserver()
    overlay.engine.add_observer(observer)
    overlay.run(3)

    rows = observer.drain()
    assert [row["event"] for row in rows] == [
        "start", "cycle", "cycle", "cycle", "finish",
    ]
    assert rows[0]["nodes"] == 20
    assert rows[0]["master_seed"] == 7
    assert [row["cycle"] for row in rows[1:-1]] == [0, 1, 2]
    assert rows[-1] == {"event": "finish", "cycle": 3, "dropped": 0}
    for row in rows[1:-1]:
        assert 0.0 <= row["view_fill"] <= 1.0
        assert row["indegree_min"] <= row["indegree_mean"]
        assert row["indegree_mean"] <= row["indegree_max"]
        assert row["traffic_bytes"] >= 0
        json.dumps(row)  # every row is JSON-serialisable
    assert observer.published == len(rows)
    assert observer.dropped == 0


def test_observer_includes_health_columns_when_ledger_present():
    overlay = _small_overlay(
        sim_config=SimConfig(seed=7, peer_health=True)
    )
    observer = StreamingObserver()
    overlay.engine.add_observer(observer)
    overlay.run(2)
    cycle_rows = [r for r in observer.drain() if r["event"] == "cycle"]
    for row in cycle_rows:
        assert "quarantined" in row
        assert "quarantine_events" in row
        assert "amplification" in row


def test_observer_samples_every_nth_cycle():
    overlay = _small_overlay()
    observer = StreamingObserver(every=2)
    overlay.engine.add_observer(observer)
    overlay.run(5)
    cycles = [
        row["cycle"] for row in observer.drain() if row["event"] == "cycle"
    ]
    assert cycles == [0, 2, 4]


def test_full_queue_drops_and_counts_without_blocking():
    observer = StreamingObserver(maxsize=2)
    started = time.monotonic()
    for index in range(5):
        observer.publish({"event": "cycle", "cycle": index})
    assert time.monotonic() - started < 1.0  # never blocked
    assert observer.published == 2
    assert observer.dropped == 3
    assert len(observer.drain()) == 2


def test_observer_validates_arguments():
    with pytest.raises(ValueError):
        StreamingObserver(every=0)
    with pytest.raises(ValueError):
        StreamingObserver(maxsize=0)


# -- MetricsServer over a real socket ---------------------------------


def _wait_for_client(server, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        with server._lock:
            if server._clients:
                return
        time.sleep(0.01)
    raise AssertionError("tailer never connected")


@pytest.mark.filterwarnings(
    "ignore::pytest.PytestUnhandledThreadExceptionWarning"
)
def test_server_streams_ndjson_to_a_socket_client():
    overlay = _small_overlay()
    observer = StreamingObserver()
    overlay.engine.add_observer(observer)

    lines = []
    with MetricsServer(observer) as server:
        import socket

        def tail():
            with socket.create_connection(server.address, timeout=10.0) as s:
                with s.makefile("r", encoding="utf-8") as stream:
                    for line in stream:  # EOF after the sentinel
                        lines.append(line.rstrip("\n"))

        tailer = threading.Thread(target=tail, daemon=True)
        tailer.start()
        _wait_for_client(server)
        overlay.run(3)
        assert server.wait_drained(timeout=10.0)
        tailer.join(timeout=10.0)
        assert not tailer.is_alive()

    rows = [json.loads(line) for line in lines]
    assert [row["event"] for row in rows] == [
        "start", "cycle", "cycle", "cycle", "finish",
    ]
    assert server.sent_lines == 5
    assert server.dropped_clients == 0


@pytest.mark.filterwarnings(
    "ignore::pytest.PytestUnhandledThreadExceptionWarning"
)
def test_server_drops_dead_client_and_keeps_pumping():
    """A client that vanishes is dropped; the stream itself survives."""
    import socket

    observer = StreamingObserver()
    with MetricsServer(observer) as server:
        victim = socket.create_connection(server.address, timeout=5.0)
        _wait_for_client(server)
        # Sever the client; subsequent sendall calls fail with EPIPE/
        # ECONNRESET once the kernel buffer drains, and the server must
        # drop the client rather than the row stream.
        victim.close()
        deadline = time.monotonic() + 10.0
        index = 0
        while server.dropped_clients == 0 and time.monotonic() < deadline:
            observer.publish({"event": "cycle", "cycle": index, "pad": "x" * 4096})
            index += 1
            time.sleep(0.01)
        assert server.dropped_clients == 1
        assert server.sent_lines > 0


# -- the CLI ----------------------------------------------------------


@pytest.mark.filterwarnings(
    "ignore::pytest.PytestUnhandledThreadExceptionWarning"
)
def test_cli_tail_follows_stream_until_eof():
    overlay = _small_overlay()
    observer = StreamingObserver()
    overlay.engine.add_observer(observer)

    buffer = io.StringIO()
    codes = []
    with MetricsServer(observer) as server:
        tailer = threading.Thread(
            target=lambda: codes.append(
                ops_main(["tail", server.endpoint], out=buffer)
            ),
            daemon=True,
        )
        tailer.start()
        _wait_for_client(server)
        overlay.run(2)
        assert server.wait_drained(timeout=10.0)
        tailer.join(timeout=10.0)
        assert not tailer.is_alive()

    assert codes == [0]
    rows = [json.loads(line) for line in buffer.getvalue().splitlines()]
    assert [row["event"] for row in rows] == [
        "start", "cycle", "cycle", "finish",
    ]


@pytest.mark.filterwarnings(
    "ignore::pytest.PytestUnhandledThreadExceptionWarning"
)
def test_cli_tail_limit_stops_early():
    observer = StreamingObserver()
    buffer = io.StringIO()
    codes = []
    with MetricsServer(observer) as server:
        tailer = threading.Thread(
            target=lambda: codes.append(
                ops_main(["tail", server.endpoint, "--limit", "2"], out=buffer)
            ),
            daemon=True,
        )
        tailer.start()
        _wait_for_client(server)
        # Six rows, no sentinel: the tailer must stop at its limit, not
        # wait for the stream to end.
        for index in range(6):
            observer.publish({"event": "cycle", "cycle": index})
        tailer.join(timeout=10.0)
        assert not tailer.is_alive()

    assert codes == [0]
    assert len(buffer.getvalue().splitlines()) == 2


def test_cli_tail_rejects_bad_endpoint_and_dead_server():
    with pytest.raises(SystemExit):
        ops_main(["tail", "no-port-here"], out=io.StringIO())
    # Grab a port that is definitely closed.
    import socket

    probe = socket.create_server(("127.0.0.1", 0))
    host, port = probe.getsockname()[:2]
    probe.close()
    assert ops_main(["tail", f"{host}:{port}"], out=io.StringIO()) == 1


def test_cli_inspect_summarises_checkpoint(tmp_path):
    overlay = _small_overlay()
    overlay.run(2)
    path = save_checkpoint(overlay.engine, tmp_path / "state.ckpt")

    buffer = io.StringIO()
    assert ops_main(["inspect", str(path)], out=buffer) == 0
    summary = json.loads(buffer.getvalue())
    assert summary["format_version"] == 2
    assert summary["cycle"] == 2
    assert summary["master_seed"] == 7
    assert summary["node_kinds"]["secure"] > 0
    table = summary["descriptor_table"]
    assert 0 < table["entries"] < table["references"]
    assert table["dedupe_ratio"] == table["references"] / table["entries"]

    assert ops_main(["inspect", str(tmp_path / "nope.ckpt")],
                    out=io.StringIO()) == 1


# -- the acceptance bar: goldens unchanged with the observer attached --


def _attach_observer_to_every_engine(monkeypatch, observers):
    original_init = Engine.__init__

    def init_with_streaming_observer(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        observer = StreamingObserver(maxsize=4096)
        observers.append(observer)
        self.add_observer(observer)

    monkeypatch.setattr(Engine, "__init__", init_with_streaming_observer)


@pytest.mark.parametrize("name", sorted(_CAPTURES))
def test_goldens_unchanged_with_observer_attached(monkeypatch, name):
    observers = []
    _attach_observer_to_every_engine(monkeypatch, observers)
    expected = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    assert _CAPTURES[name]() + "\n" == expected
    assert observers and any(obs.published for obs in observers)


@pytest.mark.golden_wire
def test_golden_unchanged_with_observer_under_wire_transport(monkeypatch):
    observers = []
    _attach_observer_to_every_engine(monkeypatch, observers)
    monkeypatch.setenv(ENV_TRANSPORT, "wire")
    expected = (GOLDEN / "fig2.txt").read_text(encoding="utf-8")
    assert _CAPTURES["fig2"]() + "\n" == expected
    assert observers and any(obs.published for obs in observers)


@pytest.mark.filterwarnings(
    "ignore::pytest.PytestUnhandledThreadExceptionWarning"
)
def test_thousand_node_run_streams_to_live_tailer():
    """A 1K-node run streams per-cycle metrics to a live tailer."""
    overlay = build_secure_overlay(n=1000, malicious=20, seed=2)
    observer = StreamingObserver()
    overlay.engine.add_observer(observer)

    buffer = io.StringIO()
    codes = []
    with MetricsServer(observer) as server:
        tailer = threading.Thread(
            target=lambda: codes.append(
                ops_main(["tail", server.endpoint], out=buffer)
            ),
            daemon=True,
        )
        tailer.start()
        _wait_for_client(server)
        overlay.run(2)
        assert server.wait_drained(timeout=30.0)
        tailer.join(timeout=30.0)
        assert not tailer.is_alive()

    assert codes == [0]
    rows = [json.loads(line) for line in buffer.getvalue().splitlines()]
    cycle_rows = [row for row in rows if row["event"] == "cycle"]
    assert len(cycle_rows) == 2
    for row in cycle_rows:
        assert row["nodes"] == 1000
        assert row["dialogues_opened"] > 0
    assert rows[-1]["event"] == "finish"
    assert observer.dropped == 0
