"""CLI surface and ASCII chart rendering."""

import json

import pytest

from repro.cli import main
from repro.core import PartitionedShieldStore, shield_opt
from repro.core.procpool import process_mode_supported
from repro.core.shmring import shm_supported
from repro.experiments.charts import bar_chart, line_chart, render_bars, render_sweep
from repro.experiments.common import TableResult
from repro.net.tcp import TCPShieldClient, TCPShieldServer
from repro.sim import AttestationService


class TestCharts:
    def test_bar_chart_renders_all_series(self):
        text = bar_chart(
            "title",
            ["a", "b"],
            {"sys1": [10.0, 20.0], "sys2": [5.0, None]},
            unit=" Kop/s",
        )
        assert "title" in text
        assert "(unsupported)" in text
        assert text.count("sys1") == 2

    def test_bar_chart_scales_to_peak(self):
        text = bar_chart("t", ["x"], {"s": [100.0]}, width=10)
        assert "█" * 10 in text

    def test_line_chart_log_scale(self):
        text = line_chart(
            "sweep",
            [16, 64, 256, 1024],
            {"fast": [100, 100, 100, 100], "slow": [100, 1000, 10000, 60000]},
        )
        assert "sweep" in text
        assert "o=fast" in text and "x=slow" in text

    def test_line_chart_empty(self):
        assert "(no data)" in line_chart("t", [1], {"s": [None]})

    def test_render_helpers(self):
        result = TableResult(
            "Fig X",
            "demo",
            ["wss", "a", "b"],
            [[16, 10.0, 100.0], [32, 11.0, 1000.0]],
        )
        assert "Fig X" in render_sweep(result, "wss", ["a", "b"])
        assert "Fig X" in render_bars(result, "wss", ["a", "b"])


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig10" in out and "table1" in out

    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "EPC" in out and "ecall" in out

    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "tampering detected: IntegrityError" in out or (
            "tampering detected: ReplayError" in out
        )

    def test_run_unknown_experiment(self, capsys):
        assert main(["run", "fig99"]) == 2

    def test_run_tiny_fig03_with_chart(self, capsys):
        assert main(["run", "fig03", "--scale", "0.0015", "--ops", "200",
                     "--chart"]) == 0
        out = capsys.readouterr().out
        assert "Figure 3" in out
        assert "NoSGX" in out  # chart legend rendered

    @pytest.mark.skipif(
        not (process_mode_supported() and shm_supported()),
        reason="no multiprocess engine or shm plane here",
    )
    def test_stats_of_two_shm_workers_reports_waits_and_stage_seconds(self, capsys):
        # One record over the wire: the workers' doorbell waits and the
        # pool's four stage seconds arrive in `counters` beside the store
        # counters of a served two-worker store.
        service = AttestationService(b"dev-attestation-secret")  # the CLI default
        store = PartitionedShieldStore(
            shield_opt(num_buckets=128, num_mac_hashes=32),
            num_partitions=2, mode="processes", data_plane="shm",
        )
        server = TCPShieldServer(store, service, port=0)
        server.start()
        try:
            client = TCPShieldClient(
                server.address, service, store.enclave.measurement, bytes(32)
            )
            keys = [b"key-%05d" % i for i in range(128)]
            for start in range(0, len(keys), 32):
                chunk = keys[start : start + 32]
                client.multi_set([(key, b"value-" + key) for key in chunk])
                client.multi_get(chunk)
            client.close()
            host, port = server.address
            assert main(["stats", "--connect", f"{host}:{port}", "--measurement",
                         store.enclave.measurement.hex(), "--format", "json"]) == 0
        finally:
            server.close()
            store.close()
        counters = json.loads(capsys.readouterr().out)["counters"]
        assert counters["batches"] > 0
        for name in ("worker_ring_doorbell_waits", "serialize_s", "ipc_wait_s",
                     "worker_compute_s", "worker_cpu_s"):
            assert counters[name] > 0, name

    def test_stats_needs_a_running_server(self, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["stats"])
        assert exited.value.code == 2
        assert "--connect" in capsys.readouterr().err
