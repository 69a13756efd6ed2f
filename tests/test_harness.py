"""Policies, exchange baselines, reports, and the command-line surface."""

import subprocess
import sys

import numpy as np
import pytest

from roadcache import harness, report
from roadcache.caching import Metrics
from roadcache.config import SCHEMES, load_config
from roadcache.errors import ConfigError, DataFormatError
from roadcache.mobility import Segment, VehicleTimeline
from roadcache.rng import substream

PER_MODEL = 770_000 * 4


def motion_with(timelines, duration, num_rsus=2):
    return harness.MotionEnv(
        timelines=timelines,
        request_times=np.zeros(0),
        request_vehicles=np.zeros(0, dtype=np.int64),
        request_contents=np.zeros(0, dtype=np.int64),
        request_rsus=np.zeros(0, dtype=np.int32),
        dropped_requests=0,
        duration=duration,
        coverage_length=500.0,
        num_rsus=num_rsus,
    )


def one_segment_timeline(vid, end_time, rsu=0):
    seg = Segment(entry_time=0.0, rsu_index=rsu, entry_position=0.0, speed=25.0)
    return VehicleTimeline(vehicle_id=vid, segments=[seg], end_time=end_time)


class TestOraclePolicy:
    def test_single_content(self):
        cached = harness.oracle_policy([3, 3, 3], capacity=1, num_contents=10)
        assert cached.tolist() == [3]

    def test_large_capacity_covers_window(self):
        window = [3, 3, 7]
        cached = harness.oracle_policy(window, capacity=10, num_contents=10)
        assert cached.tolist() == [3, 7, 1, 2, 4, 5, 6, 8, 9, 10]
        assert set(window) <= set(cached.tolist())

    def test_matches_count_enumeration(self):
        rng = substream(0, "oracle")
        for trial in range(20):
            window = rng.integers(1, 21, size=200)
            cached = harness.oracle_policy(window, capacity=5, num_contents=20)
            counts = {k: int((window == k).sum()) for k in range(1, 21)}
            want = sorted(range(1, 21), key=lambda k: (-counts[k], k))[:5]
            assert cached.tolist() == want


class TestNTauGreedy:
    def setup_method(self):
        self.counts = np.zeros(100)
        self.counts[:5] = [50, 40, 30, 20, 10]

    def test_tau_zero_is_pure_greedy(self):
        cached = harness.n_tau_greedy_policy(self.counts, 5, 0.0, substream(0, "tau0"))
        assert cached.tolist() == [1, 2, 3, 4, 5]

    def test_tau_one_is_pure_random(self):
        got = harness.n_tau_greedy_policy(self.counts, 5, 1.0, substream(0, "tau1")).tolist()
        assert len(set(got)) == 5
        assert all(1 <= c <= 100 for c in got)
        assert set(got) != {1, 2, 3, 4, 5}

    def test_randomization_frequency(self):
        greedy = {1, 2, 3, 4, 5}
        rng = substream(0, "tau-freq")
        n = 10_000
        randomized = sum(
            set(harness.n_tau_greedy_policy(self.counts, 5, 0.2, rng).tolist())
            != greedy
            for _ in range(n))
        assert abs(randomized / n - 0.2) < 0.01

    def test_tau_bounds(self):
        with pytest.raises(ConfigError):
            harness.n_tau_greedy_policy(self.counts, 5, -0.1, substream(0, "bad"))
        with pytest.raises(ConfigError):
            harness.n_tau_greedy_policy(self.counts, 5, 1.5, substream(0, "bad"))


class TestRandomPolicy:
    def test_valid_and_reproducible(self):
        a = harness.random_policy(10, 50, substream(7, "rand"))
        b = harness.random_policy(10, 50, substream(7, "rand"))
        got = a.tolist()
        assert len(got) == 10 and len(set(got)) == 10
        assert all(1 <= c <= 50 for c in got)
        assert np.array_equal(a, b)
        c = harness.random_policy(10, 50, substream(8, "rand"))
        assert not np.array_equal(a, c)


class TestParameterExchange:
    def test_fedavg_single_round(self):
        cfg = load_config(None, ["sim.duration=20", "fl.round_seconds=20"])
        motion = motion_with([one_segment_timeline(0, end_time=25.0)], duration=20.0)
        out = harness.parameter_exchange_baseline("fedavg", cfg, motion)
        assert out.uplink_bytes == PER_MODEL
        assert out.downlink_bytes == PER_MODEL
        assert out.completed_rounds == 1
        assert out.completions == {0: [20.0]}

    def test_fedavg_departure_wastes_downlink(self):
        cfg = load_config(None, ["sim.duration=20", "fl.round_seconds=20"])
        motion = motion_with([one_segment_timeline(0, end_time=10.0)], duration=20.0)
        out = harness.parameter_exchange_baseline("fedavg", cfg, motion)
        assert out.uplink_bytes == 0
        assert out.downlink_bytes == PER_MODEL
        assert out.completed_rounds == 0
        assert out.completions == {}

    def test_fedavg_cohort_fails_together(self):
        # One early leaver spoils the zone's round for everyone.
        cfg = load_config(None, ["sim.duration=20", "fl.round_seconds=20"])
        motion = motion_with([one_segment_timeline(0, end_time=25.0),
                              one_segment_timeline(1, end_time=10.0)], duration=20.0)
        out = harness.parameter_exchange_baseline("fedavg", cfg, motion)
        assert out.downlink_bytes == 2 * PER_MODEL
        assert out.uplink_bytes == PER_MODEL
        assert out.completed_rounds == 0
        assert out.completions == {}

    def test_asyfed_per_vehicle_rounds(self):
        cfg = load_config(None, ["sim.duration=100", "fl.round_seconds=20"])
        motion = motion_with([one_segment_timeline(0, end_time=50.0)], duration=100.0)
        out = harness.parameter_exchange_baseline("asyfed", cfg, motion)
        assert out.downlink_bytes == 3 * PER_MODEL
        assert out.uplink_bytes == 2 * PER_MODEL
        assert out.completed_rounds == 2
        assert out.completions == {0: [20.0, 40.0]}

    def test_unknown_kind(self):
        cfg = load_config(None, [])
        with pytest.raises(ConfigError):
            harness.parameter_exchange_baseline("gossip", cfg, motion_with([], 10.0))

    def test_completion_fraction(self):
        out = harness.FLOutcome("asyfed", 0, 0, {0: [20.0, 40.0]}, 2, [])
        assert out.completion_fraction(0, 19.0, 10) == 0.0
        assert out.completion_fraction(0, 20.0, 10) == pytest.approx(0.1)
        assert out.completion_fraction(0, 99.0, 10) == pytest.approx(0.2)
        assert out.completion_fraction(0, 99.0, 1) == 1.0
        assert out.completion_fraction(5, 99.0, 1) == 0.0


class TestReportFormats:
    def make_report(self):
        metrics = Metrics(hits=30, misses=70, latency_ms_sum=7600.0,
                          uplink_bytes=1_572_864, downlink_bytes=3_276_800)
        row = report.ReportRow.build("proposed", 500, 25.0, 0, metrics)
        return report.Report(rows=[row])

    def test_header_is_stable(self):
        assert report.CSV_HEADER == ("scheme,capacity,speed,hit_pct,"
                                     "mean_latency_ms,uplink_mb,downlink_mb,seed")
        blob = report.emit_report(report.Report(rows=[]))
        assert blob == (report.CSV_HEADER + "\n").encode()

    def test_megabyte_rounding(self):
        row = self.make_report().rows[0]
        assert row.uplink_mb == 1.5
        assert row.downlink_mb == 3.12
        assert row.hit_pct == 30.0
        assert row.mean_latency_ms == 76.0

    def test_csv_round_trip(self):
        rep = self.make_report()
        blob = report.emit_report(rep, "csv")
        again = report.emit_report(report.parse_report(blob, "csv"), "csv")
        assert blob == again
        assert report.parse_report(blob, "csv").rows == rep.rows

    def test_json_round_trip(self):
        rep = self.make_report()
        blob = report.emit_report(rep, "json")
        parsed = report.parse_report(blob, "json")
        assert parsed.rows == rep.rows
        assert report.emit_report(parsed, "json") == blob

    def test_bad_header_rejected(self):
        with pytest.raises(DataFormatError):
            report.parse_report(b"nope,nope\n", "csv")
        with pytest.raises(DataFormatError):
            report.parse_report(b"", "csv")

    def test_short_row_rejected(self):
        blob = (report.CSV_HEADER + "\nproposed,500\n").encode()
        with pytest.raises(DataFormatError):
            report.parse_report(blob, "csv")


class TestMessageTrace:
    def test_format(self):
        from roadcache.fed_distill import Message

        msgs = [Message(1.5, "veh:0", "rsu:1", "HI", 76),
                Message(2.0, "rsu:1", "veh:0", "KNOWLEDGE_DOWN", 64)]
        blob = harness.format_message_trace(msgs)
        assert blob == b"1.500000 veh:0 rsu:1 HI 76\n2.000000 rsu:1 veh:0 KNOWLEDGE_DOWN 64\n"
        assert harness.format_message_trace([]) == b""


class TestValidateSuite:
    def test_all_checks_pass(self):
        results = harness.validate_suite()
        assert len(results) >= 5
        for name, ok, detail in results:
            assert ok, f"{name}: {detail}"


TINY_CFG = """\
sim.seed = 0
sim.duration = 120
sim.scheme = proposed
data.path = synth://users=30,contents=80,seed=7
data.num_vehicles = 6
data.split_ratio = 0.8
data.public_fraction = 0.1
topology.num_rsus = 2
topology.coverage_length = 500
codec.latent_dim = 8
codec.hidden = 16
codec.epochs = 10
codec.finetune_epochs = 3
ldpm.T = 5
ldpm.F = 8
ldpm.episodes = 3
kc.sync_period = 60
cache.capacity_n = 10
cache.list_m = 20
"""


@pytest.fixture(scope="module")
def tiny_cfg_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "tiny.cfg"
    path.write_text(TINY_CFG)
    return str(path)


def roadcache_cli(*args, cwd=None):
    return subprocess.run([sys.executable, "-m", "roadcache.cli", *args],
                          capture_output=True, text=True, cwd=cwd, timeout=300)


class TestRunSimulation:
    def test_zero_duration_guarded(self):
        cfg = load_config(None, ["sim.duration=0", "sim.scheme=random",
                                 "data.path=synth://users=30,contents=80,seed=7",
                                 "data.num_vehicles=6", "codec.epochs=2",
                                 "codec.finetune_epochs=1", "codec.hidden=8",
                                 "codec.latent_dim=4", "cache.capacity_n=10"])
        rep = harness.run_simulation(cfg)
        row = rep.rows[0]
        assert row.hit_pct == 0.0
        assert row.mean_latency_ms == 0.0
        assert row.uplink_mb == 0.0


class TestEvaluationAccounting:
    """Every replay serves each request once, priced by the latency model."""

    @pytest.fixture(scope="class")
    def stack(self, tiny_cfg_path):
        cfg = load_config(tiny_cfg_path, [])
        data = harness.build_data_env(cfg)
        motion = harness.build_motion_env(cfg, data.locals_)
        return cfg, data, motion, harness.simulate_protocol(cfg, data, motion)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_hits_and_misses_cover_requests(self, stack, scheme):
        cfg, data, motion, trace = stack
        requests = len(motion.request_times)
        assert requests > 0
        for capacity in (1, 10, data.num_contents):
            m = harness.evaluate_caching(cfg, data, motion, trace, scheme, capacity)
            assert m.hits + m.misses == requests
            assert m.latency_ms_sum == m.hits * cfg.latency.hit_ms + m.misses * cfg.latency.miss_ms
        # A window cache that holds the whole catalog serves every request.
        assert m.misses == 0 or scheme in harness.TRIGGER_SCHEMES


class TestSweepMatchesRuns:
    @pytest.mark.parametrize("list_m", [0, 20])
    def test_rows_equal_standalone_runs(self, tiny_cfg_path, list_m):
        base = load_config(tiny_cfg_path, [f"cache.list_m={list_m}"])
        swept = harness.run_sweep(base, list(SCHEMES), [10, 40], [base.mobility.mu],
                                  [base.sim.seed])
        assert len(swept.rows) == 2 * len(SCHEMES)
        for row in swept.rows:
            cfg = load_config(tiny_cfg_path, [f"cache.list_m={list_m}", f"sim.scheme={row.scheme}",
                                              f"cache.capacity_n={row.capacity}"])
            assert harness.run_simulation(cfg).rows == [row]


class TestCli:
    def test_run_writes_csv(self, tiny_cfg_path, tmp_path):
        out = tmp_path / "row.csv"
        proc = roadcache_cli("run", "--config", tiny_cfg_path, "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        lines = out.read_text().splitlines()
        assert lines[0] == report.CSV_HEADER
        assert len(lines) == 2
        assert lines[1].startswith("proposed,10,25.0,")

    def test_run_set_override_changes_row(self, tiny_cfg_path):
        proc = roadcache_cli("run", "--config", tiny_cfg_path,
                             "--set", "sim.scheme=random",
                             "--set", "cache.capacity_n=20")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[1].startswith("random,20,")

    def test_unknown_key_exits_2(self, tiny_cfg_path):
        for setting in ("bogus.key=1", "sim.dt=0.1"):
            proc = roadcache_cli("run", "--config", tiny_cfg_path, "--set", setting)
            assert proc.returncode == 2
            assert "error:" in proc.stderr

    def test_bad_value_exits_2(self, tiny_cfg_path):
        for setting in ("cache.capacity_n=many", "ldpm.F=0"):
            proc = roadcache_cli("run", "--config", tiny_cfg_path, "--set", setting)
            assert proc.returncode == 2
            assert setting.split("=")[0] in proc.stderr

    def test_unknown_scheme_exits_2(self, tiny_cfg_path):
        proc = roadcache_cli("run", "--config", tiny_cfg_path,
                             "--set", "sim.scheme=bogus")
        assert proc.returncode == 2

    def test_missing_config_exits_2(self):
        proc = roadcache_cli("run", "--config", "/no/such/file.cfg")
        assert proc.returncode == 2

    def test_validate_passes(self):
        proc = roadcache_cli("validate")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "all checks passed" in proc.stdout
        assert "FAIL" not in proc.stdout

    def test_report_round_trip(self, tiny_cfg_path, tmp_path):
        csv_path = tmp_path / "a.csv"
        json_path = tmp_path / "a.json"
        back_path = tmp_path / "b.csv"
        assert roadcache_cli("run", "--config", tiny_cfg_path,
                             "--out", str(csv_path)).returncode == 0
        assert roadcache_cli("report", "--in", str(csv_path), "--format", "json",
                             "--out", str(json_path)).returncode == 0
        assert roadcache_cli("report", "--in", str(json_path), "--format", "csv",
                             "--out", str(back_path)).returncode == 0
        assert back_path.read_bytes() == csv_path.read_bytes()

    def test_repeat_runs_identical(self, tiny_cfg_path, tmp_path):
        outs = []
        for name in ("x", "y"):
            out = tmp_path / f"{name}.csv"
            trace = tmp_path / f"{name}.trace"
            proc = roadcache_cli("run", "--config", tiny_cfg_path,
                                 "--out", str(out), "--trace", str(trace))
            assert proc.returncode == 0, proc.stderr
            outs.append((out.read_bytes(), trace.read_bytes()))
        assert outs[0] == outs[1]
        assert len(outs[0][1]) > 0

    def test_sweep_grid(self, tiny_cfg_path, tmp_path):
        grid = tmp_path / "grid.cfg"
        grid.write_text(
            f"config = {tiny_cfg_path}\n"
            "schemes = random, oracle\n"
            "capacities = 10:20:10\n"
            "seeds = 0\n"
            "codec.epochs = 5\n")
        outdir = tmp_path / "sweep"
        proc = roadcache_cli("sweep", "--grid", str(grid), "--out", str(outdir))
        assert proc.returncode == 0, proc.stderr
        lines = (outdir / "sweep.csv").read_text().splitlines()
        assert lines[0] == report.CSV_HEADER
        assert len(lines) == 1 + 4
        tagged = [(ln.split(",")[0], int(ln.split(",")[1])) for ln in lines[1:]]
        assert tagged == [("random", 10), ("random", 20), ("oracle", 10), ("oracle", 20)]

    def test_sweep_bad_scheme_exits_2(self, tiny_cfg_path, tmp_path):
        grid = tmp_path / "grid.cfg"
        grid.write_text(f"config = {tiny_cfg_path}\nschemes = warp\n")
        proc = roadcache_cli("sweep", "--grid", str(grid), "--out", str(tmp_path / "o"))
        assert proc.returncode == 2

    def test_keys_listing(self):
        proc = roadcache_cli("--keys")
        assert proc.returncode == 0
        keys = proc.stdout.split()
        assert "cache.capacity_n" in keys
        assert "ldpm.T" in keys
