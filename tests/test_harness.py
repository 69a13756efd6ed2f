"""Policies, exchange baselines, reports, and the command-line surface."""

import io
import json
import os
import pickle
import re
import subprocess
import sys
import tracemalloc
from collections import Counter, defaultdict
from dataclasses import asdict, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from test_latent_codec import codec_state

from roadcache import cli, fed_distill, fleet, harness, latent_codec, ldpm, nn, report
from roadcache.caching import Metrics, top_m
from roadcache.config import SCHEMES, SimConfig, _key_table, load_config
from roadcache.dataset import (RatingMatrix, load_ratings, split_public_users, user_rows,
                               user_train_vector)
from roadcache.errors import ConfigError, DataFormatError, InvariantError, TrainingError
from roadcache.fed_distill import (MSG_HI, MSG_KI, MSG_KNOWLEDGE_DOWN, MSG_REC_LIST,
                                   UPLINK_KINDS)
from roadcache.mobility import Segment, VehicleTimeline
from roadcache.rng import substream
from roadcache.synth import generate, parse_synth_uri

PER_MODEL = 770_000 * 4


def motion_with(timelines):
    return harness.MotionEnv(
        timelines=timelines,
        request_times=np.zeros(0),
        request_vehicles=np.zeros(0, dtype=np.int64),
        request_contents=np.zeros(0, dtype=np.int64),
        request_rsus=np.zeros(0, dtype=np.int32),
        dropped_requests=0,
    )


def handoff_timeline(vid, handoff=None, rsu=0):
    """A vehicle entering zone rsu at t=0 that hands off to the next zone at
    t=handoff (its speed makes that the zone's residence time), or stays to the end."""
    speed = 25.0 if handoff is None else 500.0 / handoff
    segments = [Segment(entry_time=0.0, rsu_index=rsu, entry_position=0.0, speed=speed)]
    if handoff is not None:
        segments.append(Segment(entry_time=handoff, rsu_index=rsu + 1, entry_position=0.0,
                                speed=25.0))
    return VehicleTimeline(vehicle_id=vid, segments=segments)


def link_bytes(outcome):
    """(uplink, downlink) bytes of an exchange outcome's messages."""
    up = sum(m.nbytes for m in outcome.messages if m.kind in UPLINK_KINDS)
    return up, sum(m.nbytes for m in outcome.messages) - up


class TestOraclePolicy:
    def test_single_content(self):
        ranking, _ = harness.oracle_policy([3, 3, 3], num_contents=10)
        assert ranking[:1].tolist() == [3]

    def test_large_capacity_covers_window(self):
        window = [3, 3, 7]
        ranking, counts = harness.oracle_policy(window, num_contents=10)
        cached = ranking[:10]
        assert cached.tolist() == [3, 7, 1, 2, 4, 5, 6, 8, 9, 10]
        assert counts.tolist() == [0, 0, 2, 0, 0, 0, 1, 0, 0, 0]
        assert set(window) <= set(cached.tolist())

    def test_matches_count_enumeration(self):
        rng = substream(0, "oracle")
        for trial in range(20):
            window = rng.integers(1, 21, size=200)
            ranking, _ = harness.oracle_policy(window, num_contents=20)
            cached = ranking[:5]
            counts = {k: int((window == k).sum()) for k in range(1, 21)}
            want = sorted(range(1, 21), key=lambda k: (-counts[k], k))[:5]
            assert cached.tolist() == want


class TestNTauGreedy:
    def setup_method(self):
        self.counts = np.zeros(100)
        self.counts[:5] = [50, 40, 30, 20, 10]

    def test_tau_zero_is_pure_greedy(self):
        ranking, scores = harness.n_tau_greedy_policy(self.counts, 0.0, substream(0, "tau0"))
        assert ranking[:5].tolist() == [1, 2, 3, 4, 5]
        assert np.array_equal(scores, self.counts)

    def test_tau_one_is_pure_random(self):
        ranking, scores = harness.n_tau_greedy_policy(self.counts, 1.0, substream(0, "tau1"))
        assert scores is None
        got = ranking[:5].tolist()
        assert len(set(got)) == 5
        assert all(1 <= c <= 100 for c in got)
        assert set(got) != {1, 2, 3, 4, 5}

    def test_randomization_frequency(self):
        greedy = {1, 2, 3, 4, 5}
        rng = substream(0, "tau-freq")
        n = 10_000
        randomized = sum(
            set(harness.n_tau_greedy_policy(self.counts, 0.2, rng)[0][:5].tolist())
            != greedy
            for _ in range(n))
        assert abs(randomized / n - 0.2) < 0.01


class TestRandomPolicy:
    def test_valid_and_reproducible(self):
        a = harness.random_policy(50, substream(7, "rand"))[0][:10]
        b = harness.random_policy(50, substream(7, "rand"))[0][:10]
        got = a.tolist()
        assert len(got) == 10 and len(set(got)) == 10
        assert all(1 <= c <= 50 for c in got)
        assert np.array_equal(a, b)
        c = harness.random_policy(50, substream(8, "rand"))[0][:10]
        assert not np.array_equal(a, c)


class TestParameterExchange:
    def test_fedavg_single_round(self):
        cfg = load_config(None, ["sim.duration=20", "fl.round_seconds=20"])
        motion = motion_with([handoff_timeline(0)])
        out = harness.parameter_exchange_baseline("fedavg", cfg, motion)
        assert link_bytes(out) == (PER_MODEL, PER_MODEL)
        assert out.completed_rounds == 1
        assert out.completions == {0: [20.0]}

    def test_fedavg_departure_wastes_downlink(self):
        # Handing off to zone 1 mid-round loses zone 0's round; zone 1 starts none before 20 s.
        cfg = load_config(None, ["sim.duration=20", "fl.round_seconds=20"])
        motion = motion_with([handoff_timeline(0, handoff=10.0)])
        out = harness.parameter_exchange_baseline("fedavg", cfg, motion)
        assert link_bytes(out) == (0, PER_MODEL)
        assert out.completed_rounds == 0
        assert out.completions == {}

    def test_fedavg_cohort_fails_together(self):
        # One early handoff spoils the zone's round for everyone.
        cfg = load_config(None, ["sim.duration=20", "fl.round_seconds=20"])
        motion = motion_with([handoff_timeline(0), handoff_timeline(1, handoff=10.0)])
        out = harness.parameter_exchange_baseline("fedavg", cfg, motion)
        assert link_bytes(out) == (PER_MODEL, 2 * PER_MODEL)
        assert out.completed_rounds == 0
        assert out.completions == {}

    def test_asyfed_per_vehicle_rounds(self):
        cfg = load_config(None, ["sim.duration=100", "fl.round_seconds=20"])
        # Zone 0 until the 50 s handoff, zone 1 to the end: each zone completes
        # two rounds and loses the third, cut by the handoff or by the horizon.
        motion = motion_with([handoff_timeline(0, handoff=50.0)])
        out = harness.parameter_exchange_baseline("asyfed", cfg, motion)
        assert link_bytes(out) == (4 * PER_MODEL, 6 * PER_MODEL)
        assert out.completed_rounds == 4
        assert out.completions == {0: [20.0, 40.0, 70.0, 90.0]}
        down = [(m.time, m.src) for m in out.messages if m.kind == fed_distill.MSG_FL_MODEL_DOWN]
        assert down == [(0.0, "rsu:0"), (20.0, "rsu:0"), (40.0, "rsu:0"),
                        (50.0, "rsu:1"), (70.0, "rsu:1"), (90.0, "rsu:1")]

    def test_completion_fraction(self):
        out = harness.FLOutcome({0: [20.0, 40.0]}, 2, [])
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

    def test_short_row_rejected(self, tmp_path, capsys):
        blob = (report.CSV_HEADER + "\nproposed,500\n").encode()
        with pytest.raises(DataFormatError):
            report.parse_report(blob, "csv")
        # A column that will not cast, a JSON row missing a column, and a JSON
        # row that is not an object: each exits 2 naming the file and the row.
        row = asdict(self.make_report().rows[0])
        missing = {k: v for k, v in row.items() if k != "capacity"}
        saved = tmp_path / "saved"
        for text, where in (
                (report.CSV_HEADER + "\nproposed,abc,25.0,30.0,76.0,1.5,3.12,0\n",
                 "line 2: bad report row: ValueError("),
                (json.dumps({"rows": [row, missing]}), "rows[1]: bad report row: KeyError('capacity')"),
                (json.dumps({"rows": [row, [1, 2]]}), "rows[1]: bad report row: TypeError("),
                (json.dumps({"rows": 5}), "a JSON report's rows must be a list, not 5")):
            saved.write_text(text)
            assert cli.main(["report", "--in", str(saved)]) == 2
            assert f"{saved}: {where}" in capsys.readouterr().err


class TestMessageTrace:
    def test_format(self):
        from roadcache.fed_distill import Message

        msgs = [Message(1.5, "veh:0", "rsu:1", "HI", 76),
                Message(2.0, "rsu:1", "veh:0", "KNOWLEDGE_DOWN", 64)]
        blob = harness.format_message_trace(msgs)
        assert blob == b"1.500000 veh:0 rsu:1 HI 76\n2.000000 rsu:1 veh:0 KNOWLEDGE_DOWN 64\n"
        assert harness.format_message_trace([]) == b""


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
                                 "data.num_vehicles=6", "codec.latent_dim=4",
                                 "cache.capacity_n=10", "cache.list_m=20"])
        rep = harness.run_simulation(cfg)
        row = rep.rows[0]
        assert row.hit_pct == 0.0
        assert row.mean_latency_ms == 0.0
        assert row.uplink_mb == 0.0

    def test_window_only_runs_train_no_codec(self, tiny_cfg_path, monkeypatch):
        """Window schemes read no model, so neither a run nor a sweep of them fits one."""

        def refuse(*args, **kwargs):
            raise AssertionError("a window-only run fitted a codec")

        monkeypatch.setattr(latent_codec, "pretrain_codec", refuse)
        cfg = load_config(tiny_cfg_path, ["sim.scheme=oracle"])
        assert harness.run_simulation(cfg).rows[0].hit_pct > 0
        swept = harness.run_sweep(cfg, list(harness.WINDOW_SCHEMES), [10, 40], [20.0, 30.0],
                                  [0, 1])
        assert len(swept.rows) == 3 * 2 * 2 * 2


def protocol(cfg, data, motion, workers=None):
    """simulate_protocol in a new fleet of ``workers``."""
    with fleet.Fleet(cfg, workers=workers) as pool:
        return harness.simulate_protocol(cfg, data, motion, pool)


@pytest.fixture(scope="module")
def tiny_stack(tiny_cfg_path):
    cfg = load_config(tiny_cfg_path, [])
    with fleet.Fleet(cfg) as pool:
        data = harness.build_data_env(cfg, True)
        motion = harness.build_motion_env(cfg, data.locals_)
        return cfg, data, motion, harness.simulate_protocol(cfg, data, motion, pool)


def run_in_process(cfg, data, motion):
    """simulate_protocol computing every visit in this process, in one fleet.Shard."""
    return harness.simulate_protocol(cfg, data, motion, fleet.Shard())


def test_each_list_is_the_top_m_of_its_decoded_ki(tiny_stack, monkeypatch):
    """Every completed visit's list is ``top_m(float32(decode(codec, KI)))`` of the KI it uploads.

    Recorded in-process (``run_in_process``): the KI passed to each
    ``fed_distill.complete_visit``, in completion order, the order of
    ``trace.lists``.  A list that came to depend on more than its visit's
    KI would fail here.
    """
    cfg, data, motion, default = tiny_stack
    uploaded = []
    real = fed_distill.complete_visit

    def complete_visit(kc, vehicle_id, knowledge, now):
        uploaded.append(knowledge.copy())
        return real(kc, vehicle_id, knowledge, now)

    monkeypatch.setattr(fed_distill, "complete_visit", complete_visit)
    trace = run_in_process(cfg, data, motion)
    assert trace.lists.tobytes() == default.lists.tobytes()
    assert len(uploaded) == len(trace.lists) == trace.completed_visits > 0
    for ids, ki in zip(trace.lists, uploaded):
        scores = latent_codec.decode(data.codec, ki).astype(np.float32)
        assert np.array_equal(ids, top_m(scores, cfg.cache.list_m))


def test_protocol_ledger_follows_each_entry(tiny_stack):
    """Every simulated zone entry's messages obey the visit rules.

    At entry the vehicle sends its list (when it carries one) and its
    fingerprint.  The visit proceeds only if the vehicle stays for the
    compute budget and entry + budget falls inside the run; only then does
    knowledge come down at entry and one KI go up at entry + budget.  Each
    message is claimed by exactly one entry.
    """
    cfg, _, _, trace = tiny_stack
    budget, L = cfg.compute.visit_seconds, cfg.codec.latent_dim
    sizes = {MSG_HI: fed_distill.hi_bytes(L), MSG_KI: fed_distill.ki_bytes(L),
             MSG_KNOWLEDGE_DOWN: fed_distill.knowledge_bytes(L),
             MSG_REC_LIST: fed_distill.rec_list_bytes(cfg.cache.list_m)}
    sent = defaultdict(list)   # (vehicle, time) -> [(kind, rsu)] in trace order
    for m in trace.messages:
        assert m.nbytes == sizes[m.kind], m
        up = m.kind in UPLINK_KINDS
        veh, rsu = (m.src, m.dst) if up else (m.dst, m.src)
        assert veh.startswith("veh:") and rsu.startswith("rsu:"), m
        sent[veh, m.time].append((m.kind, rsu))

    outcomes = Counter()
    for e in trace.entries:
        veh, rsu = f"veh:{e.vehicle_id}", f"rsu:{e.rsu}"
        stays = (cfg.topology.coverage_length - e.entry_position) / e.speed >= budget
        at_entry = sent[veh, e.time]
        head = [(MSG_REC_LIST, rsu)] * (e.list_version >= 0) + [(MSG_HI, rsu)]
        assert at_entry[:len(head)] == head, (e, at_entry)
        del at_entry[:len(head)]
        finish = e.time + budget
        completes = stays and finish < cfg.sim.duration
        if at_entry[:1] == [(MSG_KNOWLEDGE_DOWN, rsu)]:
            assert completes, e
            del at_entry[0]
            outcomes["knowledge down"] += 1
        at_finish = sent[veh, finish]
        assert at_finish.count((MSG_KI, rsu)) == completes, (e, at_finish)
        if completes:
            at_finish.remove((MSG_KI, rsu))
        outcomes["completed" if completes else "horizon" if stays else "short"] += 1
    assert [left for left in sent.values() if left] == []
    assert outcomes["completed"] == trace.completed_visits
    assert outcomes["short"] + outcomes["horizon"] == trace.aborted_visits
    # Knowledge comes down only from KIs that completed visits stored, so
    # every outcome, knowledge downloads included, must occur.
    assert min(outcomes.values()) > 0 and len(outcomes) == 4, outcomes


def test_request_zones_match_segments(tiny_stack):
    """Each request's zone is that of the last segment its vehicle entered by then."""
    _, _, motion, _ = tiny_stack
    assert len(motion.request_times) > 0
    for t, vid, rsu in zip(motion.request_times, motion.request_vehicles, motion.request_rsus):
        entered = [seg for seg in motion.timelines[vid].segments if seg.entry_time <= t]
        assert rsu == entered[-1].rsu_index


class TestEvaluationAccounting:
    """Every replay serves each request once, priced by the latency model."""

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_hits_and_misses_cover_requests(self, tiny_stack, scheme):
        cfg, data, motion, trace = tiny_stack
        requests = len(motion.request_times)
        assert requests > 0
        K = data.num_contents
        curve, _ = harness.evaluate_caching(cfg, data, motion, trace, scheme, [1, 10, K, 2 * K])
        assert len(curve) == 4
        for m in curve:
            assert m.hits + m.misses == requests
            assert m.latency_ms_sum == m.hits * cfg.latency.hit_ms + m.misses * cfg.latency.miss_ms
        hits = [m.hits for m in curve]
        assert hits == sorted(hits)
        # No cache holds more than the catalog, and none holds anything
        # before its RSU's first refresh, however large its capacity.
        assert curve[3] == curve[2]
        # A window cache that holds the whole catalog serves every request.
        assert curve[2].misses == 0 or scheme in harness.TRIGGER_SCHEMES

    def test_nothing_cached_before_first_refresh(self):
        # One vehicle enters RSU 0 at t=5; content 1 is requested there at
        # t=1, before any refresh, and again at t=6, after it.
        K = 4
        cfg = load_config(None, [])
        data = SimpleNamespace(num_contents=K, num_vehicles=1, prior_scores=np.ones(K))
        motion = motion_with([])
        motion.request_times = np.array([1.0, 6.0])
        motion.request_vehicles = np.zeros(2, dtype=np.int64)
        motion.request_contents = np.ones(2, dtype=np.int64)
        motion.request_rsus = np.zeros(2, dtype=np.int32)
        trace = harness.ProtocolTrace(
            lists=np.zeros((0, cfg.cache.list_m), dtype=np.int64),
            entries=[harness.EntryRecord(5.0, 0, 0, 0.0, 25.0, -1)],
            messages=[], completed_visits=0, aborted_visits=0, losses=[])
        curve, _ = harness.evaluate_caching(cfg, data, motion, trace, "proposed", [1, K, 2 * K])
        assert [(m.hits, m.misses) for m in curve] == [(1, 1)] * 3

    def test_refresh_rules(self):
        """A refresh serves requests from its own instant on, a vehicle's departure
        re-ranks the zone it left, and a window's ranking serves from the window's start."""
        K = 4
        cfg = load_config(None, [])
        data = SimpleNamespace(num_contents=K, num_vehicles=1, prior_scores=np.ones(K))
        # The vehicle carries list [3] into RSU 0 at t=5, then into RSU 1 at t=10.
        trace = harness.ProtocolTrace(
            lists=np.array([[3]]),
            entries=[harness.EntryRecord(5.0, 0, 0, 0.0, 25.0, 0),
                     harness.EntryRecord(10.0, 0, 1, 0.0, 25.0, 0)],
            messages=[], completed_visits=1, aborted_visits=0, losses=[])

        def hits(scheme, t):
            """Hits at N = 1 and 3 of one request for content 3 at RSU 0 at time t."""
            motion = motion_with([])
            motion.request_times = np.array([t])
            motion.request_vehicles = np.zeros(1, dtype=np.int64)
            motion.request_contents = np.array([3])
            motion.request_rsus = np.zeros(1, dtype=np.int32)
            curve, _ = harness.evaluate_caching(cfg, data, motion, trace, scheme, [1, 3])
            return [m.hits for m in curve]

        assert hits("proposed", 1.0) == [0, 0]
        assert hits("proposed", 5.0) == [1, 1]
        # RSU 0 lost its only voter at t=10: all-zero votes rank content 3 third.
        assert hits("proposed", 12.0) == [0, 1]
        # Window 0 saw no requests, so its oracle ranking also puts content 3 third.
        assert hits("oracle", cfg.kc.sync_period) == [1, 1]

    def test_mis_sized_message_fails_the_replay(self, tiny_stack):
        cfg, data, motion, trace = tiny_stack
        first = trace.messages[0]
        bad = replace(trace, messages=[replace(first, nbytes=first.nbytes + 1),
                                       *trace.messages[1:]])
        harness.evaluate_caching(cfg, data, motion, trace, "proposed", [10])
        with pytest.raises(InvariantError, match="message ledger"):
            harness.evaluate_caching(cfg, data, motion, bad, "proposed", [10])


class TestCacheDump:
    def test_oracle_scores_are_window_counts(self, tiny_cfg_path, tiny_stack, tmp_path):
        """oracle dumps each window's request counts, n_tau_greedy the counts before it."""
        cfg, _, motion, _ = tiny_stack
        tick = cfg.kc.sync_period
        windows = (motion.request_times // tick).astype(int)
        for scheme, counted in (("oracle", np.equal), ("n_tau_greedy", np.less)):
            dump_path = tmp_path / f"{scheme}.cache"
            harness.run_simulation(load_config(tiny_cfg_path, [f"sim.scheme={scheme}"]),
                                   cache_dump_path=str(dump_path))
            lines = dump_path.read_text().splitlines()
            assert lines
            scores = []
            for line in lines:
                when, rsu, cid, score = line.split()
                window = round(float(when) / tick)
                assert float(when) == window * tick, line
                requested = (counted(windows, window) & (motion.request_rsus == int(rsu))
                             & (motion.request_contents == int(cid)))
                if score != "nan":
                    assert float(score) == requested.sum(), (scheme, line)
                    scores.append(float(score))
            assert max(scores) > 0, scheme


class TestSweepMatchesRuns:
    @pytest.mark.parametrize("list_m", [20])
    def test_rows_equal_standalone_runs(self, tiny_cfg_path, list_m):
        base = load_config(tiny_cfg_path, [f"cache.list_m={list_m}"])
        swept = harness.run_sweep(base, list(SCHEMES), [10, 40], [base.mobility.mu],
                                  [base.sim.seed])
        assert len(swept.rows) == 2 * len(SCHEMES)
        for row in swept.rows:
            cfg = load_config(tiny_cfg_path, [f"cache.list_m={list_m}", f"sim.scheme={row.scheme}",
                                              f"cache.capacity_n={row.capacity}"])
            assert harness.run_simulation(cfg).rows == [row]

    def test_data_env_built_once_per_seed(self, tiny_cfg_path, monkeypatch):
        """One fleet serves a whole sweep and one data env a seed's speeds, as fresh as a
        new sweep per (seed, speed) cell."""
        base = load_config(tiny_cfg_path, [])
        schemes, capacities, speeds, seeds = ["proposed", "oracle"], [10, 40], [20.0, 30.0], [0, 1]
        cells = [(seed, speed) for seed in seeds for speed in speeds]
        traces = []   # (seed, speed, messages, lists, losses) per protocol phase
        real_protocol = harness.simulate_protocol

        def recorded(cfg, *args, **kwargs):
            trace = real_protocol(cfg, *args, **kwargs)
            traces.append((cfg.sim.seed, cfg.mobility.mu,
                           harness.format_message_trace(trace.messages),
                           trace.lists.tobytes(), np.array(trace.losses).tobytes()))
            return trace

        monkeypatch.setattr(harness, "simulate_protocol", recorded)
        apart = [row for seed, speed in cells
                 for row in harness.run_sweep(base, schemes, capacities, [speed], [seed]).rows]
        standalone = traces[:]
        traces.clear()
        built, opened = [], []
        real_build, real_enter = harness.build_data_env, fleet.Fleet.__enter__

        def counted(cfg, *args):
            built.append(cfg.sim.seed)
            return real_build(cfg, *args)

        def enter(self):
            opened.append(self)
            return real_enter(self)

        monkeypatch.setattr(harness, "build_data_env", counted)
        monkeypatch.setattr(fleet.Fleet, "__enter__", enter)
        together = harness.run_sweep(base, schemes, capacities, speeds, seeds).rows
        assert len(opened) == 1
        assert built == seeds
        assert together == apart
        assert [(seed, speed) for seed, speed, *_ in traces] == cells
        assert traces == standalone


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

    def test_unknown_key_exits_2(self, tiny_cfg_path, capsys):
        for setting in ("bogus.key=1", "sim.dt=0.1", "data.subsample_users=10",
                        "sim.loop_road=false", "codec.hidden=16"):
            assert cli.main(["run", "--config", tiny_cfg_path, "--set", setting]) == 2
            assert f"unknown config key {setting.split('=')[0]!r}" in capsys.readouterr().err

    def test_bad_value_exits_2(self, tiny_cfg_path, tmp_path, capsys):
        # A malformed rating file's error names it as path:line.
        bad_dat, headless_csv = tmp_path / "bad.dat", tmp_path / "headless.csv"
        bad_dat.write_text("1::10::5::100\noops\n")
        headless_csv.write_text("1,2,3,4\n")
        named = {f"data.path={bad_dat}": f"{bad_dat}:2: expected 4 '::' fields",
                 f"data.path={headless_csv}": f"{headless_csv}:1: unexpected CSV header"}
        # list_m=81 exceeds the tiny config's 80-content catalog, and
        # num_vehicles=28 its 27 riders (30 users, 3 of them public).
        for setting in ("cache.capacity_n=many", "ldpm.F=0", "cache.list_m=81", "cache.list_m=0",
                        "ldpm.batch=0", "ldpm.batch=-1", "ldpm.hidden=0",
                        "ldpm.time_embed=3", "ldpm.time_embed=0", "ldpm.lr=nan",
                        "ldpm.lr=0", "codec.latent_dim=0", "codec.epochs=-1",
                        "codec.finetune_epochs=-1", "ldpm.episodes=-1", "ldpm.delta=0",
                        "ldpm.delta=-1", "ldpm.lambda=-0.5", "cache.eta=nan", "cache.eta=inf",
                        "compute.visit_seconds=nan", "topology.coverage_length=inf",
                        "mobility.sigma=nan", "mobility.mu=nan", "sim.seed=-1",
                        "greedy.tau=-0.1", "greedy.tau=1.5", "ldpm.T=0", "data.split_ratio=0",
                        "data.split_ratio=1", "data.num_vehicles=28", *named):
            assert cli.main(["run", "--config", tiny_cfg_path, "--set", setting]) == 2
            assert named.get(setting, setting.split("=")[0]) in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_floats_rejected(self, value):
        # Checked through load_config alone: sim.duration=inf never ends a run
        # that gets past validation.
        defaults = SimConfig()
        floats = [key for key, (group, name) in _key_table(defaults).items()
                  if isinstance(getattr(getattr(defaults, group), name), float)]
        assert {"sim.duration", "mobility.mu", "cache.eta", "ldpm.lambda"} <= set(floats)
        for key in floats:
            with pytest.raises(ConfigError, match=f"{re.escape(key)} must be finite"):
                load_config(None, [f"{key}={value}"])

    def test_unknown_scheme_exits_2(self, tiny_cfg_path):
        proc = roadcache_cli("run", "--config", tiny_cfg_path,
                             "--set", "sim.scheme=bogus")
        assert proc.returncode == 2

    def test_missing_config_exits_2(self):
        proc = roadcache_cli("run", "--config", "/no/such/file.cfg")
        assert proc.returncode == 2

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

    def test_rating_file_runs_as_its_synth_catalog(self, tiny_cfg_path, tmp_path):
        """The tiny config's synth catalog, written as a ``.dat`` and as a ``.csv`` rating
        file, gives the synth run's report and message trace byte for byte."""
        uri = load_config(tiny_cfg_path, []).data.path
        params = parse_synth_uri(uri)
        rows = list(zip(*(col.tolist() for col in
                          generate(params["users"], params["contents"], params["seed"]))))
        dat, csv = tmp_path / "ratings.dat", tmp_path / "ratings.csv"
        dat.write_text("".join(f"{u}::{c}::{r}::{t}\n" for u, c, r, t in rows))
        csv.write_text("user_id,content_id,rating,timestamp\n"
                       + "".join(f"{u},{c},{r},{t}\n" for u, c, r, t in rows))
        outs = []
        for name, path in (("synth", uri), ("dat", dat), ("csv", csv)):
            out, trace = tmp_path / f"{name}.csv", tmp_path / f"{name}.trace"
            assert cli.main(["run", "--config", tiny_cfg_path, "--set", f"data.path={path}",
                             "--out", str(out), "--trace", str(trace)]) == 0
            outs.append((out.read_bytes(), trace.read_bytes()))
        assert outs[0] == outs[1] == outs[2]
        assert len(outs[0][1]) > 0

    def test_sweep_grid(self, tiny_cfg_path, tmp_path):
        grid = tmp_path / "grid.cfg"
        grid.write_text(
            f"config = {tiny_cfg_path}\n"
            "schemes = random, oracle\n"
            "capacities = 10:20:10\n"
            "seeds = 0\n"
            "ldpm.episodes = 2\n")
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

    def test_sweep_capacity_below_one_exits_2(self, tiny_cfg_path, tmp_path, capsys):
        grid = tmp_path / "grid.cfg"
        grid.write_text(f"config = {tiny_cfg_path}\nschemes = random\ncapacities = -5, 0, 10\n")
        outdir = tmp_path / "o"
        assert cli.main(["sweep", "--grid", str(grid), "--out", str(outdir)]) == 2
        assert "capacities must be >= 1" in capsys.readouterr().err
        assert not outdir.exists()

    @pytest.mark.parametrize("verb, settings, message", [
        ("run", ["mobility.mu=5", "mobility.sigma=0.5"], "vanishing probability mass"),
        ("sweep", ["seeds = 0, -1"], "sim.seed must be >= 0"),
        ("sweep", ["speeds = 25, 5", "mobility.sigma = 0.5"], "vanishing probability mass"),
        # the tiny run lasts 120 s: 12 000 periods of 0.01 s
        ("run", ["kc.sync_period=0.01"], "kc.sync_period = 0.01 fits more than 10000 periods"),
        ("run", ["fl.round_seconds=0.01"], "fl.round_seconds = 0.01 fits more than 10000"),
        ("sweep", ["fl.round_seconds = 0.01"], "fl.round_seconds = 0.01 fits more than 10000"),
        # 120 s at 35 m/s is 4200 m: 420 000 zones of 0.01 m
        ("run", ["topology.coverage_length=0.01"], "crosses more than 10000 zones"),
        ("run", ["mobility.v_max=1e6"], "sim.duration * mobility.v_max = 1.2e+08 m crosses"),
        ("sweep", ["topology.coverage_length = 0.01"], "topology.coverage_length = 0.01 m"),
        # grid axes that will not cast: the message names the file, line, key and value
        ("sweep", ["capacities = 10, x"], "grid.cfg:3: capacities = 10, x: invalid literal"),
        ("sweep", ["speeds = a:b:c"], "grid.cfg:3: speeds = a:b:c: could not convert"),
        ("sweep", ["seeds = 0:2:0.5"], "grid.cfg:3: seeds = 0:2:0.5: invalid literal"),
    ], ids=["run-massless-window", "sweep-negative-seed", "sweep-massless-speed",
            "run-tiny-sync-period", "run-tiny-fl-round", "sweep-tiny-fl-round",
            "run-tiny-zone", "run-huge-top-speed", "sweep-tiny-zone",
            "sweep-capacity-not-int", "sweep-speed-range-not-float", "sweep-seed-step-not-int"])
    def test_bad_cell_exits_2_before_building(self, tiny_cfg_path, tmp_path, capsys, monkeypatch,
                                              verb, settings, message):
        """A bad setting fails at config load, before any data environment is built."""
        built = []
        monkeypatch.setattr(harness, "build_data_env", built.append)
        if verb == "run":
            argv = ["run", "--config", tiny_cfg_path]
            for setting in settings:
                argv += ["--set", setting]
        else:
            grid = tmp_path / "grid.cfg"
            grid.write_text("\n".join([f"config = {tiny_cfg_path}", "schemes = random", *settings]))
            argv = ["sweep", "--grid", str(grid), "--out", str(tmp_path / "o")]
        assert cli.main(argv) == 2
        assert message in capsys.readouterr().err
        assert built == []

    def test_unreadable_grid_exits_2(self, tiny_cfg_path, tmp_path, capsys):
        grid = tmp_path / "grid.cfg"
        grid.write_text(f"config = {tiny_cfg_path}\n# seeds only\n\nseeds 0\n")
        for path, where in ((grid, f"{grid}:4:"), (tmp_path / "missing.cfg", "missing.cfg")):
            assert cli.main(["sweep", "--grid", str(path), "--out", str(tmp_path / "o")]) == 2
            assert where in capsys.readouterr().err

    @pytest.mark.parametrize("overrides", [
        # a catalog smaller than the codec's latent width
        ["data.path=synth://users=30,contents=12,seed=7", "cache.list_m=12",
         "codec.latent_dim=16"],
        ["cache.list_m=80"],              # every content on every list
        ["data.num_vehicles=27"],         # one rider per vehicle
        ["data.num_vehicles=27", "topology.num_rsus=4"],   # ... spread over four zones
        # two public rows, fewer than the codec's latent width
        ["data.public_fraction=0.05", "codec.latent_dim=16"],
        ["data.public_fraction=0"],       # no public holdout
        ["compute.visit_seconds=0"],
        ["topology.num_rsus=1"],
    ], ids=["tiny-catalog", "list-is-catalog", "one-rider", "one-rider-four-zones",
            "public-under-latent", "no-public", "no-compute", "one-rsu"])
    def test_boundary_config_runs(self, tiny_cfg_path, tmp_path, overrides):
        out = tmp_path / "row.csv"
        args = ["run", "--config", tiny_cfg_path, "--out", str(out)]
        for setting in overrides:
            args += ["--set", setting]
        assert cli.main(args) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == report.CSV_HEADER and len(lines) == 2

    def test_one_rider_vehicles_in_four_zones_finish(self, tmp_path):
        """Desk with one rider per vehicle and four zones runs to the end.

        With a codec fine-tuned on each vehicle's one rider, the latents grew
        to about 1e3 and the diffusion objective became non-finite (exit 3).
        """
        desk = Path(__file__).resolve().parents[1] / "configs" / "desk.cfg"
        out = tmp_path / "row.csv"
        args = ["run", "--config", str(desk), "--out", str(out)]
        for setting in ("data.path=synth://users=120,contents=3952,seed=1",
                        "data.public_fraction=0.5", "topology.num_rsus=4", "sim.duration=360"):
            args += ["--set", setting]
        assert cli.main(args) == 0
        assert len(out.read_text().splitlines()) == 2

    def test_keys_listing(self):
        proc = roadcache_cli("--keys")
        assert proc.returncode == 0
        keys = proc.stdout.split()
        assert "cache.capacity_n" in keys
        assert "ldpm.T" in keys


def pending_visit(vid, rows):
    return SimpleNamespace(vehicle_id=vid, latents=np.zeros((rows, 4)))


class TestBatchedProtocol:
    def test_batches_keep_vehicles_apart_and_in_order(self):
        rng = substream(0, "batches")
        visits = [pending_visit(int(rng.integers(0, 6)), int(rng.choice([9, 10])))
                  for _ in range(60)]
        batches = fed_distill.visit_batches(visits)
        assert sorted(i for batch in batches for i in batch) == list(range(60))
        assert max(len(batch) for batch in batches) > 1
        batch_of = {i: b for b, batch in enumerate(batches) for i in batch}
        for batch in batches:
            vehicles = [visits[i].vehicle_id for i in batch]
            assert len(set(vehicles)) == len(vehicles)
            assert len({len(visits[i].latents) for i in batch}) == 1
        for vid in range(6):
            order = [batch_of[i] for i, v in enumerate(visits) if v.vehicle_id == vid]
            assert order == sorted(order) and len(set(order)) == len(order)

    def test_one_visit_per_call_gives_identical_trace(self, monkeypatch, tiny_stack):
        """Stack and sampling-call sizes change no byte; sampling reads the trained stack.

        The visits compute in-process (``run_in_process``), so the patched
        calls see them.
        """
        cfg, data, motion, batched = tiny_stack
        real_train, real_sample, real_batches = (ldpm.local_train, ldpm.sample,
                                                 fed_distill.visit_batches)
        calls = {"train": [], "sample": []}

        def train(params, latents, *args, **kwargs):
            calls["train"].append(params)
            return real_train(params, latents, *args, **kwargs)

        def sample(params, sched, count, rng):
            calls["sample"].append(params)
            return real_sample(params, sched, count, rng)

        def singletons(visits):
            return [[i] for batch in real_batches(visits) for i in batch]

        def dense(params):
            return [layer for layer in params.net.layers if isinstance(layer, nn.Dense)]

        def views(part, whole):
            return all(np.shares_memory(a.w, b.w) and np.shares_memory(a.b, b.b)
                       for a, b in zip(dense(part), dense(whole)))

        monkeypatch.setattr(ldpm, "local_train", train)
        monkeypatch.setattr(ldpm, "sample", sample)
        largest = []
        # As configured; sampling two visits per call; training two, then one,
        # visit per stack; one visit per call throughout.
        for sample_rows, cap, split in (
                (fed_distill.SAMPLE_ROWS, fed_distill.STACK_VISITS, real_batches),
                (2 * cfg.ldpm.sample_count, fed_distill.STACK_VISITS, real_batches),
                (fed_distill.SAMPLE_ROWS, 2, real_batches),
                (fed_distill.SAMPLE_ROWS, 1, real_batches),
                (1, fed_distill.STACK_VISITS, singletons)):
            monkeypatch.setattr(fed_distill, "SAMPLE_ROWS", sample_rows)
            monkeypatch.setattr(fed_distill, "STACK_VISITS", cap)
            monkeypatch.setattr(fed_distill, "visit_batches", split)
            calls["train"].clear()
            calls["sample"].clear()
            trace = run_in_process(cfg, data, motion)
            largest.append(tuple(max(len(dense(params)[0].w) for params in calls[kind])
                                 for kind in ("train", "sample")))
            assert largest[-1][0] <= cap
            assert all(any(views(part, whole) for whole in calls["train"])
                       for part in calls["sample"])
            assert (harness.format_message_trace(trace.messages)
                    == harness.format_message_trace(batched.messages))
            assert trace.lists.tobytes() == batched.lists.tobytes()
            assert np.array_equal(trace.losses, batched.losses, equal_nan=True)
            assert (trace.completed_visits, trace.aborted_visits) == (
                batched.completed_visits, batched.aborted_visits)
        assert largest[0][0] > 2 and largest[0][1] == largest[0][0]
        assert largest[1] == (largest[0][0], 2)
        assert largest[2:] == [(2, 2), (1, 1), (1, 1)]

    def test_call_allocates_under_two_stacked_copies(self, monkeypatch, tiny_stack):
        """A call's stacks hold the one copy of its denoisers' weights and momentum.

        Measured in-process (``run_in_process``).
        """
        cfg, data, motion, batched = tiny_stack
        real = fed_distill.train_and_predict
        calls = []   # (visits, peak bytes allocated, bytes of one stacked copy)

        def measured(visits, *args):
            copy = sum(getattr(layer, name).nbytes for visit in visits
                       for layer in visit.denoiser.net.layers if isinstance(layer, nn.Dense)
                       for name in ("w", "b", "_vw", "_vb"))
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            results = real(visits, *args)
            calls.append((len(visits), tracemalloc.get_traced_memory()[1] - start, copy))
            return results

        monkeypatch.setattr(fed_distill, "train_and_predict", measured)
        tracemalloc.start()
        try:
            trace = run_in_process(cfg, data, motion)
        finally:
            tracemalloc.stop()
        assert trace.lists.tobytes() == batched.lists.tobytes()
        assert max(n for n, _, _ in calls) > 2
        for n, peak, copy in calls:
            assert peak < 2 * copy, (n, peak, copy)


class TestInferenceCachesNothing:
    """Encoding, decoding and sampling leave no activations on any layer."""

    @staticmethod
    def held(nets):
        return [(i, name) for i, net in enumerate(nets) for layer in net.layers
                for name in ("_x", "_mask") if getattr(layer, name, None) is not None]

    def test_protocol_leaves_no_activations(self, monkeypatch, tiny_cfg_path):
        """Checked in-process (``run_in_process``), whose trace is a worker run's, byte for byte."""
        cfg = load_config(tiny_cfg_path, [])
        denoisers, sampled = [], []
        real_new, real_sample = ldpm.new_denoiser, ldpm.sample

        def new_denoiser(*args):
            denoisers.append(real_new(*args))
            return denoisers[-1]

        def sample(params, sched, count, rng):
            sampled.append(params)
            return real_sample(params, sched, count, rng)

        monkeypatch.setattr(ldpm, "new_denoiser", new_denoiser)
        monkeypatch.setattr(ldpm, "sample", sample)
        data = harness.build_data_env(cfg, True)
        motion = harness.build_motion_env(cfg, data.locals_)
        trace = run_in_process(cfg, data, motion)
        in_workers = protocol(cfg, data, motion)
        assert (harness.format_message_trace(trace.messages)
                == harness.format_message_trace(in_workers.messages))
        assert trace.lists.tobytes() == in_workers.lists.tobytes()
        assert np.array(trace.losses).tobytes() == np.array(in_workers.losses).tobytes()
        assert trace.completed_visits > 0 and sampled
        assert len(denoisers) == data.num_vehicles
        assert list(vars(data.codec)) == ["basis"]
        assert self.held([d.net for d in denoisers + sampled]) == []
        for denoiser in denoisers:
            for layer in denoiser.net.layers:
                if hasattr(layer, "w"):
                    assert layer.dw is layer.db is None


class TestFleet:
    """Visits compute in worker processes; no byte depends on how many."""

    def test_trace_bytes_do_not_depend_on_worker_count(self, tiny_stack):
        """Nor on whether the visits compute in workers or in-process in one ``Shard``."""
        cfg, data, motion, default = tiny_stack
        for workers in (1, 2, 3, None):
            if workers is None:
                trace = run_in_process(cfg, data, motion)
            else:
                trace = protocol(cfg, data, motion, workers=workers)
            assert (harness.format_message_trace(trace.messages)
                    == harness.format_message_trace(default.messages))
            assert trace.lists.tobytes() == default.lists.tobytes()
            assert np.array(trace.losses).tobytes() == np.array(default.losses).tobytes()
            assert (trace.completed_visits, trace.aborted_visits) == (
                default.completed_visits, default.aborted_visits)
            assert len(trace.worker_load) == (workers or 1)
            assert sum(visits for visits, _, _ in trace.worker_load) == trace.completed_visits

    def test_worker_visits_sum_to_completed(self, tiny_stack):
        cfg, data, _, trace = tiny_stack
        assert len(trace.worker_load) == fleet.worker_count(data.num_vehicles)
        assert sum(visits for visits, _, _ in trace.worker_load) == trace.completed_visits > 0
        assert all(seconds > 0 for visits, seconds, _ in trace.worker_load if visits)
        # Each worker that replied reports its own peak memory, where it can read it.
        readable = Path("/proc/self/status").is_file()
        assert all((peak_mb > 10) if readable else (peak_mb is None)
                   for visits, _, peak_mb in trace.worker_load if visits)

    def test_truncated_message_reads_as_none(self):
        """A message cut short anywhere reads as the end of the stream; whole ones read in order."""
        ok = ("ok", [(np.linspace(0.0, 1.0, 8), [0.5, 0.25])], [1, 0.125, 150.0])
        error = ("error", TrainingError("diffusion objective became non-finite"))
        assert fleet._receive(io.BytesIO()) is None
        blobs = []
        for message in (ok, error):
            sent = io.BytesIO()
            fleet._send(sent, message)
            blobs.append(sent.getvalue())
            for cut in range(len(blobs[-1])):
                assert fleet._receive(io.BytesIO(blobs[-1][:cut])) is None, (message[0], cut)
        stream = io.BufferedReader(io.BytesIO(b"".join(blobs)))
        kind, [(knowledge, losses)], load = fleet._receive(stream)
        assert (kind, losses, load) == ("ok", [0.5, 0.25], [1, 0.125, 150.0])
        assert knowledge.tobytes() == ok[1][0][0].tobytes()
        kind, exc = fleet._receive(stream)
        assert kind == "error" and type(exc) is TrainingError and exc.args == error[1].args
        assert fleet._receive(stream) is None

    def test_worker_training_error_exits_3(self, tiny_cfg_path):
        result = roadcache_cli("run", "--config", tiny_cfg_path, "--set", "ldpm.lr=1e300")
        assert result.returncode == 3
        assert "diffusion objective became non-finite" in result.stderr
        assert result.stdout == ""

    def test_no_worker_outlives_a_run(self, tiny_cfg_path, monkeypatch, capsys):
        """Every fleet's workers have exited, and its pipes are closed, when the run ends."""
        fleets = []
        # Main's open descriptors before each fleet opened and after it last closed.
        descriptors: dict[int, list] = {}
        fd_dir = Path("/proc/self/fd")
        real_enter, real_close = fleet.Fleet.__enter__, fleet.Fleet.close

        def open_descriptors():
            return len(os.listdir(fd_dir)) if fd_dir.is_dir() else None

        def enter(self):
            fleets.append(self)
            descriptors[id(self)] = [open_descriptors(), None]
            return real_enter(self)

        def close(self):
            real_close(self)
            descriptors[id(self)][1] = open_descriptors()

        monkeypatch.setattr(fleet.Fleet, "__enter__", enter)
        monkeypatch.setattr(fleet.Fleet, "close", close)
        with pytest.raises(TrainingError, match="diffusion objective became non-finite"):
            harness.run_simulation(load_config(tiny_cfg_path, ["ldpm.lr=1e300"]))
        # A run fails after the fleet opened: the denoisers' training in the
        # workers, then set-up's catalog check.
        assert cli.main(["run", "--config", tiny_cfg_path, "--set", "ldpm.lr=1e300"]) == 3
        assert "diffusion objective became non-finite" in capsys.readouterr().err
        assert cli.main(["run", "--config", tiny_cfg_path, "--set", "cache.list_m=100"]) == 2
        assert "exceeds the catalog" in capsys.readouterr().err
        harness.run_simulation(load_config(tiny_cfg_path, []))
        assert len(fleets) == 4
        for each in fleets:
            assert each.procs and [proc.poll() for proc in each.procs] == [0] * len(each.procs)
            before, after = descriptors[id(each)]
            assert before == after, (before, after)

    def test_dead_worker_is_named(self, tiny_stack, monkeypatch):
        """A worker that died is named, whether it died in a round or before the first."""
        cfg, data, motion, _ = tiny_stack
        died = r"fleet worker 0 \(pid \d+\) died with exit status -9"

        def kill(pool):
            pool.procs[0].kill()
            pool.procs[0].wait()

        real_compute, real_reset = fleet.Fleet.compute, fleet.Fleet.reset

        def compute(self, jobs):
            kill(self)
            return real_compute(self, jobs)

        def reset(self, *args):
            real_reset(self, *args)
            kill(self)

        with monkeypatch.context() as mp:
            mp.setattr(fleet.Fleet, "compute", compute)
            with pytest.raises(InvariantError, match=died):
                protocol(cfg, data, motion, workers=1)
        # A phase's reset hands over the vehicles with no reply, so a worker
        # killed before it, or after it and before the first round, must not
        # go unnoticed.
        with fleet.Fleet(cfg, workers=1) as pool:
            kill(pool)
            with pytest.raises(InvariantError, match=died):
                harness.simulate_protocol(cfg, data, motion, pool)
        with monkeypatch.context() as mp:
            mp.setattr(fleet.Fleet, "reset", reset)
            with pytest.raises(InvariantError, match=died):
                protocol(cfg, data, motion, workers=1)


def reachable(root):
    """Every object reachable from root through attributes, lists, tuples and dicts.

    Arrays are leaves; strings and numbers are skipped.
    """
    seen, todo = set(), [root]
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, (str, bytes, int, float)):
            continue
        seen.add(id(obj))
        yield obj
        if isinstance(obj, dict):
            todo.extend(obj.values())
        elif isinstance(obj, (list, tuple)):
            todo.extend(obj)
        elif hasattr(obj, "__dict__"):
            todo.extend(vars(obj).values())


def reachable_codecs(root):
    """Every codec reachable from root."""
    return [obj for obj in reachable(root) if isinstance(obj, latent_codec.CodecParams)]


def public_vectors(cfg):
    """The run's public vectors, rebuilt from the dataset functions rather than set-up."""
    matrix = load_ratings(cfg.data.path)
    public_ids, _ = split_public_users(matrix, cfg.data.public_fraction,
                                       substream(cfg.sim.seed, "public"))
    rows = user_rows(matrix)
    return np.vstack([user_train_vector(matrix, rows[int(uid)]) for uid in public_ids])


class TestDataEnvKeepsDecoders:
    """Set-up fits one codec: the data env and every fleet filled from it hold that one."""

    @pytest.fixture(scope="class")
    def built(self, tiny_cfg_path):
        cfg = load_config(tiny_cfg_path, [])
        data = harness.build_data_env(cfg, True)
        shard = fleet.Shard()
        shard.reset(cfg, dict(enumerate(data.latents)))
        return cfg, data, shard

    def test_no_encoder_reachable(self, built):
        cfg, data, shard = built
        assert reachable_codecs(data) == [data.codec] and list(vars(data.codec)) == ["basis"]
        assert data.codec.basis.shape == (data.num_contents, cfg.codec.latent_dim)
        # The filled shard holds every vehicle's latents, and no codec.
        assert sorted(shard.latents) == list(range(data.num_vehicles))
        assert reachable_codecs(shard) == []
        window_only = harness.build_data_env(cfg, False)
        assert window_only.codec is None and reachable_codecs(window_only) == []

    def test_equals_direct_fine_tune(self, built):
        """Set-up's fingerprints, latents and codec are the public-vector codec's, byte for byte.

        The direct path is the fit on the public vectors and nothing more:
        no vehicle fine-tunes the codec, so each encodes with that one basis.
        """
        cfg, data, shard = built
        codec = latent_codec.pretrain_codec(public_vectors(cfg), cfg.codec.latent_dim)
        for loc, fingerprint, latents in zip(data.locals_, data.hashes, data.latents):
            rows = loc.train_rows()
            assert fingerprint.tobytes() == latent_codec.encode(codec, rows.mean(axis=0)).tobytes()
            want_latents = latent_codec.encode(codec, rows).tobytes()
            assert latents.tobytes() == shard.latents[loc.vehicle_id].tobytes() == want_latents
        assert codec_state(data.codec) == codec_state(codec)

    def test_each_worker_is_sent_only_its_own_latents(self, tiny_cfg_path, monkeypatch):
        """No codec crosses a worker pipe, either way.

        Set-up sends nothing.  Each of W workers gets a start message
        holding only the package path, then each phase's ``reset``: the
        phase's config and the latents of the vehicles with
        ``vehicle_id % W == w``, then ``compute`` rounds.  No message to a
        worker reaches a codec, and each ``compute`` reply holds only each
        visit's L-wide knowledge and its losses.
        """
        cfg = load_config(tiny_cfg_path, [])
        real_send, real_receive = fleet._send, fleet._receive
        sent, replies = {}, []

        def send(stream, obj):
            sent.setdefault(stream, []).append(pickle.dumps(obj, protocol=5))
            real_send(stream, obj)

        def receive(stream):
            replies.append(real_receive(stream))
            return replies[-1]

        with monkeypatch.context() as mp:
            mp.setattr(fleet, "_send", send)
            mp.setattr(fleet, "_receive", receive)
            with fleet.Fleet(cfg, workers=3) as pool:
                data = harness.build_data_env(cfg, True)
                assert [len(sent[proc.stdin]) for proc in pool.procs] == [1, 1, 1]
                motion = harness.build_motion_env(cfg, data.locals_)
                trace = harness.simulate_protocol(cfg, data, motion, pool)
                received = [[pickle.loads(blob) for blob in sent[proc.stdin]]
                            for proc in pool.procs]
        for w, (package, (kind, phase_cfg, latents), *rounds) in enumerate(received):
            assert package == str(Path(fleet.__file__).resolve().parent)
            assert kind == "reset" and phase_cfg == cfg
            assert sorted(latents) == list(range(w, data.num_vehicles, 3))
            assert all(latents[vid].tobytes() == data.latents[vid].tobytes() for vid in latents)
            assert all(message[0] == "compute" for message in rounds)
        assert {message[0] for _, *messages in received for message in messages} == {
            "reset", "compute"}
        assert reachable_codecs(received) == [] and reachable_codecs(replies) == []
        assert sum(len(computed) for _, computed, _ in replies) == trace.completed_visits > 0
        for kind, computed, _ in replies:
            assert kind == "ok"
            for knowledge, losses in computed:
                assert knowledge.shape == (cfg.codec.latent_dim,)
                assert all(type(loss) is float for loss in losses)

    def test_set_up_holds_one_decoder_at_a_time(self, monkeypatch):
        """Set-up encodes every vehicle with the one codec, so no copies of it pile up in main.

        Under tracemalloc, main's allocations in ``build_data_env`` after the
        codec is fitted peak less than three codecs' bytes above what it held
        then.  Keeping a copy for each of the 12 vehicles would take 12.
        """
        cfg = load_config(None, ["sim.duration=20", "data.num_vehicles=12",
                                 "data.path=synth://users=60,contents=2000,seed=7",
                                 "codec.latent_dim=8", "ldpm.T=5", "ldpm.F=8",
                                 "ldpm.episodes=1", "cache.capacity_n=10", "cache.list_m=20"])
        real_build, real_pretrain = harness.build_data_env, latent_codec.pretrain_codec
        codec_bytes, held, rises = [], [], []

        def pretrain(*args, **kwargs):
            codec = real_pretrain(*args, **kwargs)
            codec_bytes.append(codec.basis.nbytes)
            held.append(tracemalloc.get_traced_memory()[0])
            tracemalloc.reset_peak()
            return codec

        def build(*args, **kwargs):
            tracemalloc.start()
            try:
                data = real_build(*args, **kwargs)
                rises.append(tracemalloc.get_traced_memory()[1] - held[0])
            finally:
                tracemalloc.stop()
            return data

        monkeypatch.setattr(latent_codec, "pretrain_codec", pretrain)
        monkeypatch.setattr(harness, "build_data_env", build)
        harness.run_simulation(cfg)
        assert len(rises) == len(codec_bytes) == 1
        assert rises[0] < 3 * codec_bytes[0], (rises[0], codec_bytes[0])


class TestSetUpKeepsRatingsSparse:
    """Main keeps the riders' training ratings sparse; only set-up builds dense rows."""

    def test_desk_set_up_never_holds_every_riders_rows(self, desk_cfg):
        """Under tracemalloc, a desk set-up peaks below one copy of all riders' dense rows,
        what ``data.locals_`` keeps is under a tenth of that, and the loaded rating
        matrix is not kept at all.

        A warm-up build first takes the one-off import and cache allocations.
        """
        harness.build_data_env(desk_cfg, True)
        tracemalloc.start()
        try:
            data = harness.build_data_env(desk_cfg, True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        riders = sum(len(loc.user_ids) for loc in data.locals_)
        all_rows = riders * data.num_contents * 8
        assert peak < all_rows, (peak, all_rows)
        kept = sum(obj.nbytes for obj in reachable(data.locals_) if isinstance(obj, np.ndarray))
        assert kept < all_rows / 10, (kept, all_rows)
        held = list(reachable(data))
        wide = [obj.shape for obj in held
                if isinstance(obj, np.ndarray) and obj.ndim == 2 and obj.shape[1] == data.num_contents]
        assert wide == []
        assert not any(isinstance(obj, RatingMatrix) for obj in held)

    def test_trace_lists_use_the_narrowest_id_dtype(self, tiny_stack):
        """Ids run 1..K, so the lists take the narrowest dtype holding K (uint16 on desk)."""
        _, data, _, trace = tiny_stack
        assert trace.completed_visits > 0
        assert trace.lists.dtype == np.min_scalar_type(data.num_contents)
        assert 1 <= trace.lists.min() and trace.lists.max() <= data.num_contents


class TestCodecFitsBeforeRiderData:
    """Set-up fits the codec on the public rows before it builds anything of the riders'."""

    MARGIN = 64 * 1024   # the split's id arrays and small objects; desk measured 7.4 kB

    @staticmethod
    def build(cfg, monkeypatch, on_fit=lambda: None):
        """Set-up with the calls to partition and fit recorded in order: the partition's
        vehicles, and the rows the codec is fitted on."""
        real_pretrain, real_partition = latent_codec.pretrain_codec, harness.partition_users
        calls = []

        def pretrain(public, latent_dim):
            on_fit()
            calls.append(("fit", public))
            return real_pretrain(public, latent_dim)

        def partition(*args, **kwargs):
            locals_ = real_partition(*args, **kwargs)
            calls.append(("partition", locals_))
            return locals_

        monkeypatch.setattr(latent_codec, "pretrain_codec", pretrain)
        monkeypatch.setattr(harness, "partition_users", partition)
        return harness.build_data_env(cfg, True), calls

    def test_fit_sees_only_the_loaded_columns_and_public_rows(self, desk_cfg, monkeypatch):
        """On desk, the fit comes before the partition, and under tracemalloc main then
        holds less than the public rows, the loaded columns and ``MARGIN`` bytes.

        A warm-up build that fits no codec first takes the one-off allocations.
        """
        matrix = load_ratings(desk_cfg.data.path)
        columns = sum(col.nbytes for col in (matrix.users, matrix.contents, matrix.ratings,
                                             matrix.timestamps))
        del matrix
        harness.build_data_env(desk_cfg, False)
        held = []
        tracemalloc.start()
        try:
            data, calls = self.build(desk_cfg, monkeypatch,
                                     on_fit=lambda: held.append(tracemalloc.get_traced_memory()[0]))
        finally:
            tracemalloc.stop()
        assert [kind for kind, _ in calls] == ["fit", "partition"]
        [at_fit], public_bytes = held, calls[0][1].nbytes
        assert at_fit < public_bytes + columns + self.MARGIN, (at_fit, public_bytes, columns)
        assert codec_state(data.codec) == codec_state(
            latent_codec.pretrain_codec(public_vectors(desk_cfg), desk_cfg.codec.latent_dim))

    def test_without_public_users_the_fit_follows_the_partition(self, tiny_cfg_path,
                                                               monkeypatch):
        """With ``data.public_fraction=0`` the codec is the fit on the riders' training rows."""
        cfg = load_config(tiny_cfg_path, ["data.public_fraction=0"])
        data, calls = self.build(cfg, monkeypatch)
        assert [kind for kind, _ in calls] == ["partition", "fit"]
        riders = np.vstack([loc.train_rows() for loc in calls[0][1]])
        assert calls[1][1].tobytes() == riders.tobytes()
        assert codec_state(data.codec) == codec_state(
            latent_codec.pretrain_codec(riders, cfg.codec.latent_dim))


class TestFineTunesShareOneCodec:
    """Every vehicle encodes with the one codec, fitted on the public vectors alone."""

    @staticmethod
    def build(cfg, reverse=False, edit=None):
        real_pretrain, real_partition = latent_codec.pretrain_codec, harness.partition_users
        bases = []

        def pretrain(*args, **kwargs):
            result = real_pretrain(*args, **kwargs)
            bases.append((result, codec_state(result)))
            return result

        def partition(*args, **kwargs):
            locals_ = real_partition(*args, **kwargs)
            if edit is not None:
                edit(locals_)
            return locals_[::-1] if reverse else locals_

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(latent_codec, "pretrain_codec", pretrain)
            mp.setattr(harness, "partition_users", partition)
            data = harness.build_data_env(cfg, True)
        return bases[0], data

    def test_pretrained_codec_untouched(self, tiny_cfg_path):
        (base, pretrained), data = self.build(load_config(tiny_cfg_path, []))
        assert codec_state(base) == pretrained and data.codec is base

    def test_reverse_order_gives_same_vehicles(self, tiny_cfg_path):
        cfg = load_config(tiny_cfg_path, [])

        def by_vehicle(data):
            return {loc.vehicle_id: (fingerprint.tobytes(), latents.tobytes(),
                                     codec_state(data.codec))
                    for loc, fingerprint, latents
                    in zip(data.locals_, data.hashes, data.latents)}

        _, forward = self.build(cfg, reverse=False)
        _, backward = self.build(cfg, reverse=True)
        order = [loc.vehicle_id for loc in backward.locals_]
        assert order == sorted(order, reverse=True)
        assert by_vehicle(forward) == by_vehicle(backward)

    def test_rider_vectors_do_not_move_the_codec(self, tiny_cfg_path):
        """With a public holdout, changing one rider's training vector leaves the codec alone."""
        cfg = load_config(tiny_cfg_path, [])
        assert cfg.data.public_fraction > 0

        def edit(locals_):
            loc = locals_[0]
            loc.train_contents[0] = np.arange(1, loc.num_contents + 1, dtype=np.int32)
            loc.train_ratings[0] = np.ones(loc.num_contents)

        (_, plain), plain_data = self.build(cfg)
        (_, edited), edited_data = self.build(cfg, edit=edit)
        assert edited == plain
        assert edited_data.hashes[0].tobytes() != plain_data.hashes[0].tobytes()
        assert edited_data.hashes[1:].tobytes() == plain_data.hashes[1:].tobytes()
