"""Knowledge caches, neighbor search, merges, and the visit protocol."""

import numpy as np
import pytest

from roadcache import fed_distill as fd
from roadcache import latent_codec, ldpm
from roadcache.caching import top_m
from roadcache.config import SimConfig
from roadcache.errors import ProtocolError
from roadcache.rng import substream

from oracles import cosine_similarity

LATENT_DIM = 4


def make_kc(rsu_id=0):
    return fd.KnowledgeCache(rsu_id=rsu_id)


def seeded_kc(rng, vehicles, rsu_id=0, with_ki=True):
    kc = make_kc(rsu_id)
    for vid in vehicles:
        fd.upsert_hi(kc, fd.HIPair(hash=rng.normal(size=LATENT_DIM),
                                   vehicle_id=vid, upload_time=float(vid)))
        if with_ki:
            fd.upsert_ki(kc, fd.KIPair(knowledge=rng.normal(size=LATENT_DIM),
                                       vehicle_id=vid, upload_time=float(vid)))
    return kc


def make_cfg(visit_seconds=5.0):
    cfg = SimConfig()
    cfg.ldpm.episodes = 2
    cfg.ldpm.lr = 0.01
    cfg.ldpm.batch = 4
    cfg.ldpm.sample_count = 6
    cfg.cache.list_m = 5
    cfg.compute.visit_seconds = visit_seconds
    cfg.validate()
    return cfg


SCHEDULE = ldpm.build_schedule(5)


def make_visit(vid, latents, integrated):
    rng = substream(99, "setup", vid)
    return fd.VisitInputs(
        vehicle_id=vid,
        latents=latents,
        denoiser=ldpm.new_denoiser(LATENT_DIM, 8, 4, rng),
        codec=latent_codec.pretrain_codec(rng.random((6, 20)), LATENT_DIM),
        integrated=integrated,
        rng_train=substream(1, "tap-train", vid),
        rng_sample=substream(1, "tap-sample", vid),
    )


class TestUpsert:
    def test_insert_then_replace(self):
        kc = make_kc()
        first = fd.HIPair(hash=np.ones(3), vehicle_id=7, upload_time=1.0)
        second = fd.HIPair(hash=np.full(3, 2.0), vehicle_id=7, upload_time=9.0)
        fd.upsert_hi(kc, first)
        assert len(kc.hi) == 1 and kc.hi[7].upload_time == 1.0
        fd.upsert_hi(kc, second)
        assert len(kc.hi) == 1 and kc.hi[7].upload_time == 9.0
        assert np.array_equal(kc.hi[7].hash, np.full(3, 2.0))

    def test_many_distinct_vehicles(self):
        kc = make_kc()
        for vid in range(100):
            fd.upsert_hi(kc, fd.HIPair(hash=np.array([1.0, vid]), vehicle_id=vid,
                                       upload_time=float(vid)))
            fd.upsert_ki(kc, fd.KIPair(knowledge=np.array([2.0, vid]), vehicle_id=vid,
                                       upload_time=float(vid)))
        assert len(kc.hi) == 100 and len(kc.ki) == 100
        assert kc.ki[42].knowledge[1] == 42.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_fingerprint_rejected(self, bad):
        kc = make_kc()
        fd.upsert_hi(kc, fd.HIPair(hash=np.ones(3), vehicle_id=7, upload_time=1.0))
        for vid in (7, 8):
            with pytest.raises(ProtocolError):
                fd.upsert_hi(kc, fd.HIPair(hash=np.array([1.0, bad, 0.0]), vehicle_id=vid,
                                           upload_time=2.0))
        assert set(kc.hi) == {7} and kc.hi[7].upload_time == 1.0
        assert np.array_equal(kc.hi[7].hash, np.ones(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_knowledge_rejected(self, bad):
        kc = make_kc()
        fd.upsert_ki(kc, fd.KIPair(knowledge=np.ones(3), vehicle_id=7, upload_time=1.0))
        for vid in (7, 8):
            with pytest.raises(ProtocolError):
                fd.upsert_ki(kc, fd.KIPair(knowledge=np.array([bad, 1.0, 0.0]), vehicle_id=vid,
                                           upload_time=2.0))
        assert set(kc.ki) == {7} and kc.ki[7].upload_time == 1.0
        assert np.array_equal(kc.ki[7].knowledge, np.ones(3))


class TestCosineSimilarity:
    """The oracle that neighbour searches are checked against."""

    def test_identical(self):
        v = np.array([0.3, -2.0, 5.0])
        assert cosine_similarity(v, v) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        assert cosine_similarity(np.array([1.0, 0.0]),
                                 np.array([0.0, 3.0])) == pytest.approx(0.0, abs=1e-12)

    def test_known_value(self):
        got = cosine_similarity(np.array([1.0, 2.0, 3.0]), np.array([4.0, 5.0, 6.0]))
        assert got == pytest.approx(32.0 / np.sqrt(14.0 * 77.0), abs=1e-12)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            cosine_similarity(np.ones(3), np.ones(4))


class TestFindNeighbors:
    def test_excludes_self(self):
        kc = seeded_kc(substream(0, "nbr"), range(5))
        got = fd.find_neighbors(kc, 2, count=10, gamma=-1.0)
        assert 2 not in got
        assert sorted(got) == [0, 1, 3, 4]

    def test_infeasible_gamma_empty(self):
        kc = seeded_kc(substream(1, "nbr"), range(5))
        assert fd.find_neighbors(kc, 0, count=10, gamma=1.1) == []

    def test_matches_brute_force(self):
        for trial in range(20):
            kc = seeded_kc(substream(2, "nbr", trial), range(10), with_ki=False)
            own = kc.hi[3].hash
            for count in (1, 3, 10):
                for gamma in (-1.0, 0.0, 0.5):
                    want = sorted(
                        ((cosine_similarity(own, kc.hi[v].hash), v)
                         for v in range(10) if v != 3),
                        key=lambda item: (-item[0], item[1]))
                    want = [v for s, v in want if s >= gamma][:count]
                    assert fd.find_neighbors(kc, 3, count=count, gamma=gamma) == want

    def test_scale_invariance(self):
        kc = seeded_kc(substream(3, "nbr"), range(8), with_ki=False)
        base = fd.find_neighbors(kc, 0, count=5, gamma=0.0)
        scaled = kc.hi[4]
        fd.upsert_hi(kc, fd.HIPair(hash=scaled.hash * 7.0, vehicle_id=4,
                                   upload_time=scaled.upload_time))
        fd.upsert_hi(kc, fd.HIPair(hash=kc.hi[0].hash * 0.01, vehicle_id=0,
                                   upload_time=kc.hi[0].upload_time))
        assert fd.find_neighbors(kc, 0, count=5, gamma=0.0) == base

    def test_ties_break_by_ascending_id(self):
        kc = make_kc()
        shared = np.array([1.0, 1.0])
        for vid in (9, 3, 6):
            fd.upsert_hi(kc, fd.HIPair(hash=shared.copy(), vehicle_id=vid,
                                       upload_time=0.0))
        fd.upsert_hi(kc, fd.HIPair(hash=np.array([1.0, 0.0]), vehicle_id=1,
                                   upload_time=0.0))
        assert fd.find_neighbors(kc, 1, count=3, gamma=0.0) == [3, 6, 9]

    def test_unknown_vehicle_raises(self):
        kc = seeded_kc(substream(4, "nbr"), range(3))
        with pytest.raises(ProtocolError):
            fd.find_neighbors(kc, 77, count=3, gamma=0.0)

    def test_matches_brute_force_with_zeros_and_ties(self):
        for trial in range(30):
            rng = substream(5, "nbr", trial)
            base = rng.normal(size=(4, LATENT_DIM))
            kc = make_kc()
            for vid in rng.permutation(12):
                kind = rng.integers(0, 3)
                if kind == 0:
                    vector = np.zeros(LATENT_DIM)
                elif kind == 1:      # a positive multiple of a shared direction: tied
                    vector = base[rng.integers(0, 4)] * rng.choice([0.5, 1.0, 3.0])
                else:
                    vector = rng.normal(size=LATENT_DIM)
                fd.upsert_hi(kc, fd.HIPair(hash=vector, vehicle_id=int(vid), upload_time=0.0))
            for own_id in range(12):
                scored = []
                for vid, pair in kc.hi.items():
                    if vid == own_id:
                        continue
                    if np.any(kc.hi[own_id].hash) and np.any(pair.hash):
                        scored.append((cosine_similarity(kc.hi[own_id].hash, pair.hash), vid))
                scored.sort(key=lambda item: (-item[0], item[1]))
                for count in (1, 4, 12):
                    for gamma in (-1.0, 0.0, 0.9):
                        want = [v for s, v in scored if s >= gamma][:count]
                        got = fd.find_neighbors(kc, own_id, count=count, gamma=gamma)
                        assert got == want

    def test_zero_fingerprints_never_qualify(self):
        kc = make_kc()
        fd.upsert_hi(kc, fd.HIPair(hash=np.zeros(2), vehicle_id=0, upload_time=0.0))
        fd.upsert_hi(kc, fd.HIPair(hash=np.ones(2), vehicle_id=1, upload_time=0.0))
        fd.upsert_hi(kc, fd.HIPair(hash=np.zeros(2), vehicle_id=2, upload_time=0.0))
        assert fd.find_neighbors(kc, 0, count=5, gamma=-1.0) == []
        assert fd.find_neighbors(kc, 1, count=5, gamma=-1.0) == []


class TestIntegrateKnowledge:
    def test_single_neighbor_copies(self):
        kc = make_kc()
        fd.upsert_ki(kc, fd.KIPair(knowledge=np.array([1.0, -2.0]), vehicle_id=5,
                                   upload_time=0.0))
        got = fd.integrate_knowledge(kc, [5])
        assert got == pytest.approx(np.array([1.0, -2.0]))

    def test_elementwise_mean(self):
        kc = make_kc()
        for vid, vec in ((0, [0.0, 0.0]), (1, [2.0, 4.0]), (2, [4.0, 2.0])):
            fd.upsert_ki(kc, fd.KIPair(knowledge=np.array(vec), vehicle_id=vid,
                                       upload_time=0.0))
        got = fd.integrate_knowledge(kc, [0, 1, 2])
        assert got == pytest.approx(np.array([2.0, 2.0]))

    def test_missing_entries_skipped(self):
        kc = make_kc()
        fd.upsert_ki(kc, fd.KIPair(knowledge=np.array([6.0]), vehicle_id=1,
                                   upload_time=0.0))
        assert fd.integrate_knowledge(kc, [0, 1, 2]) == pytest.approx(np.array([6.0]))

    def test_none_when_no_knowledge(self):
        kc = make_kc()
        assert fd.integrate_knowledge(kc, [0, 1]) is None
        assert fd.integrate_knowledge(kc, []) is None


class TestMergeKc:
    def test_single_cache_identity(self):
        kc = seeded_kc(substream(0, "merge"), range(6))
        merged = fd.merge_kc([kc])
        assert merged.equals(kc)

    def test_newest_fingerprint_wins(self):
        old = make_kc(rsu_id=0)
        new = make_kc(rsu_id=1)
        fd.upsert_hi(old, fd.HIPair(hash=np.array([1.0]), vehicle_id=7, upload_time=5.0))
        fd.upsert_ki(old, fd.KIPair(knowledge=np.array([10.0]), vehicle_id=7, upload_time=5.0))
        fd.upsert_hi(new, fd.HIPair(hash=np.array([2.0]), vehicle_id=7, upload_time=9.0))
        fd.upsert_ki(new, fd.KIPair(knowledge=np.array([20.0]), vehicle_id=7, upload_time=9.0))
        merged = fd.merge_kc([old, new])
        assert merged.hi[7].hash[0] == 2.0
        assert merged.ki[7].knowledge[0] == 20.0
        assert fd.merge_kc([new, old]).equals(merged)

    def test_timestamp_tie_goes_to_larger_rsu(self):
        a = make_kc(rsu_id=0)
        b = make_kc(rsu_id=3)
        fd.upsert_hi(a, fd.HIPair(hash=np.array([1.0]), vehicle_id=4, upload_time=2.0))
        fd.upsert_hi(b, fd.HIPair(hash=np.array([9.0]), vehicle_id=4, upload_time=2.0))
        merged = fd.merge_kc([b, a])
        assert merged.hi[4].hash[0] == 9.0

    def test_hi_and_ki_travel_together(self):
        # The RSU with the newest fingerprint has no knowledge for the
        # vehicle, so the merged view must not resurrect the stale one.
        old = make_kc(rsu_id=0)
        new = make_kc(rsu_id=1)
        fd.upsert_hi(old, fd.HIPair(hash=np.array([1.0]), vehicle_id=2, upload_time=1.0))
        fd.upsert_ki(old, fd.KIPair(knowledge=np.array([5.0]), vehicle_id=2, upload_time=1.0))
        fd.upsert_hi(new, fd.HIPair(hash=np.array([2.0]), vehicle_id=2, upload_time=8.0))
        merged = fd.merge_kc([old, new])
        assert merged.hi[2].hash[0] == 2.0
        assert 2 not in merged.ki

    def test_idempotent(self):
        kcs = [seeded_kc(substream(1, "merge", i), range(4), rsu_id=i) for i in range(3)]
        once = fd.merge_kc(kcs)
        twice = fd.merge_kc([once, once.copy_with_rsu(-1)])
        assert once.equals(twice)

    def test_empty_rejected(self):
        with pytest.raises(ProtocolError):
            fd.merge_kc([])

    def test_union_of_disjoint_vehicles(self):
        a = seeded_kc(substream(2, "merge"), [0, 1], rsu_id=0)
        b = seeded_kc(substream(3, "merge"), [2, 3], rsu_id=1)
        merged = fd.merge_kc([a, b])
        assert set(merged.hi) == {0, 1, 2, 3}


class TestStandardizer:
    def test_mean_and_scale(self):
        rng = substream(0, "std")
        latents = rng.normal(loc=3.0, scale=2.0, size=(200, 4))
        mu, sd = fd.latent_standardizer(latents)
        assert mu == pytest.approx(latents.mean(axis=0))
        assert sd == pytest.approx(latents.std(axis=0))
        rescaled = (latents - mu) / sd
        assert rescaled.mean(axis=0) == pytest.approx(np.zeros(4), abs=1e-12)
        assert rescaled.std(axis=0) == pytest.approx(np.ones(4))

    def test_degenerate_dimension_keeps_unit_scale(self):
        latents = np.column_stack([np.full(10, 5.0), np.arange(10, dtype=float)])
        mu, sd = fd.latent_standardizer(latents)
        assert mu[0] == 5.0 and sd[0] == 1.0
        assert sd[1] > 1.0


def run_visit(kc, vid, own_hash, latents, carries_list, now, residence, cfg):
    """One visit through its entry, compute and exit halves, as the simulator runs it."""
    begun = fd.begin_visit(kc, vid, own_hash, carries_list, now=now,
                           residence=residence, cfg=cfg)
    if not begun.proceed:
        return begun.messages, None
    [(scores, knowledge, _)] = fd.train_and_predict(
        [make_visit(vid, latents, begun.integrated)], cfg, SCHEDULE)
    finish = now + cfg.compute.visit_seconds
    return begun.messages + fd.complete_visit(kc, vid, knowledge, finish), scores


class TestVisit:
    def test_cold_start(self):
        kc = make_kc()
        cfg = make_cfg()
        messages, scores = run_visit(kc, 0, np.array([1.0, 0.5, -0.5, 2.0]),
                                     substream(0, "visit").normal(size=(8, LATENT_DIM)),
                                     carries_list=False, now=10.0, residence=30.0, cfg=cfg)
        assert [m.kind for m in messages] == [fd.MSG_HI, fd.MSG_KI]
        assert [m.time for m in messages] == [10.0, 15.0]
        assert scores.shape == (20,)
        assert len(top_m(scores, cfg.cache.list_m)) == 5
        assert 0 in kc.hi and 0 in kc.ki
        assert kc.ki[0].upload_time == 15.0

    def test_byte_ledger_conserved(self):
        kc = make_kc()
        own_hash = np.array([1.0, 0.5, -0.5, 2.0])
        fd.upsert_hi(kc, fd.HIPair(hash=own_hash + 0.01, vehicle_id=9, upload_time=1.0))
        fd.upsert_ki(kc, fd.KIPair(knowledge=np.ones(LATENT_DIM), vehicle_id=9,
                                   upload_time=1.0))
        messages, _ = run_visit(kc, 0, own_hash,
                                substream(3, "visit").normal(size=(8, LATENT_DIM)),
                                carries_list=True, now=0.0, residence=30.0, cfg=make_cfg())
        kinds = [m.kind for m in messages]
        assert kinds == [fd.MSG_REC_LIST, fd.MSG_HI, fd.MSG_KNOWLEDGE_DOWN, fd.MSG_KI]
        want_total = (fd.rec_list_bytes(5) + fd.hi_bytes(LATENT_DIM)
                      + fd.knowledge_bytes(LATENT_DIM) + fd.ki_bytes(LATENT_DIM))
        assert sum(m.nbytes for m in messages) == want_total
        for msg in messages:
            if msg.kind in fd.UPLINK_KINDS:
                assert msg.src == "veh:0" and msg.dst == "rsu:0"
            else:
                assert msg.src == "rsu:0" and msg.dst == "veh:0"

    def test_entry_reads_neighbor_settings_from_config(self):
        rng = substream(12, "visit")
        kc = seeded_kc(rng, vehicles=[1, 2, 3, 4])
        own_hash = rng.normal(size=LATENT_DIM)
        for count, gamma, found in ((2, -1.0, 2), (3, -1.0, 3), (10, 1.1, 0)):
            cfg = make_cfg()
            cfg.kc.neighbor_count = count
            cfg.kc.gamma = gamma
            begun = fd.begin_visit(kc, 0, own_hash, False, now=5.0, residence=30.0, cfg=cfg)
            neighbors = fd.find_neighbors(kc, 0, count=count, gamma=gamma)
            assert len(neighbors) == found
            if found:
                want = np.mean([kc.ki[vid].knowledge for vid in neighbors], axis=0)
                assert np.array_equal(begun.integrated, want)
            else:
                assert begun.integrated is None

    def test_abort_follows_the_visit_budget(self):
        kc = make_kc()
        for budget, residence, proceed in ((5.0, 5.0, True), (5.0, 4.9, False),
                                           (2.0, 4.9, True)):
            begun = fd.begin_visit(kc, 3, np.ones(LATENT_DIM), False, now=0.0,
                                   residence=residence, cfg=make_cfg(visit_seconds=budget))
            assert begun.proceed == proceed

    def test_abort_at_the_horizon(self, monkeypatch):
        # The 600 s run leaves room for a 5 s visit entered before 595 s only,
        # and an aborted visit neither searches neighbours nor gets knowledge.
        rng = substream(13, "visit")
        kc = seeded_kc(rng, vehicles=[1, 2, 3, 4])
        own_hash = rng.normal(size=LATENT_DIM)
        cfg = make_cfg()
        cfg.kc.gamma = -1.0
        searches = []
        real = fd.find_neighbors
        monkeypatch.setattr(fd, "find_neighbors", lambda *a, **k: searches.append(a) or real(*a, **k))
        for now, proceed in ((594.0, True), (595.0, False), (599.0, False)):
            begun = fd.begin_visit(kc, 0, own_hash, False, now=now, residence=30.0, cfg=cfg)
            assert begun.proceed == proceed and len(searches) == 1
            assert (begun.integrated is not None) == proceed
            assert [m.kind for m in begun.messages][1:] == [fd.MSG_KNOWLEDGE_DOWN] * proceed

    def test_abort_on_short_residence(self):
        kc = seeded_kc(substream(9, "visit"), vehicles=[1])
        own_hash = kc.hi[1].hash + 0.01
        begun = fd.begin_visit(kc, 2, own_hash, True, now=3.0, residence=2.0, cfg=make_cfg())
        assert not begun.proceed and begun.integrated is None
        assert [m.kind for m in begun.messages] == [fd.MSG_REC_LIST, fd.MSG_HI]
        assert [(m.time, m.src, m.dst) for m in begun.messages] == [(3.0, "veh:2", "rsu:0")] * 2
        assert kc.hi[2].upload_time == 3.0 and np.array_equal(kc.hi[2].hash, own_hash)
        assert 2 not in kc.ki


class TestByteSizes:
    def test_formulas(self):
        assert fd.hi_bytes(16) == 4 + 4 * 16 + 8
        assert fd.ki_bytes(16) == 4 + 4 * 16 + 8
        assert fd.knowledge_bytes(16) == 64
        assert fd.rec_list_bytes(500) == 2000
        assert fd.model_bytes(770_000) == 3_080_000


class TestTrainAndPredict:
    # (vehicle, latent rows) per visit, in entry order: three 5-row visits,
    # a 4-row visit, and a second visit of vehicle 0, which trains after its first.
    SHAPES = ((0, 5), (1, 5), (2, 5), (3, 4), (0, 5))

    def visits(self, shapes=SHAPES):
        rng = substream(0, "tap")
        out, denoisers = [], {}
        for n, (vid, rows) in enumerate(shapes):
            latents = rng.normal(size=(rows, LATENT_DIM))
            integrated = rng.normal(size=LATENT_DIM) if n % 2 == 0 else None
            visit = make_visit(vid, latents, integrated)
            # A vehicle's visits share its denoiser, as in the simulator.
            visit.denoiser = denoisers.setdefault(vid, visit.denoiser)
            out.append(visit)
        return out

    def test_batch_equals_one_visit_at_a_time(self):
        batch = self.visits()
        alone = self.visits()
        cfg = make_cfg()
        assert fd.visit_batches(batch) == [[0, 1, 2], [3], [4]]
        together = fd.train_and_predict(batch, cfg, SCHEDULE)
        assert len(together) == len(batch)
        for visit, (scores, knowledge, losses) in zip(alone, together):
            [(own_scores, own_knowledge, own_losses)] = fd.train_and_predict([visit], cfg, SCHEDULE)
            assert scores.tobytes() == own_scores.tobytes()
            assert np.array_equal(top_m(scores, 5), top_m(own_scores, 5))
            assert knowledge.tobytes() == own_knowledge.tobytes()
            assert losses == own_losses and len(losses) == 2
        for mine, theirs in zip(batch, alone):
            assert (mine.denoiser.net.flat_params().tobytes()
                    == theirs.denoiser.net.flat_params().tobytes())

    def test_distillation_follows_the_config(self):
        """A visit with knowledge trains under the run's lambda and delta."""
        def run(with_knowledge=True, **ldpm_settings):
            cfg = make_cfg()
            for key, value in ldpm_settings.items():
                setattr(cfg.ldpm, key, value)
            [visit] = self.visits(self.SHAPES[:1])
            assert visit.integrated is not None
            if not with_knowledge:
                visit.integrated = None
            [(scores, _, losses)] = fd.train_and_predict([visit], cfg, SCHEDULE)
            return scores.tobytes(), losses

        plain = run(with_knowledge=False)
        assert run(distill_weight=0.0) == plain
        distilled = run()
        assert distilled != plain
        assert run(distill_weight=2.0) != distilled
        assert run(temperature=3.0) != distilled

    def test_mismatched_visits_rejected(self):
        """Visits of different latent shapes never share a stack."""
        shapes = ((0, 5), (1, 4), (2, 5))
        batch, alone = self.visits(shapes), self.visits(shapes)
        assert fd.visit_batches(batch) == [[0, 2], [1]]
        cfg = make_cfg()
        together = fd.train_and_predict(batch, cfg, SCHEDULE)
        for visit, (scores, _, _) in zip(alone, together):
            [(own_scores, _, _)] = fd.train_and_predict([visit], cfg, SCHEDULE)
            assert scores.tobytes() == own_scores.tobytes()
