import hashlib
import inspect
import struct
from dataclasses import replace
from itertools import starmap

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from faaslab.cluster import Application
from faaslab.config import load_experiment
from faaslab.errors import ConfigError
from faaslab.workload import (BUNDLED_TRACES, EVAL_BANDS, TRAIN_BAND, TraceSeries,
                              WorkloadSpec, builtin_catalog, load_traces, make_workload,
                              select_apps, synthesize, training_apps, window_rates)

from oracles import scalar_synthesize, synthetic_traces


def arrival_pairs(spec):
    """``synthesize``'s two columns as a list of (time, app_id) pairs."""
    times, app_ids = synthesize(spec)
    return list(zip(times.tolist(), app_ids.tolist()))


class TestTraceIO:
    def test_row_parses_as_rates(self, tmp_path):
        p = tmp_path / "traces.txt"
        p.write_text("f1, 3 5 2\n")
        series = load_traces(p)
        assert series[0].trace_id == "f1"
        assert series[0].counts == (3, 5, 2)

    def test_negative_count_rejected_with_line(self, tmp_path):
        p = tmp_path / "traces.txt"
        p.write_text("ok, 1 2\nbad, 3 -1\n")
        with pytest.raises(ConfigError, match=r"traces\.txt:2: trace 'bad' has negative counts"):
            load_traces(p)

    def test_empty_counts_rejected_with_line(self, tmp_path):
        p = tmp_path / "traces.txt"
        p.write_text("# header\nempty,\n")
        with pytest.raises(ConfigError, match=r"traces\.txt:2: trace 'empty' is empty"):
            load_traces(p)

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "traces.txt"
        p.write_text("\n")
        with pytest.raises(ConfigError):
            load_traces(p)

    def test_malformed_row_rejected(self, tmp_path):
        p = tmp_path / "traces.txt"
        p.write_text("justtext\n")
        with pytest.raises(ConfigError, match=":1"):
            load_traces(p)

    def test_roundtrip(self, tmp_path):
        p = tmp_path / "out.txt"
        p.write_text("a, 1 2 3\nb, 0 4\n")
        assert load_traces(p) == [TraceSeries("a", (1, 2, 3)), TraceSeries("b", (0, 4))]

    def test_trace_validation(self):
        with pytest.raises(ConfigError):
            TraceSeries("x", ())
        with pytest.raises(ConfigError):
            TraceSeries("x", (1, -2))


class TestSynthesize:
    def _spec(self, counts, duration, **kw):
        app = Application(app_id=0, function_sequence=(0,))
        trace = TraceSeries("t", counts)
        return WorkloadSpec(duration=duration, applications=(app,),
                            entry_traces={0: trace}, **kw)

    def test_even_spread_exact_counts(self):
        arrivals = arrival_pairs(self._spec((2, 2, 2), 3))
        assert len(arrivals) == 6
        for w in range(3):
            in_window = [t for t, _ in arrivals if w <= t < w + 1]
            assert len(in_window) == 2
        assert arrivals == sorted(arrivals)

    def test_no_arrivals_after_duration(self):
        arrivals = arrival_pairs(self._spec((5, 5), 2))
        assert all(t < 2.0 for t, _ in arrivals)

    def test_deterministic_for_same_seed(self):
        a = arrival_pairs(self._spec((3, 1, 4), 3, seed=9, jitter=True))
        b = arrival_pairs(self._spec((3, 1, 4), 3, seed=9, jitter=True))
        assert a == b

    def test_jitter_changes_placement_not_counts(self):
        flat = arrival_pairs(self._spec((4, 4), 2, seed=1))
        jit = arrival_pairs(self._spec((4, 4), 2, seed=1, jitter=True))
        assert len(flat) == len(jit) == 8
        assert flat != jit

    def test_trace_shorter_than_duration_cycles(self):
        arrivals = arrival_pairs(self._spec((1, 3), 4))
        per_window = [sum(1 for t, _ in arrivals if w <= t < w + 1) for w in range(4)]
        assert per_window == [1, 3, 1, 3]

    def test_shared_entry_function_deals_round_robin(self):
        apps = (Application(app_id=0, function_sequence=(0,)),
                Application(app_id=1, function_sequence=(0,)))
        spec = WorkloadSpec(duration=1, applications=apps,
                            entry_traces={0: TraceSeries("t", (4,))})
        arrivals = arrival_pairs(spec)
        assert [a for _, a in arrivals] == [0, 1, 0, 1]

    def test_missing_trace_assignment_rejected(self):
        app = Application(app_id=0, function_sequence=(0,))
        with pytest.raises(ConfigError):
            WorkloadSpec(duration=10, applications=(app,), entry_traces={})

    @pytest.mark.parametrize("band", [
        (9, 4),    # lo above hi: the fit used to land every window on hi, below lo
        (-5, -1),  # negative bounds: the fit used to make negative counts
    ])
    def test_band_outside_zero_lo_hi_rejected(self, band):
        with pytest.raises(ConfigError, match="band"):
            self._spec((10, 0, 3), 3, band=band)


PAIR = struct.Struct("<dq")  # one (time, app id) arrival


@st.composite
def workload_specs(draw):
    """Specs of 1-5 entry functions with 1-3 apps each; app ids are shuffled,
    so an entry function's apps are dealt in an order their ids must set."""
    fns = draw(st.lists(st.integers(0, 9), min_size=1, max_size=5, unique=True))
    entries = [fn for fn in fns for _ in range(draw(st.integers(1, 3)))]
    ids = draw(st.permutations(range(len(entries))))
    # one byte per window keeps generation cheap; counts run 0-70
    counts = st.binary(min_size=1, max_size=40).map(lambda b: tuple(x % 71 for x in b))
    band = st.lists(st.integers(0, 200), min_size=2, max_size=2).map(sorted).map(tuple)
    return WorkloadSpec(
        duration=draw(st.integers(1, 40)),
        # function 10 is a chained successor, which gets no arrivals of its own
        applications=tuple(Application(app_id=app_id, function_sequence=(fn, 10))
                           for app_id, fn in zip(ids, entries)),
        entry_traces={fn: TraceSeries(f"t{fn}", draw(counts)) for fn in fns},
        band=draw(st.none() | band), seed=draw(st.integers(0, 2**32)),
        jitter=draw(st.booleans()))


@given(spec=workload_specs())
def test_synthesize_matches_scalar_rule(spec):
    times, app_ids = synthesize(spec)
    assert (times.dtype, app_ids.dtype) == (np.float64, np.int64)
    assert (times[1:] >= times[:-1]).all()
    assert (b"".join(starmap(PAIR.pack, zip(times.tolist(), app_ids.tolist())))
            == b"".join(starmap(PAIR.pack, scalar_synthesize(spec))))


def test_synthesized_columns_are_read_only():
    exp = load_experiment(overrides={"preset": "desk"})
    times, app_ids = synthesize(exp.eval_sets(["high"])["high"][0])
    assert times.size and not times.flags.writeable and not app_ids.flags.writeable
    with pytest.raises(ValueError):
        times[0] = 0.0


class TestSynthesizeDigest:
    # sha256 over every (time, app) pair synthesize returns, recorded before
    # synthesize was rewritten; a one-ulp change in any time, a different app
    # or a different order of tied times changes it
    DIGEST = "50641a1720c1b3ac4a691076711ef4fa5584c368a22b23f51efeb033f719f18c"

    @staticmethod
    def specs():
        for preset in ("desk", "paper"):
            exp = load_experiment(overrides={"preset": preset})
            yield exp.train_pool()[0]
            yield exp.eval_sets(["high"])["high"][0]
        # apps 0 and 1 share entry function 0, so its counts are dealt
        # round-robin between them; app 2 has an entry function of its own
        apps = (Application(app_id=0, function_sequence=(0, 1)),
                Application(app_id=1, function_sequence=(0,)),
                Application(app_id=2, function_sequence=(2,)))
        yield WorkloadSpec(duration=30, applications=apps, seed=5,
                           entry_traces={0: TraceSeries("odd", (3, 0, 5, 1, 7)),
                                         2: TraceSeries("even", (2, 4, 0))})

    def test_output_unchanged(self):
        digest = hashlib.sha256()
        for spec in self.specs():
            for jitter in (False, True):
                for t, app_id in arrival_pairs(replace(spec, jitter=jitter)):
                    digest.update(struct.pack("<dq", t, app_id))
        assert digest.hexdigest() == self.DIGEST


class TestBandFitting:
    def test_aggregate_rate_in_band_every_window(self):
        profiles, apps = select_apps(["primary", "float", "thumbnail", "facial", "todo"])
        assert len(profiles) == 14
        corpus = synthetic_traces(n=12, length=120, seed=5)
        spec = make_workload(apps, corpus, EVAL_BANDS["mid"], duration=60, seed=3)
        lo, hi = EVAL_BANDS["mid"]
        arrivals = arrival_pairs(spec)
        for w in range(60):
            count = sum(1 for t, _ in arrivals if w <= t < w + 1)
            assert lo <= count <= hi
        sums = window_rates(spec).sum(axis=1)
        assert sums.shape == (60,)
        assert ((lo <= sums) & (sums <= hi)).all()

    def test_zero_windows_filled_to_band_floor(self):
        app = Application(app_id=0, function_sequence=(0,))
        spec = WorkloadSpec(duration=2, applications=(app,),
                            entry_traces={0: TraceSeries("z", (0, 0))},
                            band=(5, 20))
        arrivals = arrival_pairs(spec)
        per_window = [sum(1 for t, _ in arrivals if w <= t < w + 1) for w in range(2)]
        assert per_window == [5, 5]

    def test_training_entry_function_cap(self):
        profiles, apps = select_apps(["primary", "float", "matmul", "linpack", "load"])
        corpus = synthetic_traces(n=4, length=60, seed=0)
        with pytest.raises(ConfigError, match="at most 4"):
            make_workload(apps, corpus, TRAIN_BAND, duration=60, seed=1, training=True)
        make_workload(apps, corpus, TRAIN_BAND, duration=60, seed=1, training=False)

    def test_training_apps_draw_a_seeded_subset(self):
        _, four = select_apps(["primary", "float", "matmul", "thumbnail"])
        assert training_apps(four, seed=1) == tuple(four)
        _, five = select_apps(["primary", "float", "matmul", "linpack", "load"])
        drawn = [training_apps(five, seed) for seed in range(8)]
        assert all(len(apps) == 4 and set(apps) < set(five) for apps in drawn)


class TestCatalog:
    def test_twelve_applications(self):
        profiles, apps, names = builtin_catalog()
        assert len(apps) == 12
        assert len(names) == 12
        chain_lengths = sorted(len(a.function_sequence) for a in apps)
        assert chain_lengths == [1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 5, 5]
        for profile in profiles.values():
            assert 0 < profile.standard_response_time < 10.0
            assert 2.0 <= profile.cold_start_seconds <= 6.0
            assert profile.initial_pod_cpu <= 1.0
            assert profile.initial_pod_mem <= 3072.0

    def test_select_apps_trims_profiles(self):
        profiles, apps = select_apps(["primary", "thumbnail"])
        used = {fn for a in apps for fn in a.function_sequence}
        assert set(profiles) == used
        assert len(apps) == 2

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigError, match="unknown application"):
            select_apps(["nonesuch"])


class TestSyntheticCorpus:
    def test_bounded_and_deterministic(self):
        a = synthetic_traces(n=5, length=100, seed=4)
        b = synthetic_traces(n=5, length=100, seed=4)
        assert a == b
        for series in a:
            assert len(series.counts) == 100
            assert max(series.counts) <= 60

    def test_bundled_file_is_the_generators_corpus(self):
        corpus = load_traces(BUNDLED_TRACES)
        assert len(corpus) == 40
        assert all(len(series.counts) == 360 for series in corpus)
        assert corpus == synthetic_traces()
        # the header names the generator's parameters, which are its defaults
        params = inspect.signature(synthetic_traces).parameters.values()
        call = f"synthetic_traces({', '.join(f'{p.name}={p.default}' for p in params)})"
        assert BUNDLED_TRACES.read_text().startswith(f"# {call} ")
