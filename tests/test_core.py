import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scoutplan
from conftest import build_instance, fresh_view, line_instance, random_connected_instance
from scoutplan import bench
from scoutplan.core import (
    EdgeRecord,
    InstanceError,
    KnowledgeState,
    NoPathError,
    PlanningCostView,
    ProblemInstance,
    Realization,
    UavMetric,
    UniformCost,
    load_instance,
    load_realization,
    save_instance,
    save_realization,
)


class TestUniformCost:
    def test_moments(self):
        u = UniformCost(4.0, 20.0)
        assert u.expected() == 12.0
        assert u.variance() == pytest.approx(256.0 / 12.0)
        assert u.bounds() == (4.0, 20.0)

    def test_sampling_stays_in_bounds_and_matches_mean(self):
        u = UniformCost(3.0, 9.0)
        rng = random.Random(7)
        samples = [u.sample(rng) for _ in range(100_000)]
        assert all(3.0 <= s <= 9.0 for s in samples)
        mean = sum(samples) / len(samples)
        assert abs(mean - u.expected()) / u.expected() < 0.01


class TestPlanningCost:
    def make(self):
        coords = [(0.0, 0.0), (10.0, 0.0), (13.0, 0.0)]
        inst = build_instance(coords, [(0, 1, 10.0), (1, 2, (4.0, 20.0))])
        return inst, fresh_view(inst)

    def test_unimpeded_pass_through(self):
        inst, view = self.make()
        assert view.cost(0) == 10.0

    def test_unrealized_uses_expected(self):
        inst, view = self.make()
        assert view.cost(1) == 12.0

    def test_realized_uses_true_cost(self):
        inst, view = self.make()
        view.knowledge.reveal(1, 18.0)
        assert view.cost(1) == 18.0

    def test_non_ugv_edge_rejected(self):
        coords = [(0.0, 0.0), (1.0, 0.0)]
        edges = [
            EdgeRecord(0, 0, 1, 1.0, 0.5),
            EdgeRecord(1, 0, 1, None, 0.7),  # aerial-only duplicate pair is invalid
        ]
        with pytest.raises(InstanceError):
            ProblemInstance(coords, edges, 0, 0, 1)

    def test_realizing_one_edge_changes_only_that_edge(self, rng):
        inst = random_connected_instance(rng)
        view = fresh_view(inst)
        before = {eid: view.cost(eid) for eid in inst.ugv_edge_ids}
        target = min(inst.impeded_ids, default=None)
        if target is None:
            return
        view.knowledge.reveal(target, inst.edges[target].distribution.t_max)
        for eid in inst.ugv_edge_ids:
            if eid == target:
                assert view.cost(eid) == inst.edges[target].distribution.t_max
            else:
                assert view.cost(eid) == before[eid]


class TestHeuristic:
    def test_identity(self):
        inst = line_instance()
        assert inst.heuristic(1, 1) == 0.0

    def test_three_four_five(self):
        coords = [(0.0, 0.0), (3.0, 4.0)]
        inst = build_instance(coords, [(0, 1, 5.0)])
        assert inst.heuristic(0, 1) == 5.0

    def test_consistency_on_grid(self):
        inst, _ = bench.generate_grid(bench.GridSpec(rows=6, cols=8), seed=3)
        view = fresh_view(inst)
        rng = random.Random(0)
        for _ in range(1000):
            b = rng.randrange(inst.n_vertices)
            a = rng.randrange(inst.n_vertices)
            nbrs = inst.ugv_adj[b]
            c, eid = nbrs[rng.randrange(len(nbrs))]
            assert inst.heuristic(a, c) <= inst.heuristic(a, b) + view.cost(eid) + 1e-9

    def test_inadmissible_instance_warns_and_zeroes(self):
        coords = [(0.0, 0.0), (10.0, 0.0)]
        with pytest.warns(UserWarning):
            inst = build_instance(coords, [(0, 1, 5.0)])  # cost below distance
        assert not inst.heuristic_admissible
        assert inst.heuristic(0, 1) == 0.0


class TestUavTransit:
    def test_identity(self):
        inst = line_instance()
        assert UavMetric(inst).cost(1, 1) == 0.0

    def test_free_flight_divides_by_speed(self):
        coords = [(0.0, 0.0), (10.0, 0.0)]
        inst = build_instance(coords, [(0, 1, 10.0)], free_flight=True, uav_speed=2.0)
        assert UavMetric(inst).cost(0, 1) == 5.0

    def test_network_transit_sums_edges(self):
        coords = [(0.0, 0.0), (2.0, 0.0), (5.0, 0.0)]
        inst = build_instance(coords, [(0, 1, 2.0, 2.0), (1, 2, 3.0, 3.0)])
        assert UavMetric(inst).cost(0, 2) == 5.0

    def test_unreachable_raises(self):
        # Aerial-only extra edge keeps S connected; remove by blocking: use
        # a UGV-connected graph whose aerial costs exist for all edges, so
        # unreachability needs a vertex with no aerial edges at all. The
        # model keeps S a superset of E, so unreachable only happens across
        # components; the closest test is a missing vertex id.
        inst = line_instance()
        metric = UavMetric(inst)
        with pytest.raises(IndexError):
            metric.cost(0, 99)


class TestInstanceValidation:
    def test_disconnected_rejected(self):
        coords = [(0.0, 0.0), (1.0, 0.0), (5.0, 0.0), (6.0, 0.0)]
        edges = [EdgeRecord(0, 0, 1, 1.0, 0.5), EdgeRecord(1, 2, 3, 1.0, 0.5)]
        with pytest.raises(InstanceError, match="connect"):
            ProblemInstance(coords, edges, 0, 0, 3)

    def test_non_canonical_orientation_rejected(self):
        coords = [(0.0, 0.0), (1.0, 0.0)]
        edges = [EdgeRecord(0, 1, 0, 1.0, 0.5)]
        with pytest.raises(InstanceError, match="canonically"):
            ProblemInstance(coords, edges, 0, 0, 1)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_ugv_cost_rejected(self, bad):
        coords = [(0.0, 0.0), (1.0, 0.0)]
        with pytest.raises(InstanceError, match="UGV edge"):
            ProblemInstance(coords, [EdgeRecord(0, 0, 1, bad, 0.5)], 0, 0, 1)

    @pytest.mark.parametrize("bad", [math.inf, math.nan, 0.0])
    def test_bad_uav_cost_rejected(self, bad):
        coords = [(0.0, 0.0), (1.0, 0.0)]
        with pytest.raises(InstanceError, match="aerial cost"):
            ProblemInstance(coords, [EdgeRecord(0, 0, 1, 1.0, bad)], 0, 0, 1)

    @pytest.mark.parametrize(
        "bounds", [(1.0, math.inf), (math.inf, math.inf), (math.nan, 2.0), (1.0, math.nan)]
    )
    def test_non_finite_cost_bounds_rejected(self, bounds):
        coords = [(0.0, 0.0), (1.0, 0.0)]
        edges = [EdgeRecord(0, 0, 1, None, 0.5, UniformCost(*bounds))]
        with pytest.raises(InstanceError, match="bounds"):
            ProblemInstance(coords, edges, 0, 0, 1)

    @pytest.mark.parametrize("speed", [0.0, -2.0, math.inf, math.nan])
    def test_bad_uav_speed_rejected(self, speed):
        coords = [(0.0, 0.0), (1.0, 0.0)]
        with pytest.raises(InstanceError, match="uav_speed"):
            ProblemInstance(coords, [EdgeRecord(0, 0, 1, 1.0, 0.5)], 0, 0, 1, uav_speed=speed)

    def test_loader_rejects_infinite_cost(self, tmp_path):
        path = tmp_path / "inf.txt"
        path.write_text("sapp 1\nv 0 0.0 0.0\nv 1 1.0 0.0\ne 0 0 1 inf 0.5 -\nmeta p=0 q=0 d=1\n")
        with pytest.raises(InstanceError, match="finite"):
            load_instance(str(path))


class TestExports:
    def test_every_exported_name_resolves(self):
        for name in scoutplan.__all__:
            assert hasattr(scoutplan, name), name


# Tokens that instance files are made of, valid and not.
_TOKENS = st.sampled_from([
    "v", "e", "meta", "U", "-", "0", "1", "2", "3", "-1", "7", "0.5", "2.0", "1e400",
    "nan", "inf", "-inf", "x", "", "p=0", "q=1", "d=2", "d=3", "d=9", "p=", "p=x",
    "uav_speed=2.0", "uav_speed=fast", "uav_speed=0", "free_flight=0", "free_flight=1",
    "free_flight=yes",
])
_LINES = st.lists(_TOKENS, max_size=9).map(" ".join)
# The walkthrough instance as save_instance writes it.
_DEMO_TEXT = """sapp 1
v 0 0.0 0.0
v 1 4.0 0.0
v 2 8.0 0.0
v 3 10.0 0.0
v 4 4.0 -2.0
e 0 0 1 4.0 2.0 -
e 1 1 2 - 2.0 U 4.0 18.0
e 2 2 3 2.0 1.0 -
e 3 1 4 2.0 1.0 -
e 4 3 4 - 3.1622776601683795 U 6.5 17.5
meta p=0 q=4 d=3 uav_speed=2.0 free_flight=0
"""


@st.composite
def _instance_texts(draw):
    """Any text, token soup behind the header, or a saved instance with an
    extra edge, with tokens appended to its meta line, or with up to three
    tokens replaced."""
    kind = draw(st.sampled_from(["text", "soup", "edge", "meta", "mutant"]))
    if kind == "text":
        return draw(st.text())
    if kind == "soup":
        return "\n".join(["sapp 1", *draw(st.lists(_LINES, max_size=12))])
    if kind == "edge":
        u, v = draw(st.integers(-1, 6)), draw(st.integers(-1, 6))
        return _DEMO_TEXT + f"e 5 {u} {v} {draw(_TOKENS)} 1.0 -\n"
    if kind == "meta":
        return _DEMO_TEXT.rstrip("\n") + " " + draw(_LINES)
    lines = [ln.split(" ") for ln in _DEMO_TEXT.splitlines()]
    for _ in range(draw(st.integers(1, 3))):
        row = draw(st.integers(0, len(lines) - 1))
        col = draw(st.integers(0, len(lines[row]) - 1))
        lines[row][col] = draw(_TOKENS | st.text(max_size=4))
    return "\n".join(" ".join(ln) for ln in lines)


@pytest.mark.filterwarnings("ignore:edge .* is shorter")
class TestLoaderFuzz:
    @settings(max_examples=300, deadline=None)
    @given(text=_instance_texts())
    def test_any_text_loads_or_is_instance_error(self, tmp_path_factory, text):
        path = tmp_path_factory.getbasetemp() / "fuzz.txt"
        path.write_text(text, encoding="utf-8")
        try:
            load_instance(str(path))
        except InstanceError:
            pass

    @settings(max_examples=50, deadline=None)
    @given(data=st.binary())
    def test_any_bytes_load_or_are_instance_error(self, tmp_path_factory, data):
        path = tmp_path_factory.getbasetemp() / "fuzz.bin"
        path.write_bytes(data)
        try:
            load_instance(str(path))
        except InstanceError:
            pass


class TestFiles:
    def test_minimal_round_trip(self, tmp_path):
        coords = [(0.0, 0.0), (1.0, 0.0)]
        inst = build_instance(coords, [(0, 1, 1.0)])
        path = tmp_path / "mini.txt"
        save_instance(inst, str(path))
        loaded = load_instance(str(path))
        assert loaded.n_vertices == 2
        assert len(loaded.edges) == 1
        assert not loaded.impeded_ids

    def test_grid_round_trips_bit_identically(self, tmp_path):
        inst, real = bench.generate_grid(bench.GridSpec(), seed=11)
        p1 = tmp_path / "a.txt"
        p2 = tmp_path / "b.txt"
        save_instance(inst, str(p1))
        save_instance(load_instance(str(p1)), str(p2))
        assert p1.read_bytes() == p2.read_bytes()
        r1 = tmp_path / "ra.txt"
        r2 = tmp_path / "rb.txt"
        save_realization(real, str(r1))
        save_realization(load_realization(str(r1), inst), str(r2))
        assert r1.read_bytes() == r2.read_bytes()

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("sapp 1\nv 0 0.0 0.0\nv 1 1.0 zero\n")
        with pytest.raises(InstanceError, match="3"):
            load_instance(str(path))

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("nope\n")
        with pytest.raises(InstanceError, match="header"):
            load_instance(str(path))

    def test_realization_domain_checked(self, tmp_path):
        inst, real = bench.generate_grid(bench.GridSpec(rows=3, cols=3, n_impeded_cuts=1), seed=1)
        path = tmp_path / "r.txt"
        some = sorted(real.true_cost)[0]
        path.write_text(f"r {some} {real.true_cost[some]!r}\n")
        if len(real) > 1:
            with pytest.raises(InstanceError, match="domain"):
                load_realization(str(path), inst)

    def test_realization_bounds_checked(self):
        coords = [(0.0, 0.0), (1.0, 0.0)]
        inst = build_instance(coords, [(0, 1, (1.0, 2.0))])
        with pytest.raises(InstanceError, match="outside"):
            Realization(inst, {0: 5.0})
