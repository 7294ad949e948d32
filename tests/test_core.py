import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import scoutplan
from conftest import build_instance, line_instance, random_connected_instance
from scoutplan import bench, sim
from scoutplan.core import (
    INF,
    EdgeRecord,
    InstanceError,
    NoPathError,
    PlanningCostView,
    ProblemInstance,
    Realization,
    UavMetric,
    UniformCost,
    load_instance,
    load_realization,
    sample_realization,
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
        return inst, PlanningCostView(inst)

    def test_unimpeded_pass_through(self):
        inst, view = self.make()
        assert view.costs[0] == 10.0

    def test_unrealized_uses_expected(self):
        inst, view = self.make()
        assert view.costs[1] == 12.0
        assert view.unrevealed(1)

    def test_realized_uses_true_cost(self):
        inst, view = self.make()
        view.reveal(1, 18.0)
        assert view.costs[1] == 18.0
        assert not view.unrevealed(1) and view.realized == {1: 18.0}

    def test_aerial_only_edge_reads_inf(self):
        coords = [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]
        edges = [
            EdgeRecord(0, 0, 1, 1.0, 0.5),
            EdgeRecord(1, 1, 2, 1.0, 0.5),
            EdgeRecord(2, 0, 2, None, 1.0),  # aerial only
        ]
        inst = ProblemInstance(coords, edges, 0, 0, 2)
        assert PlanningCostView(inst).costs == [1.0, 1.0, INF]

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
        view = PlanningCostView(inst)
        before = view.costs.copy()
        target = min(inst.impeded_ids, default=None)
        if target is None:
            return
        view.reveal(target, inst.edges[target].distribution.t_max)
        changed = [eid for eid, (a, b) in enumerate(zip(before, view.costs)) if a != b]
        assert changed == [target]
        assert view.costs[target] == inst.edges[target].distribution.t_max


def with_aerial_only_edges(inst, rng):
    """The instance plus aerial-only edges between a few pairs it leaves unjoined."""
    joined = {(e.u, e.v) for e in inst.edges}
    n = inst.n_vertices
    free = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in joined]
    edges = list(inst.edges)
    for u, v in rng.sample(free, min(len(free), rng.randint(1, 4))):
        edges.append(EdgeRecord(len(edges), u, v, None, inst.euclid(u, v) / inst.uav_speed + 0.1))
    return ProblemInstance(inst.vertices, edges, inst.p, inst.q, inst.d, inst.uav_speed, inst.uav_free_flight)


class TestCostOwners:
    """The instance owns the prior and aerial costs, the realization the true
    costs; a view copies the prior."""

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_each_cost_list_matches_its_rule(self, seed):
        rng = random.Random(seed)
        # Six or more vertices leave at least one pair unjoined.
        inst = with_aerial_only_edges(random_connected_instance(rng, n_min=6), rng)
        real = sample_realization(inst, rng)
        m = len(inst.edges)
        assert m > len(inst.ugv_edge_ids)
        prior = oracles.prior_costs(inst)
        want = tuple(prior.get(e, INF) for e in range(m))
        assert inst.prior_costs == want
        assert inst.uav_costs == tuple(e.uav_cost for e in inst.edges)

        view, other = PlanningCostView(inst), PlanningCostView(inst)
        assert view.costs == list(inst.prior_costs)
        for eid in sorted(inst.impeded_ids):
            view.reveal(eid, real[eid])
        assert inst.prior_costs == want
        assert other.costs == list(inst.prior_costs) and not other.realized

        for e in range(m):
            assert real.costs[e] == (real[e] if e in inst.impeded_ids else inst.prior_costs[e])
        assert list(real.costs) == view.costs
        # Rooted at p, the oracle sums each path from p, as lower_bound does.
        dist = oracles.dijkstra_to_dest(inst, oracles.view_costs(inst, view), inst.p)
        assert sim.lower_bound(inst, real) == dist[inst.d]


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

    def test_network_path_hops_carry_edge_costs(self):
        coords = [(0.0, 0.0), (2.0, 0.0), (5.0, 0.0)]
        inst = build_instance(coords, [(0, 1, 2.0, 2.0), (1, 2, 3.0, 3.0)])
        metric = UavMetric(inst)
        assert metric.path(0, 2) == [(0, 1, 2.0), (1, 2, 3.0)]
        assert metric.path(2, 0) == [(2, 1, 3.0), (1, 0, 2.0)]
        assert metric.path(1, 1) == []

    def test_free_flight_path_is_one_hop(self):
        coords = [(0.0, 0.0), (10.0, 0.0)]
        inst = build_instance(coords, [(0, 1, 10.0)], free_flight=True, uav_speed=2.0)
        assert UavMetric(inst).path(0, 1) == [(0, 1, 5.0)]

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

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), free_flight=st.booleans())
    def test_random_instances_round_trip_bit_identically(self, tmp_path_factory, seed, free_flight):
        rng = random.Random(seed)
        inst = random_connected_instance(rng, free_flight=free_flight)
        real = sample_realization(inst, rng)
        base = tmp_path_factory.getbasetemp()
        p1, p2, r1, r2 = (str(base / name) for name in ("a.txt", "b.txt", "ra.txt", "rb.txt"))
        save_instance(inst, p1)
        loaded = load_instance(p1)
        save_instance(loaded, p2)
        save_realization(real, r1)
        save_realization(load_realization(r1, loaded), r2)
        with open(p1, "rb") as a, open(p2, "rb") as b:
            assert a.read() == b.read()
        with open(r1, "rb") as a, open(r2, "rb") as b:
            assert a.read() == b.read()

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

    def test_realization_repeated_edge_rejected(self, tmp_path):
        inst, _ = bench.demo_instance()
        assert sorted(inst.impeded_ids) == [1, 4]
        path = tmp_path / "r.txt"
        path.write_text("r 1 18.0\nr 4 12.0\nr 1 4.0\n")
        with pytest.raises(InstanceError, match=r"r\.txt:3: repeated edge id 1"):
            load_realization(str(path), inst)

    def test_demo_text_loads(self, tmp_path):
        path = tmp_path / "demo.txt"
        path.write_text(_DEMO_TEXT)
        save_instance(load_instance(str(path)), str(tmp_path / "again.txt"))
        assert (tmp_path / "again.txt").read_text() == _DEMO_TEXT

    @pytest.mark.parametrize("old,new,where", [
        ("v 0 0.0 0.0\n", "v 0 0.0 0.0 junk\n", ":2: too many values"),
        ("v 2 8.0 0.0\n", "v 2 8.0\n", ":4: not enough values"),
        ("e 2 2 3 2.0 1.0 -\n", "e 2 2 3 2.0 1.0 - 7\n", ":9: unknown distribution '- 7', expected - or U"),
        ("U 4.0 18.0\n", "U 4.0 18.0 20.0\n", ":8: too many values"),
        ("U 4.0 18.0\n", "N 4.0 18.0\n", ":8: unknown distribution 'N 4.0 18.0'"),
        ("e 2 2 3", "e 5 2 3", ":9: edge ids must be dense and ordered, got 5"),
        ("uav_speed=2.0", "uav_sped=2.0", ":12: unknown or repeated meta field 'uav_sped=2.0'"),
        ("p=0", "p=0 p=0", ":12: unknown or repeated meta field 'p=0'"),
        ("free_flight=0", "free_flight=0 extra", ":12: unknown or repeated meta field 'extra'"),
        ("free_flight=0", "free_flight=yes", ":12: expected 0 or 1, got 'yes'"),
        (" d=3", "", ":12: meta line needs p, q and d"),
        ("free_flight=0\n", "free_flight=0\nmeta p=0 q=4 d=3\n", ":13: second meta line"),
        ("v 4 4.0 -2.0\n", "v 4 4.0 -2.0\nw 5\n", ":7: unknown record tag 'w'"),
        # Ids are ASCII digits, though int() reads each of these.
        ("v 1 4.0", "v 0_1 4.0", ":3: invalid literal for int() with base 10: '0_1'"),
        ("e 2 2 3", "e 2 +2 3", ":9: invalid literal for int() with base 10: '+2'"),
        ("d=3", "d=\u0663", ":12: invalid literal for int() with base 10: '\u0663'"),
    ], ids=["vertex-extra-field", "vertex-short", "edge-extra-after-dash", "edge-extra-bound",
            "edge-unknown-distribution", "edge-id-not-dense", "meta-misspelled-key",
            "meta-repeated-key", "meta-extra-field", "meta-free-flight-yes", "meta-without-d",
            "second-meta-line", "unknown-tag", "vertex-id-underscore", "edge-end-signed",
            "meta-d-non-ascii-digit"])
    def test_record_must_have_exactly_its_fields(self, tmp_path, old, new, where):
        assert _DEMO_TEXT.count(old) == 1
        path = tmp_path / "bad.txt"
        path.write_text(_DEMO_TEXT.replace(old, new), encoding="utf-8")
        with pytest.raises(InstanceError) as err:
            load_instance(str(path))
        assert str(err.value).startswith(f"{path}{where}")

    def test_missing_meta_line_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text(_DEMO_TEXT.rsplit("meta", 1)[0])
        with pytest.raises(InstanceError) as err:
            load_instance(str(path))
        assert str(err.value) == f"{path}: no meta line"

    @pytest.mark.parametrize("text,where", [
        ("r 1 18.0\nr 4\n", ":2: not enough values"),
        ("r 1 18.0 x\nr 4 12.0\n", ":1: too many values"),
        ("r 1 18.0\nr x 12.0\n", ":2: invalid literal for int()"),
        ("r 1 cheap\nr 4 12.0\n", ":1: could not convert string to float"),
        ("r 1 18.0\n\nt 4 12.0\n", ":3: unknown record tag 't'"),
        ("r 1 18.0\nr 0_4 12.0\n", ":2: invalid literal for int() with base 10: '0_4'"),
        ("r +1 18.0\nr 4 12.0\n", ":1: invalid literal for int() with base 10: '+1'"),
        ("r 1 18.0\nr \u0664 12.0\n", ":2: invalid literal for int() with base 10: '\u0664'"),
    ], ids=["short", "long", "non-numeric-id", "non-numeric-cost", "unknown-tag",
            "id-underscore", "id-signed", "id-non-ascii-digit"])
    def test_malformed_realization_record_rejected(self, tmp_path, text, where):
        inst, _ = bench.demo_instance()
        path = tmp_path / "r.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(InstanceError) as err:
            load_realization(str(path), inst)
        assert str(err.value).startswith(f"{path}{where}")

    def test_files_that_are_not_utf8_rejected_naming_the_file(self, tmp_path):
        inst, _ = bench.demo_instance()
        path = tmp_path / "latin1.txt"
        path.write_bytes(_DEMO_TEXT.replace("sapp 1\n", "sapp 1\n\xe9\n").encode("latin-1"))
        with pytest.raises(InstanceError) as err:
            load_instance(str(path))
        assert str(err.value).startswith(f"{path}: not UTF-8 text")
        path.write_bytes(b"r 1 18.0\nr 4 12.0 \xe9\n")
        with pytest.raises(InstanceError) as err:
            load_realization(str(path), inst)
        assert str(err.value).startswith(f"{path}: not UTF-8 text")

    def test_missing_file_is_os_error(self, tmp_path):
        inst, _ = bench.demo_instance()
        with pytest.raises(FileNotFoundError):
            load_instance(str(tmp_path / "nope.txt"))
        with pytest.raises(FileNotFoundError):
            load_realization(str(tmp_path / "nope.txt"), inst)

    def test_realization_bounds_checked(self):
        coords = [(0.0, 0.0), (1.0, 0.0)]
        inst = build_instance(coords, [(0, 1, (1.0, 2.0))])
        with pytest.raises(InstanceError, match="outside"):
            Realization(inst, {0: 5.0})

    @pytest.mark.parametrize("cost", [-5e-10, 0.0, float("nan"), float("inf")])
    def test_realization_cost_must_be_finite_and_positive(self, cost):
        # Within the 1e-9 slack of a 1e-12 bound, yet no cost: a negative
        # one would make every Dijkstra search relax the edge forever.
        coords = [(0.0, 0.0), (1.0, 0.0)]
        inst = build_instance(coords, [(0, 1, (1e-12, 1.0))])
        with pytest.raises(InstanceError, match="edge 0: true cost .* is not finite and positive"):
            Realization(inst, {0: cost})
