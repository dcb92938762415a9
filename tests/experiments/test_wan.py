"""Tests for the ``wan`` preset (placement x protocol x RTT grid)."""

import pytest

from repro.config import ModelParams
from repro.db.topology import TopologyKind
from repro.experiments import GridResults, run_preset
from repro.experiments.grid import plan


def _params(**settings):
    """Each point's ModelParams, keyed by (placement, protocol, rtt)."""
    _, grid = plan("wan", **settings)
    return {combo: spec.params for combo, spec in grid}


class TestConstruction:
    def test_rejects_unknown_placement(self):
        with pytest.raises(ValueError, match="placement"):
            run_preset("wan", protocols=("2PC",), placements=("nearby",))

    def test_rejects_uneven_dc_split(self):
        with pytest.raises(ValueError, match="split"):
            run_preset("wan", protocols=("2PC",), dcs=3)  # 8 % 3 != 0

    def test_rejects_empty_rtts(self):
        with pytest.raises(ValueError, match="rtts"):
            run_preset("wan", protocols=("2PC",), rtts=())

    def test_topology_for(self):
        params = _params(protocols=("2PC",), rtts=(40,),
                         placements=("spread",))
        topology = params[("spread", "2PC", 40.0)].network_topology
        assert topology.kind is TopologyKind.DCS
        assert topology.num_dcs == 2
        assert topology.sites_per_dc == 4
        assert topology.rtt_ms == 40.0

    def test_point_params_carry_placement(self):
        params = _params(protocols=("2PC",), mpl=3, rtts=(40.0,))
        spread = params[("spread", "2PC", 40.0)]
        local = params[("local", "2PC", 40.0)]
        assert spread.mpl == 3
        assert not spread.prefer_local_cohorts
        assert local.prefer_local_cohorts
        assert local.network_topology.rtt_ms == 40.0

    def test_base_params_are_preserved(self):
        params = _params(protocols=("2PC",), rtts=(10.0,),
                         params=ModelParams(dist_degree=6))
        assert params[("spread", "2PC", 10.0)].dist_degree == 6


@pytest.fixture(scope="module")
def wan_results() -> GridResults:
    """One shared 40ms grid over the protocols the ordering claim is
    about, both placements."""
    return run_preset("wan", protocols=("2PC", "PC", "3PC", "OPT"),
                      rtts=(40.0,), placements=("spread", "local"), mpl=2,
                      transactions=200)


def _at(results, protocol, placement="spread"):
    return results.point(protocol=protocol, rtt_ms=40.0, placement=placement)


class TestWanOrdering:
    """The acceptance claim: at WAN RTTs, protocols that serialize fewer
    cross-DC round trips on the commit path win."""

    def test_fewer_round_trip_protocols_commit_faster(self, wan_results):
        resp = {p: _at(wan_results, p)["response_time_ms"]
                for p in ("2PC", "PC", "3PC", "OPT")}
        # PC skips the commit-ACK round; OPT lends locks across the
        # prepared window.  Both beat 2PC; 3PC's extra PRECOMMIT round
        # is strictly worse.
        assert resp["PC"] < resp["2PC"]
        assert resp["OPT"] < resp["2PC"]
        assert resp["2PC"] < resp["3PC"]

    def test_round_trip_counts_track_protocol_structure(self, wan_results):
        xdc = {p: _at(wan_results, p)["cross_dc_round_trips_per_commit"]
               for p in ("2PC", "PC", "3PC")}
        assert all(value > 0 for value in xdc.values())
        assert xdc["PC"] < xdc["2PC"] < xdc["3PC"]

    def test_local_placement_avoids_the_expensive_links(self, wan_results):
        for protocol in ("2PC", "PC", "3PC", "OPT"):
            spread = _at(wan_results, protocol, "spread")
            local = _at(wan_results, protocol, "local")
            assert (local["cross_dc_round_trips_per_commit"]
                    < spread["cross_dc_round_trips_per_commit"])
            assert local["response_time_ms"] < spread["response_time_ms"]

    def test_message_split_covers_remote_traffic(self, wan_results):
        point = _at(wan_results, "2PC")
        assert point["cross_dc_messages"] > 0
        assert point["intra_dc_messages"] > 0


class TestRendering:
    def test_table_and_summary(self, wan_results):
        table = wan_results.table("spread")
        assert "placement: spread" in table
        assert "40ms" in table
        summary = wan_results.summary()
        assert "fastest commit" in summary
        assert " < " in summary

    def test_series(self, wan_results):
        series = [(rtt, wan_results.point(protocol="PC", rtt_ms=rtt,
                                          placement="spread")
                   ["response_time_ms"])
                  for rtt in wan_results.values("rtt_ms")]
        assert len(series) == 1
        rtt, resp = series[0]
        assert rtt == 40.0
        assert resp > 0
