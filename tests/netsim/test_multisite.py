"""SiteFabric routing and topology validation."""

import pytest

from repro.config import (
    SiteLink,
    SiteSpec,
    TopologyConfig,
    named_topology,
    topology_names,
)
from repro.netsim.sites import SiteFabric
from repro.util.units import mbps


@pytest.fixture
def fabric():
    return SiteFabric(named_topology("sc99-wan"))


class TestSiteFabric:
    def test_registers_dpss_and_edge_per_site(self, fabric):
        for name in ("lbl", "anl", "showfloor"):
            assert fabric.dpss[name].name == f"dpss:{name}"
            assert fabric.edge[name].name == f"edge:{name}"
        assert fabric.core.name == "wan:core"

    def test_dedicated_link_is_order_normalised(self, fabric):
        forward = fabric.link_between("lbl", "anl")
        reverse = fabric.link_between("anl", "lbl")
        assert forward is reverse
        assert forward.name == "wan:anl--lbl"

    def test_undeclared_pair_falls_back_to_core(self, fabric):
        assert fabric.link_between("anl", "showfloor") is fabric.core

    def test_link_between_rejects_unknown_site(self, fabric):
        with pytest.raises(KeyError, match="ncsa"):
            fabric.link_between("lbl", "ncsa")

    def test_link_between_rejects_same_endpoints(self, fabric):
        with pytest.raises(ValueError, match="differ"):
            fabric.link_between("lbl", "lbl")

    def test_local_path_spans_dpss_and_edge(self, fabric):
        usage = fabric.path("lbl", "lbl")
        assert usage == {fabric.dpss["lbl"]: 1.0, fabric.edge["lbl"]: 1.0}

    def test_spilled_path_adds_the_intersite_leg(self, fabric):
        usage = fabric.path("anl", "lbl")
        assert usage == {
            fabric.dpss["anl"]: 1.0,
            fabric.edge["anl"]: 1.0,
            fabric.link_between("anl", "lbl"): 1.0,
        }

    def test_warm_path_skips_the_dpss_leg(self, fabric):
        usage = fabric.path("lbl", "lbl", warm=True)
        assert usage == {fabric.edge["lbl"]: 1.0}

    def test_path_rejects_unknown_sites(self, fabric):
        with pytest.raises(KeyError):
            fabric.path("ncsa", "lbl")
        with pytest.raises(KeyError):
            fabric.path("lbl", "ncsa")

    def test_site_lookup_returns_the_spec(self, fabric):
        assert fabric.site("lbl").name == "lbl"
        with pytest.raises(KeyError):
            fabric.site("ncsa")


class TestTopologyValidation:
    def test_registry_names_resolve(self):
        for name in topology_names():
            assert isinstance(named_topology(name), TopologyConfig)

    def test_unknown_topology_name(self):
        with pytest.raises(KeyError, match="unknown topology"):
            named_topology("nope")

    def test_empty_sites_rejected(self):
        with pytest.raises(ValueError, match="at least one site"):
            TopologyConfig(sites=())

    def test_duplicate_site_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate site names"):
            TopologyConfig(
                sites=(SiteSpec(name="a"), SiteSpec(name="a"))
            )

    def test_link_to_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            TopologyConfig(
                sites=(SiteSpec(name="a"), SiteSpec(name="b")),
                links=(SiteLink("a", "c", mbps(100.0)),),
            )

    def test_duplicate_link_rejected(self):
        with pytest.raises(ValueError, match="duplicate link"):
            TopologyConfig(
                sites=(SiteSpec(name="a"), SiteSpec(name="b")),
                links=(
                    SiteLink("a", "b", mbps(100.0)),
                    SiteLink("b", "a", mbps(200.0)),
                ),
            )

    def test_self_link_rejected(self):
        with pytest.raises(ValueError, match="differ"):
            SiteLink("a", "a", mbps(100.0))

    @pytest.mark.parametrize(
        "build, named",
        [
            (lambda v: SiteLink("a", "b", v), "link rate"),
            (lambda v: SiteSpec("a", dpss_rate=v), "dpss_rate"),
            (lambda v: SiteSpec("a", edge_rate=v), "edge_rate"),
            (lambda v: SiteSpec("a", cache_bytes=v), "cache_bytes"),
            (lambda v: TopologyConfig(core_rate=v), "core_rate"),
        ],
    )
    @pytest.mark.parametrize("value", [float("nan"), -1.0])
    def test_bad_rates_rejected(self, build, named, value):
        """``x < 0`` is False for NaN: a NaN rate must not construct."""
        with pytest.raises(ValueError, match=named):
            build(value)

    def test_single_site_helper_overrides(self):
        topo = TopologyConfig.single_site(cache_bytes=1024.0)
        assert topo.site_names == ("local",)
        assert topo.sites[0].cache_bytes == 1024.0
