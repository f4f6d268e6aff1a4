"""XML platform serialisation round-trips."""

import hashlib

import pytest

from reference.routes import decodes_only_interned_uses
from repro.simgrid.builder import build_dumbbell, build_star_cluster, build_two_level_grid
from repro.simgrid.engine import Simulation
from repro.simgrid.models import CM02
from repro.simgrid.platform import (Direction, LinkUse, NoRouteError,
                                    Platform, PlatformError, SharingPolicy)
from repro.simgrid import xml_io
from repro.simgrid.routing import route_signature
from repro.simgrid.xml_io import (
    PlatformXMLError,
    load_platform,
    platform_from_xml,
    platform_to_xml,
    save_platform,
)


def roundtrip(platform):
    return platform_from_xml(platform_to_xml(platform))


def two_host_platform(**extra):
    """Hosts a, b joined by link l; ``extra`` maps a tag to attributes to
    set on it (``None`` drops one)."""
    attrs = {"host": {"id": "a", "speed": "1Gf"},
             "link": {"id": "l", "bandwidth": "1Gbps"},
             "route": {"src": "a", "dst": "b"}, "link_ctn": {"id": "l"}}
    for tag, values in extra.items():
        attrs[tag].update(values)
    el = {t: " ".join(f"{k}='{v}'" for k, v in a.items() if v is not None)
          for t, a in attrs.items()}
    return platform_from_xml(f"""<platform version='4.1'><AS id='r' routing='Full'>
    <host {el['host']}/><host id='b' speed='1Gf'/><link {el['link']}/>
    <route {el['route']}><link_ctn {el['link_ctn']}/></route></AS></platform>""")


def connection_xml(links, directions):
    return f"""<platform version='4.1'><AS id='r' routing='Dijkstra'>
    <host id='a' speed='1Gf'/><host id='b' speed='1Gf'/>
    <link id='l' bandwidth='1Gbps'/><link id='m' bandwidth='1Gbps'/>
    <connection a='a' b='b' link='{links}' directions='{directions}'/>
    </AS></platform>"""


class TestRoundTrip:
    def test_hosts_links_preserved(self, star4):
        clone = roundtrip(star4)
        assert sorted(h.name for h in clone.hosts()) == sorted(
            h.name for h in star4.hosts()
        )
        for link in star4.links():
            other = clone.link(link.name)
            assert other.bandwidth == pytest.approx(link.bandwidth)
            assert other.latency == pytest.approx(link.latency)
            assert other.policy is link.policy

    def test_routes_preserved(self, star4):
        clone = roundtrip(star4)
        for a in ("star-1", "star-2", "star-3"):
            for b in ("star-2", "star-4"):
                if a == b:
                    continue
                assert route_signature(clone.route(a, b)) == route_signature(
                    star4.route(a, b)
                )

    def test_simulation_identical_after_roundtrip(self, dumbbell):
        transfers = [("left-1", "right-1", 1e9), ("right-2", "left-2", 1e9)]
        original = Simulation(dumbbell, CM02()).simulate_transfers(transfers)
        clone = Simulation(roundtrip(dumbbell), CM02()).simulate_transfers(transfers)
        for c1, c2 in zip(original, clone):
            assert c2.duration == pytest.approx(c1.duration, rel=1e-9)

    def test_different_routes_each_way_both_survive(self):
        p = Platform("p")
        p.root.add_host("a")
        p.root.add_host("b")
        out = p.root.add_link("out", 1e9)
        back = p.root.add_link("back", 1e8)
        p.root.add_route("a", "b", [out], symmetrical=False)
        p.root.add_route("b", "a", [back], symmetrical=False)
        clone = roundtrip(p)
        assert route_signature(clone.route("a", "b")) == (("out", "UP"),)
        assert route_signature(clone.route("b", "a")) == (("back", "UP"),)

    def test_hierarchical_grid_roundtrip(self):
        grid = build_two_level_grid({"lyon": 3, "nancy": 3})
        clone = roundtrip(grid)
        sig1 = route_signature(grid.route("lyon-1", "nancy-2"))
        sig2 = route_signature(clone.route("lyon-1", "nancy-2"))
        assert sig1 == sig2

    def test_gateway_attribute_preserved(self):
        grid = build_two_level_grid({"lyon": 2, "nancy": 2})
        clone = roundtrip(grid)
        assert clone.root.children["AS_lyon"].default_gateway == "lyon-router"

    def test_properties_preserved(self, star4):
        star4.properties["network/TCP_gamma"] = "4194304"
        clone = roundtrip(star4)
        assert clone.properties["network/TCP_gamma"] == "4194304"

    def test_dijkstra_connections_roundtrip(self):
        p = Platform("p", routing="Dijkstra")
        p.root.add_host("a")
        p.root.add_host("b")
        p.root.add_router("s")
        la = p.root.add_link("la", 1e8, "10us")
        lb = p.root.add_link("lb", 1e8, "10us")
        p.root.add_connection("a", "s", la)
        p.root.add_connection("s", "b", lb)
        clone = roundtrip(p)
        assert route_signature(clone.route("a", "b")) == route_signature(
            p.route("a", "b")
        )

    def test_fullduplex_direction_attribute(self):
        p = Platform("p")
        p.root.add_host("a")
        p.root.add_host("b")
        link = p.root.add_link("l", 1e8, policy=SharingPolicy.FULLDUPLEX)
        from repro.simgrid.platform import LinkUse

        p.root.add_route("a", "b", [LinkUse(link, Direction.DOWN)])
        clone = roundtrip(p)
        assert clone.route("a", "b")[0].direction is Direction.DOWN


def explicit_pairs():
    """Explicit one-way routes: a mutually reverse pair (written as one
    symmetrical route), a pair that differs each way, and a flagged one."""
    p = Platform("p")
    for host in "abc":
        p.root.add_host(host)
    one = p.root.add_link("l", 1e8)
    duplex = p.root.add_link("m", 1e8, policy=SharingPolicy.FULLDUPLEX)
    p.root.add_route("a", "b", [one, LinkUse(duplex, Direction.DOWN)],
                     symmetrical=False)
    p.root.add_route("c", "a", [duplex])
    p.root.add_route("b", "a", [LinkUse(duplex, Direction.UP),
                                LinkUse(one, Direction.DOWN)],
                     symmetrical=False)
    p.root.add_route("b", "c", [one], symmetrical=False)
    p.root.add_route("c", "b", [duplex], symmetrical=False)
    return p


#: sha256 of each platform's XML as written before the writer stopped
#: building reverses: the text must not move by a byte
WRITTEN = {
    "star4": (lambda: build_star_cluster("star", 4),
              "891d4f48657a5cc439629aec54d24a81dd2562b725ec23e1f6296703d4e7ec40"),
    "dumbbell": (lambda: build_dumbbell(2, 2, bottleneck_bandwidth="1Gbps"),
                 "a44ebfda75f930dbef1289e60bb8882bc5212bfc3b7f23ebf3bdae2fceec66bf"),
    "grid": (lambda: build_two_level_grid({"lyon": 3, "nancy": 3}),
             "58289ed07c023b2ba64335b597261eeefcbb2a211c30c58f34c53d0425e5987c"),
    "explicit_pairs": (explicit_pairs,
                       "3fd167a8be88eaf4ad448d67551cf158788d4ea5ef5dd78b347b61fb7f6210f9"),
}


@pytest.mark.parametrize("name", sorted(WRITTEN))
def test_writing_is_unchanged_and_builds_no_reverse(name):
    build, digest = WRITTEN[name]
    platform = build()
    text = platform_to_xml(platform)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    for as_ in (platform.root, *platform.root.descendants()):
        assert decodes_only_interned_uses(as_), as_.name


def test_a_mutually_reverse_explicit_pair_is_written_once():
    text = platform_to_xml(explicit_pairs())
    assert text.count("<route ") == 4  # a-b once, c-a, b-c and c-b
    assert text.count('symmetrical="YES"') == 2


class TestStreaming:
    """The reader declares elements as the text streams in: where the text
    is cut does not matter, and each run of routes becomes one row."""

    @pytest.mark.parametrize("name", sorted(WRITTEN))
    def test_reading_then_writing_gives_the_same_text(self, name):
        text = platform_to_xml(WRITTEN[name][0]())
        assert platform_to_xml(platform_from_xml(text)) == text

    @pytest.mark.parametrize("chunk", [1, 7])
    def test_any_chunking_reads_the_same_platform(self, chunk, monkeypatch):
        text = platform_to_xml(build_two_level_grid({"lyon": 3, "nancy": 3}))
        monkeypatch.setattr(xml_io, "_CHUNK", chunk)
        assert platform_to_xml(platform_from_xml(text)) == text

    def test_routes_of_a_source_broken_by_another_all_survive(self):
        xml = """<platform version='4.1'><AS id='r' routing='Full'>
        <host id='a'/><host id='b'/><host id='c'/>
        <link id='l' bandwidth='1Gbps'/><link id='m' bandwidth='1Gbps'/>
        <route src='a' dst='b'><link_ctn id='l'/></route>
        <route src='c' dst='b'><link_ctn id='m'/></route>
        <route src='a' dst='c'><link_ctn id='m'/><link_ctn id='l'/></route>
        </AS></platform>"""
        platform = platform_from_xml(xml)
        assert route_signature(platform.route("a", "b")) == (("l", "UP"),)
        assert route_signature(platform.route("c", "b")) == (("m", "UP"),)
        assert route_signature(platform.route("a", "c")) == (
            ("m", "UP"), ("l", "UP"))
        assert route_signature(platform.route("c", "a")) == (
            ("l", "DOWN"), ("m", "DOWN"))

    def test_a_change_of_symmetrical_starts_a_new_row(self):
        xml = """<platform version='4.1'><AS id='r' routing='Full'>
        <host id='a'/><host id='b'/><host id='c'/>
        <link id='l' bandwidth='1Gbps'/>
        <route src='a' dst='b' symmetrical='NO'><link_ctn id='l'/></route>
        <route src='a' dst='c'><link_ctn id='l'/></route>
        </AS></platform>"""
        platform = platform_from_xml(xml)
        with pytest.raises(NoRouteError):
            platform.route("b", "a")
        assert route_signature(platform.route("c", "a")) == (("l", "DOWN"),)

    def test_a_link_declared_after_its_route_is_unknown(self):
        # SimGrid's DTD declares links before the routes that use them;
        # a streamed read knows only what came before
        xml = """<platform version='4.1'><AS id='r' routing='Full'>
        <host id='a'/><host id='b'/>
        <route src='a' dst='b'><link_ctn id='l'/></route>
        <link id='l' bandwidth='1Gbps'/></AS></platform>"""
        with pytest.raises(PlatformXMLError, match="'l'"):
            platform_from_xml(xml)

    def test_a_second_top_level_as_is_rejected(self):
        xml = """<platform version='4.1'><AS id='r' routing='Full'/>
        <AS id='s' routing='Full'/></platform>"""
        with pytest.raises(PlatformXMLError, match="exactly one .* got 2"):
            platform_from_xml(xml)


class TestFileIO:
    def test_save_load(self, tmp_path, star4):
        path = tmp_path / "platform.xml"
        save_platform(star4, str(path))
        clone = load_platform(str(path))
        assert len(clone.hosts()) == len(star4.hosts())


class TestErrors:
    def test_malformed_xml(self):
        with pytest.raises(PlatformXMLError):
            platform_from_xml("<platform><AS id='x'")

    def test_wrong_root_tag(self):
        with pytest.raises(PlatformXMLError, match="platform"):
            platform_from_xml("<plat></plat>")

    def test_missing_top_as(self):
        with pytest.raises(PlatformXMLError, match="top-level"):
            platform_from_xml("<platform version='4.1'></platform>")

    def test_missing_required_attribute(self):
        xml = """<platform version='4.1'><AS id='r' routing='Full'>
        <host speed='1Gf'/></AS></platform>"""
        with pytest.raises(PlatformXMLError, match="id"):
            platform_from_xml(xml)

    def test_route_references_unknown_link(self):
        xml = """<platform version='4.1'><AS id='r' routing='Full'>
        <host id='a' speed='1Gf'/><host id='b' speed='1Gf'/>
        <route src='a' dst='b'><link_ctn id='ghost'/></route></AS></platform>"""
        with pytest.raises(PlatformXMLError, match="ghost"):
            platform_from_xml(xml)

    def test_unexpected_tag_in_route(self):
        xml = """<platform version='4.1'><AS id='r' routing='Full'>
        <host id='a' speed='1Gf'/><host id='b' speed='1Gf'/>
        <link id='l' bandwidth='1Gbps'/>
        <route src='a' dst='b'><surprise/></route></AS></platform>"""
        with pytest.raises(PlatformXMLError, match="surprise"):
            platform_from_xml(xml)

    @pytest.mark.parametrize("tag, attr, value", [
        ("link", "sharing_policy", "SOMETIMES"),
        ("link_ctn", "direction", "SIDEWAYS"),
        ("host", "core", "two"),
        ("link", "bandwidth", "fast"),
        ("link", "latency", "soon"),
        ("host", "speed", "1Gflops!"),
        ("route", "symmetrical", "MAYBE"),
    ])
    def test_bad_attribute_value_names_element_and_attribute(self, tag, attr, value):
        with pytest.raises(PlatformXMLError, match=f"<{tag}> .*'{attr}'"):
            two_host_platform(**{tag: {attr: value}})

    def test_connection_direction_value_names_element_and_attribute(self):
        with pytest.raises(PlatformXMLError, match="<connection> .*'directions'"):
            platform_from_xml(connection_xml("l", "BACKWARDS"))

    def test_connection_directions_must_match_links(self):
        with pytest.raises(PlatformXMLError, match="mismatch"):
            platform_from_xml(connection_xml("l,m", "UP"))

    def test_missing_bandwidth_names_the_attribute(self):
        with pytest.raises(PlatformXMLError, match="bandwidth"):
            two_host_platform(link={"bandwidth": None})

    def test_zero_bandwidth_stays_a_platform_error(self):
        # a well-formed value the platform rejects is not an XML error
        with pytest.raises(PlatformError, match="positive") as info:
            two_host_platform(link={"bandwidth": "0Bps"})
        assert not isinstance(info.value, PlatformXMLError)


class TestAcceptedAttributeValues:
    """The strict attribute parsing still accepts every legal value."""

    @pytest.mark.parametrize("policy", list(SharingPolicy))
    def test_sharing_policy(self, policy):
        platform = two_host_platform(link={"sharing_policy": policy.value})
        assert platform.link("l").policy is policy

    @pytest.mark.parametrize("direction", list(Direction))
    def test_link_ctn_direction(self, direction):
        platform = two_host_platform(link={"sharing_policy": "FULLDUPLEX"},
                                     link_ctn={"direction": direction.value})
        assert platform.route("a", "b")[0].direction is direction

    def test_symmetrical_yes_declares_the_reverse_route(self):
        platform = two_host_platform(route={"symmetrical": "YES"})
        assert route_signature(platform.route("b", "a")) == (("l", "DOWN"),)

    def test_symmetrical_no_declares_one_way_only(self):
        platform = two_host_platform(route={"symmetrical": "NO"})
        with pytest.raises(NoRouteError):
            platform.route("b", "a")

    def test_integer_core_count(self):
        assert two_host_platform(host={"core": "4"}).host("a").cores == 4
