"""Unit tests for the cost model and the platform presets."""

import pytest

from repro.errors import SimulationError
from repro.sim import (
    LinkParams,
    MachineParams,
    Platform,
    available_platforms,
    get_platform,
    register_platform,
)


def make_link(**kw):
    defaults = dict(alpha=1e-6, beta=1e9, eager_threshold=4096)
    defaults.update(kw)
    return LinkParams(**defaults)


def make_params(**kw):
    defaults = dict(name="test", inter=make_link(), intra=make_link())
    defaults.update(kw)
    return MachineParams(**defaults)


# ---------------------------------------------------------------------------
# LinkParams
# ---------------------------------------------------------------------------


def test_transfer_time_composition():
    link = make_link(alpha=2e-6, beta=1e9, per_msg=1e-6)
    assert link.serialization_time(1000) == pytest.approx(1e-6 + 1e-6)
    assert link.transfer_time(1000) == pytest.approx(2e-6 + 2e-6)


@pytest.mark.parametrize("kw", [
    dict(alpha=-1e-6),
    dict(beta=0.0),
    dict(beta=-1.0),
    dict(eager_threshold=-1),
    dict(per_msg=-1e-9),
])
def test_link_validation(kw):
    with pytest.raises(SimulationError):
        make_link(**kw)


# ---------------------------------------------------------------------------
# MachineParams
# ---------------------------------------------------------------------------


def test_link_selection_by_locality():
    inter = make_link(alpha=5e-6)
    intra = make_link(alpha=1e-6)
    p = make_params(inter=inter, intra=intra)
    assert p.link(same_node=True) is intra
    assert p.link(same_node=False) is inter


def test_copy_and_progress_costs():
    p = make_params(copy_bw=2e9, progress_base=1e-6, progress_per_req=1e-7)
    assert p.copy_time(2_000_000) == pytest.approx(1e-3)
    assert p.progress_cost(0) == pytest.approx(1e-6)
    assert p.progress_cost(10) == pytest.approx(2e-6)


def test_scaled_override():
    p = make_params(o_send=1e-6)
    q = p.scaled(o_send=5e-6)
    assert q.o_send == 5e-6
    assert q.inter is p.inter
    assert p.o_send == 1e-6  # original untouched


@pytest.mark.parametrize("kw", [
    dict(nic_rails=0),
    dict(o_send=-1e-9),
    dict(copy_bw=0.0),
    dict(cpu_speed=0.0),
    dict(incast_penalty=-0.1),
    dict(intra_rails=0),
    dict(intra_contention=-0.1),
])
def test_machine_validation(kw):
    with pytest.raises(SimulationError):
        make_params(**kw)


# ---------------------------------------------------------------------------
# platform presets
# ---------------------------------------------------------------------------


def test_all_paper_platforms_registered():
    names = available_platforms()
    for expected in ("crill", "whale", "whale_tcp", "bluegene_p"):
        assert expected in names


def test_unknown_platform_error_lists_choices():
    with pytest.raises(SimulationError, match="crill"):
        get_platform("summit")


@pytest.mark.parametrize("name", ["crill", "whale", "whale_tcp", "bluegene_p"])
def test_presets_build_valid_topologies(name):
    plat = get_platform(name)
    topo = plat.topology(min(32, plat.max_procs))
    assert topo.nprocs <= plat.max_procs
    assert plat.name == name


def test_preset_geometry_matches_paper():
    crill = get_platform("crill")
    assert crill.nnodes == 16 and crill.cores_per_node == 48
    assert crill.params.nic_rails == 2  # two IB HCAs per node
    whale = get_platform("whale")
    assert whale.nnodes == 64 and whale.cores_per_node == 8
    bgp = get_platform("bluegene_p")
    assert bgp.params.cpu_speed < 1.0  # slow cores


def test_tcp_has_incast_penalty_lossless_do_not():
    assert get_platform("whale_tcp").params.incast_penalty > 0
    assert get_platform("whale").params.incast_penalty == 0
    assert get_platform("crill").params.incast_penalty == 0


def test_register_custom_platform():
    plat = Platform(params=make_params(name="toy"), nnodes=2, cores_per_node=2)
    register_platform("toy", lambda: plat)
    assert get_platform("toy") is plat
    assert "toy" in available_platforms()


def test_get_platform_is_memoized():
    # presets are immutable, so every lookup shares one instance
    assert get_platform("whale") is get_platform("whale")
    assert get_platform("crill") is get_platform("crill")


def test_reregistration_invalidates_memoized_preset():
    first = Platform(params=make_params(name="toy2"), nnodes=2, cores_per_node=2)
    register_platform("toy2", lambda: first)
    assert get_platform("toy2") is first
    second = Platform(params=make_params(name="toy2"), nnodes=4, cores_per_node=2)
    register_platform("toy2", lambda: second)
    assert get_platform("toy2") is second
