"""Lease table semantics (repro.sim.campaign.lease)."""

import pytest

from repro.sim import faults
from repro.sim.campaign.lease import LeaseTable, default_lease_ttl


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


@pytest.fixture
def clock():
    return FakeClock()


def test_grant_sets_deadline_one_ttl_out(clock):
    table = LeaseTable(ttl=5.0, clock=clock)
    lease = table.grant("k1", "w1")
    assert lease.deadline == pytest.approx(105.0)
    assert table.holder("k1") == "w1"
    assert len(table) == 1


def test_double_grant_rejected(clock):
    table = LeaseTable(ttl=5.0, clock=clock)
    table.grant("k1", "w1")
    with pytest.raises(ValueError):
        table.grant("k1", "w2")


def test_renew_pushes_deadline(clock):
    table = LeaseTable(ttl=5.0, clock=clock)
    table.grant("k1", "w1")
    table.grant("k2", "w1")
    table.grant("k3", "w2")
    clock.advance(4.0)
    assert table.renew("w1") == 2           # both of w1's leases
    clock.advance(2.0)                      # 106: k3 (deadline 105) dead
    dead = table.expired()
    assert [lease.key for lease in dead] == ["k3"]
    assert table.holder("k1") == "w1"       # renewed leases survive


def test_expired_pops_and_is_empty_after(clock):
    table = LeaseTable(ttl=1.0, clock=clock)
    table.grant("k1", "w1")
    clock.advance(1.0)
    assert [lease.key for lease in table.expired()] == ["k1"]
    assert table.expired() == []
    assert table.holder("k1") is None


def test_expire_worker_pops_only_its_leases(clock):
    table = LeaseTable(ttl=5.0, clock=clock)
    table.grant("k1", "w1")
    table.grant("k2", "w2")
    dead = table.expire_worker("w1")
    assert [lease.key for lease in dead] == ["k1"]
    assert table.held() == ["k2"]


def test_release_on_completion(clock):
    table = LeaseTable(ttl=5.0, clock=clock)
    table.grant("k1", "w1")
    assert table.release("k1").key == "k1"
    assert table.release("k1") is None
    assert len(table) == 0


def test_renew_passes_lease_renew_fault_point(clock):
    """A faulted renewal is skipped: the lease keeps aging toward
    expiry while the worker's heartbeats keep arriving — the
    deterministic lease-expiry test hook."""
    table = LeaseTable(ttl=5.0, clock=clock)
    table.grant("k1", "w1")
    with faults.active(faults.FaultPlan.parse("eio@lease-renew*1")):
        clock.advance(3.0)
        assert table.renew("w1") == 0       # injected: renewal skipped
        assert table.renew("w1") == 1       # plan exhausted: renews
    lease = table._leases["k1"]
    assert lease.renewals == 1
    assert lease.deadline == pytest.approx(clock.now + 5.0)


def test_default_ttl_env_knob(monkeypatch):
    monkeypatch.delenv("REPRO_LEASE_TTL", raising=False)
    assert default_lease_ttl() == 30.0
    monkeypatch.setenv("REPRO_LEASE_TTL", "2.5")
    assert default_lease_ttl() == 2.5
    monkeypatch.setenv("REPRO_LEASE_TTL", "0")
    assert default_lease_ttl() == 0.05      # floored: never instant-expiry
