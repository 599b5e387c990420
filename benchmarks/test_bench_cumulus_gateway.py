"""EXP-D (§V, preliminary): BlobSeer as a Cumulus/S3 storage back end.

Paper claim: "the BlobSeer storage back end is able to sustain a
promising data transfer rate, while bringing an efficient support for
concurrent accesses."  We measure aggregate gateway transfer rate for
PUT and GET as concurrency grows: efficient concurrent-access support
shows as aggregate rate *scaling up* with clients until the gateway NIC
saturates, rather than collapsing.
"""

from _util import once, report

from repro.blobseer import BlobSeerConfig, BlobSeerDeployment
from repro.cloud import CumulusGateway, Permission
from repro.cluster import TestbedConfig

CONCURRENCY = [1, 2, 4, 8, 16]
OBJECT_MB = 256.0


def run_point(users: int):
    deployment = BlobSeerDeployment(BlobSeerConfig(
        data_providers=24,
        metadata_providers=4,
        chunk_size_mb=32.0,
        testbed=TestbedConfig(seed=31, rate_granularity_s=0.01),
    ))
    gateway = CumulusGateway(deployment, nic_mbps=1250.0)
    env = deployment.env
    nodes = [deployment.testbed.add_node(f"user-{i}") for i in range(users)]

    done = {}

    def one_user(env, i):
        user = f"u{i}"
        yield from gateway.put_object(user, nodes[i], "bench", f"obj-{i}", OBJECT_MB)
        yield from gateway.get_object(user, nodes[i], "bench", f"obj-{i}")

    def scenario(env):
        bucket = yield from gateway.create_bucket("admin", "bench")
        for i in range(users):
            bucket.acl.grant(f"u{i}", Permission.FULL)
        start = env.now
        procs = [env.process(one_user(env, i)) for i in range(users)]
        yield env.all_of(procs)
        done["elapsed"] = env.now - start

    process = env.process(scenario(env))
    deployment.run(until=process)
    elapsed = done["elapsed"]
    total_mb = users * OBJECT_MB * 2  # one PUT + one GET each
    return total_mb / elapsed, elapsed


def test_exp_d_cumulus_gateway(benchmark):
    def run():
        return [(n,) + run_point(n) for n in CONCURRENCY]

    results = once(benchmark, run)
    rows = [
        (n, f"{rate:.1f}", f"{elapsed:.2f}")
        for n, rate, elapsed in results
    ]
    report(
        "EXP-D",
        "Cumulus/S3 gateway aggregate transfer rate vs concurrent clients "
        f"({OBJECT_MB:.0f} MB PUT + GET each)",
        ["clients", "aggregate MB/s", "elapsed (s)"],
        rows,
        notes=[
            "paper (preliminary): promising transfer rate with efficient "
            "support for concurrent accesses",
        ],
    )
    rates = [rate for _n, rate, _e in results]
    # Shape claim 1: a single client moves data at a healthy fraction of
    # a GbE NIC through the two-hop gateway path.
    assert rates[0] > 40.0, rates[0]
    # Shape claim 2: concurrency scales aggregate throughput (no collapse):
    # 16 clients sustain well over 4x the single-client rate.
    assert rates[-1] > 4.0 * rates[0], rates
    # Shape claim 3: monotone non-collapse across the sweep.
    for earlier, later in zip(rates, rates[1:]):
        assert later > earlier * 0.8, rates
