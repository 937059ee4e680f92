/**
 * @file
 * Randomized stress/property tests pinning the incremental max-min scheduler
 * to the full-recompute oracle. Hundreds of overlapping flows arrive, share
 * links, and retire over a clustered topology; after EVERY discrete event
 * the incremental engine's per-flow rates and per-link aggregate rates must
 * match FlowNetwork::oracleRates() — a from-scratch water-filling with none
 * of the incremental bookkeeping — bit for bit.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "common/random.h"
#include "net/flow_network.h"
#include "net/topology.h"

namespace smartinf::net {
namespace {

/** Run exactly one event. @return false when the queue had drained. */
bool
stepOne(sim::Simulator &sim)
{
    int budget = 1;
    sim.runUntil([&budget]() { return budget-- <= 0; });
    return budget < 0;
}

void
expectMatchesOracle(FlowNetwork &net,
                    const std::vector<Link *> &all_links = {})
{
    const auto snap = net.oracleRates();
    ASSERT_EQ(snap.rates.size(), net.activeFlows());
    for (const auto &[id, rate] : snap.rates) {
        // Bit-exact: the incremental scheduler must be indistinguishable
        // from a full recompute, not merely close.
        EXPECT_EQ(net.currentRate(id), rate) << "flow " << id;
    }
    for (const auto &[link, agg] : snap.link_rates)
        EXPECT_EQ(net.linkAggregateRate(link), agg) << "link " << link->name();
    // Links absent from the oracle carry no flow: their aggregate must
    // have been reset when their last flow retired, not left stale.
    for (const Link *link : all_links) {
        const bool carried =
            std::any_of(snap.link_rates.begin(), snap.link_rates.end(),
                        [&](const auto &lr) { return lr.first == link; });
        if (!carried)
            EXPECT_EQ(net.linkAggregateRate(link), 0.0)
                << "idle link " << link->name();
    }
}

/**
 * Clustered topology mirroring the engines' shape: per-cluster private
 * links plus shared trunks, so events hit a mix of single-flow fast paths,
 * cluster-local components, and trunk-coupled global recomputes.
 */
std::vector<Link *>
buildLinks(Topology &topo)
{
    std::vector<Link *> links;
    for (int c = 0; c < 3; ++c) {
        for (int i = 0; i < 3; ++i) {
            links.push_back(&topo.addLink(
                "c" + std::to_string(c) + ".l" + std::to_string(i),
                40.0 + 25.0 * i));
        }
    }
    links.push_back(&topo.addLink("trunk0", 120.0));
    links.push_back(&topo.addLink("trunk1", 90.0));
    return links;
}

TEST(FlowNetworkStress, IncrementalMatchesOracleAfterEveryEvent)
{
    sim::Simulator sim;
    FlowNetwork net(sim);
    Topology topo;
    const std::vector<Link *> links = buildLinks(topo);

    Rng rng(20260728);
    int completed = 0;
    int churn_budget = 220; // Flows started from completion callbacks.
    double requested = 0.0;

    auto random_route = [&]() {
        Route route;
        const int cluster = static_cast<int>(rng.uniformInt(3));
        const int len = 1 + static_cast<int>(rng.uniformInt(3));
        for (int i = 0; i < len; ++i)
            route.push_back(links[cluster * 3 + ((i + rng.uniformInt(2)) % 3)]);
        if (rng.uniform() < 0.4) // Couple clusters through a trunk.
            route.push_back(links[9 + rng.uniformInt(2)]);
        // Dedup: routes are link sets in practice; multiplicity is
        // exercised separately below.
        Route unique;
        for (Link *l : route)
            if (std::find(unique.begin(), unique.end(), l) == unique.end())
                unique.push_back(l);
        return unique;
    };

    std::function<void(int)> launch = [&](int n) {
        for (int i = 0; i < n; ++i) {
            const double bytes = rng.uniform(50.0, 4000.0);
            const double latency =
                rng.uniform() < 0.25 ? rng.uniform(0.01, 2.0) : 0.0;
            requested += bytes;
            net.startFlow(random_route(), bytes,
                          [&]() {
                              ++completed;
                              if (churn_budget > 0) {
                                  --churn_budget;
                                  launch(1);
                              }
                          },
                          latency);
        }
    };

    launch(60);
    expectMatchesOracle(net, links);

    int events = 0;
    while (stepOne(sim)) {
        ++events;
        expectMatchesOracle(net, links);
        ASSERT_LT(events, 200000) << "simulation failed to drain";
    }

    EXPECT_EQ(net.activeFlows(), 0u);
    EXPECT_EQ(completed, 60 + 220);
    // Lazy settlement must still conserve bytes end to end.
    EXPECT_NEAR(net.totalBytesDelivered(), requested, completed * 2.0);
}

/**
 * Longest run of flowRateChanged reports with no link report between them.
 * Every recompute reports its links before its flows, so this is the flow
 * count of the largest recomputed contention component.
 */
class ComponentSizeObserver : public FlowObserver
{
  public:
    void flowRateChanged(FlowId, BytesPerSec, Seconds) override
    {
        largest = std::max(largest, ++run);
    }
    void linkRateChanged(const Link &, BytesPerSec, Seconds) override
    {
        run = 0;
    }

    std::size_t run = 0;
    std::size_t largest = 0;
};

TEST(FlowNetworkStress, TieHeavyScaleoutMatchesOracleAfterEveryEvent)
{
    // Shaped like the scale-out training runs: identical node groups of
    // identical device links behind a shared uplink, ring steps coupling
    // neighbouring groups, and bursts of equal flows released in one
    // instant. Equal fair shares, so exact ties between candidate
    // bottlenecks, are the norm here rather than the exception; the
    // first-touch tie-break must still match the oracle bit for bit
    // through cancellations and capacity changes.
    constexpr int kGroups = 8;
    constexpr int kDevices = 4;
    sim::Simulator sim;
    FlowNetwork net(sim);
    ComponentSizeObserver sizes;
    net.setObserver(&sizes);
    Topology topo;
    std::vector<Link *> all;
    std::vector<std::vector<Link *>> dev(kGroups);
    std::vector<Link *> uplink(kGroups);
    for (int g = 0; g < kGroups; ++g) {
        const std::string group = "g" + std::to_string(g);
        for (int d = 0; d < kDevices; ++d) {
            dev[g].push_back(
                &topo.addLink(group + ".dev" + std::to_string(d), 100.0));
            all.push_back(dev[g].back());
        }
        uplink[g] = &topo.addLink(group + ".up", 250.0);
        all.push_back(uplink[g]);
    }

    Rng rng(20261017);
    std::vector<FlowId> ids;
    int completed = 0;
    auto route_for = [&](int g, int d) -> Route {
        const int h = (g + 1) % kGroups;
        const double pick = rng.uniform();
        if (pick < 0.05) // Duplicate link: two shares on the device.
            return {dev[g][d], uplink[g], dev[g][d]};
        if (pick < 0.5) // Ring step into the next group.
            return {dev[g][d], uplink[g], uplink[h], dev[h][d]};
        return {dev[g][d], uplink[g]};
    };
    // One burst: a flow per device, all starting in the same instant with
    // the same latency; ring steps and local flows each share one size, so
    // completions coincide too.
    auto burst = [&](double latency) {
        for (int g = 0; g < kGroups; ++g) {
            for (int d = 0; d < kDevices; ++d) {
                Route route = route_for(g, d);
                const double bytes = route.size() == 4 ? 800.0 : 400.0;
                ids.push_back(net.startFlow(
                    std::move(route), bytes, [&]() { ++completed; },
                    latency));
            }
        }
    };
    constexpr int kBursts = 12;
    for (int b = 0; b < kBursts; ++b)
        sim.at(1.5 * b, [&burst, b]() { burst(b % 3 == 0 ? 0.0 : 0.25); });

    // Faults mid-run: revoke random flows (latency-phase, bulk or already
    // finished), and degrade then restore a whole group's identical device
    // links together so their shares stay tied.
    int cancelled = 0;
    for (int c = 0; c < 16; ++c) {
        sim.at(0.7 + 1.9 * c, [&]() {
            if (net.cancelFlow(ids[rng.uniformInt(ids.size())]))
                ++cancelled;
        });
    }
    auto degrade = [&](int g, double factor, double at) {
        sim.at(at, [&net, &dev, g, factor]() {
            for (Link *link : dev[g]) {
                link->setCapacityFactor(factor);
                net.linkCapacityChanged(link);
            }
        });
    };
    for (int e = 0; e < 4; ++e) {
        degrade(e * 2, 0.5, 3.0 + 5.0 * e);
        degrade(e * 2, 1.0, 6.0 + 5.0 * e);
    }
    sim.at(9.0, [&]() {
        uplink[5]->setCapacityFactor(0.4);
        net.linkCapacityChanged(uplink[5]);
    });

    std::size_t peak_active = 0;
    int events = 0;
    while (stepOne(sim)) {
        ++events;
        peak_active = std::max(peak_active, net.activeFlows());
        expectMatchesOracle(net, all);
        ASSERT_LT(events, 100000) << "simulation failed to drain";
    }

    EXPECT_EQ(net.activeFlows(), 0u);
    EXPECT_GT(cancelled, 0);
    EXPECT_EQ(completed + cancelled, kBursts * kGroups * kDevices);
    EXPECT_GT(peak_active, 100u);
    EXPECT_GT(sizes.largest, 100u) << "no component of more than 100 flows";
}

TEST(FlowNetworkStress, DuplicateLinkRouteMatchesOracle)
{
    // A route listing the same link twice claims two shares on it; the
    // incremental index must agree with the oracle about that accounting.
    sim::Simulator sim;
    FlowNetwork net(sim);
    Topology topo;
    Link &shared = topo.addLink("shared", 90.0);
    Link &side = topo.addLink("side", 200.0);

    int completed = 0;
    const std::vector<Link *> all = {&shared, &side};
    net.startFlow({&shared, &side, &shared}, 600.0, [&]() { ++completed; });
    net.startFlow({&shared}, 600.0, [&]() { ++completed; });
    expectMatchesOracle(net, all);
    // The oracle is the specification; pin equality after every event.
    while (stepOne(sim))
        expectMatchesOracle(net, all);
    EXPECT_EQ(completed, 2);
}

TEST(FlowNetworkStress, IdleLinkAccruesNoPhantomBytes)
{
    // Regression: a link whose last flow retired must drop its aggregate
    // rate to zero; otherwise the idle gap is accounted at the dead flow's
    // rate when the next flow arrives.
    sim::Simulator sim;
    FlowNetwork net(sim);
    Topology topo;
    Link &link = topo.addLink("l", 100.0);

    net.startFlow({&link}, 100.0, nullptr); // Done at t=1.
    sim.run();
    EXPECT_EQ(net.linkAggregateRate(&link), 0.0);

    bool second_started = false;
    sim.after(4.0, [&]() { // Link sat idle over t=[1,5].
        second_started = true;
        net.startFlow({&link}, 100.0, nullptr);
    });
    sim.run();
    EXPECT_TRUE(second_started);
    EXPECT_NEAR(net.totalBytesDelivered(), 200.0, 2.0);
    EXPECT_NEAR(link.bytesCarried(), 200.0, 2.0); // Not 600.
    EXPECT_NEAR(link.busyIntegral(), 2.0, 1e-9);  // Two busy seconds.
}

TEST(FlowNetworkStress, RepeatedStartStopKeepsIndexesBounded)
{
    // Long churn of short-lived flows: the slot store and heap must recycle
    // rather than grow with the total flow count.
    sim::Simulator sim;
    FlowNetwork net(sim);
    Topology topo;
    Link &a = topo.addLink("a", 100.0);
    Link &b = topo.addLink("b", 100.0);

    int chains_done = 0;
    bool coupler_done = false;
    std::function<void()> chain = [&]() {
        ++chains_done;
        if (chains_done < 3000)
            net.startFlow({&a, &b}, 100.0, chain);
    };
    net.startFlow({&a, &b}, 100.0, chain);
    net.startFlow({&b}, 150000.0,
                  [&]() { coupler_done = true; }); // Long coupler.
    sim.run();
    EXPECT_EQ(chains_done, 3000);
    EXPECT_TRUE(coupler_done);
    expectMatchesOracle(net); // Drained: both empty.
    EXPECT_EQ(net.activeFlows(), 0u);
    // 3001 flows passed through, but never more than two concurrently:
    // storage must reflect the peak, not the total.
    EXPECT_LE(net.slotsAllocated(), 8u);
    EXPECT_LE(net.completionHeapSize(), 128u);
}

} // namespace
} // namespace smartinf::net
