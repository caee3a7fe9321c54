#include "sim/network.hh"

#include <algorithm>
#include <bit>
#include <sstream>

#include "common/log.hh"

namespace snoc {

namespace {

/** Call fn(index) for every set bit of a bitset, ascending. */
template <typename Fn>
inline void
forEachBit(const std::vector<std::uint64_t> &bits, Fn &&fn)
{
    for (std::size_t w = 0; w < bits.size(); ++w) {
        std::uint64_t word = bits[w];
        while (word) {
            fn(static_cast<int>(w << 6) + std::countr_zero(word));
            word &= word - 1;
        }
    }
}

} // namespace

Network::Network(const NocTopology &topo, const RouterConfig &router,
                 const LinkConfig &link, RoutingMode mode,
                 std::uint64_t seed, const FaultPlan &faults)
    : topo_(std::make_shared<const NocTopology>(topo)),
      routerCfg_(router), linkCfg_(link)
{
    SNOC_ASSERT(linkCfg_.hopsPerCycle >= 1, "H must be >= 1");
    build(seed, mode, faults);
}

int
Network::linkLatencyFor(int distance) const
{
    int d = std::max(distance, 1);
    return (d + linkCfg_.hopsPerCycle - 1) / linkCfg_.hopsPerCycle;
}

void
Network::build(std::uint64_t seed, RoutingMode mode,
               const FaultPlan &faults)
{
    routing_ = makeRouting(*topo_, mode, seed, faults.active());
    paths_ = std::make_shared<const ShortestPaths>(topo_->routers());

    const Graph &g = topo_->routers();
    routers_.reserve(static_cast<std::size_t>(g.numVertices()));
    for (int r = 0; r < g.numVertices(); ++r) {
        routers_.push_back(std::make_unique<Router>(
            r, routerCfg_, *routing_, *pool_, *counters_));
    }

    // Create one channel pair per directed adjacency entry. Port k of
    // router u pairs with the matching occurrence of u in v's list,
    // which keeps parallel edges consistent.
    // channelTo[u][k]: channel from u along its k-th adjacency entry.
    std::vector<std::vector<FlitChannel *>> channelTo(
        static_cast<std::size_t>(g.numVertices()));
    int maxLatency = 1;
    for (int u = 0; u < g.numVertices(); ++u) {
        const auto &nb = g.neighbors(u);
        channelTo[static_cast<std::size_t>(u)].resize(nb.size());
        for (std::size_t k = 0; k < nb.size(); ++k) {
            int lat = linkLatencyFor(
                topo_->placement().distance(u, nb[k]));
            maxLatency = std::max(maxLatency, lat);
            channels_.push_back(std::make_unique<FlitChannel>(lat));
            channelTo[static_cast<std::size_t>(u)][k] =
                channels_.back().get();
            // Channel u -> nb[k]: its flits wake the downstream
            // router, its returning credits wake the sender.
            chanFlitSink_.push_back(nb[k]);
            chanCreditSink_.push_back(u);
        }
    }
    // Pair directed channels into bidirectional ports.
    for (int u = 0; u < g.numVertices(); ++u) {
        const auto &nbU = g.neighbors(u);
        // occurrence index of v within u's list so far
        std::vector<int> seen(static_cast<std::size_t>(g.numVertices()),
                              0);
        for (std::size_t k = 0; k < nbU.size(); ++k) {
            int v = nbU[k];
            int occ = seen[static_cast<std::size_t>(v)]++;
            // Find the occ-th occurrence of u in v's list.
            const auto &nbV = g.neighbors(v);
            int found = -1;
            int c = 0;
            for (std::size_t k2 = 0; k2 < nbV.size(); ++k2) {
                if (nbV[k2] == u) {
                    if (c == occ) {
                        found = static_cast<int>(k2);
                        break;
                    }
                    ++c;
                }
            }
            SNOC_ASSERT(found >= 0, "asymmetric adjacency");
            FlitChannel *out = channelTo[static_cast<std::size_t>(u)]
                                        [k];
            FlitChannel *in = channelTo[static_cast<std::size_t>(v)]
                                       [static_cast<std::size_t>(found)];
            routers_[static_cast<std::size_t>(u)]->addNetworkPort(
                out, in, v, topo_->placement().distance(u, v));
        }
    }

    // Local ports.
    localSlot_.resize(static_cast<std::size_t>(topo_->numNodes()));
    sourceQueues_.resize(static_cast<std::size_t>(topo_->numNodes()));
    for (int r = 0; r < g.numVertices(); ++r) {
        int first = topo_->firstNodeOfRouter(r);
        for (int i = 0; i < topo_->concentrationOf(r); ++i) {
            routers_[static_cast<std::size_t>(r)]->addLocalPort(
                first + i);
            localSlot_[static_cast<std::size_t>(first + i)] = i;
        }
    }
    for (auto &r : routers_)
        r->finalize(g.numVertices());

    deliveredScratch_.reserve(
        static_cast<std::size_t>(topo_->numNodes()));
    buildWheel(maxLatency);

    if (faults.active())
        armFaults(faults);
}

void
Network::buildWheel(int maxLatency)
{
    const std::size_t numRouters = routers_.size();
    routerWords_ = static_cast<int>((numRouters + 63) / 64);

    // The wheel must cover the farthest-future wake a visit can
    // schedule: flits land at now + latency + (pipelineCycles - 1),
    // credits at now + latency. One extra slot keeps the current
    // cycle's slot (written by the fault resync) alias-free.
    unsigned horizon = static_cast<unsigned>(
        maxLatency + std::max(routerCfg_.pipelineCycles, 1) + 1);
    wheelMask_ = static_cast<Cycle>(std::bit_ceil(horizon)) - 1;

    std::size_t words = static_cast<std::size_t>(routerWords_);
    queued_.assign(words, 0);
    visit_.assign(words, 0);
    wheel_.assign(static_cast<std::size_t>(wheelMask_ + 1) * words, 0);
    srcPending_.assign(
        (static_cast<std::size_t>(topo_->numNodes()) + 63) / 64, 0);
}

void
Network::reservePackets(std::size_t packets)
{
    pool_->reserve(packets);
    if (sourceQueues_.empty())
        return;
    // `packets` bounds the *total* concurrent packets; give each
    // node's queue its share plus burst slack rather than the full
    // total (which would multiply the reservation by the node
    // count). An unusually bursty node grows its ring once — a
    // warmup event, not a steady-state one.
    std::size_t perQueue = packets / sourceQueues_.size() + 16;
    for (auto &q : sourceQueues_)
        q.reserve(perQueue);
}

void
Network::offerPacket(int srcNode, int dstNode, int sizeFlits,
                     MsgClass msgClass, std::uint32_t tag)
{
    SNOC_ASSERT(srcNode >= 0 && srcNode < topo_->numNodes() &&
                    dstNode >= 0 && dstNode < topo_->numNodes(),
                "node out of range");
    SNOC_ASSERT(srcNode != dstNode, "self-addressed packet");
    SNOC_ASSERT(sizeFlits >= 1, "empty packet");
    if (faultsArmed_ &&
        offerBlockedByFaults(topo_->routerOfNode(srcNode),
                             topo_->routerOfNode(dstNode))) {
        // Refused before a pool slot exists: synthesize a transient
        // Packet so the drop callback still sees src/dst/class/tag
        // (the workload layer frees the issuing window slot here).
        if (onDrop_) {
            Packet refused;
            refused.srcNode = srcNode;
            refused.dstNode = dstNode;
            refused.srcRouter = topo_->routerOfNode(srcNode);
            refused.dstRouter = topo_->routerOfNode(dstNode);
            refused.sizeFlits = sizeFlits;
            refused.msgClass = msgClass;
            refused.createdAt = now_;
            refused.tag = tag;
            onDrop_(refused);
        }
        return;
    }
    PacketHandle h = pool_->alloc();
    Packet &pkt = pool_->get(h);
    pkt.id = nextPacketId_++;
    pkt.srcNode = srcNode;
    pkt.dstNode = dstNode;
    pkt.srcRouter = topo_->routerOfNode(srcNode);
    pkt.dstRouter = topo_->routerOfNode(dstNode);
    pkt.sizeFlits = sizeFlits;
    pkt.msgClass = msgClass;
    pkt.createdAt = now_;
    pkt.tag = tag;
    routing_->onInject(pkt, *this);
    sourceQueues_[static_cast<std::size_t>(srcNode)].push_back(h);
    srcPending_[static_cast<std::size_t>(srcNode >> 6)] |=
        std::uint64_t{1} << (srcNode & 63);
}

int
Network::pumpNode(int node, SimCounters &counters)
{
    auto &q = sourceQueues_[static_cast<std::size_t>(node)];
    if (q.empty())
        return 0;
    Router &r = *routers_[static_cast<std::size_t>(
        topo_->routerOfNode(node))];
    int slot = localSlot_[static_cast<std::size_t>(node)];
    int injected = 0;
    // Move whole packets only, keeping flits contiguous.
    while (!q.empty()) {
        Packet &pkt = pool_->get(q.front());
        if (r.injectionSpace(slot) < pkt.sizeFlits)
            break;
        PacketHandle h = q.front();
        q.pop_front();
        pkt.injectedAt = now_;
        for (int f = 0; f < pkt.sizeFlits; ++f) {
            Flit flit;
            flit.pkt = h;
            flit.head = f == 0;
            flit.tail = f == pkt.sizeFlits - 1;
            flit.vc = 0;
            r.injectFlit(slot, flit);
        }
        counters.flitsInjected +=
            static_cast<std::uint64_t>(pkt.sizeFlits);
        ++counters.packetsInjected;
        injected += pkt.sizeFlits;
    }
    return injected;
}

void
Network::pumpInjection()
{
    // forEachBit walks a copy of each word, so clearing drained
    // nodes' bits inside the loop is safe.
    forEachBit(srcPending_, [this](int node) {
        if (pumpNode(node, *counters_) > 0) {
            int r = topo_->routerOfNode(node);
            queued_[static_cast<std::size_t>(r >> 6)] |=
                std::uint64_t{1} << (r & 63);
        }
        if (sourceQueues_[static_cast<std::size_t>(node)].empty())
            srcPending_[static_cast<std::size_t>(node >> 6)] &=
                ~(std::uint64_t{1} << (node & 63));
    });
}

std::size_t
Network::wheelSlot(Cycle at) const
{
    return static_cast<std::size_t>(at & wheelMask_) *
           static_cast<std::size_t>(routerWords_);
}

void
Network::scheduleWake(int router, Cycle at)
{
    // Wakes land in (now, now + slots) from the post-visit rescan;
    // the fault resync may also write the current cycle's slot, which
    // is legal there because it runs before the visit set is read.
    // The wheel is sized so no wake reaches past its horizon (the
    // audit checks that).
    Cycle eff = at > now_ ? at : now_;
    wheel_[wheelSlot(eff) + static_cast<std::size_t>(router >> 6)] |=
        std::uint64_t{1} << (router & 63);
}

void
Network::wakeFronts(const FlitChannel &ch, int flitSink, int creditSink)
{
    if (ch.flitsInFlight() > 0)
        scheduleWake(flitSink, ch.frontFlitArrival());
    if (ch.creditsInFlight() > 0)
        scheduleWake(creditSink, ch.frontCreditArrival());
}

void
Network::wakeAllFronts()
{
    for (std::size_t c = 0; c < channels_.size(); ++c)
        wakeFronts(*channels_[c], chanFlitSink_[c], chanCreditSink_[c]);
}

void
Network::resyncWheel()
{
    std::fill(queued_.begin(), queued_.end(), 0);
    std::fill(wheel_.begin(), wheel_.end(), 0);
    std::fill(srcPending_.begin(), srcPending_.end(), 0);
    for (std::size_t r = 0; r < routers_.size(); ++r)
        if (routers_[r]->bufferedFlits() > 0)
            queued_[r >> 6] |= std::uint64_t{1} << (r & 63);
    for (std::size_t node = 0; node < sourceQueues_.size(); ++node)
        if (!sourceQueues_[node].empty())
            srcPending_[node >> 6] |= std::uint64_t{1} << (node & 63);
    wakeAllFronts();
    wheelValid_ = true;
}

void
Network::step()
{
    // Attach live queue state lazily: Network objects are movable,
    // so the pointer must be taken on the object that actually
    // steps, not on the one build() ran on.
    if (!stateAttached_) {
        routing_->attachState(*this);
        stateAttached_ = true;
    }
    if (faultsArmed_) {
        // A fired event purges buffers, filters source queues and
        // pushes reclaim credits at fresh arrival times.
        std::size_t before = faultCursor_;
        applyPendingFaults();
        if (faultCursor_ != before)
            wheelValid_ = false;
    }
    if (!wheelValid_)
        resyncWheel();
    pumpInjection();

    std::uint64_t *due = wheel_.data() + wheelSlot(now_);
    for (std::size_t w = 0; w < visit_.size(); ++w) {
        visit_[w] = queued_[w] | due[w];
        due[w] = 0;
    }

    lastVisited_ = 0;
    forEachBit(visit_, [this](int r) {
        routers_[static_cast<std::size_t>(r)]->collectArrivals(now_);
        ++lastVisited_;
    });
    forEachBit(visit_, [this](int r) {
        Router &rt = *routers_[static_cast<std::size_t>(r)];
        if (rt.bufferedFlits() > 0)
            rt.step(now_);
    });
    deliveredScratch_.clear();
    forEachBit(visit_, [this](int r) {
        routers_[static_cast<std::size_t>(r)]->drainEjection(
            now_, deliveredScratch_);
    });
    processDelivered();

    // Refresh the queued bits of every visited router and wake each
    // incident channel's sink at its front's exact arrival. Every
    // channel push or pop this cycle came from a visited router, and
    // any older front was scheduled when it became the front, so this
    // keeps the invariant: each in-flight front has a wake parked at
    // exactly its arrival cycle. Waking is idempotent, so once most
    // routers ran, one pass over every channel is cheaper than
    // visiting each channel from both of its endpoints.
    forEachBit(visit_, [this](int r) {
        std::uint64_t rbit = std::uint64_t{1} << (r & 63);
        std::uint64_t &q = queued_[static_cast<std::size_t>(r >> 6)];
        if (routers_[static_cast<std::size_t>(r)]->bufferedFlits() > 0)
            q |= rbit;
        else
            q &= ~rbit;
    });
    if (2 * lastVisited_ >= routers_.size()) {
        wakeAllFronts();
    } else {
        forEachBit(visit_, [this](int r) {
            routers_[static_cast<std::size_t>(r)]->forEachChannel(
                [this](const FlitChannel &ch, int flitSink,
                       int creditSink) {
                    wakeFronts(ch, flitSink, creditSink);
                });
        });
    }
    ++now_;
}

bool
Network::auditWheel(std::string &err) const
{
    std::ostringstream oss;
    auto bitSet = [](const std::uint64_t *bits, std::size_t i) {
        return ((bits[i >> 6] >> (i & 63)) & 1) != 0;
    };
    for (std::size_t r = 0; r < routers_.size(); ++r) {
        bool has = routers_[r]->bufferedFlits() > 0;
        if (bitSet(queued_.data(), r) != has) {
            oss << "wheel: router " << r << " queued bit "
                << !has << " but buffered flits "
                << routers_[r]->bufferedFlits();
            err = oss.str();
            return false;
        }
    }
    for (std::size_t node = 0; node < sourceQueues_.size(); ++node) {
        bool nonEmpty = !sourceQueues_[node].empty();
        if (bitSet(srcPending_.data(), node) != nonEmpty) {
            oss << "wheel: node " << node << " pending bit "
                << !nonEmpty << " but source queue depth "
                << sourceQueues_[node].size();
            err = oss.str();
            return false;
        }
    }
    // At a cycle boundary now_ is the next cycle to run, so every
    // in-flight front lands at or after it and must have its sink's
    // bit in exactly the slot of its arrival cycle.
    auto lostWake = [&](std::size_t c, const char *what, Cycle at,
                        int sink) {
        Cycle eff = std::max(at, now_);
        if (eff - now_ <= wheelMask_ &&
            bitSet(wheel_.data() + wheelSlot(eff),
                   static_cast<std::size_t>(sink)))
            return false;
        oss << "wheel: channel " << c << " in-flight " << what
            << " arriving at cycle " << at << " has no wake for router "
            << sink;
        err = oss.str();
        return true;
    };
    for (std::size_t c = 0; c < channels_.size(); ++c) {
        const FlitChannel &ch = *channels_[c];
        if (ch.flitsInFlight() > 0 &&
            lostWake(c, "flit", ch.frontFlitArrival(), chanFlitSink_[c]))
            return false;
        if (ch.creditsInFlight() > 0 &&
            lostWake(c, "credit", ch.frontCreditArrival(),
                     chanCreditSink_[c]))
            return false;
    }
    return true;
}

void
Network::processDelivered()
{
    for (PacketHandle h : deliveredScratch_) {
        const Packet &pkt = pool_->get(h);
        latency_.add(static_cast<double>(pkt.ejectedAt -
                                         pkt.createdAt));
        netLatency_.add(static_cast<double>(pkt.ejectedAt -
                                            pkt.injectedAt));
        hops_.add(static_cast<double>(pkt.hops));
        winFlits_ += static_cast<std::uint64_t>(pkt.sizeFlits);
        if (onDeliver_)
            onDeliver_(pkt);
        pool_->release(h);
    }
}

std::uint64_t
Network::flitsInFlight() const
{
    std::uint64_t total = 0;
    for (const auto &r : routers_)
        total += static_cast<std::uint64_t>(r->bufferedFlits());
    for (const auto &c : channels_)
        total += c->flitsInFlight();
    return total;
}

std::uint64_t
Network::sourceQueueDepth() const
{
    std::uint64_t total = 0;
    for (const auto &q : sourceQueues_)
        total += q.size();
    return total;
}

void
Network::beginMeasurement()
{
    latency_.reset();
    netLatency_.reset();
    hops_.reset();
    winFlits_ = 0;
}

std::vector<Network::LinkUtilization>
Network::linkUtilization() const
{
    std::vector<LinkUtilization> out;
    double cycles = std::max<double>(1.0, static_cast<double>(now_));
    for (const auto &r : routers_) {
        for (int p = 0; p < r->numNetPorts(); ++p) {
            LinkUtilization lu;
            lu.routerA = r->id();
            lu.routerB = r->portNeighbor(p);
            lu.wireLength =
                topo_->placement().distance(lu.routerA, lu.routerB);
            lu.flitsPerCycle =
                static_cast<double>(r->portFlitsSent(p)) / cycles;
            out.push_back(lu);
        }
    }
    std::sort(out.begin(), out.end(),
              [](const LinkUtilization &a, const LinkUtilization &b) {
                  return a.flitsPerCycle > b.flitsPerCycle;
              });
    return out;
}

int
Network::linkOccupancy(int router, int nextRouter) const
{
    return routers_[static_cast<std::size_t>(router)]
        ->linkOccupancyToward(nextRouter);
}

int
Network::pathOccupancy(int srcRouter, int dstRouter) const
{
    int occ = 0;
    int v = srcRouter;
    while (v != dstRouter) {
        int nh = paths_->nextHop(v, dstRouter);
        occ += linkOccupancy(v, nh);
        v = nh;
    }
    return occ;
}

} // namespace snoc
