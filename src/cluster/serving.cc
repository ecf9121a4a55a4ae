#include "cluster/serving.hh"

#include <algorithm>
#include <cmath>
#include <deque>
#include <functional>
#include <utility>
#include <vector>

#include "cluster/frame.hh"
#include "cluster/worker.hh"
#include "metrics/metrics.hh"
#include "sim/logging.hh"
#include "trace/request_trace.hh"
#include "trace/trace.hh"

namespace cereal {
namespace cluster {

namespace {

Tick
secondsToTicks(double s)
{
    return static_cast<Tick>(
        std::ceil(s * static_cast<double>(kTicksPerSecond)));
}

/** Admission/flow state of one node's front end. */
struct NodeCtl
{
    /** Admitted requests waiting for the serializer (request idx). */
    std::deque<std::uint32_t> pend;
    /** One serialize job at a time sits in the shared worker FIFO. */
    bool serInWorker = false;
    /** Credit-stalled encoded-but-unsent requests, per destination. */
    std::vector<std::deque<std::uint32_t>> stalled;
    std::uint64_t stalledCount = 0;
    /** Admitted but not yet handed to the fabric. */
    std::uint64_t occupancy = 0;
    /** Admission/credit time series (enabled when observing). */
    metrics::Group metrics;
};

} // namespace

const char *
admissionPolicyName(AdmissionPolicy p)
{
    switch (p) {
      case AdmissionPolicy::None:
        return "none";
      case AdmissionPolicy::Drop:
        return "drop";
      case AdmissionPolicy::ShedByClass:
        return "shed";
      case AdmissionPolicy::RejectEarly:
        return "reject";
    }
    panic("bad admission policy");
}

ServingFrontendResult
runServingFrontend(const ClusterSim &sim, const ServingConfig &cfg)
{
    const ClusterConfig &cc = sim.config();
    const unsigned n = cc.nodes;
    const BackendCostModel &cost = sim.costModel();
    const NodeProfile &prof = cost.profile();

    panic_if(cfg.utilization <= 0, "serving utilization must be > 0");
    panic_if(cfg.requestsPerNode == 0 || cfg.requestsPerNode > 0xffff,
             "requests per node out of range");
    panic_if(cfg.warmupFraction < 0 || cfg.warmupFraction >= 1,
             "warm-up fraction must be in [0, 1)");
    panic_if(cfg.admission.policy != AdmissionPolicy::None &&
                 cfg.admission.queueBound == 0,
             "admission control needs a positive queue bound");
    panic_if(cfg.fixedDst >= static_cast<int>(n),
             "fixed destination out of range");

    const Tick ser = secondsToTicks(cost.serializeSeconds());
    // The receive side deserializes and then computes on the result;
    // zero-copy backends profile the consume leg on their wire views.
    const Tick deser = secondsToTicks(cost.receiveSeconds());
    // Decode share of the receive job; the remainder is consume.
    // ceil is monotone, so deserOnly <= deser always holds.
    const Tick deserOnly = secondsToTicks(cost.deserializeSeconds());
    const double lambda = cfg.utilization * sim.nodeCapacityRps();

    load::LoadGenConfig lg;
    lg.nodes = n;
    lg.lambdaBase = lambda;
    lg.requestsPerNode = cfg.requestsPerNode;
    lg.clientsPerNode = cfg.clientsPerNode;
    lg.shape = cfg.shape;
    lg.seed = cc.seed;
    load::LoadGenerator gen(lg);

    const double horizon = gen.horizonSeconds();
    const double warmup = cfg.warmupFraction * horizon;
    const load::ShapeComponent *flash = cfg.shape.flashComponent();
    const double flashStart = flash ? flash->start * horizon : 0;
    const double flashEnd =
        flash ? (flash->start + flash->duration) * horizon : 0;

    const std::uint64_t rpn = cfg.requestsPerNode;
    const std::uint64_t total = static_cast<std::uint64_t>(n) * rpn;

    EventQueue eq;
    const auto em = trace::current();
    std::vector<Worker> workers(n);
    std::vector<NodeCtl> ctl(n);
    CreditManager credits(n, cfg.flow);
    for (std::uint32_t i = 0; i < n; ++i) {
        workers[i].eq = &eq;
        ctl[i].stalled.resize(n);
        workers[i].initMetrics(i);
        ctl[i].metrics = metrics::Group(
            metrics::current(), "serving.n" + std::to_string(i));
        if (ctl[i].metrics.enabled()) {
            NodeCtl *c = &ctl[i];
            ctl[i].metrics.gauge(
                "admission_occupancy",
                "requests admitted but not yet on the wire",
                [c] { return static_cast<double>(c->occupancy); });
            ctl[i].metrics.gauge(
                "stalled_frames",
                "encoded frames parked awaiting credits",
                [c] { return static_cast<double>(c->stalledCount); });
            ctl[i].metrics.gauge(
                "credits_avail",
                "send credits available across peers",
                [&credits, i, n] {
                    double sum = 0;
                    for (std::uint32_t d = 0; d < n; ++d) {
                        if (d != i) {
                            sum += credits.available(i, d);
                        }
                    }
                    return sum;
                });
        }
        if (em.enabled()) {
            workers[i].trace =
                em.sub(("node" + std::to_string(i)).c_str());
        }
    }

    // Per-request state, indexed origin * rpn + k.
    std::vector<Tick> arrivalTick(total, 0);
    std::vector<double> arrivalSec(total, 0);
    std::vector<std::uint32_t> reqDst(total, 0);
    std::vector<std::uint8_t> reqCls(total, 0);

    // Request tracing: trace id = idx + 1 (ids are nonzero), with the
    // causal stamps of sampled requests kept per index. Timelines feed
    // the *reported* RequestTraceReport, so the layer runs whether or
    // not a trace sink is attached.
    trace::RequestTraceRecorder reqTrace(cfg.reqTrace);
    const auto traceIdOf = [](std::uint32_t idx) {
        return static_cast<std::uint64_t>(idx) + 1;
    };
    std::vector<Tick> serStartT(total, 0);
    std::vector<Tick> serEndT(total, 0);
    std::vector<Tick> sendT(total, 0);
    std::vector<Tick> deliverT(total, 0);

    ServingFrontendResult out;
    stats::Distribution latency;
    latency.reserve(total);
    Tick last_done = 0;
    Tick last_flash_done = 0;

    const auto wireId = [rpn](std::uint32_t idx) {
        return static_cast<std::uint32_t>(idx / rpn) * 0x10000u +
               static_cast<std::uint32_t>(idx % rpn);
    };

    // Encode the frame shared by the immediate and unparked send
    // paths; sampled requests carry their trace context on the wire
    // (16 extra bytes — tracing overhead is modeled, not free). The
    // payload is borrowed from the profile, which outlives the run.
    const auto makeFrame = [&](std::uint32_t src, std::uint32_t dst,
                               std::uint32_t idx) {
        FrameRef f;
        f.format = backendFormatId(cc.backend);
        f.flags = prof.compressed ? kFrameFlagCompressed : 0;
        f.srcNode = src;
        f.dstNode = dst;
        f.partition = wireId(idx);
        if (reqTrace.sampled(traceIdOf(idx))) {
            f.flags |= kFrameFlagTraced;
            f.traceId = traceIdOf(idx);
            f.spanId = reqCls[idx];
        }
        f.payload = prof.payload.data();
        f.payloadLen = prof.payload.size();
        return encodeWireFrame(f, sim.payloadChecksum());
    };
    const auto reqEm = em.enabled() ? em.sub("requests")
                                    : trace::TraceEmitter();

    // Each request's steps (admission, serialize completion, receive
    // completion) are named handlers. The events and worker jobs that
    // run them capture only a reference to the handler and the
    // request's indices, so they fit EventCallback's inline buffer and
    // do not allocate per request. The receive handler is declared
    // ahead of the fabric, whose delivery enqueues it, and assigned
    // after it.
    std::function<void(std::uint32_t idx, std::uint32_t src,
                       std::uint32_t dst)>
        deserDone;

    Fabric fabric(eq, n, cc.net,
                  [&](std::uint32_t dst, const WireFrame &frame) {
        auto res = tryDecodeFrameInfo(frame);
        panic_if(!res.ok(), "fabric delivered a corrupt frame: %s",
                 res.error().what());
        const FrameInfo &info = res.value();
        panic_if(info.checksum != sim.payloadChecksum() ||
                     info.payloadLen != prof.payload.size(),
                 "fabric delivered a corrupt frame (payload digest"
                 " mismatch on request %u)", info.partition);
        const std::uint32_t idx =
            (info.partition >> 16) * static_cast<std::uint32_t>(rpn) +
            (info.partition & 0xffffu);
        const std::uint32_t src = info.srcNode;
        // Context propagation check: a traced frame must carry exactly
        // the trace id its request was assigned at the origin.
        panic_if(info.hasTrace() && info.traceId != traceIdOf(idx),
                 "frame for request %u arrived with foreign trace id"
                 " %llu", idx, (unsigned long long)info.traceId);
        panic_if(info.hasTrace() != reqTrace.sampled(traceIdOf(idx)),
                 "trace sampling decision changed in flight for"
                 " request %u", idx);
        deliverT[idx] = eq.now();
        workers[dst].enqueue(deser, "deser", [&deserDone, idx, src, dst] {
            deserDone(idx, src, dst);
        });
        out.maxWorkerQueue = std::max(
            out.maxWorkerQueue,
            static_cast<std::uint64_t>(workers[dst].q.size()));
    });
    fabric.setTrace(em.sub("fabric"));

    deserDone = [&](std::uint32_t idx, std::uint32_t src,
                    std::uint32_t dst) {
        const double arr = arrivalSec[idx];
        if (arr >= warmup) {
            latency.sample(ticksToSeconds(eq.now() - arrivalTick[idx]),
                           traceIdOf(idx));
        }
        ++out.completed;
        reqTrace.countRequest();
        if (reqTrace.sampled(traceIdOf(idx))) {
            trace::RequestTimeline t;
            t.traceId = traceIdOf(idx);
            t.origin = src;
            t.dst = dst;
            t.cls = reqCls[idx];
            t.arrival = arrivalTick[idx];
            t.serStart = serStartT[idx];
            t.serEnd = serEndT[idx];
            t.send = sendT[idx];
            t.deliver = deliverT[idx];
            t.deserStart = eq.now() - deser;
            t.done = eq.now();
            t.deserTicks = deserOnly;
            reqTrace.record(t);
            if (reqEm.enabled()) {
                Tick seg[trace::kSegmentCount];
                t.segments(seg);
                Tick at = t.arrival;
                for (unsigned s = 0; s < trace::kSegmentCount; ++s) {
                    if (seg[s] > 0) {
                        reqEm.span(trace::segmentName(
                                       static_cast<trace::Segment>(s)),
                                   at, at + seg[s]);
                    }
                    at += seg[s];
                }
            }
        }
        last_done = eq.now();
        if (flash && arr >= flashStart && arr < flashEnd) {
            last_flash_done = eq.now();
        }
        if (cfg.flow.enabled) {
            // The frame is consumed: its credit travels back to
            // the sender (one propagation delay).
            eq.scheduleIn(fabric.propagationTicks(), [&, src, dst] {
                credits.refund(src, dst);
                NodeCtl &c = ctl[src];
                auto &q = c.stalled[dst];
                while (!q.empty() &&
                       credits.tryConsume(src, dst)) {
                    const std::uint32_t sidx = q.front();
                    q.pop_front();
                    --c.stalledCount;
                    --c.occupancy;
                    c.metrics.tick(eq.now());
                    // Unpark: the credit-stall span of sidx ends
                    // here — send > serEnd by exactly the parked
                    // interval.
                    sendT[sidx] = eq.now();
                    fabric.send(src, dst, makeFrame(src, dst, sidx));
                }
            });
        }
    };

    // Serialize completion of request idx: send it, or park it until
    // a credit returns, then feed the worker the next one.
    std::function<void(std::uint32_t)> feedWorker;
    const auto serDone = [&](std::uint32_t origin, std::uint32_t idx) {
        NodeCtl &cn = ctl[origin];
        cn.serInWorker = false;
        // The worker is non-preemptive: this job's service started
        // exactly `ser` ticks before its completion fires.
        serStartT[idx] = eq.now() - ser;
        serEndT[idx] = eq.now();
        const std::uint32_t dst = reqDst[idx];
        if (credits.tryConsume(origin, dst)) {
            sendT[idx] = eq.now();
            fabric.send(origin, dst, makeFrame(origin, dst, idx));
            --cn.occupancy;
        } else {
            cn.stalled[dst].push_back(idx);
            ++cn.stalledCount;
            out.maxStalledFrames =
                std::max(out.maxStalledFrames, cn.stalledCount);
        }
        cn.metrics.tick(eq.now());
        feedWorker(origin);
    };
    // Hand the worker one serialize job at a time, so waiting requests
    // stay in the admission queue where shed-by-class can still reach
    // them (the worker FIFO itself only ever holds work in progress).
    feedWorker = [&](std::uint32_t origin) {
        NodeCtl &c = ctl[origin];
        if (c.serInWorker || c.pend.empty()) {
            return;
        }
        c.serInWorker = true;
        const std::uint32_t idx = c.pend.front();
        c.pend.pop_front();
        workers[origin].enqueue(ser, "ser", [&serDone, origin, idx] {
            serDone(origin, idx);
        });
        out.maxWorkerQueue = std::max(
            out.maxWorkerQueue,
            static_cast<std::uint64_t>(workers[origin].q.size()));
    };

    // Admission of request idx at its arrival.
    const auto onArrival = [&](std::uint32_t origin, std::uint32_t idx) {
        NodeCtl &c = ctl[origin];
        const AdmissionConfig &adm = cfg.admission;
        bool admit = true;
        switch (adm.policy) {
          case AdmissionPolicy::None:
            break;
          case AdmissionPolicy::Drop:
            if (c.occupancy >= adm.queueBound) {
                admit = false;
                ++out.dropped;
            }
            break;
          case AdmissionPolicy::ShedByClass:
            if (c.occupancy >= adm.queueBound) {
                // Evict the newest waiting request of a worse
                // class; with no worse victim the newcomer is
                // the lowest-value work and tail-drops.
                auto victim = c.pend.rend();
                for (auto it = c.pend.rbegin();
                     it != c.pend.rend(); ++it) {
                    if (reqCls[*it] > reqCls[idx]) {
                        victim = it;
                        break;
                    }
                }
                if (victim == c.pend.rend()) {
                    admit = false;
                    ++out.dropped;
                } else {
                    c.pend.erase(std::next(victim).base());
                    --c.occupancy;
                    ++out.shed;
                }
            }
            break;
          case AdmissionPolicy::RejectEarly: {
            const double est_wait =
                static_cast<double>(c.occupancy) *
                cost.serializeSeconds();
            const double budget = adm.rejectBudgetFactor *
                static_cast<double>(adm.queueBound) *
                cost.serializeSeconds();
            if (est_wait > budget) {
                admit = false;
                ++out.rejected;
            }
            break;
          }
        }
        if (!admit) {
            c.metrics.tick(eq.now());
            return;
        }
        ++out.admitted;
        c.pend.push_back(idx);
        ++c.occupancy;
        out.maxAdmissionOccupancy = std::max(
            out.maxAdmissionOccupancy, c.occupancy);
        c.metrics.tick(eq.now());
        feedWorker(origin);
    };

    // Draw every node's shaped arrival stream and schedule admission.
    eq.reserve(total + 16);
    for (std::uint32_t origin = 0; origin < n; ++origin) {
        const auto arrivals = gen.arrivalsFor(origin);
        for (std::uint64_t k = 0; k < rpn; ++k) {
            const load::Arrival &a = arrivals[k];
            const std::uint32_t idx = static_cast<std::uint32_t>(
                origin * rpn + k);
            arrivalSec[idx] = a.t;
            arrivalTick[idx] = secondsToTicks(a.t);
            reqDst[idx] = (cfg.fixedDst >= 0 &&
                           origin != static_cast<std::uint32_t>(
                                         cfg.fixedDst))
                ? static_cast<std::uint32_t>(cfg.fixedDst)
                : a.dst;
            reqCls[idx] = a.cls;
            eq.schedule(arrivalTick[idx], [&onArrival, origin, idx] {
                onArrival(origin, idx);
            });
        }
    }

    eq.runAll();

    out.offeredRps = lambda * static_cast<double>(n);
    out.requests = total;
    out.durationSeconds = ticksToSeconds(last_done);
    out.goodputRps = out.durationSeconds > 0
        ? static_cast<double>(out.completed) / out.durationSeconds
        : 0;
    out.dropRate = total > 0
        ? static_cast<double>(total - out.completed) /
              static_cast<double>(total)
        : 0;
    out.latency = LatencySummary::of(latency);
    out.recoverSeconds = flash
        ? std::max(0.0, ticksToSeconds(last_flash_done) - flashEnd)
        : 0;
    out.creditsIssued = credits.issued();
    out.creditsReturned = credits.returned();
    out.creditsConserved = credits.issued() == credits.returned() &&
                           credits.allWindowsFull();
    out.reqTrace = std::move(reqTrace).report(latency);
    if (metrics::current() != nullptr) {
        metrics::current()->recordHistogram(
            "serving.latency_seconds",
            "end-to-end request latency, log-bucketed", latency);
    }

    panic_if(out.completed != out.admitted - out.shed,
             "serving front end lost requests (%llu of %llu admitted"
             " finished, %llu shed)",
             (unsigned long long)out.completed,
             (unsigned long long)out.admitted,
             (unsigned long long)out.shed);
    for (const NodeCtl &c : ctl) {
        panic_if(c.occupancy != 0 || c.stalledCount != 0 ||
                     !c.pend.empty(),
                 "serving front end drained with work still queued");
    }
    return out;
}

} // namespace cluster
} // namespace cereal
