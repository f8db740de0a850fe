#include "sim/availability_process.hpp"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/audit.hpp"
#include "sim/event_queue.hpp"
#include "sim/fingerprint.hpp"
#include "sim/processes.hpp"
#include "sim/trace.hpp"
#include "util/check.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"
#include "util/profile.hpp"
#include "util/random.hpp"

namespace swarmavail::sim {
namespace {

/// Shared bucket shape for the "avail.*" duration histograms: geometric
/// bins covering [1s, 2^20 s) — six decades of busy/idle/download scales.
constexpr double kDurationHistLo = 1.0;
constexpr double kDurationHistHi = 1048576.0;
constexpr std::size_t kDurationHistBins = 20;

/// Per-peer bookkeeping while the peer is in the system. Records live in a
/// flat vector ordered by id (ids are handed out monotonically and erases
/// preserve order), so lookups are a binary search over one or two cache
/// lines instead of a hash probe, and entering/leaving the system never
/// allocates. The old layout — two unordered_maps (peer state plus a
/// separate downloading index) — cost two node allocations per served peer
/// and scattered the per-swarm state across the heap, which dominated the
/// catalog profile where thousands of mostly-idle swarms each touch their
/// state only a few times.
struct PeerState {
    std::uint64_t id = 0;
    SimTime arrival = 0.0;
    double waited = 0.0;      ///< idle time accumulated so far
    SimTime wait_start = 0.0; ///< when the current wait began (if blocked)
    EventId completion = 0;   ///< pending completion event (if downloading)
    bool downloading = false; ///< has a pending completion event
};

/// Fingerprint event kinds, one per event handler of this process. The
/// codes feed serialized digests, so they are stable: append only.
enum FpKind : std::uint32_t {
    kFpPeerArrival = 1,
    kFpCompletion = 2,
    kFpPublisherArrival = 3,
    kFpPublisherDeparture = 4,
    kFpLingerEnd = 5,
    kFpPublisherUp = 6,
    kFpPublisherDown = 7,
};

/// Validates the config before any member construction, so a bad config
/// fails with the simulator's own message rather than a process ctor's.
const AvailabilitySimConfig& validated(const AvailabilitySimConfig& config) {
    config.params.validate();
    require(config.coverage_threshold >= 1,
            "AvailabilitySim: coverage threshold must be >= 1");
    require(config.linger_time >= 0.0, "AvailabilitySim: linger_time must be >= 0");
    require(config.horizon > 0.0, "AvailabilitySim: horizon must be > 0");
    return config;
}

}  // namespace

/// The full simulation state machine for one swarm. Every random draw
/// happens inside this process's event handlers using its private rng_, and
/// every scheduled event belongs to this process, so the sample path is a
/// function of the config alone — co-tenants on a shared queue cannot
/// perturb it (cross-swarm determinism; pinned by the catalog-engine tests
/// against their shared-queue oracle).
struct AvailabilityProcess::Impl {
    Impl(EventQueue& queue, const AvailabilitySimConfig& config)
        : config_(validated(config)),
          rng_(config.seed),
          queue_(queue),
          peer_arrivals_(queue, rng_, config.params.peer_arrival_rate,
                         [this] { on_peer_arrival(); }),
          publisher_arrivals_(queue, rng_, config.params.publisher_arrival_rate,
                              [this] { on_publisher_arrival(); }),
          on_off_(queue, rng_, config.params.publisher_residence,
                  1.0 / config.params.publisher_arrival_rate,
                  [this] { on_publisher_up(); }, [this] { on_publisher_down(); }) {
        if (config_.metrics != nullptr) {
            bind_metrics(*config_.metrics);
        }
#if !defined(SWARMAVAIL_FINGERPRINT_DISABLED)
        if (config_.fingerprint) {
            fingerprint_state_ = Fingerprint{config_.seed};
            fingerprint_ = &fingerprint_state_;
        }
#endif
    }

    void start() {
        SWARMAVAIL_REQUIRE(!started_, "AvailabilityProcess: start() called twice");
        started_ = true;
        peer_arrivals_.start(config_.horizon);
        if (config_.publisher_mode == PublisherMode::kPoissonArrivals) {
            publisher_arrivals_.start(config_.horizon);
        } else {
            on_off_.start(config_.horizon);
        }
    }

    AvailabilitySimResult finish() {
        SWARMAVAIL_REQUIRE(started_ && !finished_,
                           "AvailabilityProcess: finish() requires a started, "
                           "unfinished process");
        finished_ = true;
        if (config_.tracer != nullptr) {
            config_.tracer->flush();
        }
        // Close the final availability and publisher-uptime intervals for
        // the time-averages.
        account_interval(config_.horizon);
        if (publishers_ > 0) {
            publisher_online_seconds_ += config_.horizon - last_publisher_change_;
        }
        AvailabilitySimResult out = result_;
        const double denom = unavailable_seconds_ + available_seconds_;
        out.unavailable_time_fraction = denom > 0.0 ? unavailable_seconds_ / denom : 1.0;
        out.arrival_unavailability =
            out.arrivals > 0
                ? static_cast<double>(arrivals_blocked_) / static_cast<double>(out.arrivals)
                : 0.0;
        out.publisher_online_fraction = publisher_online_seconds_ / config_.horizon;
#if !defined(SWARMAVAIL_FINGERPRINT_DISABLED)
        if (fingerprint_ != nullptr) {
            // Terminal fold: the RNG draw count catches divergences that
            // consumed randomness without changing any visible event.
            fingerprint_->fold(rng_.draws());
            out.fingerprint = fingerprint_->digest();
            out.fingerprint_events = fingerprint_->events();
        }
#endif
        return out;
    }

    using PeerId = std::uint64_t;

    /// Resolves every metric reference once, so event handlers only touch
    /// cached pointers (the registry lookup never runs per event).
    void bind_metrics(MetricsRegistry& m) {
        m_arrivals_ = &m.counter("avail.arrivals");
        m_served_ = &m.counter("avail.served");
        m_lost_ = &m.counter("avail.lost");
        m_stranded_ = &m.counter("avail.stranded");
        m_publisher_up_ = &m.counter("avail.publisher_up");
        m_publisher_down_ = &m.counter("avail.publisher_down");
        const auto hist = [&m](std::string_view name) {
            return &m.histogram(name, kDurationHistLo, kDurationHistHi,
                                kDurationHistBins, HistogramScale::kLog2);
        };
        m_busy_hist_ = hist("avail.busy_period_s");
        m_idle_hist_ = hist("avail.idle_period_s");
        m_download_hist_ = hist("avail.download_time_s");
        m_wait_hist_ = hist("avail.wait_time_s");
        m_pub_up_interval_ = hist("avail.publisher_up_interval_s");
        m_pub_down_interval_ = hist("avail.publisher_down_interval_s");
        m_peers_gauge_ = &m.gauge("avail.peers_in_system");
        m_queue_depth_ = &m.gauge("avail.queue_depth");
    }

    /// Samples the population/queue-depth gauges; called at arrivals and
    /// completions so the gauge statistics form an event-sampled series.
    /// Note queue_depth counts the whole queue: on a shared queue it would
    /// include co-tenant events (one reason the catalog engine leaves
    /// per-swarm metrics unbound).
    void sample_gauges() {
        if (m_peers_gauge_ != nullptr) {
            m_peers_gauge_->set(static_cast<double>(peers_.size()));
            m_queue_depth_->set(static_cast<double>(queue_.size()));
        }
    }

    /// Locates a peer's record by id (binary search: peers_ stays sorted
    /// because ids are handed out monotonically and erases keep order).
    /// Requires the peer to be in the system.
    [[nodiscard]] PeerState& peer_at(PeerId id) {
        const auto it = std::lower_bound(
            peers_.begin(), peers_.end(), id,
            [](const PeerState& peer, PeerId key) { return peer.id < key; });
        ensure(it != peers_.end() && it->id == id,
               "AvailabilitySim: lookup of a peer not in the system");
        return *it;
    }

    [[nodiscard]] std::size_t coverage() const noexcept {
        return downloading_count_ + lingering_;
    }

    void account_interval(SimTime now) {
        const double span = now - interval_start_;
        if (span > 0.0) {
            (available_ ? available_seconds_ : unavailable_seconds_) += span;
        }
        interval_start_ = now;
    }

    void become_available() {
        SWARMAVAIL_PROF_SCOPE("avail.busy_transition");
        account_interval(queue_.now());
        available_ = true;
        SWARMAVAIL_TRACE(config_.tracer, TraceKind::kAvailabilityBegin, queue_.now());
        if (idle_open_) {
            const double idle = queue_.now() - idle_start_;
            result_.idle_periods.add(idle);
            if (m_idle_hist_ != nullptr) {
                m_idle_hist_->add(idle);
            }
            idle_open_ = false;
        }
        busy_start_ = queue_.now();
        busy_open_ = true;
        served_this_busy_ = 0;
        // Blocked (patient) peers immediately begin service.
        for (PeerId id : blocked_) {
            PeerState& peer = peer_at(id);
            peer.waited += queue_.now() - peer.wait_start;
            start_service(peer);
        }
        blocked_.clear();
    }

    void become_unavailable() {
        SWARMAVAIL_PROF_SCOPE("avail.busy_transition");
        account_interval(queue_.now());
        available_ = false;
        if (busy_open_) {
            const double busy = queue_.now() - busy_start_;
            result_.busy_periods.add(busy);
            result_.peers_per_busy_period.add(static_cast<double>(served_this_busy_));
            if (m_busy_hist_ != nullptr) {
                m_busy_hist_->add(busy);
            }
            SWARMAVAIL_TRACE(config_.tracer, TraceKind::kAvailabilityEnd, queue_.now(), 0,
                             busy_start_, static_cast<double>(served_this_busy_));
            busy_open_ = false;
        }
        idle_start_ = queue_.now();
        idle_open_ = true;
        // Downloading peers are interrupted mid-download (the dotted lines of
        // Figure 2): they block until a publisher returns, or leave if
        // impatient. By memorylessness their remaining service on resume is
        // a fresh Exp(s/mu), matching the model's renewal view.
        // Peers are interrupted in ascending id order -- the vector's own
        // order -- which matches the sorted-id order the map-based layout
        // had to reconstruct, so the blocked_ queue (and with it the order
        // service resumes, which consumes RNG draws) is unchanged.
        std::size_t keep = 0;
        for (std::size_t i = 0; i < peers_.size(); ++i) {
            PeerState& peer = peers_[i];
            if (!peer.downloading) {
                peers_[keep++] = peers_[i];
                continue;
            }
            queue_.cancel(peer.completion);
            peer.downloading = false;
            --downloading_count_;
            ++result_.stranded;
            if (m_stranded_ != nullptr) {
                m_stranded_->add();
            }
            SWARMAVAIL_TRACE(config_.tracer, TraceKind::kPeerStranded, queue_.now(),
                             peer.id);
            if (config_.patient_peers) {
                peer.wait_start = queue_.now();
                blocked_.push_back(peer.id);
                peers_[keep++] = peers_[i];
            } else {
                ++result_.lost;
                if (m_lost_ != nullptr) {
                    m_lost_->add();
                }
                SWARMAVAIL_TRACE(config_.tracer, TraceKind::kPeerLost, queue_.now(),
                                 peer.id);
            }
        }
        peers_.resize(keep);
        // Lingering seeds have nothing to serve once the content is dead;
        // they exit (their coverage contribution ended the moment the
        // threshold was crossed). Bump the epoch so their pending departure
        // events become no-ops.
        lingering_ = 0;
        ++linger_epoch_;
    }

    /// Invoked after any departure/publisher change that can end a busy period.
    void maybe_end_busy_period() {
        if (available_ && publishers_ == 0 && coverage() < config_.coverage_threshold) {
            become_unavailable();
        }
    }

    /// Invariant-audit pass, run after every event handler when
    /// config_.debug_audit is set: peers are conserved across arrivals,
    /// completions and losses; every in-system peer is accounted as either
    /// downloading or blocked; populations are non-negative; and the
    /// busy/idle bookkeeping agrees with the availability flag.
    void audit_state() const {
        if (!config_.debug_audit) {
            return;
        }
        audit::check_peer_conservation(result_.arrivals, result_.served, result_.lost,
                                       peers_.size());
        std::size_t recomputed_downloading = 0;
        for (const PeerState& peer : peers_) {
            recomputed_downloading += peer.downloading ? 1U : 0U;
        }
        SWARMAVAIL_INVARIANT(recomputed_downloading == downloading_count_,
                             "AvailabilitySim: downloading counter diverged from "
                             "the per-peer flags");
        SWARMAVAIL_INVARIANT(downloading_count_ + blocked_.size() == peers_.size(),
                             "AvailabilitySim: peers_ diverged from the union of "
                             "downloading and blocked sets");
        SWARMAVAIL_INVARIANT(
            std::is_sorted(peers_.begin(), peers_.end(),
                           [](const PeerState& a, const PeerState& b) {
                               return a.id < b.id;
                           }),
            "AvailabilitySim: peer records out of id order");
        audit::check_nonnegative_count("publishers",
                                       static_cast<std::int64_t>(publishers_));
        audit::check_nonnegative_count("lingering seeds",
                                       static_cast<std::int64_t>(lingering_));
        SWARMAVAIL_INVARIANT(available_ || downloading_count_ == 0,
                             "AvailabilitySim: peers downloading while content is "
                             "unavailable");
        SWARMAVAIL_INVARIANT(available_ == busy_open_,
                             "AvailabilitySim: availability flag out of sync with the "
                             "open busy period");
        SWARMAVAIL_INVARIANT(!available_ || blocked_.empty(),
                             "AvailabilitySim: blocked peers during an available "
                             "period");
    }

    /// Applies a publisher-count delta in signed arithmetic so the audit
    /// catches an underflow before it wraps the unsigned counter. This is
    /// the single choke point for publisher-count changes, so the 0<->1
    /// crossings observed here are exactly the publisher uptime/downtime
    /// interval boundaries.
    void change_publishers(std::int64_t delta) {
        const std::int64_t updated = static_cast<std::int64_t>(publishers_) + delta;
        if (config_.debug_audit) {
            audit::check_nonnegative_count("publishers", updated);
        }
        const bool was_online = publishers_ > 0;
        publishers_ = static_cast<std::size_t>(updated);
        const bool is_online = publishers_ > 0;
        if (was_online == is_online) {
            return;
        }
        if (is_online) {
            ++result_.publisher_up_transitions;
            if (m_publisher_up_ != nullptr) {
                m_publisher_up_->add();
            }
            SWARMAVAIL_TRACE(config_.tracer, TraceKind::kPublisherUp, queue_.now(),
                             publishers_);
            if (publisher_ever_toggled_ && m_pub_down_interval_ != nullptr) {
                m_pub_down_interval_->add(queue_.now() - last_publisher_change_);
            }
        } else {
            publisher_online_seconds_ += queue_.now() - last_publisher_change_;
            if (m_publisher_down_ != nullptr) {
                m_publisher_down_->add();
            }
            SWARMAVAIL_TRACE(config_.tracer, TraceKind::kPublisherDown, queue_.now(),
                             publishers_);
            if (m_pub_up_interval_ != nullptr) {
                m_pub_up_interval_->add(queue_.now() - last_publisher_change_);
            }
        }
        last_publisher_change_ = queue_.now();
        publisher_ever_toggled_ = true;
    }

    void on_peer_arrival() {
        SWARMAVAIL_FPRINT(fingerprint_, queue_.now(), kFpPeerArrival);
        ++result_.arrivals;
        const PeerId id = next_peer_id_++;
        if (m_arrivals_ != nullptr) {
            m_arrivals_->add();
        }
        SWARMAVAIL_TRACE(config_.tracer, TraceKind::kPeerArrival, queue_.now(), id);
        PeerState peer;
        peer.id = id;
        peer.arrival = queue_.now();
        if (available_) {
            peers_.push_back(peer);
            start_service(peers_.back());
        } else {
            ++arrivals_blocked_;
            if (config_.patient_peers) {
                peer.wait_start = queue_.now();
                peers_.push_back(peer);
                blocked_.push_back(id);
            } else {
                ++result_.lost;
                if (m_lost_ != nullptr) {
                    m_lost_->add();
                }
                SWARMAVAIL_TRACE(config_.tracer, TraceKind::kPeerLost, queue_.now(), id);
            }
        }
        sample_gauges();
        audit_state();
    }

    void start_service(PeerState& peer) {
        const double service = rng_.exponential_mean(config_.params.service_time());
        const PeerId id = peer.id;
        peer.completion =
            queue_.schedule_at(queue_.now() + service, [this, id] { on_completion(id); });
        peer.downloading = true;
        ++downloading_count_;
    }

    void on_completion(PeerId id) {
        SWARMAVAIL_FPRINT(fingerprint_, queue_.now(), kFpCompletion);
        PeerState& record = peer_at(id);
        ensure(record.downloading, "AvailabilitySim: completion for a peer not "
                                   "downloading");
        const PeerState peer = record;
        --downloading_count_;
        peers_.erase(peers_.begin() + (&record - peers_.data()));
        ++result_.served;
        ++served_this_busy_;
        const double elapsed = queue_.now() - peer.arrival;
        result_.download_times.add(elapsed);
        result_.waiting_times.add(peer.waited);
        if (m_served_ != nullptr) {
            m_served_->add();
            m_download_hist_->add(elapsed);
            m_wait_hist_->add(peer.waited);
        }
        SWARMAVAIL_TRACE(config_.tracer, TraceKind::kPeerCompletion, queue_.now(), id,
                         elapsed, peer.waited);
        sample_gauges();
        if (config_.linger_time > 0.0) {
            ++lingering_;
            const double linger = rng_.exponential_mean(config_.linger_time);
            // The epoch guard voids this event if an intervening idle period
            // already flushed all lingering seeds.
            const std::uint64_t epoch = linger_epoch_;
            queue_.schedule_at(queue_.now() + linger, [this, epoch] {
                SWARMAVAIL_FPRINT(fingerprint_, queue_.now(), kFpLingerEnd);
                if (epoch == linger_epoch_ && lingering_ > 0) {
                    --lingering_;
                    maybe_end_busy_period();
                    audit_state();
                }
            });
        }
        maybe_end_busy_period();
        audit_state();
    }

    void on_publisher_arrival() {
        SWARMAVAIL_FPRINT(fingerprint_, queue_.now(), kFpPublisherArrival);
        change_publishers(+1);
        const double stay = rng_.exponential_mean(config_.params.publisher_residence);
        queue_.schedule_at(queue_.now() + stay, [this] {
            SWARMAVAIL_FPRINT(fingerprint_, queue_.now(), kFpPublisherDeparture);
            change_publishers(-1);
            maybe_end_busy_period();
            audit_state();
        });
        if (!available_) {
            become_available();
        }
        audit_state();
    }

    void on_publisher_up() {
        SWARMAVAIL_FPRINT(fingerprint_, queue_.now(), kFpPublisherUp);
        change_publishers(+1);
        if (!available_) {
            become_available();
        }
        audit_state();
    }

    void on_publisher_down() {
        SWARMAVAIL_FPRINT(fingerprint_, queue_.now(), kFpPublisherDown);
        change_publishers(-1);
        maybe_end_busy_period();
        audit_state();
    }

    // Declaration order doubles as cache layout: a catalog run touches
    // thousands of mostly-idle swarms, so most events land on a cold Impl.
    // The fields an event handler always touches — config, rng, queue, the
    // population scalars and flags — are packed up front, the
    // per-event-type process objects follow, and the result accumulator
    // plus the metric pointers (null in benchmarks, resolved once in
    // bind_metrics) trail at the end.
    AvailabilitySimConfig config_;
    Rng rng_;
    EventQueue& queue_;
#if !defined(SWARMAVAIL_FINGERPRINT_DISABLED)
    // Touched once per event handler, so it rides with the hot scalars.
    Fingerprint fingerprint_state_;
    Fingerprint* fingerprint_ = nullptr;  ///< &fingerprint_state_ when enabled
#endif

    std::size_t downloading_count_ = 0;
    std::size_t lingering_ = 0;
    std::uint64_t linger_epoch_ = 0;
    std::size_t publishers_ = 0;
    PeerId next_peer_id_ = 1;

    bool started_ = false;
    bool finished_ = false;
    bool available_ = false;
    bool busy_open_ = false;
    bool idle_open_ = false;
    bool publisher_ever_toggled_ = false;
    SimTime busy_start_ = 0.0;
    SimTime idle_start_ = 0.0;
    std::uint64_t served_this_busy_ = 0;
    std::uint64_t arrivals_blocked_ = 0;

    SimTime interval_start_ = 0.0;
    double available_seconds_ = 0.0;
    double unavailable_seconds_ = 0.0;

    SimTime last_publisher_change_ = 0.0;
    double publisher_online_seconds_ = 0.0;

    /// In-system peers ordered by id; see the PeerState comment for why
    /// this is a flat vector rather than a map.
    std::vector<PeerState> peers_;
    std::vector<PeerId> blocked_;

    PoissonProcess peer_arrivals_;
    PoissonProcess publisher_arrivals_;
    OnOffProcess on_off_;
    AvailabilitySimResult result_;

    // Cached metric references (null when config_.metrics is null); see
    // bind_metrics. Either all are bound or none.
    Counter* m_arrivals_ = nullptr;
    Counter* m_served_ = nullptr;
    Counter* m_lost_ = nullptr;
    Counter* m_stranded_ = nullptr;
    Counter* m_publisher_up_ = nullptr;
    Counter* m_publisher_down_ = nullptr;
    HistogramMetric* m_busy_hist_ = nullptr;
    HistogramMetric* m_idle_hist_ = nullptr;
    HistogramMetric* m_download_hist_ = nullptr;
    HistogramMetric* m_wait_hist_ = nullptr;
    HistogramMetric* m_pub_up_interval_ = nullptr;
    HistogramMetric* m_pub_down_interval_ = nullptr;
    Gauge* m_peers_gauge_ = nullptr;
    Gauge* m_queue_depth_ = nullptr;
};

AvailabilityProcess::AvailabilityProcess(EventQueue& queue,
                                         const AvailabilitySimConfig& config)
    : impl_(std::make_unique<Impl>(queue, config)) {}

AvailabilityProcess::~AvailabilityProcess() = default;
AvailabilityProcess::AvailabilityProcess(AvailabilityProcess&&) noexcept = default;
AvailabilityProcess& AvailabilityProcess::operator=(AvailabilityProcess&&) noexcept =
    default;

void AvailabilityProcess::start() { impl_->start(); }

AvailabilitySimResult AvailabilityProcess::finish() { return impl_->finish(); }

const AvailabilitySimConfig& AvailabilityProcess::config() const noexcept {
    return impl_->config_;
}

std::uint64_t AvailabilityProcess::fingerprint_digest() const noexcept {
#if !defined(SWARMAVAIL_FINGERPRINT_DISABLED)
    if (impl_->fingerprint_ != nullptr) {
        return impl_->fingerprint_->digest();
    }
#endif
    return 0;
}

}  // namespace swarmavail::sim
