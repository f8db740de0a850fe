#include "swarm/swarm_sim.hpp"

#include <algorithm>
#include <memory>

#include "sim/audit.hpp"
#include "sim/event_queue.hpp"
#include "sim/fingerprint.hpp"
#include "sim/processes.hpp"
#include "sim/trace.hpp"
#include "swarm/audit.hpp"
#include "swarm/piece_set.hpp"
#include "util/check.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"
#include "util/profile.hpp"
#include "util/random.hpp"
#include "util/telemetry.hpp"

namespace swarmavail::swarm {
namespace {

using sim::TraceKind;

/// Shared bucket shape for the "swarm.*" duration histograms: geometric
/// bins covering [0.25s, 2^18 s) — from single-piece transfers to the
/// longest blocked-peer download a drain run can produce.
constexpr double kSwarmHistLo = 0.25;
constexpr double kSwarmHistHi = 262144.0;
constexpr std::size_t kSwarmHistBins = 20;

using sim::EventId;
using sim::EventQueue;
using sim::SimTime;

using PeerId = std::uint64_t;
using TransferId = std::uint64_t;

/// Sentinel id for the publisher as a transfer source.
constexpr PeerId kPublisher = 0;

struct Peer {
    PieceSet have;
    PieceSet inflight;      ///< pieces being fetched (bitmap: O(1) probes on
                            ///< the rarest-first scan, no hashing)
    double capacity = 0.0;  ///< upload capacity, bits/s
    std::size_t up_used = 0;
    SimTime arrival = 0.0;
    std::size_t record_index = 0;  ///< this peer's row in result_.peers
    bool seed_only = false;  ///< completed and lingering: uploads, never downloads
    std::vector<PeerId> neighbors{};              ///< visible peers, sorted by id
    std::vector<TransferId> up_transfers{};       ///< transfers it serves
    std::vector<TransferId> down_transfers{};     ///< transfers it receives
};
// Peer::down_used, Peer::dormant_version and the free-uploader flag live
// in a dense per-id side array on SwarmSim instead (hot_): the pump loop
// reads the first two for every leecher on every pass and most visits end
// right there (slots full, or dormant), and source selection probes the
// flag for every holder of the chosen piece. Packing these fields in one
// flat record spares the pointer-chase into the heap-allocated Peer for
// probes that never needed the rest of it.

/// Drops one occurrence of `value` (order-insensitive swap-erase: every
/// consumer of these lists snapshots and sorts before acting on them).
void erase_value(std::vector<TransferId>& values, TransferId value) {
    const auto it = std::find(values.begin(), values.end(), value);
    if (it != values.end()) {
        *it = values.back();
        values.pop_back();
    }
}

/// Neighbor sets are id-sorted vectors: membership is a binary search,
/// iteration order is canonical (the RNG draws in pex_expand index it
/// directly), and an edge costs no node allocation.
[[nodiscard]] bool is_neighbor(const std::vector<PeerId>& neighbors, PeerId id) {
    return std::binary_search(neighbors.begin(), neighbors.end(), id);
}

void add_neighbor(std::vector<PeerId>& neighbors, PeerId id) {
    const auto it = std::lower_bound(neighbors.begin(), neighbors.end(), id);
    if (it == neighbors.end() || *it != id) {
        neighbors.insert(it, id);
    }
}

void remove_neighbor(std::vector<PeerId>& neighbors, PeerId id) {
    const auto it = std::lower_bound(neighbors.begin(), neighbors.end(), id);
    if (it != neighbors.end() && *it == id) {
        neighbors.erase(it);
    }
}

struct Transfer {
    TransferId id = 0;
    PeerId src = 0;
    PeerId dst = 0;
    std::size_t piece = 0;
    EventId event = 0;
};

class SwarmSim {
 public:
    explicit SwarmSim(const SwarmSimConfig& config) : config_(config), rng_(config.seed) {
        require(config_.bundle_size >= 1, "SwarmSim: bundle_size must be >= 1");
        require(config_.file_size > 0.0, "SwarmSim: file_size must be > 0");
        require(config_.pieces_per_file >= 1, "SwarmSim: pieces_per_file must be >= 1");
        require(config_.peer_arrival_rate > 0.0, "SwarmSim: peer arrival rate must be > 0");
        require(config_.peer_capacity != nullptr, "SwarmSim: peer_capacity required");
        require(config_.publisher_capacity > 0.0, "SwarmSim: publisher capacity > 0");
        require(config_.max_upload_slots >= 1, "SwarmSim: max_upload_slots >= 1");
        require(config_.max_download_slots >= 1, "SwarmSim: max_download_slots >= 1");
        require(config_.horizon > 0.0, "SwarmSim: horizon must be > 0");
        require(config_.transfer_jitter >= 0.0 && config_.transfer_jitter < 1.0,
                "SwarmSim: transfer_jitter must lie in [0, 1)");
        if (config_.publisher == PublisherBehavior::kOnOff) {
            require(config_.publisher_on_mean > 0.0 && config_.publisher_off_mean > 0.0,
                    "SwarmSim: on/off publisher requires positive mean durations");
        }
        pieces_total_ = config_.bundle_size * config_.pieces_per_file;
        piece_bits_ = config_.file_size / static_cast<double>(config_.pieces_per_file);
        holders_.assign(pieces_total_, 0);
        holder_list_.assign(pieces_total_, {});
        offered_count_.assign(pieces_total_, 0);
        offered_ = PieceSet{pieces_total_};
        all_pieces_ = PieceSet::complete(pieces_total_);
        queue_.set_audit(config_.debug_audit);
#if !defined(SWARMAVAIL_FINGERPRINT_DISABLED)
        if (config_.fingerprint) {
            fingerprint_state_ = sim::Fingerprint{config_.seed};
            fingerprint_ = &fingerprint_state_;
            queue_.set_fingerprint(fingerprint_);
        }
#endif
        if (config_.metrics != nullptr) {
            bind_metrics(*config_.metrics);
        }
    }

    SwarmSimResult run() {
        // The bundle swarm aggregates the per-file demand: any peer wanting
        // one constituent downloads the whole bundle (Section 4.1).
        const double aggregate_rate =
            config_.peer_arrival_rate * static_cast<double>(config_.bundle_size);
        // Size the peer/transfer containers for the expected population up
        // front instead of growing them mid-run (capped so a pathological
        // config cannot demand an absurd reserve).
        const auto expected_arrivals = std::min<std::size_t>(
            static_cast<std::size_t>(aggregate_rate * config_.horizon) +
                config_.arrival_trace.size() + 16,
            std::size_t{1} << 20U);
        result_.peers.reserve(expected_arrivals);
        result_.completion_times.reserve(expected_arrivals);
        leechers_.reserve(expected_arrivals);
        pump_order_.reserve(expected_arrivals);
        peer_slots_.reserve(expected_arrivals);
        hot_.reserve(expected_arrivals);
        sim::PoissonProcess arrivals{queue_, rng_, aggregate_rate,
                                     [this] { on_peer_arrival(); }};
        std::vector<double> trimmed_trace;
        for (double t : config_.arrival_trace) {
            if (t <= config_.horizon) {
                trimmed_trace.push_back(t);
            }
        }
        sim::TraceArrivalProcess trace_arrivals{queue_, std::move(trimmed_trace),
                                                [this] { on_peer_arrival(); }};
        if (config_.arrival_trace.empty()) {
            arrivals.start(config_.horizon);
        } else {
            trace_arrivals.start();
        }

        const double hard_deadline =
            config_.drain_after_horizon ? config_.horizon * config_.drain_deadline_factor
                                        : config_.horizon;
        sim::OnOffProcess on_off{queue_,
                                 rng_,
                                 config_.publisher_on_mean,
                                 config_.publisher_off_mean,
                                 [this] { set_publisher(true); },
                                 [this] { set_publisher(false); }};
        if (config_.publisher == PublisherBehavior::kOnOff) {
            on_off.start(hard_deadline);
        } else {
            set_publisher(true);  // kAlwaysOn / kLeaveAfterFirstCompletion start on
        }

        double end_time = config_.horizon;
        try {
            if (config_.drain_after_horizon) {
                // Keep running until every outstanding peer finishes (blocked
                // peers keep waiting for the publisher) or the hard deadline:
                // censoring blocked peers at the horizon would bias the
                // download-time statistics of barely-available swarms downward.
                for (;;) {
                    const sim::SimTime next = queue_.next_time();
                    if (next < 0.0 || next > hard_deadline) {
                        break;
                    }
                    if (next > config_.horizon && leechers_.empty()) {
                        break;  // arrivals over and nobody left downloading
                    }
                    queue_.run_next();
                }
                end_time = std::clamp(queue_.now(), config_.horizon, hard_deadline);
            } else {
                queue_.run_until(config_.horizon);
            }
        } catch (const CheckFailure& failure) {
            // Route audit-mode diagnostics through the structured sink with
            // the sim-time attached before the failure propagates.
            sim::trace_check_failure(config_.tracer, queue_.now(), failure);
            throw;
        }

        close_availability_interval(end_time);
        if (config_.tracer != nullptr) {
            config_.tracer->flush();
        }
        SWARMAVAIL_TELEMETRY(config_.telemetry,
                             counters().events_dispatched.fetch_add(
                                 queue_.dispatched(), std::memory_order_relaxed));
#if !defined(SWARMAVAIL_TELEMETRY_DISABLED)
        if (config_.telemetry != nullptr) {
            telemetry::atomic_add(config_.telemetry->counters().sim_time_advanced,
                                  end_time);
        }
#endif
        SwarmSimResult out = std::move(result_);
#if !defined(SWARMAVAIL_FINGERPRINT_DISABLED)
        if (fingerprint_ != nullptr) {
            // Fold the RNG draw count so divergences that consume randomness
            // without producing a visible event still move the digest.
            fingerprint_->fold(rng_.draws());
            out.fingerprint = fingerprint_->digest();
            out.fingerprint_events = fingerprint_->events();
        }
#endif
        out.stuck_at_horizon = 0;
        for (const auto& slot : peer_slots_) {
            if (slot != nullptr && !slot->seed_only) {
                ++out.stuck_at_horizon;
            }
        }
        double covered_time = 0.0;
        for (const auto& interval : out.available_intervals) {
            covered_time += interval.end - interval.begin;
        }
        out.available_fraction = covered_time / end_time;
        std::sort(out.completion_times.begin(), out.completion_times.end());
        return out;
    }

 private:
    // ---- observability ---------------------------------------------------

    /// Resolves every metric reference once, so event handlers only touch
    /// cached pointers (the registry lookup never runs per event).
    void bind_metrics(MetricsRegistry& m) {
        m_arrivals_ = &m.counter("swarm.arrivals");
        m_completions_ = &m.counter("swarm.completions");
        m_transfers_started_ = &m.counter("swarm.transfers_started");
        m_transfers_completed_ = &m.counter("swarm.transfers_completed");
        m_transfers_cancelled_ = &m.counter("swarm.transfers_cancelled");
        m_publisher_up_ = &m.counter("swarm.publisher_up");
        m_publisher_down_ = &m.counter("swarm.publisher_down");
        const auto hist = [&m](std::string_view name) {
            return &m.histogram(name, kSwarmHistLo, kSwarmHistHi, kSwarmHistBins,
                                HistogramScale::kLog2);
        };
        m_download_hist_ = hist("swarm.download_time_s");
        m_transfer_hist_ = hist("swarm.transfer_duration_s");
        m_avail_interval_hist_ = hist("swarm.availability_interval_s");
        m_pub_up_interval_ = hist("swarm.publisher_up_interval_s");
        m_pub_down_interval_ = hist("swarm.publisher_down_interval_s");
        m_leechers_gauge_ = &m.gauge("swarm.leechers");
        m_coverage_gauge_ = &m.gauge("swarm.coverage_fraction");
        m_queue_depth_ = &m.gauge("swarm.queue_depth");
    }

    /// Samples the population/coverage/queue-depth gauges; called at peer
    /// arrivals and transfer completions so the gauge statistics form an
    /// event-sampled series.
    void sample_gauges() {
        if (m_leechers_gauge_ != nullptr) {
            m_leechers_gauge_->set(static_cast<double>(leechers_.size()));
            m_coverage_gauge_->set(static_cast<double>(covered_) /
                                   static_cast<double>(pieces_total_));
            m_queue_depth_->set(static_cast<double>(queue_.size()));
        }
    }

    // ---- peer store -------------------------------------------------------

    /// Resolves a peer id to its record, or nullptr if it departed (or the
    /// id was never handed out). O(1) indexing into the dense slot store.
    [[nodiscard]] Peer* find_peer(PeerId id) noexcept {
        return id < peer_slots_.size() ? peer_slots_[id].get() : nullptr;
    }
    [[nodiscard]] const Peer* find_peer(PeerId id) const noexcept {
        return id < peer_slots_.size() ? peer_slots_[id].get() : nullptr;
    }

    /// Resolves a peer id known to be live (leecher lists, holder lists and
    /// transfer endpoints only ever reference live peers).
    [[nodiscard]] Peer& peer_at(PeerId id) { return *peer_slots_[id]; }

    // ---- coverage bookkeeping -------------------------------------------

    [[nodiscard]] bool piece_covered(std::size_t p) const noexcept {
        return holders_[p] > 0 || publisher_on_;
    }

    void inc_holder(std::size_t p) {
        if (holders_[p] == 0 && !publisher_on_) {
            ++covered_;
        }
        ++holders_[p];
    }

    void dec_holder(std::size_t p) {
        SWARMAVAIL_INVARIANT(holders_[p] > 0, "SwarmSim: holder count underflow");
        --holders_[p];
        if (holders_[p] == 0 && !publisher_on_) {
            --covered_;
        }
    }

    void refresh_coverage_after_publisher_toggle() {
        covered_ = 0;
        for (std::size_t p = 0; p < pieces_total_; ++p) {
            if (piece_covered(p)) {
                ++covered_;
            }
        }
    }

    void update_availability() {
        const bool now_available = covered_ == pieces_total_;
        if (now_available == available_) {
            return;
        }
        if (now_available) {
            available_ = true;
            interval_begin_ = queue_.now();
            SWARMAVAIL_TRACE(config_.tracer, TraceKind::kAvailabilityBegin, queue_.now());
        } else {
            // Close the interval before flipping the flag: the close helper
            // only records while available_ is still true.
            close_availability_interval(queue_.now());
            available_ = false;
        }
    }

    void close_availability_interval(SimTime end) {
        if (available_ && end > interval_begin_) {
            result_.available_intervals.push_back({interval_begin_, end});
            if (m_avail_interval_hist_ != nullptr) {
                m_avail_interval_hist_->add(end - interval_begin_);
            }
            // `a` carries the interval's begin time, so the intervals of
            // result_.available_intervals reconstruct exactly from the
            // kAvailabilityEnd records alone.
            SWARMAVAIL_TRACE(config_.tracer, TraceKind::kAvailabilityEnd, end, 0,
                             interval_begin_);
            interval_begin_ = end;
        }
    }

    // ---- invariant audit -------------------------------------------------

    /// Full-state audit, run after every event handler when
    /// config_.debug_audit is set. Recomputes the piece/holder/offer
    /// bookkeeping from the ground truth (the peers' bitmaps) and verifies
    /// the cached indices, slot budgets, link-capacity allocations, and the
    /// coverage/availability flags against it.
    void audit_state() const {
        if (!config_.debug_audit) {
            return;
        }
        const double per_slot_divisor = static_cast<double>(config_.max_upload_slots);
        SWARMAVAIL_INVARIANT(result_.arrivals == next_peer_id_ - 1,
                             "SwarmSim: arrival counter diverged from handed-out ids");
        std::size_t lingering_seeds = 0;
        std::size_t live_peers = 0;
        std::size_t free_uploaders = 0;
        std::vector<std::uint64_t> recomputed_holders(pieces_total_, 0);
        std::vector<std::uint64_t> recomputed_offers(pieces_total_, 0);
        for (PeerId id = 0; id < peer_slots_.size(); ++id) {
            if (peer_slots_[id] == nullptr) {
                continue;
            }
            const Peer& peer = *peer_slots_[id];
            ++live_peers;
            if (peer.seed_only) {
                ++lingering_seeds;
            }
            audit::check_piece_accounting(peer.have);
            audit::check_slot_budget("peer upload slots", peer.up_used,
                                     config_.max_upload_slots);
            audit::check_slot_budget("peer download slots", hot_[id].down_used,
                                     config_.max_download_slots);
            SWARMAVAIL_INVARIANT(peer.up_used == peer.up_transfers.size(),
                                 "SwarmSim: upload slot counter diverged from the "
                                 "transfer set");
            SWARMAVAIL_INVARIANT(hot_[id].down_used == peer.down_transfers.size(),
                                 "SwarmSim: download slot counter diverged from the "
                                 "transfer set");
            SWARMAVAIL_INVARIANT(peer.inflight.count() == hot_[id].down_used,
                                 "SwarmSim: in-flight piece set diverged from the "
                                 "download slot counter");
            audit::check_capacity_budget(
                static_cast<double>(peer.up_used) * (peer.capacity / per_slot_divisor),
                peer.capacity);
            const bool listed_free = hot_[id].free_uploader != 0;
            if (listed_free) {
                ++free_uploaders;
            }
            SWARMAVAIL_INVARIANT(listed_free ==
                                     (peer.up_used < config_.max_upload_slots),
                                 "SwarmSim: free-uploader index out of sync with slot "
                                 "usage");
            for (std::size_t p = 0; p < pieces_total_; ++p) {
                if (peer.have.has(p)) {
                    ++recomputed_holders[p];
                    if (listed_free) {
                        ++recomputed_offers[p];
                    }
                }
            }
        }
        SWARMAVAIL_INVARIANT(live_peers == live_peers_,
                             "SwarmSim: live-peer counter diverged from the slot "
                             "store");
        SWARMAVAIL_INVARIANT(free_uploaders == free_uploader_count_,
                             "SwarmSim: free-uploader counter diverged from the "
                             "per-peer flags");
        SWARMAVAIL_INVARIANT(leechers_.size() + lingering_seeds == live_peers,
                             "SwarmSim: leecher list and lingering seeds do not "
                             "partition the peer set");
        audit::check_slot_budget("publisher upload slots", publisher_up_used_,
                                 config_.max_upload_slots);
        SWARMAVAIL_INVARIANT(publisher_up_used_ == publisher_up_transfers_.size(),
                             "SwarmSim: publisher slot counter diverged from its "
                             "transfer set");
        audit::check_capacity_budget(static_cast<double>(publisher_up_used_) *
                                         (config_.publisher_capacity / per_slot_divisor),
                                     config_.publisher_capacity);
        std::size_t recomputed_covered = 0;
        for (std::size_t p = 0; p < pieces_total_; ++p) {
            audit::check_holder_consistency(p, holders_[p], recomputed_holders[p]);
            SWARMAVAIL_INVARIANT(holder_list_[p].size() == recomputed_holders[p],
                                 "SwarmSim: holder list length diverged from the "
                                 "holder counter");
            SWARMAVAIL_INVARIANT(offered_count_[p] == recomputed_offers[p],
                                 "SwarmSim: offered-piece counter diverged from the "
                                 "free uploaders' bitmaps");
            SWARMAVAIL_INVARIANT(offered_.has(p) == (recomputed_offers[p] > 0),
                                 "SwarmSim: offered-piece bitmap diverged from the "
                                 "free uploaders' bitmaps");
            if (holders_[p] > 0 || publisher_on_) {
                ++recomputed_covered;
            }
        }
        SWARMAVAIL_INVARIANT(covered_ == recomputed_covered,
                             "SwarmSim: coverage counter diverged from the recomputed "
                             "piece coverage");
        SWARMAVAIL_INVARIANT(available_ == (recomputed_covered == pieces_total_),
                             "SwarmSim: availability flag out of sync with piece "
                             "coverage");
    }

    // ---- event handlers --------------------------------------------------

    void on_peer_arrival() {
        ++result_.arrivals;
        const PeerId id = next_peer_id_++;
        Peer peer{.have = PieceSet{pieces_total_},
                  .inflight = PieceSet{pieces_total_},
                  .capacity = config_.peer_capacity->sample(rng_),
                  .arrival = queue_.now()};
        if (m_arrivals_ != nullptr) {
            m_arrivals_->add();
        }
        SWARMAVAIL_TRACE(config_.tracer, TraceKind::kPeerArrival, queue_.now(), id,
                         peer.capacity);
        result_.peers.push_back({queue_.now(), -1.0, peer.capacity});
        peer.record_index = result_.peers.size() - 1;
        if (peer_slots_.size() <= id) {
            peer_slots_.resize(id + 1);
            hot_.resize(id + 1, PeerHot{UINT64_MAX, 0, 0});
        }
        peer_slots_[id] = std::make_unique<Peer>(std::move(peer));
        ++live_peers_;
        leechers_.push_back(id);
        refresh_uploader_status(id);
        if (config_.max_neighbors > 0) {
            tracker_handout(id);
        }
        pump();
        sample_gauges();
        audit_state();
    }

    void set_publisher(bool on) {
        if (publisher_on_ == on) {
            return;
        }
        publisher_on_ = on;
        if (on) {
            if (m_publisher_up_ != nullptr) {
                m_publisher_up_->add();
                if (publisher_ever_toggled_) {
                    m_pub_down_interval_->add(queue_.now() - last_publisher_change_);
                }
            }
            SWARMAVAIL_TRACE(config_.tracer, TraceKind::kPublisherUp, queue_.now(), 1);
        } else {
            if (m_publisher_down_ != nullptr) {
                m_publisher_down_->add();
                m_pub_up_interval_->add(queue_.now() - last_publisher_change_);
            }
            SWARMAVAIL_TRACE(config_.tracer, TraceKind::kPublisherDown, queue_.now(), 0);
        }
        last_publisher_change_ = queue_.now();
        publisher_ever_toggled_ = true;
        if (!on) {
            // Uploads from the publisher die with it.
            cancel_transfers(publisher_up_transfers_, /*src_left=*/true);
            publisher_up_transfers_.clear();
            publisher_up_used_ = 0;
        }
        refresh_coverage_after_publisher_toggle();
        update_availability();
        if (on) {
            ++offered_gain_version_;  // the publisher offers every piece
            pump();
        }
        audit_state();
    }

    void on_transfer_complete(TransferId tid) {
        SWARMAVAIL_PROF_SCOPE("swarm.piece_transfer");
        const auto it = find_transfer(tid);
        SWARMAVAIL_INVARIANT(it != transfers_.end() && it->id == tid,
                             "SwarmSim: completion for unknown transfer");
        const Transfer transfer = *it;
        transfers_.erase(it);
        if (m_transfers_completed_ != nullptr) {
            m_transfers_completed_->add();
        }
        SWARMAVAIL_TRACE(config_.tracer, TraceKind::kTransferComplete, queue_.now(), tid,
                         static_cast<double>(transfer.piece),
                         static_cast<double>(transfer.dst));

        release_src_slot(tid, transfer);
        Peer& dst = peer_at(transfer.dst);
        erase_value(dst.down_transfers, tid);
        --hot_[transfer.dst].down_used;
        dst.inflight.remove(transfer.piece);

        if (!dst.have.has(transfer.piece)) {
            dst.have.add(transfer.piece);
            inc_holder(transfer.piece);
            holder_list_[transfer.piece].push_back(transfer.dst);
            if (hot_[transfer.dst].free_uploader != 0) {
                if (offered_count_[transfer.piece]++ == 0) {
                    offered_.add(transfer.piece);
                    ++offered_gain_version_;
                }
            }
            update_availability();
        }

        if (dst.have.is_complete() && !dst.seed_only) {
            on_peer_complete(transfer.dst);
        }
        pump();
        sample_gauges();
        audit_state();
    }

    void on_peer_complete(PeerId id) {
        Peer& peer = peer_at(id);
        const double elapsed = queue_.now() - peer.arrival;
        ++result_.completions;
        if (m_completions_ != nullptr) {
            m_completions_->add();
            m_download_hist_->add(elapsed);
        }
        SWARMAVAIL_TRACE(config_.tracer, TraceKind::kPeerCompletion, queue_.now(), id,
                         elapsed);
        result_.download_times.add(elapsed);
        result_.completion_times.push_back(queue_.now());
        result_.last_completion = queue_.now();
        result_.peers[peer.record_index].completion = queue_.now();

        if (config_.publisher == PublisherBehavior::kLeaveAfterFirstCompletion &&
            !publisher_departed_) {
            publisher_departed_ = true;
            set_publisher(false);
        }

        if (config_.peers_linger && config_.linger_mean > 0.0) {
            peer.seed_only = true;
            leechers_.erase(std::remove(leechers_.begin(), leechers_.end(), id),
                            leechers_.end());
            const double stay = rng_.exponential_mean(config_.linger_mean);
            queue_.schedule_at(queue_.now() + stay, [this, id] { remove_peer(id); });
        } else {
            remove_peer(id);
        }
    }

    void remove_peer(PeerId id) {
        Peer* found = find_peer(id);
        if (found == nullptr) {
            return;
        }
        Peer& peer = *found;
        // Cancel transfers in both directions.
        cancel_transfers(peer.up_transfers, /*src_left=*/true);
        cancel_transfers(peer.down_transfers, /*src_left=*/false);
        // Retire its offered pieces while its bitmap is still known.
        if (hot_[id].free_uploader != 0) {
            hot_[id].free_uploader = 0;
            --free_uploader_count_;
            remove_offer(peer.have);
        }
        // Drop its pieces from the coverage map.
        peer.have.for_each_held([&](std::size_t p) {
            dec_holder(p);
            auto& list = holder_list_[p];
            list.erase(std::remove(list.begin(), list.end(), id), list.end());
        });
        for (const PeerId other : peer.neighbors) {
            Peer* other_peer = find_peer(other);
            if (other_peer != nullptr) {
                remove_neighbor(other_peer->neighbors, id);
            }
        }
        leechers_.erase(std::remove(leechers_.begin(), leechers_.end(), id),
                        leechers_.end());
        peer_slots_[id].reset();
        --live_peers_;
        update_availability();
        pump();
        audit_state();
    }

    /// Cancels every transfer in `ids` (a snapshot is taken: cancellation
    /// mutates the sets). `src_left` selects which endpoint is going away.
    void cancel_transfers(const std::vector<TransferId>& ids, bool src_left) {
        cancel_snapshot_.assign(ids.begin(), ids.end());
        // Cancellation frees slots and re-registers uploaders; process in id
        // order so none of that bookkeeping depends on hash layout.
        std::sort(cancel_snapshot_.begin(), cancel_snapshot_.end());
        for (TransferId tid : cancel_snapshot_) {
            const auto it = find_transfer(tid);
            if (it == transfers_.end() || it->id != tid) {
                continue;
            }
            const Transfer transfer = *it;
            queue_.cancel(transfer.event);
            transfers_.erase(it);
            if (m_transfers_cancelled_ != nullptr) {
                m_transfers_cancelled_->add();
            }
            if (src_left) {
                // The receiver keeps nothing but frees its slot.
                Peer* dst = find_peer(transfer.dst);
                if (dst != nullptr) {
                    erase_value(dst->down_transfers, tid);
                    --hot_[transfer.dst].down_used;
                    dst->inflight.remove(transfer.piece);
                }
                if (transfer.src != kPublisher) {
                    Peer* src = find_peer(transfer.src);
                    if (src != nullptr) {
                        erase_value(src->up_transfers, tid);
                    }
                }
            } else {
                release_src_slot(tid, transfer);
                Peer* dst = find_peer(transfer.dst);
                if (dst != nullptr) {
                    erase_value(dst->down_transfers, tid);
                }
            }
        }
    }

    /// Locates a live transfer by id (binary search: transfers_ stays
    /// sorted because ids are handed out monotonically and erases keep
    /// order). Callers check the returned iterator against end() and the
    /// stored id -- a cancelled/completed transfer is simply absent.
    [[nodiscard]] std::vector<Transfer>::iterator find_transfer(TransferId tid) {
        return std::lower_bound(transfers_.begin(), transfers_.end(), tid,
                                [](const Transfer& t, TransferId key) {
                                    return t.id < key;
                                });
    }

    void release_src_slot(TransferId tid, const Transfer& transfer) {
        if (transfer.src == kPublisher) {
            erase_value(publisher_up_transfers_, tid);
            if (publisher_up_used_ > 0) {
                --publisher_up_used_;
            }
        } else {
            Peer* src = find_peer(transfer.src);
            if (src != nullptr) {
                erase_value(src->up_transfers, tid);
                --src->up_used;
                refresh_uploader_status(transfer.src);
            }
        }
    }

    /// Keeps the free-uploader index and the offered-piece counts in sync
    /// with a peer's slot usage.
    void refresh_uploader_status(PeerId id) {
        Peer* peer = find_peer(id);
        if (peer == nullptr) {
            return;  // departed: its flag and offers died with it
        }
        const bool was_free = hot_[id].free_uploader != 0;
        const bool now_free = peer->up_used < config_.max_upload_slots;
        if (was_free == now_free) {
            return;
        }
        hot_[id].free_uploader = now_free ? 1 : 0;
        if (now_free) {
            ++free_uploader_count_;
            add_offer(peer->have);
        } else {
            --free_uploader_count_;
            remove_offer(peer->have);
        }
    }

    /// Adds a free uploader's pieces to the offered set; pieces becoming
    /// newly obtainable bump the version that wakes dormant leechers.
    void add_offer(const PieceSet& have) {
        bool gained = false;
        have.for_each_held([&](std::size_t p) {
            if (offered_count_[p]++ == 0) {
                offered_.add(p);
                gained = true;
            }
        });
        if (gained) {
            ++offered_gain_version_;
        }
    }

    void remove_offer(const PieceSet& have) {
        have.for_each_held([&](std::size_t p) {
            SWARMAVAIL_INVARIANT(offered_count_[p] > 0,
                                 "SwarmSim: offered count underflow");
            if (--offered_count_[p] == 0) {
                offered_.remove(p);
            }
        });
    }

    // ---- transfer scheduling ----------------------------------------------

    /// Greedily starts transfers until no leecher can make progress.
    /// Leechers are visited in random order: freed upload slots (notably the
    /// publisher's) rotate across the swarm like BitTorrent unchokes instead
    /// of being monopolized by the oldest peer, which is what lets a full
    /// copy spread over many peers before the first completion.
    void pump() {
        SWARMAVAIL_PROF_SCOPE("swarm.choke_pump");
        bool progress = true;
        while (progress) {
            progress = false;
            // pump() never re-enters itself (event handlers are not run from
            // inside it), so one scratch vector serves every pass.
            pump_order_.assign(leechers_.begin(), leechers_.end());
            for (std::size_t i = pump_order_.size(); i > 1; --i) {
                std::swap(pump_order_[i - 1], pump_order_[rng_.uniform_index(i)]);
            }
            const bool publisher_free =
                publisher_on_ && publisher_up_used_ < config_.max_upload_slots;
            for (std::size_t j = 0; j < pump_order_.size(); ++j) {
                // The visit order is random, so each hot_ probe is a cold
                // line; warming the next peer's record overlaps that miss
                // with this peer's check.
                if (j + 1 < pump_order_.size()) {
                    __builtin_prefetch(&hot_[pump_order_[j + 1]]);
                }
                const PeerId id = pump_order_[j];
                if (config_.max_neighbors == 0 && !publisher_free &&
                    hot_[id].dormant_version == offered_gain_version_) {
                    continue;  // nothing new offered since its last failure
                }
                while (hot_[id].down_used < config_.max_download_slots &&
                       try_start_transfer(id)) {
                    progress = true;
                }
            }
        }
    }

    /// Tracker bootstrap: a newcomer learns up to max_neighbors random
    /// existing peers; edges are bidirectional (BitTorrent connections are).
    void tracker_handout(PeerId id) {
        SWARMAVAIL_PROF_SCOPE("swarm.tracker");
        std::vector<PeerId>& candidates = tracker_candidates_;
        candidates.clear();
        // The slot store iterates in ascending id order, so the starting
        // permutation the Fisher-Yates pass below consumes is already
        // canonical (the RNG draws map onto the same positions the sorted
        // hash-map snapshot used to produce).
        for (PeerId other = 1; other < peer_slots_.size(); ++other) {
            if (other != id && peer_slots_[other] != nullptr) {
                candidates.push_back(other);
            }
        }
        for (std::size_t i = candidates.size(); i > 1; --i) {
            std::swap(candidates[i - 1], candidates[rng_.uniform_index(i)]);
        }
        Peer& me = peer_at(id);
        // One allocation up front for the view PEX may grow to (the cap in
        // pex_expand), instead of one per doubling.
        me.neighbors.reserve(4 * config_.max_neighbors);
        for (const PeerId other : candidates) {
            if (me.neighbors.size() >= config_.max_neighbors) {
                break;
            }
            add_neighbor(me.neighbors, other);
            add_neighbor(peer_at(other).neighbors, id);
        }
    }

    /// PEX pull: adopt a random neighbor's neighbors, growing the view when
    /// the current one offers no usable source. Returns true if any new
    /// edge was added.
    bool pex_expand(PeerId id) {
        Peer& me = peer_at(id);
        if (me.neighbors.empty()) {
            return false;
        }
        const PeerId via = me.neighbors[rng_.uniform_index(me.neighbors.size())];
        const Peer* via_peer = find_peer(via);
        if (via_peer == nullptr) {
            return false;
        }
        bool added = false;
        // Adoption stops at the view cap, so which candidates make the cut
        // depends on traversal order: ascending id. The loop edits only the
        // lists of `me` and of each candidate, never via_peer's own.
        for (const PeerId candidate : via_peer->neighbors) {
            if (candidate == id || is_neighbor(me.neighbors, candidate)) {
                continue;
            }
            Peer* candidate_peer = find_peer(candidate);
            if (candidate_peer == nullptr) {
                continue;
            }
            add_neighbor(me.neighbors, candidate);
            add_neighbor(candidate_peer->neighbors, id);
            added = true;
            if (me.neighbors.size() >= 4 * config_.max_neighbors) {
                break;
            }
        }
        return added;
    }

    [[nodiscard]] bool has_free_visible_uploader(std::size_t piece, PeerId dst_id,
                                                 const Peer& dst) const {
        for (const PeerId src : holder_list_[piece]) {
            if (src == dst_id || !is_neighbor(dst.neighbors, src)) {
                continue;
            }
            if (hot_[src].free_uploader != 0) {
                return true;
            }
        }
        return false;
    }

    /// Attempts to start one transfer toward `dst`: picks the rarest needed
    /// piece that some free uploader holds, breaking ties uniformly.
    ///
    /// Candidates are enumerated from the free-uploader index rather than by
    /// scanning every piece's holder list: when the publisher has a free
    /// slot every missing piece is obtainable, otherwise only pieces held by
    /// a peer with a free slot qualify. This keeps the hot path O(free
    /// uploaders x pieces) instead of O(pieces x holders).
    bool try_start_transfer(PeerId dst_id) {
        Peer& dst = peer_at(dst_id);
        const bool publisher_free =
            publisher_on_ && publisher_up_used_ < config_.max_upload_slots;
        std::size_t best_piece = pieces_total_;
        std::size_t best_rarity = SIZE_MAX;
        std::size_t ties = 0;
        if (!publisher_free && free_uploader_count_ == 0) {
            hot_[dst_id].dormant_version = offered_gain_version_;
            return false;
        }
        // Candidates are enumerated a word at a time: missing, not in
        // flight, and -- when only free peers can serve (global visibility,
        // no free publisher slot) -- offered by one of them. Pieces that
        // cannot pass the test below are never visited, and the order stays
        // ascending, so the rarest-first choice and the RNG draw sequence
        // are those of a per-piece scan.
        const PieceSet& candidates =
            config_.max_neighbors == 0 && !publisher_free ? offered_ : all_pieces_;
        dst.have.for_each_missing_masked(dst.inflight, candidates, [&](std::size_t p) {
            // A piece is obtainable if the publisher has a free slot (it
            // holds everything) or some free uploader holds it. Note the
            // subtlety: offered_count_ counts the receiver itself if it is a
            // free uploader, but it never lacks its own pieces, so the
            // self-offer can only refer to pieces already skipped above.
            // Under super-seeding the publisher withholds pieces peers
            // already hold, so it only "offers" unheld pieces.
            const bool publisher_offers =
                publisher_free && (!config_.super_seeding || holders_[p] == 0);
            if (config_.max_neighbors == 0) {
                if (!publisher_offers && offered_count_[p] == 0) {
                    return;
                }
            } else {
                // Limited visibility: a peer source must be a free neighbor.
                if (!publisher_offers && !has_free_visible_uploader(p, dst_id, dst)) {
                    return;
                }
            }
            const std::size_t rarity =
                holders_[p] + (publisher_on_ ? std::size_t{1} : std::size_t{0});
            if (rarity > best_rarity) {
                return;
            }
            if (rarity < best_rarity) {
                best_rarity = rarity;
                best_piece = p;
                ties = 1;
            } else {
                // Reservoir tie-break keeps the choice uniform over ties.
                ++ties;
                if (rng_.uniform_index(ties) == 0) {
                    best_piece = p;
                }
            }
        });
        if (best_piece == pieces_total_) {
            if (config_.max_neighbors > 0) {
                // Nothing fetchable in the current view: try to widen it
                // via PEX once; the next pump pass retries.
                (void)pex_expand(dst_id);
            } else if (!publisher_free) {
                hot_[dst_id].dormant_version = offered_gain_version_;
            }
            return false;
        }
        if (start_transfer(best_piece, dst_id)) {
            hot_[dst_id].dormant_version = UINT64_MAX;
            return true;
        }
        return false;
    }

    bool start_transfer(std::size_t piece, PeerId dst_id) {
        // Collect eligible sources: the publisher plus free holders of the
        // piece, chosen uniformly.
        std::vector<PeerId>& sources = source_candidates_;
        sources.clear();
        if (publisher_on_ && publisher_up_used_ < config_.max_upload_slots &&
            (!config_.super_seeding || holders_[piece] == 0)) {
            sources.push_back(kPublisher);
        }
        const Peer& dst_view = peer_at(dst_id);
        for (PeerId src : holder_list_[piece]) {
            if (src == dst_id) {
                continue;
            }
            if (config_.max_neighbors > 0 && !is_neighbor(dst_view.neighbors, src)) {
                continue;
            }
            if (hot_[src].free_uploader != 0) {
                sources.push_back(src);
            }
        }
        if (sources.empty()) {
            return false;
        }
        const PeerId src_id = sources[rng_.uniform_index(sources.size())];
        double capacity = src_id == kPublisher ? config_.publisher_capacity
                                               : peer_at(src_id).capacity;
        if (config_.reciprocity_cap && src_id != kPublisher) {
            capacity = std::min(capacity, dst_view.capacity);
        }
        const double rate = capacity / static_cast<double>(config_.max_upload_slots);
        double duration = piece_bits_ / rate;
        if (config_.transfer_jitter > 0.0) {
            duration *= rng_.uniform(1.0 - config_.transfer_jitter,
                                     1.0 + config_.transfer_jitter);
        }

        const TransferId tid = next_transfer_id_++;
        Peer& dst = peer_at(dst_id);
        ++hot_[dst_id].down_used;
        dst.inflight.add(piece);

        if (m_transfers_started_ != nullptr) {
            m_transfers_started_->add();
            m_transfer_hist_->add(duration);
        }
        SWARMAVAIL_TRACE(config_.tracer, TraceKind::kTransferStart, queue_.now(), tid,
                         static_cast<double>(piece), duration);
        const EventId event = queue_.schedule_at(
            queue_.now() + duration, [this, tid] { on_transfer_complete(tid); });
        transfers_.push_back(Transfer{tid, src_id, dst_id, piece, event});
        dst.down_transfers.push_back(tid);
        if (src_id == kPublisher) {
            ++publisher_up_used_;
            publisher_up_transfers_.push_back(tid);
        } else {
            Peer& src = peer_at(src_id);
            ++src.up_used;
            src.up_transfers.push_back(tid);
            refresh_uploader_status(src_id);
        }
        return true;
    }

    // ---- members -----------------------------------------------------------

    SwarmSimConfig config_;
    Rng rng_;
    EventQueue queue_;
    SwarmSimResult result_;
#if !defined(SWARMAVAIL_FINGERPRINT_DISABLED)
    sim::Fingerprint fingerprint_state_;
    sim::Fingerprint* fingerprint_ = nullptr;  ///< null: fingerprinting off
#endif

    std::size_t pieces_total_ = 0;
    double piece_bits_ = 0.0;

    /// Dense peer store indexed by PeerId (ids are handed out sequentially
    /// from 1; slot 0 is the publisher sentinel and stays empty). A null
    /// slot is a departed or not-yet-arrived peer. Event handlers resolve
    /// peers by direct indexing -- no hash lookup anywhere on the hot path.
    std::vector<std::unique_ptr<Peer>> peer_slots_;
    std::size_t live_peers_ = 0;
    std::vector<PeerId> leechers_;  ///< active downloaders, arrival order
    std::size_t free_uploader_count_ = 0;  ///< peers with hot_[id].free_uploader set
    std::vector<std::uint32_t> offered_count_;   ///< free uploaders holding each piece
    PieceSet offered_{1};       ///< pieces with offered_count_ > 0
    PieceSet all_pieces_{1};    ///< every piece: the scan mask when any piece may do
    std::uint64_t offered_gain_version_ = 0;     ///< bumped when new pieces get offered
    PeerId next_peer_id_ = 1;

    /// Live transfers ordered by id. Ids are handed out monotonically and
    /// erases keep order, so the vector stays sorted: lookups are a binary
    /// search over the (small) set of concurrent transfers instead of a
    /// hash probe, and start/finish never allocate hash nodes.
    std::vector<Transfer> transfers_;
    TransferId next_transfer_id_ = 1;

    /// Dense per-peer-id mirror of the fields the pump pass and source
    /// scans read for every candidate; see the note at struct Peer. Packed
    /// into one 16-byte record so a randomly-ordered visit costs one cache
    /// line, not one per field. Sized in step with peer_slots_; entries of
    /// departed peers are stale but the loops only visit live peers.
    struct PeerHot {
        std::uint64_t dormant_version;  ///< offered_gain_version_ at last failed scan
        std::uint32_t down_used;        ///< busy download slots
        std::uint8_t free_uploader;     ///< nonzero iff online with a free upload slot
    };
    std::vector<PeerHot> hot_;

    bool publisher_on_ = false;
    bool publisher_departed_ = false;
    SimTime last_publisher_change_ = 0.0;
    bool publisher_ever_toggled_ = false;
    std::size_t publisher_up_used_ = 0;
    std::vector<TransferId> publisher_up_transfers_;

    std::vector<std::uint32_t> holders_;            ///< online peer holders per piece
    std::vector<std::vector<PeerId>> holder_list_;  ///< who holds each piece
    std::size_t covered_ = 0;                       ///< pieces with >= 1 source online
    bool available_ = false;
    SimTime interval_begin_ = 0.0;

    // Scratch buffers reused across events (the per-event vector churn
    // showed up in the micro benches). Each has exactly one non-reentrant
    // user: pump passes, source selection, tracker handouts and
    // transfer-cancellation snapshots never nest with themselves.
    std::vector<PeerId> pump_order_;
    std::vector<PeerId> source_candidates_;
    std::vector<PeerId> tracker_candidates_;
    std::vector<TransferId> cancel_snapshot_;

    // Cached metric references (null when config_.metrics is null); see
    // bind_metrics. Either all are bound or none.
    Counter* m_arrivals_ = nullptr;
    Counter* m_completions_ = nullptr;
    Counter* m_transfers_started_ = nullptr;
    Counter* m_transfers_completed_ = nullptr;
    Counter* m_transfers_cancelled_ = nullptr;
    Counter* m_publisher_up_ = nullptr;
    Counter* m_publisher_down_ = nullptr;
    HistogramMetric* m_download_hist_ = nullptr;
    HistogramMetric* m_transfer_hist_ = nullptr;
    HistogramMetric* m_avail_interval_hist_ = nullptr;
    HistogramMetric* m_pub_up_interval_ = nullptr;
    HistogramMetric* m_pub_down_interval_ = nullptr;
    Gauge* m_leechers_gauge_ = nullptr;
    Gauge* m_coverage_gauge_ = nullptr;
    Gauge* m_queue_depth_ = nullptr;
};

}  // namespace

SwarmSimResult run_swarm_sim(const SwarmSimConfig& config) {
    SwarmSim sim{config};
    return sim.run();
}

std::vector<SwarmSimResult> run_swarm_replications(const SwarmSimConfig& config,
                                                   std::size_t runs,
                                                   const sim::ParallelPolicy& policy) {
    require(runs >= 1, "run_swarm_replications: requires runs >= 1");
    // Every replication owns its simulator and RNG and writes only its own
    // slot, so any thread count yields the same per-seed results in the
    // same (seed) order. The same single-owner discipline covers metrics:
    // each replication records into a private registry, and the fold below
    // runs strictly in seed order, so the merged metrics are bit-identical
    // for every thread count too.
    telemetry::RunCounters* counters = nullptr;
#if !defined(SWARMAVAIL_TELEMETRY_DISABLED)
    if (config.telemetry != nullptr) {
        counters = &config.telemetry->counters();
        counters->replications_total.fetch_add(runs, std::memory_order_relaxed);
    }
#endif
    std::vector<SwarmSimResult> results(runs);
    std::vector<MetricsRegistry> registries(config.metrics != nullptr ? runs : 0);
    sim::Parallel::for_index(
        runs, policy,
        [&](std::size_t i) {
            SwarmSimConfig run_config = config;
            run_config.seed = config.seed + i;
            run_config.metrics = registries.empty() ? nullptr : &registries[i];
            run_config.tracer = nullptr;  // tracing is single-run (see config docs)
            results[i] = run_swarm_sim(run_config);
            SWARMAVAIL_TELEMETRY(config.telemetry,
                                 counters().replications_completed.fetch_add(
                                     1, std::memory_order_relaxed));
#if !defined(SWARMAVAIL_FINGERPRINT_DISABLED)
            SWARMAVAIL_TELEMETRY(config.telemetry,
                                 counters().fingerprint_xor.fetch_xor(
                                     results[i].fingerprint,
                                     std::memory_order_relaxed));
#endif
            if (results[i].download_times.count() > 0) {
                SWARMAVAIL_TELEMETRY(config.telemetry,
                                     tracker().observe("swarm.download_time_s",
                                                       results[i].download_times.mean()));
            }
        },
        counters);
    for (const MetricsRegistry& registry : registries) {
        config.metrics->merge(registry);
    }
    return results;
}

}  // namespace swarmavail::swarm
