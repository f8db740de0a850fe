// Request-lifecycle span tracing for the planning service.
//
// The serving path emits one compact POD SpanRecord per request stage —
// accept, frame decode, parse/canonicalize, cache probe, lane queue wait,
// compute, serialize, socket write — into per-thread rings owned by a
// SpanHub (ring 0 = the io thread, ring 1+i = worker i). Rings overwrite
// their oldest records, are merged in index order when drained, and flush
// through pluggable SpanSinks: JSONL (one object per line, lossless
// doubles), an in-memory vector, or /dev/null. A slow-query threshold
// routes the complete span breakdown of an offending request to a second
// sink the moment the request finishes, so the tail is attributable
// without draining anything.
//
// This file is an *observer* (swarmlint Layer::kObserver): it includes no
// service or engine headers — verbs and lanes travel as raw integers, and
// the serving layer maps them back to names. Cost model, by layer:
//   - compile time: SWARMAVAIL_SPANS_DISABLED (CMake:
//     -DSWARMAVAIL_ENABLE_SPANS=OFF, part of the trace-off preset) turns
//     the SWARMAVAIL_SPAN macro into a no-op and the serving layer's
//     guarded regions erase every hub touch; the types stay available.
//   - runtime, spans off (the default): route() dispatches to a
//     span-free instantiation — one branch per request, nothing else.
//   - runtime, spans on: a handful of steady_clock reads per request plus
//     one ring append per stage.
//
// Spans never mutate request handling state: responses are byte-identical
// with spans on or off at any thread count (pinned by tests/serve).
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string_view>
#include <type_traits>
#include <vector>

namespace swarmavail::serve {

/// Request lifecycle stages. Values are stable across runs (they appear in
/// serialized spans); append only.
enum class SpanStage : std::uint16_t {
    kAccept = 0,     ///< connection accepted (point event, t_start == t_end)
    kDecode = 1,     ///< frame decode on the io thread
    kParse = 2,      ///< UTF-8 validation + JSON parse + request parse
    kCache = 3,      ///< canonical key build + single-flight probe (brackets
                     ///< kCompute when this caller owned the computation)
    kQueueWait = 4,  ///< lane enqueue -> worker dequeue
    kCompute = 5,    ///< model/planning/simulation work (cache misses only)
    kSerialize = 6,  ///< response envelope assembly
    kWrite = 7,      ///< frame encode + socket send
};
inline constexpr std::size_t kSpanStageCount = 8;

/// Name used in serialized spans ("accept", "queue_wait", ...).
[[nodiscard]] constexpr const char* span_stage_name(SpanStage stage) noexcept {
    switch (stage) {
        case SpanStage::kAccept: return "accept";
        case SpanStage::kDecode: return "decode";
        case SpanStage::kParse: return "parse";
        case SpanStage::kCache: return "cache";
        case SpanStage::kQueueWait: return "queue_wait";
        case SpanStage::kCompute: return "compute";
        case SpanStage::kSerialize: return "serialize";
        case SpanStage::kWrite: return "write";
    }
    return "unknown";
}

/// Inverse of span_stage_name; returns false for unknown names.
[[nodiscard]] constexpr bool span_stage_from_name(std::string_view name,
                                                  SpanStage& out) noexcept {
    for (std::size_t i = 0; i < kSpanStageCount; ++i) {
        const auto stage = static_cast<SpanStage>(i);
        if (name == span_stage_name(stage)) {
            out = stage;
            return true;
        }
    }
    return false;
}

/// How the single-flight cache answered (kNone for uncached verbs).
enum class SpanCacheOutcome : std::uint32_t {
    kNone = 0,       ///< verb has no cache (PING/STATS) or request failed
    kHit = 1,        ///< completed entry found
    kMiss = 2,       ///< this request owned the computation
    kCoalesced = 3,  ///< joined another request's in-flight computation
};
inline constexpr std::size_t kSpanCacheOutcomeCount = 4;

[[nodiscard]] constexpr const char* span_cache_outcome_name(
    SpanCacheOutcome outcome) noexcept {
    switch (outcome) {
        case SpanCacheOutcome::kNone: return "none";
        case SpanCacheOutcome::kHit: return "hit";
        case SpanCacheOutcome::kMiss: return "miss";
        case SpanCacheOutcome::kCoalesced: return "coalesced";
    }
    return "unknown";
}

[[nodiscard]] constexpr bool span_cache_outcome_from_name(
    std::string_view name, SpanCacheOutcome& out) noexcept {
    for (std::size_t i = 0; i < kSpanCacheOutcomeCount; ++i) {
        const auto outcome = static_cast<SpanCacheOutcome>(i);
        if (name == span_cache_outcome_name(outcome)) {
            out = outcome;
            return true;
        }
    }
    return false;
}

/// One stage of one request. POD on purpose: records are ring-buffered and
/// copied in bulk, and sinks serialize them without touching the heap per
/// record. Verb and lane carry the serving layer's enum values as raw
/// integers so this observer needs no service includes (0 PING, 1 EVAL,
/// 2 PLAN, 3 REFINE, 4 STATS; lane 0 model, 1 sim).
struct SpanRecord {
    std::uint64_t request = 0;     ///< server-assigned monotone request index
    std::uint64_t connection = 0;  ///< accept-order connection id
    double t_start = 0.0;          ///< seconds since the hub's epoch
    double t_end = 0.0;            ///< seconds since the hub's epoch
    std::uint64_t bytes = 0;       ///< stage-specific byte count (0 when n/a)
    std::uint16_t stage = 0;       ///< SpanStage
    std::uint16_t verb = 0;        ///< serving-layer verb value
    std::uint16_t lane = 0;        ///< serving-layer lane value
    std::uint16_t worker = 0;      ///< ring index (0 = io thread, 1+i = worker i)
    std::uint32_t cache = 0;       ///< SpanCacheOutcome
    std::uint32_t reserved = 0;    ///< padding; always zero

    friend bool operator==(const SpanRecord&, const SpanRecord&) = default;
};
static_assert(std::is_trivially_copyable_v<SpanRecord>);
static_assert(sizeof(SpanRecord) == 56);

/// Where drained or slow-query records go. Sinks see records in the order
/// the hub hands them over (ring-index order on drain; whole requests at
/// once on the slow-query path).
class SpanSink {
 public:
    virtual ~SpanSink() = default;
    virtual void write(const SpanRecord* records, std::size_t count) = 0;
    /// Called once when the producer is done (SpanHub::drain / shutdown).
    virtual void finish() {}
};

/// Discards everything; for overhead measurement.
class NullSpanSink final : public SpanSink {
 public:
    void write(const SpanRecord* records, std::size_t count) override;
};

/// Buffers records in memory; for tests and in-process consumers.
class MemorySpanSink final : public SpanSink {
 public:
    void write(const SpanRecord* records, std::size_t count) override;

    [[nodiscard]] const std::vector<SpanRecord>& records() const noexcept {
        return records_;
    }

 private:
    std::vector<SpanRecord> records_;
};

/// One JSON object per line:
///   {"request":3,"conn":1,"stage":"cache","verb":1,"lane":0,"worker":2,
///    "t0":0.000123,"t1":0.000125,"bytes":0,"cache":"hit"}
/// Doubles use the shortest lossless form, so parsing the stream back
/// reproduces every record bit for bit (read_spans_jsonl). The slow-query
/// log is exactly this format, restricted to offending requests.
class JsonlSpanSink final : public SpanSink {
 public:
    /// The stream must outlive the sink; the sink never owns it.
    explicit JsonlSpanSink(std::ostream& os) : os_(os) {}
    void write(const SpanRecord* records, std::size_t count) override;
    void finish() override;

 private:
    std::ostream& os_;
};

/// Parses a JSONL span stream produced by JsonlSpanSink through the
/// strict util/json parser; throws std::invalid_argument ("span line N:
/// ...") on a malformed line, a missing field, an unknown stage or cache
/// outcome, or an integer out of its field's range (verb, lane and worker
/// are 16-bit).
[[nodiscard]] std::vector<SpanRecord> read_spans_jsonl(std::istream& in);

/// Per-request scratch the serving path fills while a request moves
/// through its stages. Inline-only by design: touching it generates no
/// external symbols, so the router needs no preprocessor guards — its
/// call sites vanish through the SWARMAVAIL_SPAN macro alone.
struct RequestSpans {
    std::chrono::steady_clock::time_point epoch{};
    double t0[kSpanStageCount] = {};
    double t1[kSpanStageCount] = {};
    std::uint64_t stage_bytes[kSpanStageCount] = {};
    std::uint32_t seen = 0;  ///< bitmask of finished stages
    std::uint32_t cache = 0; ///< SpanCacheOutcome

    void set_epoch(std::chrono::steady_clock::time_point at) noexcept {
        epoch = at;
    }
    [[nodiscard]] double now() const noexcept {
        return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             epoch)
            .count();
    }
    void begin(SpanStage stage) noexcept {
        t0[static_cast<std::size_t>(stage)] = now();
    }
    void end(SpanStage stage, std::uint64_t bytes = 0) noexcept {
        const auto i = static_cast<std::size_t>(stage);
        t1[i] = now();
        stage_bytes[i] = bytes;
        seen |= 1u << i;
    }
    /// Records a stage whose endpoints were measured elsewhere (the io
    /// thread stamps decode and enqueue times into the task).
    void note(SpanStage stage, double start, double stop,
              std::uint64_t bytes = 0) noexcept {
        const auto i = static_cast<std::size_t>(stage);
        t0[i] = start;
        t1[i] = stop;
        stage_bytes[i] = bytes;
        seen |= 1u << i;
    }
    void set_cache(SpanCacheOutcome outcome) noexcept {
        cache = static_cast<std::uint32_t>(outcome);
    }
    [[nodiscard]] bool has(SpanStage stage) const noexcept {
        return (seen & (1u << static_cast<std::size_t>(stage))) != 0;
    }
    [[nodiscard]] double duration(SpanStage stage) const noexcept {
        const auto i = static_cast<std::size_t>(stage);
        return has(stage) ? t1[i] - t0[i] : 0.0;
    }
};

struct SpanHubConfig {
    /// Ring count: 1 (io thread) + worker count.
    std::size_t rings = 1;
    /// Records retained per ring; the oldest are overwritten.
    std::size_t ring_capacity = 4096;
    /// Requests whose end-to-end latency (decode start -> write end)
    /// reaches this many seconds have their whole span breakdown written
    /// to the slow sink as they finish. 0 disables the slow-query log.
    double slow_threshold_s = 0.0;
};

/// Owns the per-thread span rings and the slow-query funnel. Each ring is
/// written by exactly one thread (its io thread or worker) but guarded by
/// a small mutex because drain() may race the owner. The hub's epoch is
/// its construction instant: every timestamp is seconds since then, on
/// the steady clock, so records from different threads share one axis.
class SpanHub {
 public:
    /// `slow_sink` (nullable) receives offending requests' records; it
    /// must outlive the hub.
    explicit SpanHub(SpanHubConfig config, SpanSink* slow_sink = nullptr);

    SpanHub(const SpanHub&) = delete;
    SpanHub& operator=(const SpanHub&) = delete;

    /// Runtime gate. Disabled, the serving path takes a span-free branch.
    void set_enabled(bool on) noexcept {
        enabled_.store(on, std::memory_order_relaxed);
    }
    [[nodiscard]] bool enabled() const noexcept {
        return enabled_.load(std::memory_order_relaxed);
    }

    [[nodiscard]] std::chrono::steady_clock::time_point epoch() const noexcept {
        return epoch_;
    }
    /// Seconds since the hub's epoch (steady clock).
    [[nodiscard]] double now() const noexcept {
        return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             epoch_)
            .count();
    }

    /// Monotone 1-based request index; correlates one request's records
    /// across the io thread and whichever worker finishes it.
    [[nodiscard]] std::uint64_t next_request() noexcept {
        return request_counter_.fetch_add(1, std::memory_order_relaxed) + 1;
    }

    /// Appends one record to `ring` (oldest overwritten at capacity).
    void emit(std::size_t ring, const SpanRecord& record);

    /// Appends a finished request's records to `ring` and, when
    /// `total_seconds` reaches the slow threshold, forwards them to the
    /// slow sink as one contiguous block.
    void finish_request(std::size_t ring, const SpanRecord* records,
                        std::size_t count, double total_seconds);

    /// Writes every ring's retained records to `sink` — rings in index
    /// order, oldest record first within a ring — then clears the rings
    /// and calls sink.finish(). Deterministic given quiesced producers.
    void drain(SpanSink& sink);

    [[nodiscard]] std::uint64_t records_emitted() const noexcept {
        return emitted_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t records_dropped() const noexcept {
        return dropped_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t slow_requests() const noexcept {
        return slow_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] double slow_threshold_s() const noexcept {
        return config_.slow_threshold_s;
    }
    [[nodiscard]] std::size_t rings() const noexcept { return rings_.size(); }

 private:
    struct Ring {
        std::mutex mutex;
        std::vector<SpanRecord> records;  ///< fixed capacity, circular
        std::size_t next = 0;             ///< write cursor
        bool wrapped = false;
    };

    void append_locked(Ring& ring, const SpanRecord& record);

    SpanHubConfig config_;
    std::chrono::steady_clock::time_point epoch_;
    std::vector<std::unique_ptr<Ring>> rings_;
    SpanSink* slow_sink_;
    std::mutex slow_mutex_;
    std::atomic<bool> enabled_{false};
    std::atomic<std::uint64_t> request_counter_{0};
    std::atomic<std::uint64_t> emitted_{0};
    std::atomic<std::uint64_t> dropped_{0};
    std::atomic<std::uint64_t> slow_{0};
};

}  // namespace swarmavail::serve

#if defined(SWARMAVAIL_SPANS_DISABLED)
#define SWARMAVAIL_SPAN(spans, ...) static_cast<void>(0)
#else
/// Serving-layer span call site: one null-pointer branch when spans are
/// off; compiled out entirely under SWARMAVAIL_SPANS_DISABLED.
#define SWARMAVAIL_SPAN(spans, ...)        \
    do {                                   \
        if ((spans) != nullptr) {          \
            (spans)->__VA_ARGS__;          \
        }                                  \
    } while (false)
#endif
