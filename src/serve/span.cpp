#include "serve/span.hpp"

#include <limits>
#include <ostream>
#include <string>

#include "util/error.hpp"
#include "util/json.hpp"

namespace swarmavail::serve {

void NullSpanSink::write(const SpanRecord* records, std::size_t count) {
    static_cast<void>(records);
    static_cast<void>(count);
}

void MemorySpanSink::write(const SpanRecord* records, std::size_t count) {
    records_.insert(records_.end(), records, records + count);
}

void JsonlSpanSink::write(const SpanRecord* records, std::size_t count) {
    std::string lines;
    for (std::size_t i = 0; i < count; ++i) {
        const SpanRecord& r = records[i];
        lines += "{\"request\":";
        append_json_uint64(r.request, lines);
        lines += ",\"conn\":";
        append_json_uint64(r.connection, lines);
        lines += ",\"stage\":";
        append_json_string(span_stage_name(static_cast<SpanStage>(r.stage)), lines);
        lines += ",\"verb\":";
        append_json_uint64(r.verb, lines);
        lines += ",\"lane\":";
        append_json_uint64(r.lane, lines);
        lines += ",\"worker\":";
        append_json_uint64(r.worker, lines);
        lines += ",\"t0\":";
        append_json_number(r.t_start, lines);
        lines += ",\"t1\":";
        append_json_number(r.t_end, lines);
        lines += ",\"bytes\":";
        append_json_uint64(r.bytes, lines);
        lines += ",\"cache\":";
        append_json_string(
            span_cache_outcome_name(static_cast<SpanCacheOutcome>(r.cache)), lines);
        lines += "}\n";
    }
    os_ << lines;
}

void JsonlSpanSink::finish() { os_.flush(); }

std::vector<SpanRecord> read_spans_jsonl(std::istream& in) {
    constexpr std::uint64_t kU16 = std::numeric_limits<std::uint16_t>::max();
    std::vector<SpanRecord> out;
    read_jsonl(in, "span", [&out](const JsonlFields& line) {
        SpanRecord r;
        r.request = line.u64("request");
        r.connection = line.u64("conn");
        const std::string& stage_name = line.text("stage");
        SpanStage stage = SpanStage::kAccept;
        if (!span_stage_from_name(stage_name, stage)) {
            line.fail("unknown stage '" + stage_name + "'");
        }
        r.stage = static_cast<std::uint16_t>(stage);
        r.verb = static_cast<std::uint16_t>(line.u64("verb", kU16));
        r.lane = static_cast<std::uint16_t>(line.u64("lane", kU16));
        r.worker = static_cast<std::uint16_t>(line.u64("worker", kU16));
        r.t_start = line.number("t0");
        r.t_end = line.number("t1");
        r.bytes = line.u64("bytes");
        const std::string& cache_name = line.text("cache");
        SpanCacheOutcome outcome = SpanCacheOutcome::kNone;
        if (!span_cache_outcome_from_name(cache_name, outcome)) {
            line.fail("unknown cache outcome '" + cache_name + "'");
        }
        r.cache = static_cast<std::uint32_t>(outcome);
        out.push_back(r);
    });
    return out;
}

SpanHub::SpanHub(SpanHubConfig config, SpanSink* slow_sink)
    : config_(config),
      epoch_(std::chrono::steady_clock::now()),
      slow_sink_(slow_sink) {
    require(config_.rings >= 1, "SpanHub: needs at least one ring");
    require(config_.ring_capacity >= 1, "SpanHub: ring_capacity must be >= 1");
    rings_.reserve(config_.rings);
    for (std::size_t i = 0; i < config_.rings; ++i) {
        auto ring = std::make_unique<Ring>();
        ring->records.resize(config_.ring_capacity);
        rings_.push_back(std::move(ring));
    }
}

void SpanHub::append_locked(Ring& ring, const SpanRecord& record) {
    if (ring.wrapped) {
        dropped_.fetch_add(1, std::memory_order_relaxed);
    }
    ring.records[ring.next] = record;
    ring.next += 1;
    if (ring.next == ring.records.size()) {
        ring.next = 0;
        ring.wrapped = true;
    }
    emitted_.fetch_add(1, std::memory_order_relaxed);
}

void SpanHub::emit(std::size_t ring_index, const SpanRecord& record) {
    require(ring_index < rings_.size(), "SpanHub: ring index out of range");
    Ring& ring = *rings_[ring_index];
    std::unique_lock<std::mutex> lock(ring.mutex);
    append_locked(ring, record);
}

void SpanHub::finish_request(std::size_t ring_index, const SpanRecord* records,
                             std::size_t count, double total_seconds) {
    require(ring_index < rings_.size(), "SpanHub: ring index out of range");
    {
        Ring& ring = *rings_[ring_index];
        std::unique_lock<std::mutex> lock(ring.mutex);
        for (std::size_t i = 0; i < count; ++i) {
            append_locked(ring, records[i]);
        }
    }
    if (slow_sink_ != nullptr && config_.slow_threshold_s > 0.0 &&
        total_seconds >= config_.slow_threshold_s) {
        std::unique_lock<std::mutex> lock(slow_mutex_);
        slow_sink_->write(records, count);
        slow_.fetch_add(1, std::memory_order_relaxed);
    }
}

void SpanHub::drain(SpanSink& sink) {
    for (const std::unique_ptr<Ring>& ring_ptr : rings_) {
        Ring& ring = *ring_ptr;
        std::unique_lock<std::mutex> lock(ring.mutex);
        if (ring.wrapped) {
            sink.write(ring.records.data() + ring.next,
                       ring.records.size() - ring.next);
            sink.write(ring.records.data(), ring.next);
        } else if (ring.next > 0) {
            sink.write(ring.records.data(), ring.next);
        }
        ring.next = 0;
        ring.wrapped = false;
    }
    sink.finish();
}

}  // namespace swarmavail::serve
