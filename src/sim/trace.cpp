#include "sim/trace.hpp"

#include <ostream>
#include <sstream>
#include <utility>

#include "util/check.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

namespace swarmavail::sim {

namespace {

struct KindName {
    TraceKind kind;
    const char* name;
};

constexpr KindName kKindNames[] = {
    {TraceKind::kPeerArrival, "peer_arrival"},
    {TraceKind::kPeerCompletion, "peer_completion"},
    {TraceKind::kPeerLost, "peer_lost"},
    {TraceKind::kPeerStranded, "peer_stranded"},
    {TraceKind::kPublisherUp, "publisher_up"},
    {TraceKind::kPublisherDown, "publisher_down"},
    {TraceKind::kAvailabilityBegin, "availability_begin"},
    {TraceKind::kAvailabilityEnd, "availability_end"},
    {TraceKind::kTransferStart, "transfer_start"},
    {TraceKind::kTransferComplete, "transfer_complete"},
    {TraceKind::kCustom, "custom"},
};

}  // namespace

const char* trace_kind_name(TraceKind kind) noexcept {
    for (const KindName& entry : kKindNames) {
        if (entry.kind == kind) {
            return entry.name;
        }
    }
    return "unknown";
}

bool trace_kind_from_name(std::string_view name, TraceKind& out) noexcept {
    for (const KindName& entry : kKindNames) {
        if (name == entry.name) {
            out = entry.kind;
            return true;
        }
    }
    return false;
}

void TraceSink::annotate(double time, std::string_view text) {
    static_cast<void>(time);
    static_cast<void>(text);
}

void NullTraceSink::write(const TraceRecord* records, std::size_t count) {
    static_cast<void>(records);
    static_cast<void>(count);
}

void MemoryTraceSink::write(const TraceRecord* records, std::size_t count) {
    records_.insert(records_.end(), records, records + count);
}

void MemoryTraceSink::annotate(double time, std::string_view text) {
    annotations_.emplace_back(time, std::string(text));
}

void JsonlTraceSink::write(const TraceRecord* records, std::size_t count) {
    std::string lines;
    for (std::size_t i = 0; i < count; ++i) {
        const TraceRecord& r = records[i];
        lines += "{\"t\":";
        append_json_number(r.time, lines);
        lines += ",\"kind\":";
        append_json_string(trace_kind_name(r.kind), lines);
        lines += ",\"entity\":";
        append_json_uint64(r.entity, lines);
        lines += ",\"a\":";
        append_json_number(r.a, lines);
        lines += ",\"b\":";
        append_json_number(r.b, lines);
        lines += "}\n";
    }
    os_ << lines;
}

void JsonlTraceSink::annotate(double time, std::string_view text) {
    std::string line = "{\"t\":";
    append_json_number(time, line);
    line += ",\"kind\":\"annotation\",\"text\":";
    append_json_string(text, line);
    line += "}\n";
    os_ << line;
}

void JsonlTraceSink::finish() { os_.flush(); }

Tracer::Tracer(TraceSink& sink, std::size_t buffer_capacity)
    : sink_(sink), capacity_(buffer_capacity) {
    require(buffer_capacity >= 1, "Tracer: buffer_capacity must be >= 1");
    buffer_.reserve(capacity_);
}

Tracer::~Tracer() {
    flush();
    sink_.finish();
}

void Tracer::annotate(double time, std::string_view text) {
    flush();
    sink_.annotate(time, text);
}

void Tracer::flush() {
    if (!buffer_.empty()) {
        sink_.write(buffer_.data(), buffer_.size());
        emitted_ += buffer_.size();
        buffer_.clear();
    }
}

ParsedTrace read_trace_jsonl(std::istream& in) {
    ParsedTrace out;
    read_jsonl(in, "trace", [&out](const JsonlFields& line) {
        const double time = line.number("t");
        const std::string& kind_name = line.text("kind");
        if (kind_name == "annotation") {
            out.annotations.push_back(TraceAnnotation{time, line.text("text")});
            return;
        }
        TraceKind kind = TraceKind::kCustom;
        if (!trace_kind_from_name(kind_name, kind)) {
            line.fail("unknown kind '" + kind_name + "'");
        }
        out.records.push_back(TraceRecord{time, kind, 0, line.u64("entity"),
                                          line.number("a"), line.number("b")});
    });
    return out;
}

void trace_check_failure(Tracer* tracer, double sim_time, const CheckFailure& failure) {
    if (tracer == nullptr) {
        return;
    }
    std::ostringstream text;
    text << "check failure at " << failure.file() << ':' << failure.line() << ": "
         << failure.message();
    tracer->annotate(sim_time, text.str());
}

}  // namespace swarmavail::sim
