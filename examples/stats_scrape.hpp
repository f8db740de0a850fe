// Loopback STATS client shared by planning_client and serve_top: connect,
// one framed round trip, and a small scanner over the server's own
// Prometheus exposition (not a general Prometheus parser): sample lines
// are `name value` or `name{label="v"} value`, and histogram families
// follow the _bucket/_sum/_count convention with cumulative buckets.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "serve/protocol.hpp"
#include "util/json.hpp"

namespace stats_scrape {

using swarmavail::serve::FrameDecoder;

/// A connected loopback socket to `port`, or -1.
inline int connect_to(int port) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        return -1;
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

inline bool send_all(int fd, std::string_view bytes) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
        const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                                 MSG_NOSIGNAL);
        if (n < 0) {
            return false;
        }
        sent += static_cast<std::size_t>(n);
    }
    return true;
}

/// Sends one request frame and reads one response payload; diagnostics go
/// to stderr prefixed with `tool`.
inline bool round_trip(int fd, FrameDecoder& decoder, const std::string& request,
                       std::string& response, std::string_view tool) {
    if (!send_all(fd, swarmavail::serve::encode_frame(request))) {
        return false;
    }
    std::string error;
    char buffer[65536];
    while (true) {
        const FrameDecoder::Status status = decoder.next(response, error);
        if (status == FrameDecoder::Status::kFrame) {
            return true;
        }
        if (status == FrameDecoder::Status::kError) {
            std::cerr << tool << ": protocol error: " << error << "\n";
            return false;
        }
        const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
        if (n <= 0) {
            std::cerr << tool << ": connection closed by server\n";
            return false;
        }
        decoder.feed(std::string_view(buffer, static_cast<std::size_t>(n)));
    }
}

/// Fetches the STATS exposition text; false on transport/shape failure.
inline bool fetch_stats(int fd, FrameDecoder& decoder, std::string& text,
                        std::string_view tool) {
    std::string response;
    if (!round_trip(fd, decoder, "{\"verb\":\"STATS\"}", response, tool)) {
        return false;
    }
    swarmavail::JsonValue value;
    std::string error;
    if (!swarmavail::parse_json(response, value, &error)) {
        std::cerr << tool << ": unparseable STATS response: " << error << "\n";
        return false;
    }
    const auto* result = value.find("result");
    const auto* prometheus = result != nullptr ? result->find("prometheus") : nullptr;
    if (prometheus == nullptr || !prometheus->is_string()) {
        std::cerr << tool << ": STATS response has no prometheus text: " << response
                  << "\n";
        return false;
    }
    text = prometheus->as_string();
    return true;
}

/// Cumulative histogram pulled out of the exposition text.
struct Histogram {
    std::vector<std::pair<double, std::uint64_t>> buckets;  ///< (le, cumulative)
    double sum = 0.0;
    std::uint64_t count = 0;
};

/// Value of the sample line starting exactly with `prefix` + ' '.
inline bool find_sample(const std::string& text, const std::string& prefix,
                        double& out) {
    const std::string needle = prefix + " ";
    std::size_t pos = 0;
    while (pos < text.size()) {
        const std::size_t eol = text.find('\n', pos);
        const std::string_view line(
            text.data() + pos, (eol == std::string::npos ? text.size() : eol) - pos);
        if (line.size() > needle.size() && line.substr(0, needle.size()) == needle) {
            out = std::strtod(line.data() + needle.size(), nullptr);
            return true;
        }
        if (eol == std::string::npos) {
            break;
        }
        pos = eol + 1;
    }
    return false;
}

inline double sample_or_zero(const std::string& text, const std::string& name) {
    double value = 0.0;
    find_sample(text, name, value);
    return value;
}

/// Reads `family`'s buckets, sum and count; false when any is missing.
inline bool read_histogram(const std::string& text, const std::string& family,
                           Histogram& out) {
    out = Histogram{};
    const std::string bucket_prefix = family + "_bucket{le=\"";
    std::size_t pos = 0;
    while (pos < text.size()) {
        const std::size_t eol = text.find('\n', pos);
        const std::size_t len = (eol == std::string::npos ? text.size() : eol) - pos;
        const std::string line = text.substr(pos, len);
        if (line.compare(0, bucket_prefix.size(), bucket_prefix) == 0) {
            const std::size_t close = line.find("\"} ", bucket_prefix.size());
            if (close != std::string::npos) {
                const std::string le_text =
                    line.substr(bucket_prefix.size(), close - bucket_prefix.size());
                const double le = le_text == "+Inf"
                                      ? std::numeric_limits<double>::infinity()
                                      : std::strtod(le_text.c_str(), nullptr);
                out.buckets.emplace_back(
                    le, std::strtoull(line.c_str() + close + 3, nullptr, 10));
            }
        }
        if (eol == std::string::npos) {
            break;
        }
        pos = eol + 1;
    }
    double count = 0.0;
    const bool have_sum = find_sample(text, family + "_sum", out.sum);
    const bool have_count = find_sample(text, family + "_count", count);
    out.count = static_cast<std::uint64_t>(count);
    return have_sum && have_count && !out.buckets.empty();
}

/// Upper bin edge of the q-quantile (smallest le whose cumulative count
/// reaches q * total); 0 for an empty histogram.
inline double histogram_quantile(const Histogram& histogram, double q) {
    if (histogram.count == 0) {
        return 0.0;
    }
    const double target = q * static_cast<double>(histogram.count);
    for (const auto& [le, cumulative] : histogram.buckets) {
        if (static_cast<double>(cumulative) >= target) {
            return le;
        }
    }
    return histogram.buckets.back().first;
}

inline std::string format_seconds(double seconds) {
    char buffer[32];
    if (seconds <= 0.0) {
        return "-";
    }
    if (seconds < 1.0e-3) {
        std::snprintf(buffer, sizeof(buffer), "%.1fus", seconds * 1.0e6);
    } else if (seconds < 1.0) {
        std::snprintf(buffer, sizeof(buffer), "%.2fms", seconds * 1.0e3);
    } else {
        std::snprintf(buffer, sizeof(buffer), "%.2fs", seconds);
    }
    return buffer;
}

}  // namespace stats_scrape
