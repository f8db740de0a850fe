// Load generation against a planning server over TCP loopback.
//
// Open loop: requests have due times drawn from a seeded Poisson process;
// the generator sleeps (ppoll, never spins) until the next send is due,
// sends everything that is due in one write, and times every request from
// when it was *due*, so a stall that delays later sends shows up in their
// latency instead of being hidden (coordinated omission). How late the
// sender ran is recorded per request.
//
// Closed loop: each connection sends its next request as soon as the
// previous reply arrives.
//
// Both run on the calling thread, one socket per connection, and only ever
// send the payloads the workload generated.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "serve/protocol.hpp"

namespace perfbench {

/// Reads the leading {"id":N,"ok":B of a reply. False when the reply does
/// not start that way (e.g. an error reply without an id).
[[nodiscard]] bool parse_reply_head(std::string_view reply, std::uint64_t& id,
                                    bool& ok);

/// One client connection to 127.0.0.1:port: a nonblocking socket with
/// TCP_NODELAY plus an incremental frame decoder. The constructor throws
/// std::runtime_error when it cannot connect.
struct ClientConn {
    explicit ClientConn(std::uint16_t port);
    ~ClientConn();
    ClientConn(const ClientConn&) = delete;
    ClientConn& operator=(const ClientConn&) = delete;

    int fd = -1;
    swarmavail::serve::FrameDecoder decoder;
};

/// Per-request timeline of an open-loop run (now_s() seconds).
struct OpenLoopRecord {
    double due = 0.0;
    double send_t0 = 0.0;  ///< frame encode started (due + lag)
    double send_t1 = 0.0;  ///< the write carrying the frame returned
    double recv_t0 = 0.0;  ///< the read that delivered the reply started
    double done = 0.0;     ///< reply frame decoded
    bool sent = false;
    bool replied = false;
    bool ok = false;
    [[nodiscard]] double latency() const { return done - due; }
    [[nodiscard]] double lag() const { return send_t0 - due; }
};

struct OpenLoopConfig {
    /// Unanswered requests beyond which the run stops sending: the step has
    /// failed. Kept below the server's per-lane queue bound so a probe past
    /// capacity never provokes "overloaded" replies.
    std::size_t max_outstanding = 200;
    /// Nonzero makes the run a windowed closed loop: sending pauses while
    /// this many requests are unanswered (due times still apply).
    std::size_t window = 0;
    /// How long to wait for the last replies after the last send.
    double drain_timeout_s = 2.0;
    /// Request ids are base_id + index.
    std::uint64_t base_id = 0;
    /// Indices whose reply text is kept (for byte-for-byte checks).
    std::vector<std::size_t> keep_replies;
};

struct OpenLoopRun {
    std::vector<OpenLoopRecord> records;
    std::vector<std::string> kept;  ///< parallels OpenLoopConfig::keep_replies
    std::size_t sent = 0;
    std::size_t replied = 0;
    std::size_t ok = 0;
    std::size_t unmatched = 0;  ///< replies without a known id
    bool aborted = false;       ///< stopped sending at max_outstanding
    double t_start = 0.0;
    double t_last_due = 0.0;
    double t_last_reply = 0.0;
    double cpu_s = 0.0;         ///< process CPU seconds during the run

    [[nodiscard]] std::vector<double> latencies() const;
    [[nodiscard]] std::vector<double> lags() const;
    /// Replies received per second between the first due time and the last.
    [[nodiscard]] double reply_rate() const;
    /// Replies per second between the 10th and the 90th percentile of the
    /// reply times: the run's start-up and its last replies (which can
    /// wait for a delayed ACK) are left out.
    [[nodiscard]] double throughput() const;
};

/// Sends payloads[i] at t_start + due_offsets[i] (t_start = now + lead).
[[nodiscard]] OpenLoopRun run_open_loop(ClientConn& conn,
                                        const std::vector<std::string>& payloads,
                                        const std::vector<double>& due_offsets,
                                        const OpenLoopConfig& config);

/// Poisson due offsets (seconds from the run start) for `rate` requests/s
/// over `duration` seconds.
[[nodiscard]] std::vector<double> poisson_schedule(double rate, double duration,
                                                   std::uint64_t seed);

/// One request of a closed-loop connection.
struct ClosedLoopRecord {
    std::uint64_t id = 0;
    double sent = 0.0;
    double done = 0.0;
    bool replied = false;
    bool ok = false;
    bool keep = false;    ///< the source asked to keep payload and reply
    std::string payload;  ///< kept only with `keep`
    std::string reply;    ///< kept only with `keep`
};

/// A closed-loop connection: `next(id, keep)` returns the payload of the
/// request with that id and may set `keep` to retain its payload and reply.
/// Ids count up from `first_id`, which a run leaves at the next unused id.
struct ClosedLoopSource {
    std::function<std::string(std::uint64_t id, bool& keep)> next;
    std::uint64_t first_id = 0;
    std::vector<ClosedLoopRecord> records;
};

/// Runs every source on its own connection for `duration` seconds, then
/// waits up to `drain_timeout_s` for the requests still in flight.
/// Returns the number of replies that could not be matched to a request.
std::size_t run_closed_loop(std::vector<ClientConn*> conns,
                            std::vector<ClosedLoopSource*> sources, double duration,
                            double drain_timeout_s);

/// Generator self-test: a stub server that stalls once must show the stall
/// in the latency of the requests due during it. Returns an empty string
/// on success, else what went wrong.
[[nodiscard]] std::string loadgen_self_test(std::uint64_t seed);

}  // namespace perfbench
