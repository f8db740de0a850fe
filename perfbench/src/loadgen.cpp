#include "loadgen.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <ctime>
#include <stdexcept>
#include <thread>

#include "bench.hpp"

namespace perfbench {
namespace {

namespace serve = swarmavail::serve;

constexpr std::size_t kReadChunk = 64 * 1024;

timespec to_timespec(double seconds) {
    seconds = std::max(seconds, 0.0);
    timespec ts{};
    ts.tv_sec = static_cast<time_t>(seconds);
    ts.tv_nsec = static_cast<long>((seconds - static_cast<double>(ts.tv_sec)) * 1e9);
    return ts;
}

/// Writes as much of out[pos..] as the socket takes; false on a dead peer.
bool flush_some(int fd, const std::string& out, std::size_t& pos) {
    while (pos < out.size()) {
        const ssize_t n = ::send(fd, out.data() + pos, out.size() - pos, MSG_NOSIGNAL);
        if (n > 0) {
            pos += static_cast<std::size_t>(n);
            continue;
        }
        if (n < 0 && errno == EINTR) {
            continue;
        }
        return n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
    }
    return true;
}

/// Blocking-style send of a whole buffer on a nonblocking socket.
void send_all(int fd, const std::string& out) {
    std::size_t pos = 0;
    while (pos < out.size()) {
        if (!flush_some(fd, out, pos)) {
            throw std::runtime_error("send failed: peer closed the connection");
        }
        if (pos < out.size()) {
            pollfd p{fd, POLLOUT, 0};
            ::poll(&p, 1, 100);
        }
    }
}

/// Reads whatever is available into the decoder. Returns false on EOF or a
/// socket error.
bool read_available(ClientConn& conn) {
    char buffer[kReadChunk];
    while (true) {
        const ssize_t n = ::recv(conn.fd, buffer, sizeof(buffer), 0);
        if (n > 0) {
            conn.decoder.feed(std::string_view(buffer, static_cast<std::size_t>(n)));
            if (static_cast<std::size_t>(n) < sizeof(buffer)) {
                return true;
            }
            continue;
        }
        if (n < 0 && errno == EINTR) {
            continue;
        }
        return n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
    }
}

int connect_loopback(std::uint16_t port) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        throw std::runtime_error(std::string("socket: ") + std::strerror(errno));
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
        const std::string why = std::strerror(errno);
        ::close(fd);
        throw std::runtime_error("connect: " + why);
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    const int flags = ::fcntl(fd, F_GETFL, 0);
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    return fd;
}

}  // namespace

ClientConn::ClientConn(std::uint16_t port) : fd(connect_loopback(port)) {}

ClientConn::~ClientConn() {
    if (fd >= 0) {
        ::close(fd);
    }
}

bool parse_reply_head(std::string_view reply, std::uint64_t& id, bool& ok) {
    constexpr std::string_view kIdPrefix = "{\"id\":";
    if (reply.substr(0, kIdPrefix.size()) != kIdPrefix) {
        return false;
    }
    std::size_t p = kIdPrefix.size();
    std::uint64_t value = 0;
    const std::size_t digits_at = p;
    while (p < reply.size() && reply[p] >= '0' && reply[p] <= '9') {
        value = value * 10 + static_cast<std::uint64_t>(reply[p] - '0');
        ++p;
    }
    if (p == digits_at) {
        return false;
    }
    const std::string_view rest = reply.substr(p);
    if (rest.substr(0, 10) == ",\"ok\":true") {
        ok = true;
    } else if (rest.substr(0, 11) == ",\"ok\":false") {
        ok = false;
    } else {
        return false;
    }
    id = value;
    return true;
}

std::vector<double> OpenLoopRun::latencies() const {
    std::vector<double> out;
    out.reserve(records.size());
    for (const OpenLoopRecord& r : records) {
        if (r.replied) {
            out.push_back(r.latency());
        }
    }
    return out;
}

std::vector<double> OpenLoopRun::lags() const {
    std::vector<double> out;
    out.reserve(records.size());
    for (const OpenLoopRecord& r : records) {
        if (r.sent) {
            out.push_back(r.lag());
        }
    }
    return out;
}

double OpenLoopRun::reply_rate() const {
    const double span = t_last_due - t_start;
    return span > 0.0 ? static_cast<double>(replied) / span : 0.0;
}

double OpenLoopRun::throughput() const {
    std::vector<double> done;
    done.reserve(replied);
    for (const OpenLoopRecord& r : records) {
        if (r.replied) {
            done.push_back(r.done);
        }
    }
    const double span = quantile(done, 0.9) - quantile(done, 0.1);
    return span > 0.0 ? 0.8 * static_cast<double>(done.size()) / span : 0.0;
}

std::vector<double> poisson_schedule(double rate, double duration, std::uint64_t seed) {
    InputRng rng(seed);
    std::vector<double> due;
    due.reserve(static_cast<std::size_t>(rate * duration * 1.1) + 16);
    double t = rng.exponential(rate);
    while (t < duration) {
        due.push_back(t);
        t += rng.exponential(rate);
    }
    return due;
}

OpenLoopRun run_open_loop(ClientConn& conn, const std::vector<std::string>& payloads,
                          const std::vector<double>& due_offsets,
                          const OpenLoopConfig& config) {
    const std::size_t n = std::min(payloads.size(), due_offsets.size());
    OpenLoopRun run;
    run.records.resize(n);
    std::vector<std::size_t> kept_slot(n, SIZE_MAX);
    for (std::size_t k = 0; k < config.keep_replies.size(); ++k) {
        if (config.keep_replies[k] < n) {
            kept_slot[config.keep_replies[k]] = k;
        }
    }
    run.kept.resize(config.keep_replies.size());

    const double cpu0 = process_cpu_s();
    run.t_start = now_s() + 1e-3;
    run.t_last_due = n > 0 ? run.t_start + due_offsets[n - 1] : run.t_start;
    std::size_t next = 0;
    std::size_t outstanding = 0;
    std::string out;
    std::size_t out_pos = 0;
    std::vector<std::size_t> in_flight_write;  // frames in `out` not yet written
    std::string payload;
    std::string error;
    double last_send = run.t_start;
    bool dead = false;

    while (!dead) {
        double now = now_s();
        while (!run.aborted && next < n && run.t_start + due_offsets[next] <= now &&
               (config.window == 0 || outstanding < config.window)) {
            if (outstanding >= config.max_outstanding) {
                run.aborted = true;
                break;
            }
            OpenLoopRecord& rec = run.records[next];
            rec.due = run.t_start + due_offsets[next];
            rec.send_t0 = now_s();
            out += serve::encode_frame(payloads[next]);
            rec.sent = true;
            in_flight_write.push_back(next);
            ++next;
            ++outstanding;
            ++run.sent;
            now = now_s();
        }
        if (out_pos < out.size()) {
            if (!flush_some(conn.fd, out, out_pos)) {
                dead = true;
                break;
            }
            if (out_pos == out.size()) {
                const double t = now_s();
                for (const std::size_t i : in_flight_write) {
                    run.records[i].send_t1 = t;
                }
                in_flight_write.clear();
                out.clear();
                out_pos = 0;
                last_send = t;
            }
        }
        const bool sending_done = run.aborted || next >= n;
        if (sending_done && outstanding == 0 && out.empty()) {
            break;
        }
        // Wait for the next due time, or, when nothing can be sent (done,
        // window full, socket full), for replies or room to write.
        const bool blocked =
            sending_done || (config.window > 0 && outstanding >= config.window);
        now = now_s();
        double deadline = blocked ? std::max(last_send, run.t_last_reply) +
                                        config.drain_timeout_s
                                  : run.t_start + due_offsets[next];
        if (blocked && now >= deadline) {
            break;  // replies that never came stay unreplied
        }
        if (!out.empty()) {
            deadline = std::max(deadline, now + config.drain_timeout_s);
        }
        pollfd p{conn.fd, static_cast<short>(POLLIN | (out.empty() ? 0 : POLLOUT)), 0};
        const timespec timeout = to_timespec(deadline - now);
        const int rc = ::ppoll(&p, 1, &timeout, nullptr);
        if (rc <= 0 || (p.revents & POLLIN) == 0) {
            if ((p.revents & (POLLERR | POLLHUP)) != 0) {
                dead = true;
            }
            continue;
        }
        const double recv_t0 = now_s();
        if (!read_available(conn)) {
            dead = true;
        }
        while (conn.decoder.next(payload, error) ==
               serve::FrameDecoder::Status::kFrame) {
            const double t = now_s();
            std::uint64_t id = 0;
            bool ok = false;
            if (!parse_reply_head(payload, id, ok) || id < config.base_id ||
                id - config.base_id >= n || !run.records[id - config.base_id].sent ||
                run.records[id - config.base_id].replied) {
                ++run.unmatched;
                continue;
            }
            const std::size_t i = id - config.base_id;
            OpenLoopRecord& rec = run.records[i];
            rec.replied = true;
            rec.ok = ok;
            rec.recv_t0 = recv_t0;
            rec.done = t;
            run.t_last_reply = t;
            ++run.replied;
            run.ok += ok ? 1 : 0;
            --outstanding;
            if (kept_slot[i] != SIZE_MAX) {
                run.kept[kept_slot[i]] = payload;
            }
        }
        if (conn.decoder.poisoned()) {
            dead = true;
        }
    }
    run.cpu_s = process_cpu_s() - cpu0;
    return run;
}

std::size_t run_closed_loop(std::vector<ClientConn*> conns,
                            std::vector<ClosedLoopSource*> sources, double duration,
                            double drain_timeout_s) {
    const std::size_t m = conns.size();
    std::vector<std::uint64_t> next_id(m, 0);
    for (std::size_t c = 0; c < m; ++c) {
        next_id[c] = sources[c]->first_id;
    }
    std::vector<bool> waiting(m, false);
    std::size_t unmatched = 0;
    const double end = now_s() + duration;

    auto send_next = [&](std::size_t c) {
        bool keep = false;
        const std::uint64_t id = next_id[c]++;
        const std::string payload = sources[c]->next(id, keep);
        ClosedLoopRecord rec;
        rec.id = id;
        rec.sent = now_s();
        rec.keep = keep;
        if (keep) {
            rec.payload = payload;
        }
        sources[c]->records.push_back(std::move(rec));
        send_all(conns[c]->fd, serve::encode_frame(payload));
        waiting[c] = true;
    };
    for (std::size_t c = 0; c < m; ++c) {
        send_next(c);
    }
    std::vector<pollfd> fds(m);
    std::string payload;
    std::string error;
    while (true) {
        const double now = now_s();
        const bool draining = now >= end;
        bool any_waiting = false;
        for (std::size_t c = 0; c < m; ++c) {
            any_waiting = any_waiting || waiting[c];
        }
        if (!any_waiting || (draining && now >= end + drain_timeout_s)) {
            break;
        }
        for (std::size_t c = 0; c < m; ++c) {
            fds[c] = pollfd{conns[c]->fd, POLLIN, 0};
        }
        const double deadline = draining ? end + drain_timeout_s : end;
        const timespec timeout = to_timespec(deadline - now);
        if (::ppoll(fds.data(), fds.size(), &timeout, nullptr) <= 0) {
            continue;
        }
        for (std::size_t c = 0; c < m; ++c) {
            if ((fds[c].revents & POLLIN) == 0) {
                continue;
            }
            const bool alive = read_available(*conns[c]);
            while (conns[c]->decoder.next(payload, error) ==
                   serve::FrameDecoder::Status::kFrame) {
                const double t = now_s();
                std::uint64_t id = 0;
                bool ok = false;
                std::vector<ClosedLoopRecord>& recs = sources[c]->records;
                if (recs.empty() || !parse_reply_head(payload, id, ok) ||
                    id != recs.back().id || recs.back().replied) {
                    ++unmatched;
                    continue;
                }
                ClosedLoopRecord& rec = recs.back();
                rec.replied = true;
                rec.ok = ok;
                rec.done = t;
                if (rec.keep) {
                    rec.reply = payload;
                }
                waiting[c] = false;
                if (t < end) {
                    send_next(c);
                }
            }
            if (!alive || conns[c]->decoder.poisoned()) {
                waiting[c] = false;  // the connection is gone; stop waiting on it
            }
        }
    }
    for (std::size_t c = 0; c < m; ++c) {
        sources[c]->first_id = next_id[c];  // a later run continues the ids
    }
    return unmatched;
}

namespace {

/// Loopback stub answering {"id":N,"ok":true} to every frame; it sleeps
/// once, for `stall_s`, before answering request number `stall_at`.
class StubServer {
 public:
    StubServer(std::size_t stall_at, double stall_s)
        : stall_at_(stall_at), stall_s_(stall_s) {
        listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = 0;
        socklen_t len = sizeof(addr);
        if (listen_fd_ < 0 ||
            ::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
                0 ||
            ::listen(listen_fd_, 4) != 0 ||
            ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
            if (listen_fd_ >= 0) {
                ::close(listen_fd_);
            }
            throw std::runtime_error("stub server: cannot listen on loopback");
        }
        port_ = ntohs(addr.sin_port);
        thread_ = std::thread([this] { serve_one(); });
    }
    ~StubServer() {
        ::shutdown(listen_fd_, SHUT_RDWR);
        thread_.join();
        ::close(listen_fd_);
    }
    StubServer(const StubServer&) = delete;
    StubServer& operator=(const StubServer&) = delete;

    [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

 private:
    void serve_one() {
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) {
            return;
        }
        serve::FrameDecoder decoder;
        std::string payload;
        std::string error;
        char buffer[kReadChunk];
        std::size_t handled = 0;
        while (true) {
            const ssize_t got = ::recv(fd, buffer, sizeof(buffer), 0);
            if (got <= 0) {
                break;
            }
            decoder.feed(std::string_view(buffer, static_cast<std::size_t>(got)));
            std::string out;
            while (decoder.next(payload, error) == serve::FrameDecoder::Status::kFrame) {
                if (handled++ == stall_at_) {
                    if (!out.empty()) {
                        ::send(fd, out.data(), out.size(), MSG_NOSIGNAL);
                        out.clear();
                    }
                    std::this_thread::sleep_for(std::chrono::duration<double>(stall_s_));
                }
                const std::size_t at = payload.find("\"id\":");
                const std::size_t end = payload.find_first_of(",}", at);
                out += serve::encode_frame("{\"id\":" +
                                           payload.substr(at + 5, end - at - 5) +
                                           ",\"ok\":true}");
            }
            if (!out.empty() && ::send(fd, out.data(), out.size(), MSG_NOSIGNAL) < 0) {
                break;
            }
        }
        ::close(fd);
    }

    std::size_t stall_at_;
    double stall_s_;
    int listen_fd_ = -1;
    std::uint16_t port_ = 0;
    std::thread thread_;
};

}  // namespace

std::string loadgen_self_test(std::uint64_t seed) {
    constexpr double kRate = 2000.0;
    constexpr double kDuration = 0.5;
    constexpr double kStall = 0.040;
    constexpr std::size_t kStallAt = 300;
    const std::vector<double> due = poisson_schedule(kRate, kDuration, seed);
    std::vector<std::string> payloads;
    payloads.reserve(due.size());
    for (std::size_t i = 0; i < due.size(); ++i) {
        payloads.push_back("{\"verb\":\"PING\",\"id\":" + std::to_string(i) + "}");
    }
    OpenLoopRun run;
    {
        StubServer stub(kStallAt, kStall);
        ClientConn conn(stub.port());
        OpenLoopConfig config;
        config.max_outstanding = due.size();
        run = run_open_loop(conn, payloads, due, config);
    }
    if (run.replied != due.size() || run.ok != due.size()) {
        return "stub replies missing: " + std::to_string(run.replied) + " of " +
               std::to_string(due.size());
    }
    // Requests due while the stub slept wait for it: their latency, timed
    // from the due time, must carry the stall. A generator that timed from
    // the actual send, or stopped sending while blocked, would show one
    // slow request at most.
    const double stall_start = run.records[kStallAt].due;
    std::size_t delayed = 0;
    std::size_t due_in_stall = 0;
    double worst = 0.0;
    for (const OpenLoopRecord& r : run.records) {
        worst = std::max(worst, r.latency());
        if (r.due >= stall_start && r.due < stall_start + kStall / 2) {
            ++due_in_stall;
            delayed += r.latency() >= kStall / 4 ? 1 : 0;
        }
    }
    if (worst < 0.9 * kStall) {
        return "the stall is missing from the worst latency (" +
               format_number(worst * 1e3) + " ms)";
    }
    if (due_in_stall == 0 || delayed < due_in_stall) {
        return "requests due during the stall were not delayed (" +
               std::to_string(delayed) + " of " + std::to_string(due_in_stall) + ")";
    }
    return {};
}

}  // namespace perfbench
