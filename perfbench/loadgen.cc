#include "loadgen.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string_view>

#include "util.h"
#include "verify.h"

namespace perfbench {

namespace {

/// The number after `"key":` in `line`, or 0.
double NumberAfter(std::string_view line, std::string_view key) {
  const std::size_t at = line.find(key);
  if (at == std::string_view::npos) return 0.0;
  return std::strtod(line.data() + at + key.size(), nullptr);
}

void ParseResponse(std::string_view line, ClientRecord* record) {
  const bool ok = line.find("\"ok\":true") != std::string_view::npos &&
                  line.find("\"ok\":true") < 32;
  if (record->mutation >= 0) {
    record->ok = ok;
    record->epoch = static_cast<std::uint64_t>(NumberAfter(line, "\"epoch\":"));
    return;
  }
  const std::size_t result = line.find("\"result\":");
  const bool shed = line.substr(0, result).find("\"shed\":true") !=
                    std::string_view::npos;
  const bool degraded =
      line.find("\"degraded\":true") != std::string_view::npos;
  record->server_latency_ms = NumberAfter(line, "\"latency_ms\":");
  record->server_total_ms = NumberAfter(line, "\"total_ms\":");
  record->epoch =
      static_cast<std::uint64_t>(NumberAfter(line, "\"graph_epoch\":"));
  const std::string_view outliers =
      result != std::string_view::npos ? OutliersJson(line.substr(result))
                                       : std::string_view();
  record->digest = Fnv1a(outliers);
  record->ok = ok && !shed && !degraded && !outliers.empty();
}

}  // namespace

LoadClient::LoadClient(std::uint16_t port, std::size_t connections,
                       const Inputs& inputs, std::size_t expected_requests)
    : inputs_(inputs), connections_(connections) {
  records_.reserve(expected_requests);
  for (Connection& conn : connections_) {
    conn.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (conn.fd < 0) Die(std::string("socket: ") + std::strerror(errno));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(conn.fd, reinterpret_cast<sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      Die(std::string("connect: ") + std::strerror(errno));
    }
    int one = 1;
    ::setsockopt(conn.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ::fcntl(conn.fd, F_SETFL, ::fcntl(conn.fd, F_GETFL) | O_NONBLOCK);
  }
}

LoadClient::~LoadClient() {
  for (Connection& conn : connections_) {
    if (conn.fd >= 0) ::close(conn.fd);
  }
}

void LoadClient::Issue(std::int64_t scheduled_ns, int phase) {
  const std::size_t position = next_position_ % inputs_.size();
  ++next_position_;
  ClientRecord record;
  record.position = position;
  record.phase = phase;
  record.scheduled_ns = scheduled_ns;
  std::size_t target = 0;
  const std::string* line = nullptr;
  if (inputs_.is_mutation[position]) {
    if (next_mutation_ >= inputs_.mutations.size()) {
      Die("mutation stream exhausted");
    }
    record.mutation = static_cast<std::int64_t>(next_mutation_);
    line = &inputs_.mutations[next_mutation_++];
  } else {
    target = next_connection_++ % connections_.size();
    line = &inputs_.query_lines[position];
  }
  Connection& conn = connections_[target];
  conn.out += *line;
  conn.unsent.emplace_back(records_.size(), conn.out.size());
  records_.push_back(std::move(record));
  ++in_flight_;
  Flush(&conn);
}

void LoadClient::Flush(Connection* conn) {
  while (conn->out_sent < conn->out.size()) {
    const ssize_t n =
        ::send(conn->fd, conn->out.data() + conn->out_sent,
               conn->out.size() - conn->out_sent, MSG_NOSIGNAL);
    if (n > 0) {
      conn->out_sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    Die(std::string("send: ") + std::strerror(errno));
  }
  const std::int64_t now = NowNs();
  while (!conn->unsent.empty() &&
         conn->unsent.front().second <= conn->out_sent) {
    const std::size_t record = conn->unsent.front().first;
    records_[record].sent_ns = now;
    conn->waiting.push_back(record);
    conn->unsent.pop_front();
  }
  // Offsets in `unsent` count from the buffer start, so it is only
  // reset once everything queued has gone out.
  if (conn->out_sent == conn->out.size()) {
    conn->out.clear();
    conn->out_sent = 0;
  }
}

void LoadClient::Receive(Connection* conn) {
  char chunk[64 * 1024];
  for (;;) {
    const ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), MSG_DONTWAIT);
    if (n > 0) {
      conn->in.append(chunk, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    Die(n == 0 ? std::string("server closed a connection")
               : std::string("recv: ") + std::strerror(errno));
  }
  const std::int64_t now = NowNs();
  std::size_t start = 0;
  for (;;) {
    const std::size_t newline = conn->in.find('\n', start);
    if (newline == std::string::npos) break;
    if (conn->waiting.empty()) Die("response without a request");
    ClientRecord& record = records_[conn->waiting.front()];
    conn->waiting.pop_front();
    record.done_ns = now;
    ParseResponse(std::string_view(conn->in).substr(start, newline - start),
                  &record);
    --in_flight_;
    start = newline + 1;
  }
  conn->in.erase(0, start);
}

void LoadClient::Pump(std::int64_t wake_ns) {
  std::vector<pollfd> fds(connections_.size());
  for (std::size_t i = 0; i < connections_.size(); ++i) {
    fds[i].fd = connections_[i].fd;
    fds[i].events = POLLIN;
    if (connections_[i].out_sent < connections_[i].out.size()) {
      fds[i].events |= POLLOUT;
    }
  }
  const std::int64_t wait = std::max<std::int64_t>(0, wake_ns - NowNs());
  timespec timeout{};
  timeout.tv_sec = static_cast<time_t>(wait / 1000000000);
  timeout.tv_nsec = static_cast<long>(wait % 1000000000);
  const int ready = ::ppoll(fds.data(), fds.size(), &timeout, nullptr);
  if (ready < 0) {
    if (errno == EINTR) return;
    Die(std::string("ppoll: ") + std::strerror(errno));
  }
  for (std::size_t i = 0; i < connections_.size(); ++i) {
    if (fds[i].revents & POLLOUT) Flush(&connections_[i]);
    if (fds[i].revents & (POLLIN | POLLERR | POLLHUP)) {
      Receive(&connections_[i]);
    }
  }
}

void LoadClient::RunClosed(std::int64_t end_ns, std::size_t in_flight,
                           int phase) {
  for (;;) {
    const std::int64_t now = NowNs();
    if (now >= end_ns) return;
    while (in_flight_ < in_flight) Issue(NowNs(), phase);
    Pump(end_ns);
  }
}

bool LoadClient::RunOpen(double rate, std::int64_t start_ns,
                         std::int64_t end_ns, std::size_t max_in_flight,
                         int phase, netout::Rng* rng) {
  const auto gap = [&] {
    // Exponential inter-arrival time; 1 - U is in (0, 1].
    return static_cast<std::int64_t>(-std::log(1.0 - rng->NextDouble()) /
                                     rate * 1e9);
  };
  std::int64_t due = start_ns + gap();
  while (due < end_ns) {
    const std::int64_t now = NowNs();
    while (due <= now && due < end_ns) {
      Issue(due, phase);
      due += gap();
    }
    if (in_flight_ > max_in_flight) return false;
    Pump(std::min(due, end_ns));
  }
  // Let the rung's last gap elapse so the next rung starts on schedule.
  while (NowNs() < end_ns) Pump(end_ns);
  return true;
}

void LoadClient::Drain(std::int64_t deadline_ns) {
  while (in_flight_ > 0 && NowNs() < deadline_ns) Pump(deadline_ns);
}

}  // namespace perfbench
