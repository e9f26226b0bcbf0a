// Load generator for the served workloads: one thread multiplexing a few
// pipelined NDJSON connections to the in-process Server. Open-loop
// requests are timed from their scheduled send time, so a stall in the
// generator or the server also delays every request due behind it.
#ifndef NETOUT_PERFBENCH_LOADGEN_H_
#define NETOUT_PERFBENCH_LOADGEN_H_

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/random.h"
#include "inputs.h"

namespace perfbench {

/// One request as the generator saw it. Times are steady-clock ns;
/// done_ns is when the last byte of the response line arrived (-1 if it
/// never did).
struct ClientRecord {
  std::size_t position = 0;  // into Inputs
  std::int64_t mutation = -1;  // index into Inputs::mutations, or -1
  int phase = 0;
  std::int64_t scheduled_ns = 0;
  std::int64_t sent_ns = 0;
  std::int64_t done_ns = -1;
  bool ok = false;  // "ok":true, neither shed nor degraded
  double server_latency_ms = 0.0;  // the response's latency_ms
  double server_total_ms = 0.0;    // the response's stats.total_ms
  std::uint64_t epoch = 0;         // graph_epoch, or a mutation's epoch
  std::uint64_t digest = 0;        // Fnv1a of the "outliers" array bytes
};

class LoadClient {
 public:
  /// Opens `connections` connections to 127.0.0.1:`port`. Mutations
  /// always go on connection 0, so they reach the server in stream
  /// order; queries rotate over all connections. Room for
  /// `expected_requests` records is reserved up front.
  LoadClient(std::uint16_t port, std::size_t connections,
             const Inputs& inputs, std::size_t expected_requests);
  ~LoadClient();
  LoadClient(const LoadClient&) = delete;
  LoadClient& operator=(const LoadClient&) = delete;

  /// Closed loop: keeps `in_flight` requests outstanding until `end_ns`,
  /// sending the next one as soon as a response arrives.
  void RunClosed(std::int64_t end_ns, std::size_t in_flight, int phase);

  /// Open loop: Poisson arrivals at `rate` per second from `start_ns`
  /// until `end_ns`. Returns false, having stopped early, once more than
  /// `max_in_flight` requests are outstanding.
  bool RunOpen(double rate, std::int64_t start_ns, std::int64_t end_ns,
               std::size_t max_in_flight, int phase, netout::Rng* rng);

  /// Waits until every request is answered or `deadline_ns` passes.
  void Drain(std::int64_t deadline_ns);

  const std::vector<ClientRecord>& records() const { return records_; }

 private:
  struct Connection {
    int fd = -1;
    std::string out;
    std::size_t out_sent = 0;
    /// Records whose request bytes are queued in `out`, with the offset
    /// one past their last byte.
    std::deque<std::pair<std::size_t, std::size_t>> unsent;
    std::string in;
    std::deque<std::size_t> waiting;  // sent, response pending (FIFO)
  };

  void Issue(std::int64_t scheduled_ns, int phase);
  void Flush(Connection* conn);
  void Receive(Connection* conn);
  /// One poll round: waits for I/O until `wake_ns`, then reads and
  /// writes whatever is ready.
  void Pump(std::int64_t wake_ns);

  const Inputs& inputs_;
  std::vector<Connection> connections_;
  std::vector<ClientRecord> records_;
  std::size_t next_position_ = 0;
  std::size_t next_mutation_ = 0;
  std::size_t next_connection_ = 0;
  std::size_t in_flight_ = 0;
};

}  // namespace perfbench

#endif  // NETOUT_PERFBENCH_LOADGEN_H_
