#include "verify.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <unordered_map>

#include "query/engine.h"
#include "query/result_json.h"
#include "util.h"

namespace perfbench {

using namespace netout;

namespace {

/// Reference runs per parallel window (see Verify).
constexpr std::size_t kWindowTasks = 2048;

/// Consecutive acknowledged mutations that share one stated epoch: the
/// server committed them together.
struct EpochGroup {
  std::uint64_t epoch = 0;
  std::vector<std::size_t> mutations;
};

}  // namespace

Result<Request> ParseLine(std::string_view line) {
  if (!line.empty() && line.back() == '\n') line.remove_suffix(1);
  return ParseRequest(line, ProtocolLimits{});
}

Status StageMutation(MutableHin* graph, const Request& request) {
  switch (request.op) {
    case RequestOp::kAddVertex:
      return graph->AddVertex(request.vertex_type, request.vertex_name)
          .status();
    case RequestOp::kAddEdge:
      return graph->AddEdge(request.edge_type, request.src_name,
                            request.dst_name,
                            static_cast<std::uint32_t>(request.count),
                            /*create_vertices=*/true);
    case RequestOp::kDeleteEdge:
      return graph->DeleteEdge(request.edge_type, request.src_name,
                               request.dst_name);
    default:
      return Status::InvalidArgument("not a mutation op");
  }
}

std::uint64_t AnswerDigest(const std::vector<OutlierEntry>& outliers) {
  std::uint64_t digest = Fnv1a(std::to_string(outliers.size()));
  for (const OutlierEntry& entry : outliers) {
    char bits[sizeof(double) + 1];
    std::memcpy(bits, &entry.score, sizeof(double));
    bits[sizeof(double)] = entry.zero_visibility ? 1 : 0;
    digest = Fnv1a(entry.name, digest);
    digest = Fnv1a(std::string_view(bits, sizeof(bits)), digest);
  }
  return digest;
}

std::string_view OutliersJson(std::string_view result_json) {
  const std::size_t begin = result_json.find("\"outliers\":");
  if (begin == std::string_view::npos) return {};
  const std::size_t end = result_json.find(",\"degraded\":", begin);
  if (end == std::string_view::npos) return {};
  return result_json.substr(begin, end - begin);
}

VerifyStats Verify(const HinPtr& root, const Inputs& inputs,
                   const std::vector<QueryAnswer>& answers,
                   const std::vector<MutationAck>& acks,
                   std::size_t threads) {
  VerifyStats stats;
  stats.queries = answers.size();
  stats.mutations = acks.size();

  // A failed mutation changed nothing on the server, so the reference
  // skips it too. Stated epochs must rise with issue order.
  std::vector<EpochGroup> groups;
  bool epochs_consistent = true;
  for (const MutationAck& ack : acks) {
    if (!ack.ok) {
      ++stats.failed;
      continue;
    }
    if (!groups.empty() && groups.back().epoch == ack.epoch) {
      groups.back().mutations.push_back(ack.mutation);
    } else if (groups.empty() || groups.back().epoch < ack.epoch) {
      groups.push_back(EpochGroup{ack.epoch, {ack.mutation}});
    } else {
      epochs_consistent = false;
    }
  }

  std::vector<std::size_t> order;
  for (std::size_t i = 0; i < answers.size(); ++i) {
    if (answers[i].ok) {
      order.push_back(i);
    } else {
      ++stats.failed;
    }
  }
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return answers[a].epoch != answers[b].epoch
               ? answers[a].epoch < answers[b].epoch
               : answers[a].position < answers[b].position;
  });

  // Epochs are checked in windows: the reference advances through a
  // window sequentially, keeping each epoch's snapshot, and then all the
  // window's distinct (epoch, query) references run in parallel. Most
  // epochs of a mutation stream hold only a few answers, so parallelism
  // within one epoch would leave the threads idle.
  MutableHin reference(root);
  HinPtr snapshot = root;
  std::uint64_t reference_epoch = 0;
  std::size_t next_group = 0;
  struct Task {
    std::size_t snapshot = 0;  // into `snapshots`
    std::size_t position = 0;  // query position
  };
  std::vector<HinPtr> snapshots;
  std::vector<Task> tasks;
  std::vector<std::pair<std::size_t, std::size_t>> checks;  // answer, task
  const auto flush = [&] {
    std::vector<std::unique_ptr<Result<QueryResult>>> results(tasks.size());
    std::vector<std::pair<std::size_t, std::unique_ptr<Engine>>> engines(
        threads);
    ParallelFor(tasks.size(), threads, [&](std::size_t thread,
                                           std::size_t t) {
      auto& [engine_snapshot, engine] = engines[thread];
      if (engine == nullptr || engine_snapshot != tasks[t].snapshot) {
        engine = std::make_unique<Engine>(snapshots[tasks[t].snapshot]);
        engine_snapshot = tasks[t].snapshot;
      }
      results[t] = std::make_unique<Result<QueryResult>>(
          engine->Execute(inputs.queries[tasks[t].position]));
    });
    for (const auto& [a, t] : checks) {
      const QueryAnswer& answer = answers[a];
      const Result<QueryResult>& expected = *results[t];
      bool same = false;
      if (expected.ok()) {
        const std::uint64_t digest =
            answer.wire ? Fnv1a(OutliersJson(QueryResultToJson(
                              *snapshots[tasks[t].snapshot], expected.value())))
                        : AnswerDigest(expected.value().outliers);
        same = digest == answer.digest;
      }
      if (!same) ++stats.mismatched;
    }
    snapshots.clear();
    tasks.clear();
    checks.clear();
  };

  for (std::size_t begin = 0; begin < order.size();) {
    const std::uint64_t epoch = answers[order[begin]].epoch;
    std::size_t end = begin;
    while (end < order.size() && answers[order[end]].epoch == epoch) ++end;

    while (epochs_consistent && next_group < groups.size() &&
           groups[next_group].epoch <= epoch) {
      for (const std::size_t m : groups[next_group].mutations) {
        const Result<Request> request = ParseLine(inputs.mutations[m]);
        if (!request.ok() ||
            !StageMutation(&reference, request.value()).ok()) {
          epochs_consistent = false;
        }
      }
      Result<CommitResult> committed = reference.Commit();
      if (!committed.ok() ||
          committed.value().snapshot.epoch != groups[next_group].epoch) {
        epochs_consistent = false;
        break;
      }
      snapshot = committed.value().snapshot.hin;
      reference_epoch = groups[next_group].epoch;
      ++next_group;
    }
    if (!epochs_consistent || reference_epoch != epoch) {
      stats.mismatched += end - begin;
      begin = end;
      continue;
    }

    // One reference run per distinct query text at this epoch.
    snapshots.push_back(snapshot);
    std::unordered_map<std::string_view, std::size_t> distinct;
    for (std::size_t i = begin; i < end; ++i) {
      const std::size_t position = answers[order[i]].position;
      const auto [it, inserted] =
          distinct.emplace(inputs.queries[position], tasks.size());
      if (inserted) tasks.push_back(Task{snapshots.size() - 1, position});
      checks.emplace_back(order[i], it->second);
    }
    if (tasks.size() >= kWindowTasks) flush();
    begin = end;
  }
  flush();
  return stats;
}

}  // namespace perfbench
