#include "server/protocol.h"

#include <utility>

#include "common/json.h"
#include "query/result_json.h"

namespace netout {
namespace {

/// Re-serializes an id value for verbatim echo. Only scalar ids are
/// accepted — an object/array id is hostile-input bait (it can nest to
/// the depth cap and bloat every response).
Result<std::string> SerializeId(const JsonValue& id) {
  JsonWriter json;
  switch (id.kind()) {
    case JsonValue::Kind::kNull:
      json.Null();
      break;
    case JsonValue::Kind::kBool:
      json.Bool(id.bool_value());
      break;
    case JsonValue::Kind::kNumber:
      json.Number(id.number_value());
      break;
    case JsonValue::Kind::kString:
      json.String(id.string_value());
      break;
    default:
      return Status::ParseError("'id' must be a scalar");
  }
  return std::move(json).Take();
}

Result<std::int64_t> PositiveInt(const JsonValue& value,
                                 std::string_view name) {
  Result<std::int64_t> parsed = value.AsInt64();
  if (!parsed.ok() || parsed.value() < 0) {
    // Built with append: GCC 12 at -O3 raises a false -Wrestrict on
    // `"'" + std::string&&` (also below).
    return Status::ParseError(std::string("'").append(name).append(
        "' must be a non-negative integer"));
  }
  return parsed;
}

void BeginEnvelope(JsonWriter* json, const Request* request, bool ok,
                   RequestOp op) {
  json->BeginObject();
  if (request != nullptr && !request->id_json.empty()) {
    json->Key("id");
    json->RawValue(request->id_json);
  }
  json->Key("ok");
  json->Bool(ok);
  json->Key("op");
  json->String(RequestOpName(op));
}

}  // namespace

const char* RequestOpName(RequestOp op) {
  switch (op) {
    case RequestOp::kQuery:
      return "query";
    case RequestOp::kAddVertex:
      return "add_vertex";
    case RequestOp::kAddEdge:
      return "add_edge";
    case RequestOp::kDeleteEdge:
      return "delete_edge";
    case RequestOp::kPing:
      return "ping";
    case RequestOp::kStats:
      return "stats";
    case RequestOp::kConfig:
      return "config";
    case RequestOp::kShutdown:
      return "shutdown";
  }
  return "unknown";
}

bool IsMutationOp(RequestOp op) {
  return op == RequestOp::kAddVertex || op == RequestOp::kAddEdge ||
         op == RequestOp::kDeleteEdge;
}

Result<Request> ParseRequest(std::string_view line,
                             const ProtocolLimits& limits) {
  if (line.size() > limits.max_line_bytes) {
    return Status::ResourceExhausted("request line exceeds " +
                                     std::to_string(limits.max_line_bytes) +
                                     " bytes");
  }
  JsonParseOptions parse_options;
  parse_options.max_depth = limits.max_json_depth;
  NETOUT_ASSIGN_OR_RETURN(JsonValue doc, JsonParse(line, parse_options));
  if (!doc.is_object()) {
    return Status::ParseError("request must be a JSON object");
  }

  Request request;
  bool saw_op = false;
  bool saw_mutation_member = false;
  bool saw_count = false;
  const auto parse_name = [&](const JsonValue& value, std::string_view name,
                              std::string* out) -> Status {
    if (!value.is_string() || value.string_value().empty()) {
      return Status::ParseError(std::string("'").append(name).append(
          "' must be a non-empty string"));
    }
    *out = value.string_value();
    saw_mutation_member = true;
    return Status::OK();
  };
  for (const auto& [key, value] : doc.members()) {
    if (key == "op") {
      if (!value.is_string()) {
        return Status::ParseError("'op' must be a string");
      }
      const std::string& op = value.string_value();
      if (op == "query") {
        request.op = RequestOp::kQuery;
      } else if (op == "add_vertex") {
        request.op = RequestOp::kAddVertex;
      } else if (op == "add_edge") {
        request.op = RequestOp::kAddEdge;
      } else if (op == "delete_edge") {
        request.op = RequestOp::kDeleteEdge;
      } else if (op == "ping") {
        request.op = RequestOp::kPing;
      } else if (op == "stats") {
        request.op = RequestOp::kStats;
      } else if (op == "config") {
        request.op = RequestOp::kConfig;
      } else if (op == "shutdown") {
        request.op = RequestOp::kShutdown;
      } else {
        return Status::ParseError("unknown op '" + op + "'");
      }
      saw_op = true;
    } else if (key == "id") {
      NETOUT_ASSIGN_OR_RETURN(request.id_json, SerializeId(value));
    } else if (key == "q") {
      if (!value.is_string()) {
        return Status::ParseError("'q' must be a string");
      }
      request.query = value.string_value();
    } else if (key == "type") {
      NETOUT_RETURN_IF_ERROR(parse_name(value, key, &request.vertex_type));
    } else if (key == "name") {
      NETOUT_RETURN_IF_ERROR(parse_name(value, key, &request.vertex_name));
    } else if (key == "edge") {
      NETOUT_RETURN_IF_ERROR(parse_name(value, key, &request.edge_type));
    } else if (key == "src") {
      NETOUT_RETURN_IF_ERROR(parse_name(value, key, &request.src_name));
    } else if (key == "dst") {
      NETOUT_RETURN_IF_ERROR(parse_name(value, key, &request.dst_name));
    } else if (key == "count") {
      NETOUT_ASSIGN_OR_RETURN(request.count, PositiveInt(value, "count"));
      if (request.count < 1) {
        return Status::ParseError("'count' must be at least 1");
      }
      saw_mutation_member = true;
      saw_count = true;
    } else if (key == "timeout_ms") {
      NETOUT_ASSIGN_OR_RETURN(request.timeout_millis,
                              PositiveInt(value, "timeout_ms"));
    } else if (key == "memory_budget_mb") {
      NETOUT_ASSIGN_OR_RETURN(std::int64_t mb,
                              PositiveInt(value, "memory_budget_mb"));
      // Cap before shifting: 2^43 MiB already exceeds any real budget
      // and (mb << 20) would overflow int64 near 2^43.
      if (mb > (std::int64_t{1} << 40)) {
        return Status::ParseError("'memory_budget_mb' is implausibly large");
      }
      request.memory_budget_bytes = mb << 20;
    } else {
      // Unknown members are rejected, mirroring the CLI's unknown-flag
      // policy: a typo like "timout_ms" must fail loudly, not silently
      // run without the limit.
      return Status::ParseError("unknown request member '" + key + "'");
    }
  }
  if (!saw_op) {
    if (request.query.empty()) {
      return Status::ParseError("request needs 'op' (or a 'q' query)");
    }
    request.op = RequestOp::kQuery;  // {"q": ...} shorthand
  }
  if (request.op == RequestOp::kQuery && request.query.empty()) {
    return Status::ParseError("'query' op needs a non-empty 'q'");
  }
  if (request.op != RequestOp::kQuery && !request.query.empty()) {
    return Status::ParseError("'q' is only valid with op 'query'");
  }
  if (!IsMutationOp(request.op) && saw_mutation_member) {
    return Status::ParseError(
        "'type'/'name'/'edge'/'src'/'dst'/'count' are only valid with "
        "mutation ops");
  }
  if (request.op == RequestOp::kAddVertex) {
    if (request.vertex_type.empty() || request.vertex_name.empty()) {
      return Status::ParseError("'add_vertex' needs 'type' and 'name'");
    }
    if (!request.edge_type.empty() || !request.src_name.empty() ||
        !request.dst_name.empty() || saw_count) {
      return Status::ParseError(
          "'add_vertex' takes only 'type' and 'name'");
    }
  } else if (request.op == RequestOp::kAddEdge ||
             request.op == RequestOp::kDeleteEdge) {
    if (request.edge_type.empty() || request.src_name.empty() ||
        request.dst_name.empty()) {
      return Status::ParseError(std::string("'")
                                    .append(RequestOpName(request.op))
                                    .append("' needs 'edge', 'src' and 'dst'"));
    }
    if (!request.vertex_type.empty() || !request.vertex_name.empty()) {
      return Status::ParseError(
          "'type'/'name' are only valid with 'add_vertex'");
    }
  }
  return request;
}

Status LineAssembler::Append(std::string_view bytes) {
  if (overflowed_) {
    return Status::ResourceExhausted("line framing already overflowed");
  }
  buffer_.append(bytes.data(), bytes.size());
  // Overflow check against the longest unterminated prefix: everything
  // before scan_pos_ has been scanned and contains no '\n', so if the
  // buffered tail has none either and exceeds the cap, no future byte
  // can rescue the line.
  if (buffer_.size() > max_line_bytes_ &&
      buffer_.find('\n', scan_pos_) == std::string::npos) {
    overflowed_ = true;
    return Status::ResourceExhausted(
        "request line exceeds " + std::to_string(max_line_bytes_) +
        " bytes without a newline");
  }
  return Status::OK();
}

bool LineAssembler::NextLine(std::string* line) {
  if (overflowed_) return false;
  const std::size_t newline = buffer_.find('\n');
  if (newline == std::string::npos) {
    scan_pos_ = buffer_.size();
    return false;
  }
  std::size_t end = newline;
  if (end > 0 && buffer_[end - 1] == '\r') --end;
  line->assign(buffer_, 0, end);
  buffer_.erase(0, newline + 1);
  scan_pos_ = 0;
  return true;
}

std::string BuildErrorResponse(const Request* request,
                               const Status& status) {
  JsonWriter json;
  BeginEnvelope(&json, request, /*ok=*/false,
                request != nullptr ? request->op : RequestOp::kQuery);
  json.Key("error");
  json.BeginObject();
  json.Key("code");
  json.String(StatusCodeToString(status.code()));
  json.Key("message");
  json.String(status.message());
  json.EndObject();
  json.EndObject();
  std::string out = std::move(json).Take();
  out.push_back('\n');
  return out;
}

std::string BuildPingResponse(const Request& request) {
  JsonWriter json;
  BeginEnvelope(&json, &request, /*ok=*/true, RequestOp::kPing);
  json.EndObject();
  std::string out = std::move(json).Take();
  out.push_back('\n');
  return out;
}

std::string BuildQueryResponse(const Hin& hin, const Request& request,
                               const QueryResult& result, bool shed,
                               double latency_ms) {
  JsonWriter json;
  BeginEnvelope(&json, &request, /*ok=*/true, RequestOp::kQuery);
  if (shed) {
    json.Key("shed");
    json.Bool(true);
  }
  json.Key("latency_ms");
  json.Number(latency_ms);
  json.Key("result");
  json.RawValue(QueryResultToJson(hin, result, /*pretty=*/false));
  json.EndObject();
  std::string out = std::move(json).Take();
  out.push_back('\n');
  return out;
}

std::string BuildMutationResponse(const Request& request,
                                  std::uint64_t epoch) {
  JsonWriter json;
  BeginEnvelope(&json, &request, /*ok=*/true, request.op);
  json.Key("epoch");
  json.Uint(epoch);
  json.EndObject();
  std::string out = std::move(json).Take();
  out.push_back('\n');
  return out;
}

std::string BuildObjectResponse(const Request& request,
                                std::string_view key,
                                std::string_view object_json) {
  JsonWriter json;
  BeginEnvelope(&json, &request, /*ok=*/true, request.op);
  json.Key(key);
  json.RawValue(object_json);
  json.EndObject();
  std::string out = std::move(json).Take();
  out.push_back('\n');
  return out;
}

}  // namespace netout
