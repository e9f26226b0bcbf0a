#include "query/physical_plan.h"

#include <unordered_map>
#include <unordered_set>

#include "common/string_util.h"
#include "measure/scores.h"

namespace netout {
namespace {

std::string FormatTrimmedDouble(double value) {
  std::string text = FormatDouble(value, 6);
  while (text.back() == '0') text.pop_back();
  if (text.back() == '.') text.pop_back();
  return text;
}

const char* CombineModeName(CombineMode mode) {
  switch (mode) {
    case CombineMode::kWeightedAverage:
      return "weighted-average";
    case CombineMode::kRankAverage:
      return "rank-average";
    case CombineMode::kJointConnectivity:
      return "joint-connectivity";
  }
  return "?";
}

std::string DescribeOp(const Hin& hin, const PhysicalOp& op) {
  const Schema& schema = hin.schema();
  switch (op.kind) {
    case PhysOpKind::kEvalSet:
      switch (op.set_kind) {
        case SetExpr::Kind::kPrimary: {
          const ResolvedPrimary& primary = *op.primary;
          if (!primary.anchor.has_value()) {
            return "all " + schema.VertexTypeName(primary.element_type);
          }
          std::string out = schema.VertexTypeName(primary.anchor->type) +
                            "{\"" + hin.VertexName(*primary.anchor) + "\"}";
          if (primary.hops.length() > 0) {
            out += " via " + primary.hops.ToString(schema);
          }
          return out;
        }
        case SetExpr::Kind::kUnion:
          return "UNION";
        case SetExpr::Kind::kIntersect:
          return "INTERSECT";
        case SetExpr::Kind::kExcept:
          return "EXCEPT";
      }
      return "?";
    case PhysOpKind::kFilter:
      return "WHERE " + FormatWhere(hin, *op.where);
    case PhysOpKind::kMaterialize: {
      const char* how = op.extends ? "extend " : "path ";
      std::string out = how + op.path.ToString(schema);
      if (op.matrix_input != kNoOp) out += " (apply matrix)";
      return out;
    }
    case PhysOpKind::kBuildMatrix:
      return op.path.ToString(schema) +
             (op.build_reverse ? " (reverse build)" : "");
    case PhysOpKind::kScore:
      return OutlierMeasureToString(op.query->measure);
    case PhysOpKind::kCombine: {
      std::string out = CombineModeName(op.query->combine);
      out += " weights [";
      for (std::size_t i = 0; i < op.query->features.size(); ++i) {
        if (i > 0) out += ", ";
        out += FormatTrimmedDouble(op.query->features[i].weight);
      }
      out += "]";
      return out;
    }
    case PhysOpKind::kTopK:
      return "k=" + std::to_string(op.query->top_k);
  }
  return "?";
}

const char* LabelOf(PhysOpKind kind) {
  switch (kind) {
    case PhysOpKind::kEvalSet:
      return "EvalSet";
    case PhysOpKind::kFilter:
      return "Filter";
    case PhysOpKind::kMaterialize:
      return "Materialize";
    case PhysOpKind::kScore:
      return "Score";
    case PhysOpKind::kCombine:
      return "Combine";
    case PhysOpKind::kTopK:
      return "TopK";
    case PhysOpKind::kBuildMatrix:
      return "BuildMatrix";
  }
  return "?";
}

void RenderOp(const std::unordered_map<std::size_t, std::size_t>& position,
              std::span<const PlanOpInfo> infos, std::size_t id, int depth,
              bool include_runtime, std::unordered_set<std::size_t>* printed,
              std::string* out) {
  const auto it = position.find(id);
  if (it == position.end()) return;  // input outside this op slice
  const PlanOpInfo& info = infos[it->second];
  out->append(static_cast<std::size_t>(depth) * 2, ' ');
  // Appended piece by piece: GCC 12 at -O3 raises a false -Wrestrict
  // on `"literal" + std::string&&`.
  out->append("#").append(std::to_string(info.id)).append(" ").append(
      info.label);
  if (!info.detail.empty()) *out += " " + info.detail;
  if (!printed->insert(id).second) {
    *out += " (see above)\n";
    return;
  }
  if (!info.index_mode.empty()) *out += " [" + info.index_mode + "]";
  if (info.reuse_count > 1) {
    *out += " (shared x" + std::to_string(info.reuse_count) + ")";
  }
  if (include_runtime) {
    if (info.executed) {
      *out += " {" +
              FormatDouble(static_cast<double>(info.wall_nanos) / 1e6, 3) +
              " ms, " + std::to_string(info.rows) + " rows";
      if (info.est_rows > 0) {
        *out += ", est " + std::to_string(info.est_rows);
      }
      *out += "}";
    } else {
      *out += " {not executed}";
    }
  }
  *out += "\n";
  for (const std::size_t input : info.inputs) {
    RenderOp(position, infos, input, depth + 1, include_runtime, printed,
             out);
  }
}

}  // namespace

std::string FormatWhere(const Hin& hin, const ResolvedWhere& where) {
  switch (where.kind) {
    case WhereExpr::Kind::kAtom:
      return "COUNT(" + where.atom.path.ToString(hin.schema()) + ") " +
             CmpOpToString(where.atom.op) + " " +
             FormatTrimmedDouble(where.atom.value);
    case WhereExpr::Kind::kNot:
      return "NOT (" + FormatWhere(hin, *where.lhs) + ")";
    case WhereExpr::Kind::kAnd:
    case WhereExpr::Kind::kOr: {
      std::string text = "(";
      text += FormatWhere(hin, *where.lhs);
      text += where.kind == WhereExpr::Kind::kAnd ? " AND " : " OR ";
      text += FormatWhere(hin, *where.rhs);
      text += ")";
      return text;
    }
  }
  return "?";
}

std::vector<PlanOpInfo> DescribePhysicalPlan(const Hin& hin,
                                             const PhysicalPlan& plan) {
  std::vector<PlanOpInfo> infos;
  infos.reserve(plan.ops.size());
  for (std::size_t id = 0; id < plan.ops.size(); ++id) {
    const PhysicalOp& op = plan.ops[id];
    PlanOpInfo info;
    info.id = id;
    info.inputs = op.inputs;
    info.label = LabelOf(op.kind);
    info.detail = DescribeOp(hin, op);
    const bool traverses =
        op.kind == PhysOpKind::kMaterialize ||
        (op.kind == PhysOpKind::kEvalSet &&
         op.set_kind == SetExpr::Kind::kPrimary && op.primary != nullptr &&
         op.primary->anchor.has_value() && op.primary->hops.length() > 0);
    if (traverses) {
      info.index_mode = op.index_mode == IndexMode::kIndexed
                            ? plan.index_name
                            : "traverse";
    }
    info.reuse_count =
        id < plan.consumer_count.size() && plan.consumer_count[id] > 1
            ? plan.consumer_count[id]
            : 1;
    info.est_rows = op.est_rows;
    infos.push_back(std::move(info));
  }
  return infos;
}

std::string RenderPlan(std::span<const PlanOpInfo> infos,
                       bool include_runtime) {
  std::unordered_map<std::size_t, std::size_t> position;
  std::unordered_set<std::size_t> consumed;
  for (std::size_t i = 0; i < infos.size(); ++i) {
    position[infos[i].id] = i;
    for (const std::size_t input : infos[i].inputs) consumed.insert(input);
  }
  std::string out;
  std::unordered_set<std::size_t> printed;
  for (const PlanOpInfo& info : infos) {
    if (consumed.contains(info.id)) continue;
    RenderOp(position, infos, info.id, 0, include_runtime, &printed, &out);
  }
  return out;
}

}  // namespace netout
