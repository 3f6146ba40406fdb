#include "plan/physical.h"

#include <cstdio>
#include <sstream>

namespace ldp {

const char* PlanOpKindName(PlanOpKind kind) {
  switch (kind) {
    case PlanOpKind::kExactFilter:
      return "ExactFilter";
    case PlanOpKind::kNodeEstimate:
      return "NodeEstimate";
    case PlanOpKind::kAggregateCompose:
      return "AggregateCompose";
  }
  return "?";
}

const char* PlanStrategyName(PlanStrategy strategy) {
  switch (strategy) {
    case PlanStrategy::kDirectLevelGrid:
      return "direct-level-grid";
    case PlanStrategy::kScDualPath:
      return "sc-dual-path";
    case PlanStrategy::kMgCellStream:
      return "mg-cell-stream";
    case PlanStrategy::kHdgGridCombine:
      return "hdg-grid-combine";
    case PlanStrategy::kCalmMarginalCombine:
      return "calm-marginal-combine";
  }
  return "?";
}

namespace {

/// Shortest-round-trip-free fixed formatting: goldens must be stable across
/// compilers, so doubles render with an explicit %.6g.
std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

void AppendDeps(std::ostringstream& os, const std::vector<int>& deps) {
  os << "[";
  for (size_t i = 0; i < deps.size(); ++i) {
    if (i > 0) os << ",";
    os << deps[i];
  }
  os << "]";
}

void AppendOpText(std::ostringstream& os, const PlanOp& op, int index) {
  os << "  " << index << ": " << PlanOpKindName(op.kind);
  switch (op.kind) {
    case PlanOpKind::kExactFilter:
      os << " component=" << ComponentKindName(op.component) << " key=\""
         << op.weight_key << "\"";
      break;
    case PlanOpKind::kNodeEstimate:
      os << " component=" << ComponentKindName(op.component)
         << " term=" << op.term << " weights=" << op.weight_op << " deps=";
      AppendDeps(os, op.deps);
      os << " nodes~" << op.predicted_nodes;
      break;
    case PlanOpKind::kAggregateCompose:
      os << " deps=";
      AppendDeps(os, op.deps);
      break;
  }
  os << "\n";
}

}  // namespace

std::string PhysicalPlan::ToText(const Schema& schema) const {
  std::ostringstream os;
  os << "query: " << logical.query.ToString(schema) << "\n";
  os << "mechanism: " << MechanismKindName(mechanism) << "\n";
  os << "strategy: " << PlanStrategyName(strategy) << "\n";
  os << "components:";
  for (const ComponentKind c : logical.components) {
    os << " " << ComponentKindName(c);
  }
  os << "\n";
  os << "ie_terms: " << logical.terms.size() << "\n";
  os << "query_dims: " << query_dims << "\n";
  os << "query_volume: " << FormatDouble(query_volume) << "\n";
  os << "predicted_node_estimates: " << predicted_node_estimates << "\n";
  os << "predicted_variance_per_m2: " << FormatDouble(predicted_variance)
     << "\n";
  os << "advisor: recommended=" << MechanismKindName(advice.recommended)
     << " mg=" << FormatDouble(advice.mg_variance)
     << " hio=" << FormatDouble(advice.hio_variance)
     << " sc=" << FormatDouble(advice.sc_variance) << "\n";
  if (!candidates.empty()) {
    os << "candidates:";
    for (const MechanismScore& c : candidates) {
      os << " " << MechanismKindName(c.kind) << "="
         << (c.feasible ? FormatDouble(c.variance) : std::string("infeasible"));
    }
    os << "\n";
  }
  os << "epoch: " << epoch << "\n";
  char fp[32];
  std::snprintf(fp, sizeof(fp), "%016llx",
                static_cast<unsigned long long>(fingerprint));
  os << "fingerprint: " << fp << "\n";
  os << "ops:\n";
  for (size_t i = 0; i < ops.size(); ++i) {
    AppendOpText(os, ops[i], static_cast<int>(i));
  }
  return os.str();
}

std::string PhysicalPlan::ToJson(const Schema& schema) const {
  std::ostringstream os;
  os << "{\"query\":\"" << logical.query.ToString(schema) << "\""
     << ",\"mechanism\":\"" << MechanismKindName(mechanism) << "\""
     << ",\"strategy\":\"" << PlanStrategyName(strategy) << "\""
     << ",\"components\":[";
  for (size_t i = 0; i < logical.components.size(); ++i) {
    if (i > 0) os << ",";
    os << "\"" << ComponentKindName(logical.components[i]) << "\"";
  }
  os << "],\"ie_terms\":" << logical.terms.size()
     << ",\"query_dims\":" << query_dims
     << ",\"query_volume\":" << FormatDouble(query_volume)
     << ",\"predicted_node_estimates\":" << predicted_node_estimates
     << ",\"predicted_variance_per_m2\":" << FormatDouble(predicted_variance)
     << ",\"advisor\":{\"recommended\":\""
     << MechanismKindName(advice.recommended)
     << "\",\"mg\":" << FormatDouble(advice.mg_variance)
     << ",\"hio\":" << FormatDouble(advice.hio_variance)
     << ",\"sc\":" << FormatDouble(advice.sc_variance) << "}";
  if (!candidates.empty()) {
    os << ",\"candidates\":[";
    for (size_t i = 0; i < candidates.size(); ++i) {
      if (i > 0) os << ",";
      const MechanismScore& c = candidates[i];
      os << "{\"mechanism\":\"" << MechanismKindName(c.kind)
         << "\",\"feasible\":" << (c.feasible ? "true" : "false")
         << ",\"variance\":" << FormatDouble(c.variance) << "}";
    }
    os << "]";
  }
  os << ",\"epoch\":" << epoch << ",\"fingerprint\":\"";
  char fp[32];
  std::snprintf(fp, sizeof(fp), "%016llx",
                static_cast<unsigned long long>(fingerprint));
  os << fp << "\",\"ops\":[";
  for (size_t i = 0; i < ops.size(); ++i) {
    if (i > 0) os << ",";
    const PlanOp& op = ops[i];
    os << "{\"kind\":\"" << PlanOpKindName(op.kind) << "\"";
    if (op.kind != PlanOpKind::kAggregateCompose) {
      os << ",\"component\":\"" << ComponentKindName(op.component) << "\"";
    }
    if (op.kind == PlanOpKind::kNodeEstimate) {
      os << ",\"term\":" << op.term << ",\"weights\":" << op.weight_op
         << ",\"predicted_nodes\":" << op.predicted_nodes;
    }
    os << ",\"deps\":";
    std::ostringstream deps;
    AppendDeps(deps, op.deps);
    os << deps.str() << "}";
  }
  os << "]}";
  return os.str();
}

}  // namespace ldp
