#include "query/plan.h"

#include <sstream>

#include "common/string_util.h"
#include "obs/metrics.h"

namespace ldp {

const char* ComponentKindName(ComponentKind kind) {
  switch (kind) {
    case ComponentKind::kCount:
      return "COUNT";
    case ComponentKind::kSum:
      return "SUM";
    case ComponentKind::kSumSq:
      return "SUMSQ";
  }
  return "?";
}

namespace {

void AppendPredicate(std::ostringstream& os, const Predicate& pred) {
  switch (pred.kind()) {
    case Predicate::Kind::kConstraint:
      os << "c" << pred.constraint().attr << ":" << pred.constraint().range.lo
         << "-" << pred.constraint().range.hi;
      return;
    case Predicate::Kind::kAnd:
      os << "A(";
      break;
    case Predicate::Kind::kOr:
      os << "O(";
      break;
    case Predicate::Kind::kNot:
      os << "N(";
      break;
  }
  for (size_t i = 0; i < pred.children().size(); ++i) {
    if (i > 0) os << ",";
    AppendPredicate(os, *pred.children()[i]);
  }
  os << ")";
}

std::vector<ComponentKind> ComponentsFor(AggregateKind kind) {
  switch (kind) {
    case AggregateKind::kCount:
      return {ComponentKind::kCount};
    case AggregateKind::kSum:
      return {ComponentKind::kSum};
    case AggregateKind::kAvg:
      return {ComponentKind::kSum, ComponentKind::kCount};
    case AggregateKind::kStdev:
      return {ComponentKind::kSumSq, ComponentKind::kSum,
              ComponentKind::kCount};
  }
  return {};
}

}  // namespace

std::string QueryCacheKey(const Schema& schema, const Query& query) {
  (void)schema;
  std::ostringstream os;
  os << "agg" << static_cast<int>(query.aggregate.kind) << "[";
  for (const auto& term : query.aggregate.expr.terms) {
    os << term.attr << "*" << HexDouble(term.coef) << "+";
  }
  // Hex floats: queries differing only in the 17th digit of a coefficient
  // never share a cache key.
  os << HexDouble(query.aggregate.expr.constant) << "]|";
  if (query.where != nullptr) AppendPredicate(os, *query.where);
  return os.str();
}

Result<LogicalPlan> BuildLogicalPlan(const Schema& schema,
                                     const Query& query) {
  static Counter* rewrites = GlobalMetrics().counter("plan.rewrites");
  LDP_RETURN_NOT_OK(ValidateQuery(schema, query));
  LogicalPlan plan;
  plan.query = query;
  plan.components = ComponentsFor(query.aggregate.kind);
  plan.cache_key = QueryCacheKey(schema, query);

  LDP_ASSIGN_OR_RETURN(const std::vector<IeTerm> terms,
                       RewritePredicate(schema, query.where.get()));
  rewrites->Increment();

  plan.terms.reserve(terms.size());
  for (const IeTerm& term : terms) {
    LogicalTerm lt;
    lt.coefficient = term.coefficient;
    lt.box = term.box;
    lt.root_collapsed = true;
    for (const int attr : schema.sensitive_dims()) {
      const uint64_t m = schema.attribute(attr).domain_size;
      const Interval range = term.box.RangeOf(attr, m);
      if (range.lo != 0 || range.hi != m - 1) lt.root_collapsed = false;
      lt.sensitive.push_back(range);
    }
    for (const auto& c : term.box.constraints) {
      const AttributeKind kind = schema.attribute(c.attr).kind;
      if (kind == AttributeKind::kPublicDimension) {
        lt.public_constraints.push_back(c);
      } else if (!IsSensitive(kind)) {
        return Status::InvalidArgument(
            "constraint on non-dimension attribute");
      }
    }
    plan.terms.push_back(std::move(lt));
  }
  return plan;
}

}  // namespace ldp
