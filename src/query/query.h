#ifndef CSOD_QUERY_QUERY_H_
#define CSOD_QUERY_QUERY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "outlier/answer.h"

namespace csod::query {

/// \brief The paper's production query template (Section 6.1.2):
///
///     SELECT Outlier K SUM(Score), G1...Gm
///     FROM Log_Streams PARAMS(StartDate, EndDate)
///     WHERE Predicates
///     GROUP BY G1...Gm;
///
/// This module parses the template into a Query and executes it with the
/// CS-based distributed pipeline (see executor.h). `Top K` is accepted in
/// place of `Outlier K` for the Section 6.2 extension.

/// What the SELECT asks for (the answer path's kind, outlier/answer.h).
using QueryKind = outlier::QueryKind;

/// One predicate `column op 'value'`; conjunctions only (AND).
struct Predicate {
  enum class Op { kEquals, kNotEquals };
  std::string column;
  Op op = Op::kEquals;
  std::string value;
};

/// A parsed query.
struct Query {
  QueryKind kind = QueryKind::kOutlier;
  size_t k = 0;
  /// The aggregated column inside SUM(...).
  std::string score_column;
  /// GROUP BY attributes, in order (they form the composite key).
  std::vector<std::string> group_by;
  /// Source name after FROM (informational).
  std::string source;
  /// WHERE conjuncts (possibly empty).
  std::vector<Predicate> predicates;
};

/// Parses the query template. Case-insensitive keywords; the SELECT list
/// must be `SUM(col)` followed by the same attributes as GROUP BY.
/// Returns InvalidArgument with a description on malformed input.
Result<Query> ParseQuery(const std::string& text);

}  // namespace csod::query

#endif  // CSOD_QUERY_QUERY_H_
