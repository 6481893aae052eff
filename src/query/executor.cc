#include "query/executor.h"

#include <algorithm>
#include <cstdlib>
#include <map>

#include "core/detector.h"
#include "dist/comm.h"
#include "outlier/outlier.h"
#include "workload/key_dictionary.h"

namespace csod::query {

Result<size_t> LogTable::ColumnIndex(const std::string& name) const {
  for (size_t i = 0; i < columns.size(); ++i) {
    if (columns[i] == name) return i;
  }
  return Status::NotFound("no column '" + name + "'");
}

Status LogTable::AddRow(std::vector<std::string> row) {
  if (row.size() != columns.size()) {
    return Status::InvalidArgument(
        "AddRow: row has " + std::to_string(row.size()) + " cells, table has " +
        std::to_string(columns.size()) + " columns");
  }
  rows.push_back(std::move(row));
  return Status::OK();
}

namespace {

// Per-table resolved column positions for one query.
struct ResolvedColumns {
  size_t score = 0;
  std::vector<size_t> group_by;
  std::vector<size_t> predicate;
};

Result<ResolvedColumns> Resolve(const Query& query, const LogTable& table) {
  ResolvedColumns resolved;
  CSOD_ASSIGN_OR_RETURN(resolved.score,
                        table.ColumnIndex(query.score_column));
  for (const std::string& attr : query.group_by) {
    CSOD_ASSIGN_OR_RETURN(size_t idx, table.ColumnIndex(attr));
    resolved.group_by.push_back(idx);
  }
  for (const Predicate& predicate : query.predicates) {
    CSOD_ASSIGN_OR_RETURN(size_t idx, table.ColumnIndex(predicate.column));
    resolved.predicate.push_back(idx);
  }
  return resolved;
}

bool RowPasses(const Query& query, const ResolvedColumns& resolved,
               const std::vector<std::string>& row) {
  for (size_t p = 0; p < query.predicates.size(); ++p) {
    const bool equal = row[resolved.predicate[p]] == query.predicates[p].value;
    const bool want_equal =
        query.predicates[p].op == Predicate::Op::kEquals;
    if (equal != want_equal) return false;
  }
  return true;
}

std::string CompositeKey(const ResolvedColumns& resolved,
                         const std::vector<std::string>& row) {
  std::string key;
  for (size_t g = 0; g < resolved.group_by.size(); ++g) {
    if (g > 0) key += '|';
    key += row[resolved.group_by[g]];
  }
  return key;
}

// Per-node aggregation: composite key -> partial SUM(score).
Result<std::map<std::string, double>> AggregateNode(const Query& query,
                                                    const LogTable& table) {
  CSOD_ASSIGN_OR_RETURN(ResolvedColumns resolved, Resolve(query, table));
  std::map<std::string, double> sums;
  for (const auto& row : table.rows) {
    if (!RowPasses(query, resolved, row)) continue;
    char* end = nullptr;
    const double score = std::strtod(row[resolved.score].c_str(), &end);
    if (end == row[resolved.score].c_str()) {
      return Status::InvalidArgument("non-numeric score value: '" +
                                     row[resolved.score] + "'");
    }
    sums[CompositeKey(resolved, row)] += score;
  }
  return sums;
}

// Shared pre-pass: per-node aggregates + the consensus dictionary.
struct PreparedInput {
  std::vector<std::map<std::string, double>> node_sums;
  workload::GlobalKeyDictionary dictionary;
};

Result<PreparedInput> Prepare(const Query& query,
                              const std::vector<LogTable>& node_tables) {
  if (node_tables.empty()) {
    return Status::InvalidArgument("no node tables");
  }
  PreparedInput prepared;
  for (const LogTable& table : node_tables) {
    CSOD_ASSIGN_OR_RETURN(auto sums, AggregateNode(query, table));
    for (const auto& [key, value] : sums) {
      prepared.dictionary.Intern(key);
      (void)value;
    }
    prepared.node_sums.push_back(std::move(sums));
  }
  if (prepared.dictionary.size() == 0) {
    return Status::InvalidArgument(
        "no rows matched the WHERE predicates");
  }
  return prepared;
}

// Answer rows in rank order: the key's text, its value, and its rank score
// (the divergence; == value for Top answers).
Status FillRows(const outlier::OutlierSet& set,
                const workload::GlobalKeyDictionary& dictionary,
                QueryResult* result) {
  result->mode = set.mode;
  for (const outlier::Outlier& o : set.outliers) {
    CSOD_ASSIGN_OR_RETURN(std::string key, dictionary.KeyOf(o.key_index));
    result->rows.push_back(ResultRow{std::move(key), o.value, o.divergence});
  }
  return Status::OK();
}

}  // namespace

Result<QueryResult> ExecuteDistributed(
    const Query& query, const std::vector<LogTable>& node_tables,
    const ExecutionOptions& options) {
  if (options.m == 0) {
    return Status::InvalidArgument("ExecutionOptions.m must be > 0");
  }
  CSOD_ASSIGN_OR_RETURN(PreparedInput prepared,
                        Prepare(query, node_tables));
  const size_t n = prepared.dictionary.size();

  core::DetectorOptions detector_options;
  detector_options.n = n;
  detector_options.m = std::min(options.m, n);
  detector_options.seed = options.seed;
  detector_options.iterations = options.iterations;
  CSOD_ASSIGN_OR_RETURN(
      auto detector, core::DistributedOutlierDetector::Create(detector_options));

  for (const auto& sums : prepared.node_sums) {
    cs::SparseSlice slice;
    for (const auto& [key, value] : sums) {
      CSOD_ASSIGN_OR_RETURN(size_t index, prepared.dictionary.Lookup(key));
      slice.indices.push_back(index);
      slice.values.push_back(value);
    }
    CSOD_RETURN_NOT_OK(detector->AddSource(slice).status());
  }

  QueryResult result;
  result.key_space = n;
  result.bytes_shipped = static_cast<uint64_t>(node_tables.size()) *
                         detector_options.m * dist::kMeasurementBytes;
  result.bytes_all = static_cast<uint64_t>(node_tables.size()) * n *
                     dist::kValueBytes;

  CSOD_ASSIGN_OR_RETURN(outlier::OutlierSet set,
                        detector->Answer(query.kind, query.k));
  CSOD_RETURN_NOT_OK(FillRows(set, prepared.dictionary, &result));
  return result;
}

Result<QueryResult> ExecuteExact(const Query& query,
                                 const std::vector<LogTable>& node_tables) {
  CSOD_ASSIGN_OR_RETURN(PreparedInput prepared,
                        Prepare(query, node_tables));
  const size_t n = prepared.dictionary.size();
  std::vector<double> global(n, 0.0);
  for (const auto& sums : prepared.node_sums) {
    for (const auto& [key, value] : sums) {
      CSOD_ASSIGN_OR_RETURN(size_t index, prepared.dictionary.Lookup(key));
      global[index] += value;
    }
  }

  QueryResult result;
  result.key_space = n;
  result.bytes_shipped = static_cast<uint64_t>(node_tables.size()) * n *
                         dist::kValueBytes;
  result.bytes_all = result.bytes_shipped;

  const outlier::OutlierSet set =
      query.kind == QueryKind::kOutlier
          ? outlier::ExactKOutliers(global, query.k)
          : outlier::OutlierSet{outlier::TopK(global, query.k), 0.0};
  CSOD_RETURN_NOT_OK(FillRows(set, prepared.dictionary, &result));
  return result;
}

}  // namespace csod::query
