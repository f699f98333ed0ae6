// The CycleTrace wire schema, defined once.
//
// Every record of a trace export has one field list below. It names each
// key once, in wire order, and binds it to the struct member it carries.
// WriteTraceJsonl and WriteTraceCsv (trace_export.cc) and ParseTraceJsonl
// (src/replay/trace_reader.cc) walk these lists; no other code spells a key.
//
// Each field gives:
//   - its key and its C++ member (a member of the record, or a member of one
//     of its members: the header's TraceContext, the cycle's node health);
//   - its JSON type, which follows from the member's C++ type:
//       bool                      true / false
//       int, int32, uint64        integer, read with std::from_chars into
//                                 the member's own type
//       double                    number; NaN and ±inf are written as null,
//                                 and null reads back as NaN
//       std::string               string ('"', '\\', newline, tab escaped)
//       std::vector<double>       array of numbers or nulls
//       std::vector<NodeId>       array of integers
//       record or optional record object, or positional array for the
//                                 tuple-encoded records (kTupleEncoded)
//       std::vector<record>       array of those
//       scenario pairs            object of name: number
//     so a double may be null and an integer or boolean never is;
//   - its version gate (Since): the first schema version carrying the key;
//   - its optional group (In): a condition on the record under which the
//     writer emits the key. Each condition is false for the struct's
//     defaults, so a trace recorded before a group existed re-exports
//     byte-identically.
// The CSV form carries the always-written fields, in the same order, less
// the JSONL framing marked NotInCsv.
//
// The reader accepts exactly what the writer can emit: an object must carry
// exactly the keys the writer would write for the values read from it, so
// an unknown, duplicate or missing key, a half-present group, or a group
// whose condition does not hold (say "cell_size":0) is an error.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/cycle_trace.h"
#include "obs/trace_export.h"

namespace mwp::obs::schema {

/// The JSONL header record: the run's TraceContext plus what the writer
/// derives, the schema version and the number of cycle records that follow.
struct TraceHeader {
  int schema_version = kTraceSchemaVersion;
  TraceContext context;
  std::uint64_t num_cycles = 0;
};

/// First token of a CSV export's preamble line.
inline constexpr std::string_view kCsvMagic = "# mwp-cycle-trace";

namespace detail {

template <typename C, typename M>
C ClassOf(M C::*);

template <auto First, auto... Rest, typename R>
constexpr auto& Access(R& record) {
  if constexpr (sizeof...(Rest) == 0) {
    return record.*First;
  } else {
    return Access<Rest...>(record.*First);
  }
}

}  // namespace detail

/// The record's `"record":value` discriminator (header and cycle lines).
struct Tag {
  std::string_view key;
  std::string_view value;
};

template <typename T>
inline constexpr bool kIsTag = std::is_same_v<std::remove_cvref_t<T>, Tag>;

template <typename T>
inline constexpr bool kIsOptional = false;
template <typename T>
inline constexpr bool kIsOptional<std::optional<T>> = true;

/// TraceContext::scenario: a JSON object of name: number.
using Scenario = std::vector<std::pair<std::string, double>>;

/// One key bound to a member path of record R.
template <typename R, auto... Path>
struct Field {
  using Member = std::remove_cvref_t<decltype(detail::Access<Path...>(
      std::declval<R&>()))>;

  std::string_view key;
  int since = 1;
  bool (*group)(const R&) = nullptr;  ///< null: always written
  /// The CSV form carries the always-written fields, less JSONL framing.
  bool in_csv = true;

  constexpr Field Since(int version) const {
    Field f = *this;
    f.since = version;
    return f;
  }
  constexpr Field In(bool (*condition)(const R&)) const {
    Field f = *this;
    f.group = condition;
    f.in_csv = false;
    return f;
  }
  /// JSONL framing the CSV form does not carry.
  constexpr Field NotInCsv() const {
    Field f = *this;
    f.in_csv = false;
    return f;
  }

  static constexpr auto& Get(R& record) {
    return detail::Access<Path...>(record);
  }
  static constexpr const auto& Get(const R& record) {
    return detail::Access<Path...>(record);
  }
  /// Whether the writer emits this key for `record`.
  bool Written(const R& record) const {
    return group == nullptr || group(record);
  }
};

template <auto First, auto... Rest>
constexpr auto Key(std::string_view key) {
  using R = decltype(detail::ClassOf(First));
  return Field<R, First, Rest...>{key};
}

// --- optional groups -------------------------------------------------------

constexpr bool HasScenario(const TraceHeader& h) {
  return !h.context.scenario.empty();
}
constexpr bool ShardedOptions(const TraceSolverOptions& o) {
  return o.cell_size > 0;
}
constexpr bool ObjectiveOptions(const TraceSolverOptions& o) {
  return o.objective != 0;
}
constexpr bool HasCredits(const CycleInputRecord& in) {
  return !in.fairness_credits.empty();
}
constexpr bool ShardedCycle(const CycleTrace& t) { return t.num_cells > 0; }
constexpr bool HasTrigger(const CycleTrace& t) { return !t.trigger.empty(); }
/// Full tracing: input and decision travel together.
constexpr bool FullTrace(const CycleTrace& t) { return t.input.has_value(); }

// --- field lists -----------------------------------------------------------

/// Records with a field list; the primary template is never defined.
template <typename R>
struct Schema;

template <typename R>
concept WireRecord = requires { Schema<R>::kFields; };

/// Records written as a positional array instead of an object.
template <typename R>
inline constexpr bool kTupleEncoded = false;

using Separation = std::pair<AppId, AppId>;

template <>
inline constexpr bool kTupleEncoded<TracePlacementCell> = true;
template <>
inline constexpr bool kTupleEncoded<Separation> = true;

/// Read before the rest of the header: it decides the other keys' gates.
inline constexpr auto kSchemaVersion =
    Key<&TraceHeader::schema_version>("schema_version");

template <>
struct Schema<TraceHeader> {
  static constexpr auto kFields = std::tuple{
      Tag{"record", "header"},
      kSchemaVersion,
      Key<&TraceHeader::context, &TraceContext::run_id>("run_id").Since(2),
      Key<&TraceHeader::context, &TraceContext::experiment>("experiment"),
      Key<&TraceHeader::context, &TraceContext::seed>("seed"),
      Key<&TraceHeader::context, &TraceContext::control_cycle>(
          "control_cycle"),
      Key<&TraceHeader::context, &TraceContext::build_type>("build_type"),
      Key<&TraceHeader::context, &TraceContext::git_sha>("git_sha"),
      Key<&TraceHeader::context, &TraceContext::scenario>("scenario")
          .In(HasScenario),
      Key<&TraceHeader::num_cycles>("num_cycles").NotInCsv(),
  };
};

template <>
struct Schema<CycleTrace> {
  using N = NodeHealthSummary;
  static constexpr auto kFields = std::tuple{
      Tag{"record", "cycle"},
      Key<&CycleTrace::run_id>("run_id").Since(2),
      Key<&CycleTrace::cycle>("cycle"),
      Key<&CycleTrace::time>("time"),
      Key<&CycleTrace::avg_job_rp>("avg_job_rp"),
      Key<&CycleTrace::min_job_rp>("min_job_rp"),
      Key<&CycleTrace::num_jobs>("num_jobs"),
      Key<&CycleTrace::running_jobs>("running_jobs"),
      Key<&CycleTrace::queued_jobs>("queued_jobs"),
      Key<&CycleTrace::suspended_jobs>("suspended_jobs"),
      Key<&CycleTrace::batch_allocation>("batch_allocation"),
      Key<&CycleTrace::tx_allocation>("tx_allocation"),
      Key<&CycleTrace::cluster_utilization>("cluster_utilization"),
      Key<&CycleTrace::starts>("starts"),
      Key<&CycleTrace::stops>("stops"),
      Key<&CycleTrace::suspends>("suspends"),
      Key<&CycleTrace::resumes>("resumes"),
      Key<&CycleTrace::migrations>("migrations"),
      Key<&CycleTrace::failed_operations>("failed_operations"),
      Key<&CycleTrace::evaluations>("evaluations"),
      Key<&CycleTrace::shortcut>("shortcut"),
      Key<&CycleTrace::solver_seconds>("solver_seconds"),
      Key<&CycleTrace::cache_hits>("cache_hits"),
      Key<&CycleTrace::cache_misses>("cache_misses"),
      Key<&CycleTrace::distribute_calls>("distribute_calls"),
      Key<&CycleTrace::node_health, &N::online>("nodes_online"),
      Key<&CycleTrace::node_health, &N::degraded>("nodes_degraded"),
      Key<&CycleTrace::node_health, &N::offline>("nodes_offline"),
      Key<&CycleTrace::node_health, &N::available_cpu>("available_cpu"),
      Key<&CycleTrace::node_health, &N::nominal_cpu>("nominal_cpu"),
      Key<&CycleTrace::rp_before>("rp_before"),
      Key<&CycleTrace::rp_after>("rp_after"),
      Key<&CycleTrace::tx_utilities>("tx_utilities"),
      Key<&CycleTrace::tx_allocations>("tx_allocations"),
      Key<&CycleTrace::num_cells>("num_cells").In(ShardedCycle),
      Key<&CycleTrace::cross_cell_migrations>("cross_cell_migrations")
          .In(ShardedCycle),
      Key<&CycleTrace::cell_solver_seconds>("cell_solver_seconds")
          .In(ShardedCycle),
      Key<&CycleTrace::trigger>("trigger").In(HasTrigger),
      Key<&CycleTrace::input>("input").Since(2).In(FullTrace),
      Key<&CycleTrace::decision>("decision").Since(2).In(FullTrace),
  };
};

template <>
struct Schema<CycleInputRecord> {
  using I = CycleInputRecord;
  static constexpr auto kFields = std::tuple{
      Key<&I::now>("now"),
      Key<&I::control_cycle>("control_cycle"),
      Key<&I::nodes>("nodes"),
      Key<&I::jobs>("jobs"),
      Key<&I::tx_apps>("tx"),
      Key<&I::options>("options"),
      Key<&I::pins>("pins"),
      Key<&I::separations>("separations"),
      Key<&I::fairness_credits>("credits").In(HasCredits),
  };
};

template <>
struct Schema<TraceNodeInput> {
  using N = TraceNodeInput;
  static constexpr auto kFields = std::tuple{
      Key<&N::num_cpus>("cpus"),
      Key<&N::cpu_speed>("speed"),
      Key<&N::memory>("memory"),
      Key<&N::state>("state"),
      Key<&N::speed_factor>("speed_factor"),
  };
};

template <>
struct Schema<TraceJobInput> {
  using J = TraceJobInput;
  static constexpr auto kFields = std::tuple{
      Key<&J::id>("id"),
      Key<&J::submit_time>("submit_time"),
      Key<&J::desired_start>("desired_start"),
      Key<&J::completion_goal>("completion_goal"),
      Key<&J::work_done>("work_done"),
      Key<&J::status>("status"),
      Key<&J::current_node>("node"),
      Key<&J::overhead_until>("overhead_until"),
      Key<&J::place_overhead>("place_overhead"),
      Key<&J::migrate_overhead>("migrate_overhead"),
      Key<&J::memory>("memory"),
      Key<&J::max_speed>("max_speed"),
      Key<&J::min_speed>("min_speed"),
      Key<&J::stages>("stages"),
  };
};

template <>
struct Schema<TraceStageInput> {
  using S = TraceStageInput;
  static constexpr auto kFields = std::tuple{
      Key<&S::work>("work"),
      Key<&S::max_speed>("max_speed"),
      Key<&S::min_speed>("min_speed"),
      Key<&S::memory>("memory"),
  };
};

template <>
struct Schema<TraceTxInput> {
  using T = TraceTxInput;
  static constexpr auto kFields = std::tuple{
      Key<&T::id>("id"),
      Key<&T::name>("name"),
      Key<&T::memory>("memory"),
      Key<&T::response_time_goal>("response_time_goal"),
      Key<&T::demand_per_request>("demand_per_request"),
      Key<&T::min_response_time>("min_response_time"),
      Key<&T::saturation>("saturation"),
      Key<&T::max_instances>("max_instances"),
      Key<&T::arrival_rate>("arrival_rate"),
      Key<&T::current_nodes>("nodes"),
  };
};

// max_changes_per_node, max_wishes_tried, max_migrations_tried,
// max_evaluations, grid and batch_aggregate carry build constants: the
// controller writes them and replay refuses any other value (see
// TraceSolverOptions). The reader still accepts any value of the key's type.
template <>
struct Schema<TraceSolverOptions> {
  using O = TraceSolverOptions;
  static constexpr auto kFields = std::tuple{
      Key<&O::max_sweeps>("max_sweeps"),
      Key<&O::max_changes_per_node>("max_changes_per_node"),
      Key<&O::max_wishes_tried>("max_wishes_tried"),
      Key<&O::max_migrations_tried>("max_migrations_tried"),
      Key<&O::max_evaluations>("max_evaluations"),
      Key<&O::tie_tolerance>("tie_tolerance"),
      Key<&O::grid>("grid"),
      Key<&O::level_tolerance>("level_tolerance"),
      Key<&O::probe_delta>("probe_delta"),
      Key<&O::bisection_iters>("bisection_iters"),
      Key<&O::batch_aggregate>("batch_aggregate"),
      Key<&O::cell_size>("cell_size").In(ShardedOptions),
      Key<&O::partition_seed>("partition_seed").In(ShardedOptions),
      Key<&O::max_cross_cell_moves>("max_cross_cell_moves")
          .In(ShardedOptions),
      Key<&O::objective>("objective").In(ObjectiveOptions),
      Key<&O::karma_weight>("karma_weight").In(ObjectiveOptions),
      Key<&O::karma_cap>("karma_cap").In(ObjectiveOptions),
      Key<&O::karma_earn_rate>("karma_earn_rate").In(ObjectiveOptions),
      Key<&O::pf_epsilon>("pf_epsilon").In(ObjectiveOptions),
  };
};

template <>
struct Schema<TracePin> {
  static constexpr auto kFields = std::tuple{
      Key<&TracePin::app>("app"),
      Key<&TracePin::nodes>("nodes"),
  };
};

template <>
struct Schema<CycleDecisionRecord> {
  using D = CycleDecisionRecord;
  static constexpr auto kFields = std::tuple{
      Key<&D::placement>("placement"),
      Key<&D::allocations>("allocations"),
  };
};

/// `[entity,node,count]`.
template <>
struct Schema<TracePlacementCell> {
  using C = TracePlacementCell;
  static constexpr auto kFields = std::tuple{
      Key<&C::entity>("entity"),
      Key<&C::node>("node"),
      Key<&C::count>("count"),
  };
};

/// `[a,b]`: the two apps may not share a node.
template <>
struct Schema<Separation> {
  static constexpr auto kFields = std::tuple{
      Key<&Separation::first>("a"),
      Key<&Separation::second>("b"),
  };
};

/// Calls `fn(field)` for each entry of R's field list, in wire order.
template <WireRecord R, typename Fn>
constexpr void ForEachField(Fn&& fn) {
  std::apply([&](const auto&... field) { (fn(field), ...); },
             Schema<R>::kFields);
}

/// The key bound to a member path, for messages that name a field.
template <auto First, auto... Rest>
consteval std::string_view KeyOf() {
  using R = decltype(detail::ClassOf(First));
  std::string_view key;
  ForEachField<R>([&](const auto& field) {
    if constexpr (std::is_same_v<std::remove_cvref_t<decltype(field)>,
                                 Field<R, First, Rest...>>) {
      key = field.key;
    }
  });
  return key;
}

}  // namespace mwp::obs::schema
