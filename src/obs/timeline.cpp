#include "obs/timeline.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <set>
#include <utility>

#include "obs/telemetry.hpp"

namespace rcf::obs {

namespace {

// Wait spans that nest inside a collective span on the same rank (the
// collective's duration already contains them, so the decomposition must
// not count them twice).
bool is_nested_wait(std::string_view name) {
  return name == "allreduce_wait" || name == "reduce_wait" ||
         name == "contract_wait";
}

// The publish-rendezvous waits: the earliest one starts the moment the rank
// arrived at the collective, which is the signal straggler attribution is
// built on.  Under the contract checker that is the board's publish
// (contract_wait); it releases every rank together, so the allreduce_wait
// after it starts at the same time on every rank.
bool is_arrival_wait(std::string_view name) {
  return name == "allreduce_wait" || name == "contract_wait";
}

}  // namespace

SpanCategory classify_span(std::string_view name) {
  if (name == "allreduce") {
    return SpanCategory::kComm;
  }
  if (is_nested_wait(name)) {
    return SpanCategory::kWait;
  }
  if (name == "aux_collective" || name == "aux_wait") {
    return SpanCategory::kAux;
  }
  if (name == "check.contract" || name == "check.epoch") {
    return SpanCategory::kChecker;
  }
  return SpanCategory::kCompute;
}

bool is_aligned_collective(std::string_view name) {
  return classify_span(name) == SpanCategory::kComm;
}

std::int64_t CollectiveInstance::end_max_us() const {
  std::int64_t end = 0;
  for (const RankEntry& e : ranks) {
    if (e.present) {
      end = std::max(end, e.end_us);
    }
  }
  return end;
}

int Timeline::rank_index(int rank) const {
  const auto it = std::lower_bound(ranks_.begin(), ranks_.end(), rank);
  if (it == ranks_.end() || *it != rank) {
    return -1;
  }
  return static_cast<int>(it - ranks_.begin());
}

Timeline Timeline::build(std::vector<TimelineSpan> spans) {
  Timeline t;
  if (spans.empty()) {
    return t;
  }
  std::sort(spans.begin(), spans.end(),
            [](const TimelineSpan& a, const TimelineSpan& b) {
              return a.rank != b.rank ? a.rank < b.rank
                                      : a.start_us < b.start_us;
            });

  for (const TimelineSpan& s : spans) {
    if (t.ranks_.empty() || t.ranks_.back() != s.rank) {
      t.ranks_.push_back(s.rank);
    }
  }

  // -- per-rank decomposition ----------------------------------------------
  t.rank_times_.resize(t.ranks_.size());
  t.start_us_ = std::numeric_limits<std::int64_t>::max();
  t.end_us_ = std::numeric_limits<std::int64_t>::min();
  for (const TimelineSpan& s : spans) {
    RankTimes& rt = t.rank_times_[static_cast<std::size_t>(
        t.rank_index(s.rank))];
    if (rt.spans == 0) {
      rt.rank = s.rank;
      rt.first_us = s.start_us;
      rt.last_us = s.end_us();
    }
    ++rt.spans;
    rt.first_us = std::min(rt.first_us, s.start_us);
    rt.last_us = std::max(rt.last_us, s.end_us());
    t.start_us_ = std::min(t.start_us_, s.start_us);
    t.end_us_ = std::max(t.end_us_, s.end_us());
    const double secs = static_cast<double>(s.dur_us) * 1e-6;
    switch (classify_span(s.name)) {
      case SpanCategory::kComm:
        rt.comm_s += secs;
        break;
      case SpanCategory::kWait:
        rt.wait_s += secs;
        rt.comm_s -= secs;  // contained in the collective span
        break;
      case SpanCategory::kAux:
        if (s.name != "aux_wait") {  // aux_wait nests inside aux_collective
          rt.aux_s += secs;
        }
        break;
      case SpanCategory::kCompute:
        rt.compute_s += secs;
        break;
      case SpanCategory::kChecker:
        break;
    }
  }
  for (RankTimes& rt : t.rank_times_) {
    rt.comm_s = std::max(rt.comm_s, 0.0);
  }

  // -- collective alignment -------------------------------------------------
  // Key = stamped sequence number when every collective span carries one,
  // else the per-rank arrival ordinal (the SPMD schedule is identical on
  // every rank, so the i-th collective is the same collective everywhere).
  bool all_stamped = true;
  bool any_collective = false;
  for (const TimelineSpan& s : spans) {
    if (is_aligned_collective(s.name)) {
      any_collective = true;
      if (s.seq < 0) {
        all_stamped = false;
      }
    }
  }
  if (!any_collective) {
    return t;
  }
  std::map<std::int64_t, CollectiveInstance> instances;
  std::vector<std::int64_t> ordinal(t.ranks_.size(), 0);
  // Spans are (rank, start)-sorted, so the ordinal fallback counts each
  // rank's collectives in arrival order.
  for (const TimelineSpan& s : spans) {
    if (!is_aligned_collective(s.name)) {
      continue;
    }
    const auto ri = static_cast<std::size_t>(t.rank_index(s.rank));
    const std::int64_t key = all_stamped ? s.seq : ordinal[ri]++;
    CollectiveInstance& inst = instances[key];
    if (inst.ranks.empty()) {
      inst.name = s.name;
      inst.seq = key;
      inst.ranks.resize(t.ranks_.size());
      for (std::size_t i = 0; i < t.ranks_.size(); ++i) {
        inst.ranks[i].rank = t.ranks_[i];
      }
    }
    CollectiveInstance::RankEntry& entry = inst.ranks[ri];
    entry.present = true;
    entry.start_us = s.start_us;
    entry.end_us = s.end_us();
    entry.arrival_us = s.start_us;
    inst.words = std::max(inst.words, s.words);
  }

  // Attach the nested publish waits: by sequence number when stamped, by
  // containment in the rank's collective span otherwise.  The earliest
  // wait of a (collective, rank) replaces the span start as its arrival.
  std::set<std::pair<std::int64_t, std::size_t>> waited;
  for (const TimelineSpan& s : spans) {
    if (!is_arrival_wait(s.name)) {
      continue;
    }
    const auto ri = static_cast<std::size_t>(t.rank_index(s.rank));
    CollectiveInstance* inst = nullptr;
    if (all_stamped && s.seq >= 0) {
      const auto it = instances.find(s.seq);
      if (it != instances.end()) {
        inst = &it->second;
      }
    } else {
      for (auto& [key, candidate] : instances) {
        const CollectiveInstance::RankEntry& e = candidate.ranks[ri];
        if (e.present && e.start_us <= s.start_us && s.end_us() <= e.end_us) {
          inst = &candidate;
          break;
        }
      }
    }
    if (inst == nullptr || !inst->ranks[ri].present) {
      continue;
    }
    CollectiveInstance::RankEntry& entry = inst->ranks[ri];
    entry.wait_us += s.dur_us;
    // Waiting began on arrival.
    entry.arrival_us = waited.insert({inst->seq, ri}).second
                           ? s.start_us
                           : std::min(entry.arrival_us, s.start_us);
  }

  // Straggler attribution per instance.
  t.collectives_.reserve(instances.size());
  for (auto& [key, inst] : instances) {
    std::int64_t min_wait = std::numeric_limits<std::int64_t>::max();
    std::int64_t max_wait = 0;
    std::int64_t last_arrival = std::numeric_limits<std::int64_t>::min();
    int present = 0;
    for (const CollectiveInstance::RankEntry& e : inst.ranks) {
      if (!e.present) {
        continue;
      }
      ++present;
      min_wait = std::min(min_wait, e.wait_us);
      max_wait = std::max(max_wait, e.wait_us);
      inst.wait_total_us += e.wait_us;
      if (e.arrival_us > last_arrival) {
        last_arrival = e.arrival_us;
        inst.straggler_rank = e.rank;
      }
    }
    inst.last_arrival_us = present > 0 ? last_arrival : 0;
    inst.wait_imposed_us = present > 0 ? max_wait - min_wait : 0;
    if (present < 2) {
      inst.straggler_rank = -1;  // no one to make wait
    }
    t.collectives_.push_back(std::move(inst));
  }
  return t;
}

std::vector<TimelineSpan> to_timeline_spans(
    const std::vector<TelemetryEvent>& events) {
  std::vector<TimelineSpan> spans;
  spans.reserve(events.size());
  for (const TelemetryEvent& ev : events) {
    spans.push_back(TimelineSpan{ev.name, ev.rank, ev.seq, ev.start_us,
                                 ev.dur_us, ev.words});
  }
  return spans;
}

}  // namespace rcf::obs
