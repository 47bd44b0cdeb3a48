#include "trace.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <fstream>
#include <map>

#include "util/json_writer.h"

namespace perfbench {
namespace {

struct OpenSpan {
  const Tracer* owner = nullptr;
  int32_t index = -1;
};

thread_local OpenSpan tls_open;

int32_t ThisThreadId() {
  static std::atomic<int32_t> next{0};
  thread_local const int32_t id = next.fetch_add(1);
  return id;
}

double NsToMs(int64_t ns) { return static_cast<double>(ns) * 1e-6; }

}  // namespace

double NearestRank(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<size_t>(rank, 1, samples.size());
  return samples[rank - 1];
}

std::vector<double> SelfTimesMs(const std::vector<SpanRecord>& spans) {
  std::vector<std::vector<int32_t>> children(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const int32_t parent = spans[i].parent;
    if (parent >= 0 && static_cast<size_t>(parent) < spans.size()) {
      children[static_cast<size_t>(parent)].push_back(
          static_cast<int32_t>(i));
    }
  }
  std::vector<double> self(spans.size(), 0.0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& span = spans[i];
    // Union of the child intervals clipped to the span, so overlapping
    // children are not subtracted twice.
    std::vector<std::pair<int64_t, int64_t>> covered;
    for (int32_t c : children[i]) {
      const SpanRecord& child = spans[static_cast<size_t>(c)];
      const int64_t lo = std::max(child.start_ns, span.start_ns);
      const int64_t hi = std::min(child.end_ns, span.end_ns);
      if (hi > lo) covered.emplace_back(lo, hi);
    }
    std::sort(covered.begin(), covered.end());
    int64_t covered_ns = 0;
    int64_t run_lo = 0;
    int64_t run_hi = -1;
    for (const auto& [lo, hi] : covered) {
      if (lo > run_hi) {
        if (run_hi > run_lo) covered_ns += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    if (run_hi > run_lo) covered_ns += run_hi - run_lo;
    self[i] = NsToMs(span.end_ns - span.start_ns - covered_ns);
  }
  return self;
}

std::vector<SpanSummary> Summarize(const std::vector<SpanRecord>& spans) {
  const std::vector<double> self = SelfTimesMs(spans);
  std::vector<SpanSummary> summaries;
  std::map<std::string, size_t> slot;
  std::vector<std::vector<double>> durations;
  for (size_t i = 0; i < spans.size(); ++i) {
    auto [it, inserted] = slot.emplace(spans[i].name, summaries.size());
    if (inserted) {
      summaries.push_back(SpanSummary{spans[i].name});
      durations.emplace_back();
    }
    SpanSummary& summary = summaries[it->second];
    const double ms = NsToMs(spans[i].end_ns - spans[i].start_ns);
    ++summary.count;
    summary.total_ms += ms;
    summary.self_ms += self[i];
    durations[it->second].push_back(ms);
  }
  for (size_t s = 0; s < summaries.size(); ++s) {
    summaries[s].p50_ms = NearestRank(durations[s], 50.0);
    summaries[s].p90_ms = NearestRank(durations[s], 90.0);
  }
  return summaries;
}

std::vector<double> DurationsMs(const std::vector<SpanRecord>& spans,
                                const std::string& name) {
  std::vector<double> out;
  for (const SpanRecord& span : spans) {
    if (span.name == name) out.push_back(NsToMs(span.end_ns - span.start_ns));
  }
  return out;
}

Tracer::Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

int64_t Tracer::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

Tracer::Scope Tracer::Span(const char* name, int64_t request) {
  if (!enabled_) return Scope(nullptr, -1, -1);
  const int32_t parent = tls_open.owner == this ? tls_open.index : -1;
  SpanRecord record;
  record.name = name;
  record.parent = parent;
  record.request = request;
  record.thread = ThisThreadId();
  int32_t index = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    index = static_cast<int32_t>(spans_.size());
    record.start_ns = NowNs();
    spans_.push_back(std::move(record));
  }
  tls_open = {this, index};
  return Scope(this, index, parent);
}

void Tracer::Close(int32_t index, int32_t saved_parent) {
  const int64_t end = NowNs();
  {
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<size_t>(index)].end_ns = end;
  }
  tls_open = {this, saved_parent};
}

Tracer::Scope::~Scope() {
  if (tracer_ != nullptr) tracer_->Close(index_, saved_parent_);
}

std::vector<SpanRecord> Tracer::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {spans_.begin(), spans_.end()};
}

bool Tracer::Write(const std::string& path_prefix,
                   const std::vector<std::pair<std::string, std::string>>&
                       provenance) const {
  const std::vector<SpanRecord> spans = Spans();
  msopds::JsonWriter trace;
  trace.BeginObject().Key("traceEvents").BeginArray();
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& span = spans[i];
    const std::string name = span.name;
    const std::string layer = name.substr(0, name.find('.'));
    trace.BeginObject()
        .Key("name").String(name)
        .Key("cat").String(layer)
        .Key("ph").String("X")
        .Key("ts").Double(static_cast<double>(span.start_ns) * 1e-3)
        .Key("dur").Double(static_cast<double>(span.end_ns - span.start_ns) *
                           1e-3)
        .Key("pid").Int(1)
        .Key("tid").Int(span.thread)
        .Key("args").BeginObject()
        .Key("span").Int(static_cast<int64_t>(i))
        .Key("parent").Int(span.parent)
        .Key("request").Int(span.request)
        .EndObject()
        .EndObject();
  }
  trace.EndArray().Key("displayTimeUnit").String("ms");
  trace.Key("otherData").BeginObject();
  for (const auto& [key, value] : provenance) trace.Key(key).String(value);
  trace.EndObject().EndObject();

  msopds::JsonWriter summary;
  summary.BeginObject().Key("provenance").BeginObject();
  for (const auto& [key, value] : provenance) summary.Key(key).String(value);
  summary.EndObject().Key("spans").BeginArray();
  for (const SpanSummary& s : Summarize(spans)) {
    summary.BeginObject()
        .Key("name").String(s.name)
        .Key("count").Int(s.count)
        .Key("total_ms").Double(s.total_ms)
        .Key("self_ms").Double(s.self_ms)
        .Key("p50_ms").Double(s.p50_ms)
        .Key("p90_ms").Double(s.p90_ms)
        .EndObject();
  }
  summary.EndArray().EndObject();

  std::ofstream trace_out(path_prefix + ".trace.json", std::ios::trunc);
  trace_out << trace.TakeString() << '\n';
  std::ofstream summary_out(path_prefix + ".summary.json", std::ios::trunc);
  summary_out << summary.TakeString() << '\n';
  return trace_out.good() && summary_out.good();
}

}  // namespace perfbench
