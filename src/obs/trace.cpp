#include "obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ostream>

#include "obs/json.hpp"

namespace polis::obs {

std::atomic<std::uint64_t> TraceRecorder::next_uid_{1};

std::int64_t now_us() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

std::uint32_t this_thread_id() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t id = next.fetch_add(1);
  return id;
}

TraceRecorder& TraceRecorder::global() {
  static TraceRecorder* recorder = new TraceRecorder();  // never destroyed
  return *recorder;
}

TraceRecorder::Buffer& TraceRecorder::local_buffer() {
  thread_local std::map<std::uint64_t, std::shared_ptr<Buffer>> buffers;
  auto it = buffers.find(uid_);
  if (it == buffers.end()) {
    auto buffer = std::make_shared<Buffer>();
    {
      std::lock_guard<std::mutex> lock(mu_);
      buffers_.push_back(buffer);
    }
    it = buffers.emplace(uid_, std::move(buffer)).first;
  }
  return *it->second;
}

void TraceRecorder::record(TraceEvent event) {
  if (!enabled()) return;
  if (event.tid == 0 && event.pid == kPidPipeline)
    event.tid = this_thread_id();
  Buffer& buffer = local_buffer();
  std::lock_guard<std::mutex> lock(buffer.mu);
  buffer.events.push_back(std::move(event));
}

void TraceRecorder::name_this_thread(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  lane_names_[{kPidPipeline, this_thread_id()}] = name;
}

void TraceRecorder::name_sim_lane(std::uint32_t tid, const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  lane_names_[{kPidSim, tid}] = name;
}

void TraceRecorder::clear() {
  std::vector<std::shared_ptr<Buffer>> buffers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    buffers = buffers_;
  }
  for (const auto& b : buffers) {
    std::lock_guard<std::mutex> lock(b->mu);
    b->events.clear();
  }
}

std::vector<TraceEvent> TraceRecorder::collect() const {
  std::vector<std::shared_ptr<Buffer>> buffers;
  std::map<std::pair<int, std::uint32_t>, std::string> lane_names;
  {
    std::lock_guard<std::mutex> lock(mu_);
    buffers = buffers_;
    lane_names = lane_names_;
  }
  std::vector<TraceEvent> events;
  for (const auto& [lane, name] : lane_names) {
    TraceEvent meta;
    meta.name = "thread_name";
    meta.cat = "__metadata";
    meta.ph = 'M';
    meta.pid = lane.first;
    meta.tid = lane.second;
    meta.args.push_back({"name", "\"" + json::escape(name) + "\""});
    events.push_back(std::move(meta));
  }
  for (int pid : {kPidPipeline, kPidSim}) {
    TraceEvent meta;
    meta.name = "process_name";
    meta.cat = "__metadata";
    meta.ph = 'M';
    meta.pid = pid;
    meta.args.push_back(
        {"name", pid == kPidPipeline
                     ? "\"synthesis pipeline (wall clock, us)\""
                     : "\"rtos simulator (cycles)\""});
    events.push_back(std::move(meta));
  }
  const size_t header = events.size();
  for (const auto& b : buffers) {
    std::lock_guard<std::mutex> lock(b->mu);
    events.insert(events.end(), b->events.begin(), b->events.end());
  }
  std::stable_sort(events.begin() + static_cast<std::ptrdiff_t>(header),
                   events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     if (a.pid != b.pid) return a.pid < b.pid;
                     return a.ts < b.ts;
                   });
  return events;
}

void TraceRecorder::write_chrome_json(std::ostream& os) const {
  const std::vector<TraceEvent> events = collect();
  os << "{\n\"traceEvents\": [";
  bool first = true;
  for (const TraceEvent& e : events) {
    os << (first ? "" : ",") << "\n{\"name\":\"" << json::escape(e.name)
       << "\",\"cat\":\"" << json::escape(e.cat) << "\",\"ph\":\"" << e.ph
       << "\",\"ts\":" << e.ts;
    if (e.ph == 'X') os << ",\"dur\":" << e.dur;
    if (e.ph == 'i') os << ",\"s\":\"t\"";
    os << ",\"pid\":" << e.pid << ",\"tid\":" << e.tid;
    if (!e.args.empty()) {
      os << ",\"args\":{";
      for (size_t i = 0; i < e.args.size(); ++i)
        os << (i == 0 ? "" : ",") << "\"" << json::escape(e.args[i].key)
           << "\":" << e.args[i].value;
      os << "}";
    }
    os << "}";
    first = false;
  }
  os << "\n],\n\"displayTimeUnit\": \"ms\"\n}\n";
}

std::map<std::string, double> TraceRecorder::span_totals_ms(int pid) const {
  std::map<std::string, double> totals;
  for (const TraceEvent& e : collect()) {
    if (e.ph != 'X' || e.pid != pid) continue;
    totals[e.name] += static_cast<double>(e.dur) / 1000.0;
  }
  return totals;
}

// --- Span ---------------------------------------------------------------------

Span::Span(TraceRecorder& recorder, const char* name, const char* cat) {
  if (!recorder.enabled()) return;
  recorder_ = &recorder;
  event_.name = name;
  event_.cat = cat;
  start_ = now_us();
}

Span::Span(TraceRecorder& recorder, std::string name, const char* cat) {
  if (!recorder.enabled()) return;
  recorder_ = &recorder;
  event_.name = std::move(name);
  event_.cat = cat;
  start_ = now_us();
}

Span::~Span() {
  if (recorder_ == nullptr) return;
  const std::int64_t end = now_us();
  const std::int64_t dur = end - start_;
  if (dur < recorder_->min_span_us()) return;
  event_.ph = 'X';
  event_.ts = start_;
  event_.dur = dur;
  event_.pid = kPidPipeline;
  recorder_->record(std::move(event_));
}

void Span::arg(const char* key, std::int64_t value) {
  if (recorder_ == nullptr) return;
  event_.args.push_back({key, std::to_string(value)});
}

void Span::arg(const char* key, std::uint64_t value) {
  if (recorder_ == nullptr) return;
  event_.args.push_back({key, std::to_string(value)});
}

void Span::arg(const char* key, double value) {
  if (recorder_ == nullptr) return;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  event_.args.push_back({key, buf});
}

void Span::arg(const char* key, bool value) {
  if (recorder_ == nullptr) return;
  event_.args.push_back({key, value ? "true" : "false"});
}

void Span::arg(const char* key, const std::string& value) {
  if (recorder_ == nullptr) return;
  event_.args.push_back({key, "\"" + json::escape(value) + "\""});
}

void Span::arg(const char* key, const char* value) {
  arg(key, std::string(value));
}

// --- Free helpers --------------------------------------------------------------

void trace_instant(std::string name, const char* cat) {
  TraceRecorder& recorder = TraceRecorder::global();
  if (!recorder.enabled()) return;
  TraceEvent e;
  e.name = std::move(name);
  e.cat = cat;
  e.ph = 'i';
  e.ts = now_us();
  recorder.record(std::move(e));
}

}  // namespace polis::obs
