// Schema validator for the observability exports (`polisc --trace` /
// `--metrics`), run from ctest and the CI obs-smoke job right after a polisc
// invocation. Uses the layer's own strict JSON reader, so a file that loads
// here also loads in Perfetto / chrome://tracing (trace) and in any JSON
// consumer (metrics). `obs_check --help` lists the options.
//
// A series file is a streaming JSONL export (`polisc --metrics-out`): every
// line must be a standalone JSON object with integral epoch/ts, a known
// clock, and well-formed counter/gauge/histogram-summary maps; epochs must
// count up per clock. A Prometheus text exposition is validated line by
// line (TYPE comments, name charset, numeric values).
//
// Exit status 0 when every file parses and every requirement holds; 1 with
// one diagnostic per failure on stderr otherwise.
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "cli.hpp"
#include "obs/json.hpp"

namespace {

using polis::obs::json::Value;

int failures = 0;

void fail(const std::string& what) {
  std::cerr << "obs_check: " << what << "\n";
  ++failures;
}

std::string slurp(const std::string& path) {
  std::ifstream is(path);
  if (!is) {
    fail("cannot open " + path);
    return "";
  }
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

struct Event {
  std::string name;
  std::string ph;
  int pid = 0;
  std::int64_t tid = 0;
  std::int64_t ts = 0;
  std::int64_t dur = 0;
};

// --- Trace ------------------------------------------------------------------

std::vector<Event> check_trace_shape(const Value& doc) {
  std::vector<Event> events;
  if (!doc.is_object()) {
    fail("trace: top level is not an object");
    return events;
  }
  const Value* list = doc.find("traceEvents");
  if (list == nullptr || !list->is_array()) {
    fail("trace: missing traceEvents array");
    return events;
  }
  for (size_t i = 0; i < list->array.size(); ++i) {
    const Value& e = list->array[i];
    const std::string at = "trace: event #" + std::to_string(i);
    if (!e.is_object()) {
      fail(at + " is not an object");
      continue;
    }
    Event out;
    const Value* name = e.find("name");
    const Value* ph = e.find("ph");
    const Value* pid = e.find("pid");
    const Value* tid = e.find("tid");
    if (name == nullptr || !name->is_string()) fail(at + ": bad name");
    else out.name = name->str;
    if (pid == nullptr || !pid->is_number()) fail(at + ": bad pid");
    else out.pid = static_cast<int>(pid->number);
    if (tid == nullptr || !tid->is_number()) fail(at + ": bad tid");
    else out.tid = static_cast<std::int64_t>(tid->number);
    if (ph == nullptr || !ph->is_string() ||
        (ph->str != "X" && ph->str != "i" && ph->str != "M" &&
         ph->str != "C")) {
      fail(at + ": ph must be one of X/i/M/C");
      continue;
    }
    out.ph = ph->str;
    if (out.ph == "X" || out.ph == "i" || out.ph == "C") {
      const Value* ts = e.find("ts");
      if (ts == nullptr || !ts->is_number() || ts->number < 0)
        fail(at + ": X/i/C event needs a non-negative ts");
      else
        out.ts = static_cast<std::int64_t>(ts->number);
    }
    if (out.ph == "C" && e.find("args") == nullptr)
      fail(at + ": C event needs a counter value in args");
    if (out.ph == "X") {
      const Value* dur = e.find("dur");
      if (dur == nullptr || !dur->is_number() || dur->number < 0)
        fail(at + ": X event needs a non-negative dur");
      else
        out.dur = static_cast<std::int64_t>(dur->number);
    }
    events.push_back(std::move(out));
  }
  return events;
}

void require_span(const std::vector<Event>& events, const std::string& name) {
  for (const Event& e : events)
    if (e.ph == "X" && e.name == name) return;
  fail("trace: required span \"" + name + "\" not found");
}

// At least one span strictly inside another on the same lane — the signature
// of a stage breakdown rather than a flat event list.
void require_nested(const std::vector<Event>& events) {
  for (const Event& outer : events) {
    if (outer.ph != "X") continue;
    for (const Event& inner : events) {
      if (&inner == &outer || inner.ph != "X") continue;
      if (inner.pid == outer.pid && inner.tid == outer.tid &&
          inner.ts >= outer.ts &&
          inner.ts + inner.dur <= outer.ts + outer.dur &&
          inner.dur < outer.dur)
        return;
    }
  }
  fail("trace: no nested spans found");
}

// Simulated-cycle lanes (pid 2): at least one task span plus lane naming.
void require_sim_lanes(const std::vector<Event>& events) {
  bool span = false;
  bool named = false;
  for (const Event& e : events) {
    if (e.pid != 2) continue;
    if (e.ph == "X") span = true;
    if (e.ph == "M" && e.name == "thread_name") named = true;
  }
  if (!span) fail("trace: no spans on the simulated-cycle lanes (pid 2)");
  if (!named) fail("trace: simulated-cycle lanes are unnamed");
}

// --- Metrics ----------------------------------------------------------------

const Value* check_metrics_shape(const Value& doc) {
  if (!doc.is_object()) {
    fail("metrics: top level is not an object");
    return nullptr;
  }
  for (const char* section : {"counters", "gauges", "histograms", "derived"}) {
    const Value* v = doc.find(section);
    if (v == nullptr || !v->is_object())
      fail(std::string("metrics: missing \"") + section + "\" object");
  }
  const Value* counters = doc.find("counters");
  if (counters != nullptr && counters->is_object()) {
    for (const auto& [name, v] : counters->object)
      if (!v.is_number() || v.number < 0)
        fail("metrics: counter \"" + name + "\" is not a non-negative number");
  }
  const Value* hists = doc.find("histograms");
  if (hists != nullptr && hists->is_object()) {
    for (const auto& [name, h] : hists->object) {
      const std::string at = "metrics: histogram \"" + name + "\"";
      if (!h.is_object() || h.find("count") == nullptr ||
          h.find("sum") == nullptr) {
        fail(at + " lacks count/sum");
        continue;
      }
      const Value* buckets = h.find("buckets");
      if (buckets == nullptr || !buckets->is_array()) {
        fail(at + " lacks a buckets array");
        continue;
      }
      for (const Value& triple : buckets->array) {
        if (!triple.is_array() || triple.array.size() != 3 ||
            triple.array[0].number > triple.array[1].number ||
            triple.array[2].number <= 0)
          fail(at + " has a malformed [lo, hi, n] bucket");
      }
    }
  }
  return &doc;
}

void require_metric(const Value& doc, const std::string& name) {
  for (const char* section :
       {"counters", "gauges", "histograms", "derived", "quantiles", "phases"}) {
    const Value* s = doc.find(section);
    if (s != nullptr && s->is_object() && s->find(name) != nullptr) return;
  }
  fail("metrics: required metric \"" + name + "\" not found");
}

// --- Streaming series (JSONL) ------------------------------------------------

bool is_integer(const Value& v) {
  return v.is_number() && v.number == static_cast<double>(
                              static_cast<long long>(v.number));
}

// Validates one JSONL file; returns epochs seen per clock name.
std::map<std::string, std::int64_t> check_series(const std::string& path) {
  std::map<std::string, std::int64_t> per_clock;
  std::ifstream is(path);
  if (!is) {
    fail("cannot open " + path);
    return per_clock;
  }
  std::map<std::string, std::int64_t> last_epoch;
  std::string line;
  size_t lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    if (line.empty()) continue;
    const std::string at = "series: " + path + ":" + std::to_string(lineno);
    Value doc;
    try {
      doc = polis::obs::json::parse(line);
    } catch (const polis::obs::json::ParseError& e) {
      fail(at + ": " + e.what());
      continue;
    }
    if (!doc.is_object()) {
      fail(at + ": line is not an object");
      continue;
    }
    const Value* epoch = doc.find("epoch");
    const Value* clock = doc.find("clock");
    const Value* ts = doc.find("ts");
    if (epoch == nullptr || !is_integer(*epoch) || epoch->number < 0) {
      fail(at + ": bad epoch");
      continue;
    }
    if (clock == nullptr || !clock->is_string() ||
        (clock->str != "wall" && clock->str != "cycles" &&
         clock->str != "layer")) {
      fail(at + ": clock must be wall/cycles/layer");
      continue;
    }
    if (ts == nullptr || !is_integer(*ts)) fail(at + ": bad ts");
    // Epochs must count up within each clock (ring eviction never reorders
    // the stream; a re-baseline restarts at 0).
    const auto it = last_epoch.find(clock->str);
    const std::int64_t e = static_cast<std::int64_t>(epoch->number);
    if (it != last_epoch.end() && e != it->second + 1 && e != 0)
      fail(at + ": epoch " + std::to_string(e) + " does not follow " +
           std::to_string(it->second));
    last_epoch[clock->str] = e;
    per_clock[clock->str]++;
    const Value* counters = doc.find("counters");
    if (counters == nullptr || !counters->is_object()) {
      fail(at + ": missing counters object");
    } else {
      for (const auto& [name, v] : counters->object)
        if (!is_integer(v) || v.number < 0)
          fail(at + ": counter \"" + name + "\" is not a non-negative int");
    }
    const Value* gauges = doc.find("gauges");
    if (gauges == nullptr || !gauges->is_object()) {
      fail(at + ": missing gauges object");
    } else {
      for (const auto& [name, v] : gauges->object)
        if (!is_integer(v)) fail(at + ": gauge \"" + name + "\" is not an int");
    }
    const Value* hists = doc.find("histograms");
    if (hists == nullptr || !hists->is_object()) {
      fail(at + ": missing histograms object");
    } else {
      for (const auto& [name, h] : hists->object) {
        if (!h.is_object()) {
          fail(at + ": histogram \"" + name + "\" is not an object");
          continue;
        }
        for (const char* field : {"count", "sum", "p50", "p90", "p99"}) {
          const Value* f = h.find(field);
          if (f == nullptr || !is_integer(*f) || f->number < 0)
            fail(at + ": histogram \"" + name + "\" lacks integral " + field);
        }
        const Value* p50 = h.find("p50");
        const Value* p99 = h.find("p99");
        if (p50 != nullptr && p99 != nullptr && p50->number > p99->number)
          fail(at + ": histogram \"" + name + "\" has p50 > p99");
      }
    }
  }
  return per_clock;
}

// --- Prometheus text exposition ----------------------------------------------

bool prom_name_ok(const std::string& s) {
  if (s.empty()) return false;
  for (size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    const bool alpha = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                       c == '_' || c == ':';
    if (i == 0 ? !alpha : !(alpha || (c >= '0' && c <= '9'))) return false;
  }
  return true;
}

bool number_ok(const std::string& s) {
  if (s.empty()) return false;
  char* end = nullptr;
  errno = 0;
  (void)std::strtod(s.c_str(), &end);
  return errno != ERANGE && end == s.c_str() + s.size();
}

void check_prometheus(const std::string& path) {
  std::ifstream is(path);
  if (!is) {
    fail("cannot open " + path);
    return;
  }
  std::string line;
  size_t lineno = 0;
  size_t samples = 0;
  while (std::getline(is, line)) {
    ++lineno;
    const std::string at = "prom: " + path + ":" + std::to_string(lineno);
    if (line.empty()) continue;
    if (line[0] == '#') {
      // Only "# TYPE <name> <counter|gauge|summary|histogram|untyped>" and
      // "# HELP <name> <text>" comments are meaningful.
      std::istringstream ls(line);
      std::string hash, kind, name, rest;
      ls >> hash >> kind >> name;
      if (kind == "TYPE") {
        ls >> rest;
        if (!prom_name_ok(name)) fail(at + ": bad metric name in TYPE");
        if (rest != "counter" && rest != "gauge" && rest != "summary" &&
            rest != "histogram" && rest != "untyped")
          fail(at + ": unknown TYPE \"" + rest + "\"");
      }
      continue;
    }
    // Sample line: name[{labels}] value [timestamp]
    const size_t sp = line.find(' ');
    if (sp == std::string::npos) {
      fail(at + ": no value on sample line");
      continue;
    }
    std::string name = line.substr(0, sp);
    const size_t brace = name.find('{');
    if (brace != std::string::npos) {
      if (name.back() != '}') {
        fail(at + ": unterminated label set");
        continue;
      }
      name = name.substr(0, brace);
    }
    if (!prom_name_ok(name)) {
      fail(at + ": bad metric name \"" + name + "\"");
      continue;
    }
    const std::string value = line.substr(sp + 1);
    if (!number_ok(value.substr(0, value.find(' '))))
      fail(at + ": bad sample value \"" + value + "\"");
    ++samples;
  }
  if (samples == 0) fail("prom: " + path + " contains no samples");
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_file, metrics_file, series_file, prom_file;
  std::vector<std::string> spans, metrics;
  bool want_nested = false, want_sim_lanes = false;
  std::int64_t require_epochs = 0;
  std::string require_clock;
  namespace cli = polis::cli;
  cli::parse("obs_check", {
      cli::text("--trace", &trace_file, "FILE", "check a Chrome trace"),
      cli::texts("--require-span", &spans, "NAME", "trace has span NAME"),
      cli::flag("--require-nested", &want_nested, "trace has nested spans"),
      cli::flag("--require-sim-lanes", &want_sim_lanes,
                "trace has simulated-cycle lanes"),
      cli::text("--metrics", &metrics_file, "FILE", "check a JSON snapshot"),
      cli::texts("--require-metric", &metrics, "NAME",
                 "snapshot has metric NAME"),
      cli::text("--series", &series_file, "FILE", "check a JSONL series"),
      cli::count("--require-epochs", &require_epochs, 0,
                 std::numeric_limits<std::int64_t>::max(), "N",
                 "series has >= N epochs"),
      cli::text("--require-clock", &require_clock, "NAME",
                "count (and require) epochs on clock NAME"),
      cli::text("--prom", &prom_file, "FILE", "check a Prometheus exposition"),
  }, argc, argv);
  if (trace_file.empty() && metrics_file.empty() && series_file.empty() &&
      prom_file.empty())
    cli::usage_error("obs_check", "nothing to check");

  if (!trace_file.empty()) {
    const std::string text = slurp(trace_file);
    if (!text.empty()) {
      try {
        const Value doc = polis::obs::json::parse(text);
        const std::vector<Event> events = check_trace_shape(doc);
        for (const std::string& s : spans) require_span(events, s);
        if (want_nested) require_nested(events);
        if (want_sim_lanes) require_sim_lanes(events);
        std::cout << "obs_check: " << trace_file << ": " << events.size()
                  << " events ok\n";
      } catch (const polis::obs::json::ParseError& e) {
        fail("trace: " + std::string(e.what()));
      }
    }
  }
  if (!metrics_file.empty()) {
    const std::string text = slurp(metrics_file);
    if (!text.empty()) {
      try {
        const Value doc = polis::obs::json::parse(text);
        if (check_metrics_shape(doc) != nullptr)
          for (const std::string& m : metrics) require_metric(doc, m);
        std::cout << "obs_check: " << metrics_file << ": ok\n";
      } catch (const polis::obs::json::ParseError& e) {
        fail("metrics: " + std::string(e.what()));
      }
    }
  }
  if (!series_file.empty()) {
    const std::map<std::string, std::int64_t> per_clock =
        check_series(series_file);
    std::int64_t total = 0;
    for (const auto& [clock, n] : per_clock) total += n;
    if (!require_clock.empty() && per_clock.count(require_clock) == 0)
      fail("series: no epochs on the \"" + require_clock + "\" clock");
    const std::int64_t counted = require_clock.empty()
                                     ? total
                                     : (per_clock.count(require_clock)
                                            ? per_clock.at(require_clock)
                                            : 0);
    if (require_epochs > 0 && counted < require_epochs)
      fail("series: " + std::to_string(counted) + " epochs < required " +
           std::to_string(require_epochs));
    if (failures == 0)
      std::cout << "obs_check: " << series_file << ": " << total
                << " epochs ok\n";
  }
  if (!prom_file.empty()) {
    check_prometheus(prom_file);
    if (failures == 0)
      std::cout << "obs_check: " << prom_file << ": ok\n";
  }
  return failures == 0 ? 0 : 1;
}
