#include "src/telemetry/trace_event.h"

#include <sstream>

#include "src/telemetry/json.h"

namespace ngx {

void Tracer::Complete(std::string name, int tid, std::uint64_t ts, std::uint64_t dur) {
  if (Admit()) {
    events_.push_back(Event{Phase::kComplete, tid, ts, dur, 0, std::move(name)});
  }
}

void Tracer::Instant(std::string name, int tid, std::uint64_t ts) {
  if (Admit()) {
    events_.push_back(Event{Phase::kInstant, tid, ts, 0, 0, std::move(name)});
  }
}

void Tracer::Counter(std::string name, std::uint64_t ts, std::uint64_t value) {
  if (Admit()) {
    events_.push_back(Event{Phase::kCounter, 0, ts, 0, value, std::move(name)});
  }
}

void Tracer::Clear() {
  events_.clear();
  dropped_ = 0;
}

void Tracer::WriteChromeTrace(std::ostream& os) const {
  os << "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"clock\":\"simulated cycles\","
     << "\"dropped_events\":" << dropped_ << "},\"traceEvents\":[";
  bool first = true;
  const auto sep = [&] {
    if (!first) {
      os << ",";
    }
    first = false;
    os << "\n";
  };
  sep();
  os << R"({"name":"process_name","ph":"M","pid":0,"tid":0,"args":{"name":"ngx-sim"}})";
  for (const auto& [tid, name] : track_names_) {
    sep();
    os << R"({"name":"thread_name","ph":"M","pid":0,"tid":)" << tid
       << R"(,"args":{"name":")" << JsonEscape(name) << "\"}}";
  }
  for (const Event& e : events_) {
    sep();
    os << "{\"name\":\"" << JsonEscape(e.name) << "\",\"cat\":\"sim\",\"ph\":\""
       << static_cast<char>(e.phase) << "\",\"pid\":0,\"tid\":" << e.tid << ",\"ts\":" << e.ts;
    switch (e.phase) {
      case Phase::kComplete:
        os << ",\"dur\":" << e.dur;
        break;
      case Phase::kInstant:
        os << ",\"s\":\"t\"";
        break;
      case Phase::kCounter:
        os << ",\"args\":{\"value\":" << e.value << "}";
        break;
    }
    os << "}";
  }
  os << "\n]}\n";
}

std::string Tracer::ToChromeTraceJson() const {
  std::ostringstream os;
  WriteChromeTrace(os);
  return os.str();
}

}  // namespace ngx
