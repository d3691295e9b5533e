// Span / instant / counter event tracing with per-core tracks, exported as
// Chrome trace_event JSON (load the file in chrome://tracing or Perfetto).
//
// Timestamps are simulated cycles, written into the `ts`/`dur` microsecond
// fields verbatim -- the viewer's time axis reads as cycles. Events are
// buffered host-side up to a cap; once full, further events are dropped and
// counted, never blocking or perturbing the simulation.
#ifndef NGX_SRC_TELEMETRY_TRACE_EVENT_H_
#define NGX_SRC_TELEMETRY_TRACE_EVENT_H_

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace ngx {

class Tracer {
 public:
  static constexpr std::uint64_t kDefaultMaxEvents = 200000;

  explicit Tracer(std::uint64_t max_events = kDefaultMaxEvents) : max_events_(max_events) {}

  void set_max_events(std::uint64_t n) { max_events_ = n; }

  // Complete span ("ph":"X") on track `tid` covering [ts, ts+dur).
  void Complete(std::string name, int tid, std::uint64_t ts, std::uint64_t dur);
  // Instant event ("ph":"i") on track `tid`.
  void Instant(std::string name, int tid, std::uint64_t ts);
  // Counter sample ("ph":"C"): the viewer draws one time series per name.
  void Counter(std::string name, std::uint64_t ts, std::uint64_t value);
  // Names track `tid` in the viewer (emitted as thread_name metadata).
  void SetTrackName(int tid, std::string name) { track_names_[tid] = std::move(name); }

  enum class Phase : char { kComplete = 'X', kInstant = 'i', kCounter = 'C' };

  struct Event {
    Phase phase;
    int tid;
    std::uint64_t ts;
    std::uint64_t dur;    // kComplete only
    std::uint64_t value;  // kCounter only
    std::string name;
  };

  std::size_t size() const { return events_.size(); }
  const std::vector<Event>& events() const { return events_; }
  std::uint64_t dropped() const { return dropped_; }
  void Clear();

  // Writes the full {"traceEvents": [...]} document.
  void WriteChromeTrace(std::ostream& os) const;
  std::string ToChromeTraceJson() const;

 private:
  bool Admit() {
    if (events_.size() >= max_events_) {
      ++dropped_;
      return false;
    }
    return true;
  }

  std::uint64_t max_events_;
  std::uint64_t dropped_ = 0;
  std::vector<Event> events_;
  std::map<int, std::string> track_names_;
};

}  // namespace ngx

#endif  // NGX_SRC_TELEMETRY_TRACE_EVENT_H_
